"""Per-layer attribution of the sizing flow, wrapped from outside the package.

:class:`LayerProfiler` replaces the public entry points of each layer of
``repro`` (class methods and module functions) with thin timing wrappers,
and puts the originals back on :meth:`LayerProfiler.uninstall`.  Nothing in
``src/`` knows it is being measured, so a traced run executes exactly the
same code as an untraced one plus the wrappers.

Each wrapped call adds one to its key's ``calls`` and its duration to the
key's inclusive time.  Self time is the inclusive time minus the time spent
in nested wrapped calls.  A call whose immediate wrapped caller has the
same key (``candidate_size_cost_components`` calling
``subcircuit_cost_components``, for instance) folds into that caller and is
not counted again.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Tuple

#: (key, module, owner, attribute).  ``owner`` is a class name in ``module``,
#: or ``None`` for a module-level function.  Functions that other modules
#: import by name are listed once per namespace that calls them.
ENTRY_POINTS: Tuple[Tuple[str, str, Any, str], ...] = (
    ("flow", "repro.flow", None, "run_sizing_flow"),
    ("circuits.build", "repro.circuits.registry", None, "build_benchmark"),
    ("netlist.elaborate", "repro.netlist.elaborate", None, "elaborate"),
    ("netlist.elaborate", "repro.circuits.synthetic", None, "elaborate"),
    ("ir.compiled", "repro.netlist.circuit", "Circuit", "compiled"),
    ("verify.preflight", "repro.verify.preflight", None, "preflight_circuit"),
    ("core.baseline.optimize", "repro.core.baseline", "MeanDelaySizer", "optimize"),
    ("sta.dsta.arrival_times", "repro.sta.dsta", "DeterministicSTA", "arrival_times"),
    ("core.subcircuit.extract", "repro.core.subcircuit", None, "extract_subcircuit"),
    ("core.subcircuit.extract", "repro.core.baseline", None, "extract_subcircuit"),
    ("core.cost.candidate", "repro.core.cost", "CostEvaluator",
     "candidate_size_cost_components"),
    ("core.cost.candidate", "repro.core.cost", "CostEvaluator",
     "subcircuit_cost_components"),
    ("core.cost.sweep", "repro.core.cost", "CostEvaluator", "size_sweep_components"),
    ("core.sizer.optimize", "repro.core.sizer", "StatisticalGreedySizer", "optimize"),
    ("core.wnss.trace", "repro.core.wnss", "WNSSTracer", "trace"),
    ("core.fullssta.analyze", "repro.core.fullssta", "FULLSSTA", "analyze"),
    ("core.fullssta.incremental", "repro.core.fullssta", "IncrementalReanalysis",
     "analyze"),
    ("core.fullssta.preview", "repro.core.fullssta", "IncrementalReanalysis",
     "preview"),
    ("core.fullssta.commit_preview", "repro.core.fullssta", "IncrementalReanalysis",
     "commit_preview"),
    ("core.discrete_pdf.scalar_ops", "repro.core.discrete_pdf", "DiscretePDF",
     "maximum"),
    ("core.discrete_pdf.scalar_ops", "repro.core.discrete_pdf", "DiscretePDF", "add"),
    ("core.discrete_pdf.batched_combine", "repro.core.discrete_pdf", None,
     "batched_combine"),
    ("core.discrete_pdf.batched_combine", "repro.core.fullssta", None,
     "batched_combine"),
    ("core.fassta.gate_delay_rv", "repro.core.fassta", "FASSTA", "gate_delay_rv"),
    ("library.delay_model", "repro.library.delay_model", "LookupTableDelayModel",
     "gate_delay"),
    ("library.delay_model", "repro.library.delay_model", "LookupTableDelayModel",
     "gate_delay_at_size"),
    ("variation.model.gate_distribution", "repro.variation.model", "VariationModel",
     "gate_distribution"),
    ("montecarlo.run", "repro.montecarlo.mc", "MonteCarloTimer", "run"),
)

#: Keys whose self time is the optimizer's own bookkeeping rather than a
#: leaf layer; excluded from the leaf coverage of the traced flow.
ROOT_KEYS = ("flow", "core.baseline.optimize", "core.sizer.optimize")


class LayerStats:
    """Calls, inclusive seconds and self seconds of one key."""

    __slots__ = ("calls", "inclusive_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0

    def copy(self) -> "LayerStats":
        other = LayerStats()
        other.calls, other.inclusive_s, other.self_s = (
            self.calls, self.inclusive_s, self.self_s
        )
        return other


class LayerProfiler:
    """Wraps the layer entry points; use as a context manager."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        #: ``commit_preview()`` calls that returned True.
        self.commits_accepted = 0
        self._stack: List[List[Any]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerProfiler":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def snapshot(self) -> Dict[str, LayerStats]:
        return {key: stats.copy() for key, stats in self.stats.items()}

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("profiler already installed")
        for key, module_name, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            # Keep the raw descriptor (staticmethod etc.) so uninstall
            # restores the attribute exactly as it was.
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            fn = getattr(owner, attr)
            if key == "core.fullssta.commit_preview":
                fn = self._count_accepted(fn)
            setattr(owner, attr, self._wrap(key, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    # ------------------------------------------------------------------
    def _count_accepted(self, fn: Callable[..., bool]) -> Callable[..., bool]:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> bool:
            accepted = fn(*args, **kwargs)
            if accepted:
                self.commits_accepted += 1
            return accepted

        return counted

    def _wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stats = self.stats.setdefault(key, LayerStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper


def window(
    before: Dict[str, LayerStats], after: Dict[str, LayerStats]
) -> Dict[str, LayerStats]:
    """Per-key difference ``after - before`` (what happened in between)."""
    out: Dict[str, LayerStats] = {}
    for key, end in after.items():
        start = before.get(key, LayerStats())
        diff = LayerStats()
        diff.calls = end.calls - start.calls
        diff.inclusive_s = end.inclusive_s - start.inclusive_s
        diff.self_s = end.self_s - start.self_s
        out[key] = diff
    return out
