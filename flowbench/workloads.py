"""Workloads of the flow benchmark: set-up, the timed flow and its checks.

Every workload runs the paper's flow through ``repro.flow.run_sizing_flow``
at lambda = 3 with the default ``SizerConfig``, library and variation
model.  NOTES.md records why each workload was chosen.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.circuits.registry
import repro.flow
from repro.core.baseline import MeanDelaySizer
from repro.core.fullssta import FULLSSTA
from repro.core.sizer import SizerConfig
from repro.library.cell import Library
from repro.library.delay_model import LookupTableDelayModel
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.montecarlo.mc import MonteCarloTimer
from repro.netlist.circuit import Circuit
from repro.variation.model import VariationModel
from speed import SpeedProbe, speed_factor, timed_slice

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

LAM = 3.0
TARGET_YIELD = 0.99
#: Samples of the accuracy Monte-Carlo run on the cost workloads, drawn in
#: chunks so c7552's (gates x samples) delay matrix stays near 60 MB.
MC_SAMPLES = 20000
MC_CHUNK = 4000
#: FULLSSTA sigma sits 30-60 % below Monte-Carlo sigma on these designs (a
#: known limitation of the independent discrete-pdf max, see NOTES.md).
#: The tolerance only catches a gross accuracy loss beyond that.
MC_SIGMA_TOL_PCT = 75.0
#: Default generator seed of gen500_yield_mc; seed 3 is held out for
#: validating later claims (``--circuit-seed 3``).
DEFAULT_CIRCUIT_SEED = 17


@dataclass(frozen=True)
class Workload:
    name: str
    circuit: str
    objective: str
    flow_mc_samples: int

    @property
    def generated(self) -> bool:
        return self.circuit.startswith("gen:")

    def circuit_name(self, circuit_seed: int) -> str:
        return f"{self.circuit},seed={circuit_seed}" if self.generated else self.circuit

    def fingerprint_key(self, circuit_seed: int) -> str:
        return f"{self.name}@seed={circuit_seed}" if self.generated else self.name

    def sizer_config(self) -> SizerConfig:
        if self.objective == "yield":
            return SizerConfig(lam=LAM, objective="yield", target_yield=TARGET_YIELD)
        return SizerConfig(lam=LAM)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("c1355_cost", "c1355", "cost", 0),
        Workload("c7552_cost", "c7552", "cost", 0),
        Workload("gen500_yield_mc", "gen:depth=10,width=50", "yield", 20000),
    )
}


@dataclass
class Setup:
    library: Library
    delay_model: LookupTableDelayModel
    variation_model: VariationModel
    circuit: Circuit


def set_up(workload: Workload, circuit_seed: int) -> Tuple[Setup, float]:
    """Library, delay model, circuit build and lowering; returns (setup, seconds)."""
    gc.collect()
    start = time.perf_counter()
    library = make_synthetic_90nm_library()
    delay_model = LookupTableDelayModel(library)
    variation_model = VariationModel()
    circuit = repro.circuits.registry.build_benchmark(workload.circuit_name(circuit_seed))
    circuit.compiled()
    return Setup(library, delay_model, variation_model, circuit), time.perf_counter() - start


def timed_setups(
    workload: Workload, circuit_seed: int, reps: int, min_seconds: float
) -> Tuple[Setup, float]:
    """Repeat set-up ``reps`` times and for ``min_seconds`` at least.

    Returns the last set-up and the median normalized time.  A set-up takes
    5-30 ms, shorter than the speed probe's sampling, so each one is
    normalized by the calibration slices timed right before and after it.
    """
    times: List[float] = []
    before = timed_slice()
    start = time.perf_counter()
    while len(times) < reps or time.perf_counter() - start < min_seconds:
        setup, elapsed = set_up(workload, circuit_seed)
        after = timed_slice()
        times.append(elapsed * speed_factor((before, after)))
        before = after
    return setup, statistics.median(times)


# ----------------------------------------------------------------------
# The timed flow
# ----------------------------------------------------------------------
class _BaselineSizes:
    """Records the size vector the mean-delay baseline hands to the sizer.

    ``FlowResult`` keeps only the final sizes, so the baseline's are taken
    from the return of ``MeanDelaySizer.optimize`` (one dict copy per flow).
    """

    def __init__(self) -> None:
        self.sizes: Optional[Dict[str, int]] = None
        self._original: Any = None

    def __enter__(self) -> "_BaselineSizes":
        self._original = MeanDelaySizer.__dict__["optimize"]
        inner = MeanDelaySizer.optimize

        def optimize(sizer: MeanDelaySizer, circuit: Circuit) -> Any:
            result = inner(sizer, circuit)
            self.sizes = circuit.sizes()
            return result

        MeanDelaySizer.optimize = optimize  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        MeanDelaySizer.optimize = self._original  # type: ignore[method-assign]


@dataclass
class FlowRun:
    result: Any  # repro.flow.FlowResult
    #: Wall-clock at the probe's reference speed (see speed.py).
    seconds: float
    wall_s: float
    #: Multiply a time measured during this flow by it to normalize it.
    speed_factor: float
    baseline_sizes: Dict[str, int]


def run_flow(workload: Workload, setup: Setup, seed: int) -> FlowRun:
    """One timed ``run_sizing_flow`` on ``setup.circuit`` (sized in place)."""
    gc.collect()
    with _BaselineSizes() as baseline, SpeedProbe() as probe:
        start = time.perf_counter()
        result = repro.flow.run_sizing_flow(
            setup.circuit,
            lam=LAM,
            library=setup.library,
            delay_model=setup.delay_model,
            variation_model=setup.variation_model,
            sizer_config=workload.sizer_config(),
            monte_carlo_samples=workload.flow_mc_samples,
            seed=seed,
        )
        wall_s = time.perf_counter() - start
    if baseline.sizes is None:
        raise RuntimeError("the flow did not run the mean-delay baseline")
    return FlowRun(
        result, probe.normalize(wall_s), wall_s, probe.factor, baseline.sizes
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _moment(x: float) -> str:
    return f"{x:.9f}"


def fingerprint(run: FlowRun) -> Dict[str, Any]:
    """The flow's sizing decisions, hashed (moments to 1e-9)."""
    result = run.result
    decisions = {
        "baseline_sizes": sorted(run.baseline_sizes.items()),
        "final_sizes": sorted(result.circuit.sizes().items()),
        "baseline_passes": result.baseline.passes,
        "sizer_iterations": len(result.sizer_result.iterations),
        "final_mean": _moment(result.final_rv.mean),
        "final_sigma": _moment(result.final_rv.sigma),
    }
    digest = hashlib.sha256(
        json.dumps(decisions, sort_keys=True).encode()
    ).hexdigest()
    return {
        "sha256": digest,
        "baseline_passes": decisions["baseline_passes"],
        "sizer_iterations": decisions["sizer_iterations"],
        "final_mean": decisions["final_mean"],
        "final_sigma": decisions["final_sigma"],
    }


def load_fingerprints() -> Dict[str, Dict[str, Any]]:
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text())


def bless(key: str, print_: Dict[str, Any]) -> None:
    """Record ``print_`` as the expected fingerprint of ``key``."""
    table = load_fingerprints()
    table[key] = print_
    FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def check_flow(
    workload: Workload,
    circuit_seed: int,
    run: FlowRun,
    expected: Optional[Dict[str, Any]],
) -> Tuple[Dict[str, Any], List[str]]:
    """Fingerprint and problems of one flow (an empty list means correct)."""
    result = run.result
    problems: List[str] = []
    print_ = fingerprint(run)
    if expected is None:
        problems.append("no recorded fingerprint (record one with --bless)")
    elif print_["sha256"] != expected["sha256"]:
        problems.append(
            f"decision fingerprint {print_} differs from the recorded {expected}"
        )

    # A fresh circuit at the final sizes, analysed from scratch: the flow's
    # final moments must match it, and so must the sizer's own incremental
    # state (a stale cache would show here).
    setup, _ = set_up(workload, circuit_seed)
    fresh = setup.circuit
    fresh.apply_sizes(result.circuit.sizes())
    config = workload.sizer_config()
    fresh_rv = FULLSSTA(
        setup.delay_model, setup.variation_model,
        num_samples=config.pdf_samples, vectorized=True,
    ).analyze(fresh).output_rv
    if (result.final_rv.mean, result.final_rv.sigma) != (fresh_rv.mean, fresh_rv.sigma):
        problems.append(
            f"flow final moments {result.final_rv} != fresh FULLSSTA {fresh_rv}"
        )
    sizer_final = result.sizer_result.final
    if not (
        _close(sizer_final.mean, fresh_rv.mean, 1e-9)
        and _close(sizer_final.sigma, fresh_rv.sigma, 1e-9)
    ):
        problems.append(
            f"sizer's incremental final moments {sizer_final} != fresh FULLSSTA {fresh_rv}"
        )
    area = sum(
        setup.library.area(gate.cell_type, gate.size_index)
        for gate in fresh.gates.values()
    )
    if not _close(result.final_area, area, 1e-12):
        problems.append(f"final_area {result.final_area} != library area {area}")
    for name, value in quality(result).items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
    return print_, problems


def quality(result: Any) -> Dict[str, float]:
    """The Table-1 columns and the yield-period gain of one flow."""
    return {
        "sigma_reduction_pct": result.sigma_reduction_pct,
        # mean_increase_pct is negative on the cost workloads; a bound is a
        # share of the median, so the benchmark reports the final mean as a
        # percentage of the original (mean_increase_pct + 100).
        "mean_ratio_pct": 100.0 * result.final_rv.mean / result.original_rv.mean,
        "area_increase_pct": result.area_increase_pct,
        "period_reduction_pct": result.yield_summary(TARGET_YIELD)["period_reduction_pct"],
    }


def mc_sigma_err_pct(setup: Setup, run: FlowRun, seed: int) -> float:
    """|sigma_FULLSSTA - sigma_MC| / sigma_MC of the final design, in percent.

    The yield workload reuses the flow's own ``mc_final``; the cost
    workloads draw ``MC_SAMPLES`` seeded samples of the final design here,
    outside any timed region.
    """
    result = run.result
    if result.mc_final is not None:
        mc_sigma = result.mc_final.sigma
    else:
        timer = MonteCarloTimer(setup.delay_model, setup.variation_model)
        chunks = [
            timer.run(result.circuit, num_samples=MC_CHUNK, seed=seed * 1000 + i).samples
            for i in range(MC_SAMPLES // MC_CHUNK)
        ]
        mc_sigma = float(np.concatenate(chunks).std(ddof=1))
    return 100.0 * abs(result.final_rv.sigma - mc_sigma) / mc_sigma
