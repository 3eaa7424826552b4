"""FULLSSTA — the accurate discrete-PDF statistical timing engine (paper §4.2).

The outer loop of the optimization runs this engine.  Every gate delay is
discretized into a small pdf (10-15 samples, following Liou et al. DAC 2001)
and arrival times are propagated as discrete pdfs, levelized over the
circuit's compiled IR: every net owns one padded sample row, and each logic
level folds its gates' input rows left to right with ``max`` and adds their
delay rows (:func:`fold_rows`).  The delay rows discretize the gate-delay
moments of the packed delay stage (:meth:`VariationModel.delay_moments
<repro.variation.model.VariationModel.delay_moments>`).  A run always times
the whole circuit, from zero-arrival primary inputs to the primary outputs,
so every row is ``num_samples`` wide.  The batched primitives
(:func:`~repro.core.discrete_pdf.batched_combine`) replay the
canonicalize/compact arithmetic of :class:`~repro.core.discrete_pdf.DiscretePDF`,
so every net's moments agree with a gate-by-gate pdf fold within 1e-9 ps
(``tests/core/test_fullssta_vectorized.py``).

Besides the output pdf, the engine records the mean and variance at *every*
node — the paper stores exactly these point values "for use in the fast
timing engine (FASSTA)" and the WNSS tracer consumes them too.

Gate delays are independent normals, and every ``max`` treats its inputs as
independent, so reconvergent fanout is not modelled; the paper leaves
correlation handling to "PCA or other methods" in the outer loop.

The engine has one propagation loop, :meth:`IncrementalReanalysis._sweep`.
:class:`IncrementalReanalysis` keeps the levelized state arrays of its last
run: after gate resizes it re-propagates only the transitive-fanout cone of
the changed gates (and of their fanin drivers, whose loads changed) and
reuses the committed rows everywhere else.  A full analysis is the same
sweep with every gate dirty, from the empty state, so
:meth:`FULLSSTA.analyze` is a fresh wrapper's first :meth:`analyze
<IncrementalReanalysis.analyze>`.  Previews stack many one-resize trials
into one sweep whose kernel rows are (trial, cone gate) pairs, each trial's
changed rows kept in an overlay.  A result's maps lay its trial's moved nets
over copies of the committed ones, each built on first read, and its output
max folds on from the committed running maxima before the first output the
trial moved.  Because the fold is row-independent and untouched nets keep
bitwise-identical rows, every incremental result equals a from-scratch
:meth:`FULLSSTA.analyze` bit for bit — a pure wall-clock optimization, which
is what makes nesting FULLSSTA inside a sizing loop affordable at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TypeVar, overload)

import numpy as np

from repro.core.discrete_pdf import (
    DEFAULT_SAMPLES,
    DiscretePDF,
    batched_combine,
    batched_from_normal,
)
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.ir.compiled import CompiledCircuit
from repro.library.delay_model import BaseDelayModel, Trial
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.model import VariationModel

#: Padded ``(values, probabilities, counts)`` rows (see :mod:`repro.core.discrete_pdf`).
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: ``_sweep``'s arguments: trial count, each dirty row's trial and gate, their trial form.
_Trials = Tuple[int, np.ndarray, np.ndarray, Trial]
_V = TypeVar("_V")


@dataclass
class FullSstaResult:
    """Per-node pdfs and moments produced by one FULLSSTA run.

    The maps are read-only snapshots of the sizes the result was timed at;
    an incremental result builds each net its delta moved on first read.
    """

    arrival_pdfs: Mapping[str, DiscretePDF]
    arrival_moments: Mapping[str, NormalDelay]
    output_pdf: DiscretePDF
    output_rv: NormalDelay

    def arrival(self, net: str) -> NormalDelay:
        """Arrival moments at ``net`` (0 for primary inputs / unknown nets)."""
        return self.arrival_moments.get(net, ZERO_DELAY)

    def arrival_pdf(self, net: str) -> Optional[DiscretePDF]:
        return self.arrival_pdfs.get(net)

    @property
    def mean(self) -> float:
        return self.output_rv.mean

    @property
    def sigma(self) -> float:
        return self.output_rv.sigma


def _normal(pdf: DiscretePDF) -> NormalDelay:
    """``NormalDelay(pdf.mean(), pdf.std())`` bitwise, taking the mean once."""
    mu = pdf.mean()
    variance = float(np.dot((pdf.values - mu) ** 2, pdf.probabilities))
    return NormalDelay(mu, math.sqrt(max(variance, 0.0)))


def _pdf(values: np.ndarray, probs: np.ndarray, count: int) -> DiscretePDF:
    """The pdf of one padded row."""
    return DiscretePDF._from_canonical(values[:count].copy(), probs[:count].copy())


def _moments(pdfs: Mapping[str, DiscretePDF]) -> Dict[str, NormalDelay]:
    return {net: _normal(pdf) for net, pdf in pdfs.items()}


def _pdfs(nets: Sequence[str], rows: _Rows) -> Dict[str, DiscretePDF]:
    """Per-net pdfs of padded ``rows``, one row per net."""
    return {
        net: _pdf(values, probs, n)
        for net, values, probs, n in zip(nets, rows[0], rows[1], rows[2].tolist(), strict=True)
    }


class _Overlay(Mapping[str, _V]):
    """A copy ``base`` of a committed map with a delta's ``moved`` nets laid over it.

    The moved nets are keys of ``base``; each one's value is ``build(row)``,
    made when it is first read.
    """

    def __init__(self, base: Dict[str, _V], moved: Dict[str, int], build: Callable[[int], _V]):
        self._base, self._moved, self._build = base, moved, build

    def __getitem__(self, net: str) -> _V:
        row = self._moved.get(net)
        return self._base[net] if row is None else self._build(row)

    def __iter__(self) -> Iterator[str]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)


def fold_rows(
    in_values: np.ndarray, in_probs: np.ndarray, pins: np.ndarray,
    delay_values: np.ndarray, delay_probs: np.ndarray, num_samples: int,
) -> _Rows:
    """Output rows of gates from their input rows, ``(gates, max_fanin, samples)``.

    Folds each gate's valid ``pins`` left to right with ``max`` (the order
    of :meth:`DiscretePDF.maximum_of`), then adds its delay row.  Every step
    is row-independent: a gate's row does not depend on the call's others.
    """
    worst_values, worst_probs = in_values[:, 0], in_probs[:, 0]
    for col in range(1, pins.shape[1]):
        rows = np.flatnonzero(pins[:, col])
        if not rows.size:
            break  # sentinel padding is trailing: no later pin either
        worst_values[rows], worst_probs[rows], _ = batched_combine(
            worst_values[rows], worst_probs[rows],
            in_values[rows, col], in_probs[rows, col], "max", num_samples,
        )
    return batched_combine(
        worst_values, worst_probs, delay_values, delay_probs, "add", num_samples
    )


@dataclass
class LevelizedState:
    """Array state of one levelized FULLSSTA run.

    One padded arrival row per net slot of the compiled circuit (padding
    convention of :mod:`repro.core.discrete_pdf`) and for the fanin
    sentinel, one padded delay row per gate id, plus the per-net pdfs the
    result reports.  :class:`IncrementalReanalysis` keeps it as its
    committed state.
    """

    values: np.ndarray  # (num_nets + 1, num_samples)
    probs: np.ndarray  # (num_nets + 1, num_samples)
    counts: np.ndarray  # (num_nets + 1,)
    delay_values: np.ndarray  # (num_gates, num_samples)
    delay_probs: np.ndarray  # (num_gates, num_samples)
    arrival_pdfs: Dict[str, DiscretePDF] = field(default_factory=dict)

    def store(self, slots: np.ndarray, rows: _Rows) -> None:
        self.values[slots], self.probs[slots], self.counts[slots] = rows

    def holds(self, slots: np.ndarray, rows: _Rows) -> np.ndarray:
        """Per slot: is its row bitwise equal to ``rows``?"""
        same = (self.values[slots] == rows[0]) & (self.probs[slots] == rows[1])
        return same.all(axis=1) & (self.counts[slots] == rows[2])


class FULLSSTA:
    """Discrete-PDF statistical static timing analysis.

    Parameters
    ----------
    delay_model / variation_model:
        Same substrates FASSTA uses; the two engines always see identical
        gate-delay distributions, only the propagation math differs.
    num_samples:
        Samples kept per pdf (the paper's "10-15 samples"; default 13).
    vectorized:
        Ignored: every run is levelized.  The flow benchmark's
        fresh-analysis check still passes it.
    """

    def __init__(
        self,
        delay_model: BaseDelayModel,
        variation_model: VariationModel,
        num_samples: int = DEFAULT_SAMPLES,
        vectorized: bool = True,
    ) -> None:
        if num_samples < 3:
            raise ValueError("num_samples must be at least 3 for a useful pdf")
        self.delay_model = delay_model
        self.variation_model = variation_model
        self.num_samples = num_samples

    # ------------------------------------------------------------------
    def analyze(self, circuit: Circuit) -> FullSstaResult:
        """Propagate discrete-pdf arrival times through ``circuit``.

        Primary inputs and floating nets arrive as the point pdf at zero;
        the output pdf is the max over the primary outputs.  A primary output
        no gate drives raises ``KeyError`` naming the net instead of silently
        timing as zero.  The run is :class:`IncrementalReanalysis`'s sweep
        with every gate dirty.
        """
        return IncrementalReanalysis(self, circuit).analyze()

    # ------------------------------------------------------------------
    def _delay_rows(
        self, circuit: Circuit, gate_ids: np.ndarray, trial: Trial
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Discretized delay rows of ``gate_ids``, at ``trial``'s sizes."""
        mu, sigma = self.variation_model.delay_moments(circuit, self.delay_model, gate_ids, trial)
        delay_values, delay_probs, _ = batched_from_normal(mu, sigma, self.num_samples)
        return delay_values, delay_probs

    # ------------------------------------------------------------------
    def _build_result(
        self,
        circuit: Circuit,
        arrivals: Mapping[str, DiscretePDF],
        arrival_moments: Mapping[str, NormalDelay],
        fold: Optional[List[DiscretePDF]] = None,
    ) -> FullSstaResult:
        """Assemble a :class:`FullSstaResult` from propagated per-net state.

        ``fold``, the running maxima of the first few primary outputs (the loop
        of :meth:`DiscretePDF.maximum_of`), is folded on to the last output in place.
        """
        output_nets = circuit.primary_outputs
        if not output_nets:
            raise ValueError(f"circuit {circuit.name!r} has no outputs to time")
        missing = [net for net in output_nets if net not in arrivals]
        if missing:
            raise KeyError(
                f"unknown output net(s) {missing} in circuit {circuit.name!r}"
            )
        fold = [] if fold is None else fold
        for net in output_nets[len(fold):]:
            pdf = arrivals[net]
            fold.append(fold[-1].maximum(pdf, self.num_samples) if fold else pdf)
        return FullSstaResult(
            arrival_pdfs=arrivals,
            arrival_moments=arrival_moments,
            output_pdf=fold[-1],
            output_rv=_normal(fold[-1]),
        )


class IncrementalReanalysis:
    """Incremental FULLSSTA over one circuit, driven by its compiled sizes.

    The wrapper keeps the last committed run's :class:`LevelizedState`, its
    per-net arrival moments and the gate sizes they were computed at, one
    entry per IR gate id.  On :meth:`analyze` it compares those sizes with
    the IR's ``size_index`` (which
    :meth:`~repro.netlist.circuit.Circuit.set_size` writes) and
    re-propagates only the gates whose timing can actually have moved:

    * every resized gate (its drive, intrinsic delay and sigma changed),
    * the drivers of its input nets (the resized gate's input capacitance is
      part of *their* load),
    * downstream gates, recursively — but propagation stops as soon as a
      recomputed row is bitwise-identical to the cached one, which happens
      quickly once a dominant side path reasserts itself.

    :meth:`preview` evaluates resizes *without* committing them: the ones
    the IR holds, or a stack of one-resize trials against the committed state.
    :meth:`commit_preview` folds one previewed trial in once the circuit
    holds its sizes; a rejected trial costs nothing more.  Results are lazy
    snapshots (:meth:`_result`) that reuse the committed output fold up to
    the first primary output their delta moves.  The sizer times every
    outer-loop state through this ``analyze`` / ``preview`` /
    ``commit_preview`` / ``stats`` protocol.  Every delta comes from one
    stacked sweep (:meth:`_sweep`); a full run is that sweep with every gate
    dirty, from the empty state (:meth:`_reset`), so results are bitwise
    equal to a from-scratch :meth:`FULLSSTA.analyze` of the sizes they were
    timed at.  Contract: all persistent resizes must go through
    ``Circuit.set_size`` (direct ``Gate.size_index`` writes do not reach the
    IR); structural edits are detected via ``structure_version`` and trigger
    a full run automatically.
    """

    def __init__(self, engine: FULLSSTA, circuit: Circuit) -> None:
        self.engine = engine
        self.circuit = circuit
        self._structure_version: Optional[int] = None
        self._state: Optional[LevelizedState] = None
        self._arrival_moments: Dict[str, NormalDelay] = {}
        self._sizes = np.empty(0, dtype=np.intp)  # per gate id, the committed size
        self._fold: List[DiscretePDF] = []  # committed running maxima of the outputs
        self._pending: Optional[List[_Delta]] = None
        self._bulk: Optional[_Delta] = None  # the last no-argument preview's, until a commit
        # Diagnostics (cumulative over the wrapper's lifetime).
        self.full_runs = 0
        self.incremental_runs = 0
        self.preview_runs = 0
        self.preview_batches = 0
        self.gates_retimed = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative counters: runs, trials previewed, stacked previews, rows retimed."""
        return {
            "full_runs": self.full_runs,
            "incremental_runs": self.incremental_runs,
            "preview_runs": self.preview_runs,
            "preview_batches": self.preview_batches,
            "gates_retimed": self.gates_retimed,
        }

    # ------------------------------------------------------------------
    def analyze(self) -> FullSstaResult:
        """Full-circuit FULLSSTA result, reusing cached rows where possible.

        With no committed state, or after a structural edit, the run resets
        to the empty state and sweeps with every gate dirty.  When the
        circuit holds the sizes of the last no-argument :meth:`preview`, and
        nothing was committed since, that preview's delta is committed
        without a sweep.
        """
        self._pending = None
        bulk, self._bulk = self._bulk, None
        dirty = self._dirty_gates()
        if dirty is None:
            self.full_runs += 1
            METRICS.counter("fullssta.runs")
            METRICS.counter("incremental.full_runs")
            with span("fullssta.analyze", gates=self.circuit.num_gates()):
                self._reset()
                (delta,), _ = self._sweep(*self._as_trial(np.arange(self.circuit.num_gates())))
                self._apply_delta(delta)
            self._structure_version = self.circuit.structure_version
            return self._result()

        self.incremental_runs += 1
        METRICS.counter("incremental.runs")
        if bulk is not None and self._holds(bulk):
            self._apply_delta(bulk)
        elif dirty.size:
            (delta,), _ = self._sweep(*self._as_trial(dirty))
            self._apply_delta(delta)
        return self._result()

    # ------------------------------------------------------------------
    @overload
    def preview(self) -> Optional[FullSstaResult]: ...
    @overload
    def preview(self, trials: Sequence[Tuple[str, int]]) -> Optional[Iterator[FullSstaResult]]: ...
    def preview(
        self, trials: Optional[Sequence[Tuple[str, int]]] = None
    ) -> "Optional[FullSstaResult | Iterator[FullSstaResult]]":
        """Evaluate resizes against the cache without committing.

        Returns ``None`` when the cache cannot answer incrementally (no
        prior run, or a structural change) — callers should fall back to
        :meth:`analyze`.  With no argument the result reflects the circuit's
        current sizes; call :meth:`commit_preview` to fold it in, or revert
        the resizes (via ``set_size``) to discard it for free.

        ``trials`` are ``(gate name, size)`` resizes, each timed on its own
        against the committed state, which the circuit must hold (call
        :meth:`analyze` first); no size is written into a gate, and the last
        no-argument preview stays held for :meth:`analyze`.  The kernel
        runs in this call, and the returned iterator builds each trial's
        result when it reaches it, so an unread trial costs only its kernel
        rows.  Keep trial ``j`` by setting its size and ``commit_preview(j)``.
        """
        dirty = self._dirty_gates()
        if dirty is None:
            return None
        if trials is not None and dirty.size:
            raise ValueError("preview(trials) needs the committed sizes; call analyze() first")
        stack = self._as_trial(dirty) if trials is None else self._stacked(trials)
        self._pending = None  # free the last preview's rows before this sweep
        with span("fullssta.preview", trials=stack[0]) as sp:
            retimed = self.gates_retimed
            deltas, kernel_calls = self._sweep(*stack)
            sp.set(rows=self.gates_retimed - retimed, kernel_calls=kernel_calls)
        self.preview_runs += len(deltas)
        self.preview_batches += 1
        METRICS.counter("incremental.preview_runs", len(deltas))
        METRICS.counter("incremental.preview_batches")
        self._pending = deltas
        if trials is None:
            self._bulk = deltas[0]
        return self._result(deltas[0]) if trials is None else self._results(deltas)

    def commit_preview(self, index: int = 0) -> bool:
        """Fold trial ``index`` of the last :meth:`preview` into the cache.

        Returns False (and leaves the cache untouched) when no preview is
        pending or the circuit does not hold the sizes the trial was timed
        at — the next :meth:`analyze`/:meth:`preview` then retimes the gates
        whose sizes differ as usual, so a refused commit is safe, just not
        free.
        """
        if self._pending is None or not self._holds(self._pending[index]):
            return False
        self._apply_delta(self._pending[index])
        self._pending = None
        return True

    # ------------------------------------------------------------------
    def _dirty_gates(self) -> Optional[np.ndarray]:
        """Gate ids whose delay may differ from the committed state, or None.

        ``None`` means the cache cannot answer incrementally: no committed
        run, or a structural edit since.  The dirty gates are those whose IR
        size differs from the committed one, plus their fanin drivers, in
        ascending order; resizes that cancel out leave a gate clean.
        """
        if self._state is None or self._structure_version != self.circuit.structure_version:
            return None
        plan = self.circuit.compiled()
        _, gates = plan.resize_rows(np.flatnonzero(plan.size_index != self._sizes))
        return np.unique(gates)

    def _holds(self, delta: "_Delta") -> bool:
        """Does the IR hold the committed sizes with ``delta``'s laid over them?"""
        if self._structure_version != self.circuit.structure_version:
            return False
        sizes = self._sizes.copy()
        sizes[delta.gate_ids] = delta.sizes
        return bool(np.array_equal(self.circuit.compiled().size_index, sizes))

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        """The empty state of the circuit's structure, before a full sweep.

        Primary-input, floating and sentinel slots hold the point pdf at
        zero.  Gate-output slots hold no row yet (count 0), so every gate's
        first row moves, even one equal to the point pdf at zero, and the
        sweep's delta supplies every gate output's pdf and moments; only the
        primary inputs' are seeded here.
        """
        plan = self.circuit.compiled()
        num_samples = self.engine.num_samples
        counts = np.ones(plan.num_nets + 1, dtype=np.intp)  # + the fanin sentinel
        counts[plan.gate_output_slot] = 0
        values = np.zeros((counts.size, num_samples))
        probs = np.zeros((counts.size, num_samples))
        probs[:, 0] = counts  # the point pdf at zero, or no row
        inputs = slice(0, plan.num_pis)
        pdfs = _pdfs(plan.net_names[inputs], (values[inputs], probs[inputs], counts[inputs]))
        self._state = LevelizedState(
            values=values,
            probs=probs,
            counts=counts,
            delay_values=np.zeros((plan.num_gates, num_samples)),
            delay_probs=np.zeros((plan.num_gates, num_samples)),
            arrival_pdfs=pdfs,
        )
        self._arrival_moments = _moments(pdfs)
        self._sizes = np.full(plan.num_gates, -1, dtype=np.intp)
        self._fold = []

    def _result(self, delta: Optional["_Delta"] = None) -> FullSstaResult:
        """The committed state, with ``delta`` laid over it, as a result.

        ``delta`` keeps its output fold, which starts as the committed one
        cut at the first output ``delta`` moves.
        """
        pdfs, moments = dict(self._state.arrival_pdfs), dict(self._arrival_moments)
        if delta is None:
            return self.engine._build_result(self.circuit, pdfs, moments, self._fold)
        delta.fold = self._fold[:self._first_moved_output(delta)]
        return self.engine._build_result(
            self.circuit,
            _Overlay(pdfs, delta.index, delta.pdf),
            _Overlay(moments, delta.index, delta.moment),
            delta.fold,
        )

    def _first_moved_output(self, delta: "_Delta") -> int:
        """Index of the first primary output ``delta`` moves (their count if none)."""
        outputs = self.circuit.primary_outputs
        return next((k for k, net in enumerate(outputs) if net in delta.index), len(outputs))

    def _results(self, deltas: List["_Delta"]) -> Iterator[FullSstaResult]:
        for delta in deltas:
            if self._pending is not deltas:
                raise RuntimeError("a later analyze or commit replaced this preview")
            yield self._result(delta)

    # ------------------------------------------------------------------
    def _as_trial(self, dirty: np.ndarray) -> "_Trials":
        """Ascending gate ids ``dirty`` as one trial, at the sizes the IR holds."""
        plan = self.circuit.compiled()
        return 1, np.zeros(dirty.size, dtype=np.intp), dirty, (dirty, plan.size_index[dirty])

    def _stacked(self, trials: Sequence[Tuple[str, int]]) -> "_Trials":
        """One trial per ``(gate, size)``: the gate and its fanin drivers."""
        plan = self.circuit.compiled()
        gate = np.array([plan.gate_index[name] for name, _ in trials], dtype=np.intp)
        size = np.array([size for _, size in trials], dtype=np.intp)
        changed = np.flatnonzero(size != plan.size_index[gate])  # a no-op trial is clean
        index, row_gate = plan.resize_rows(gate[changed])
        row_trial = changed[index]
        return len(trials), row_trial, row_gate, (gate[row_trial], size[row_trial])

    def _sweep(
        self, count: int, row_trial: np.ndarray, row_gate: np.ndarray, trial: Trial
    ) -> Tuple[List["_Delta"], int]:
        """Re-propagate the dirty cones of ``count`` trials against the committed state.

        ``row_gate`` lists every trial's dirty gates (trial-major, ascending,
        ``row_trial`` naming the trial), ``trial`` their sizes in the delay
        stage's trial form.  The cones merge level-major into (trial, gate)
        pairs.  A pair is recomputed when its gate is dirty in that trial or
        an input slot changed in that trial; each input reads the committed
        row unless the trial holds an overlay row for that slot.  A moved row
        goes into the trial's overlay; an unmoved one ends the trial's
        wavefront there.  No kernel call takes more rows than the widest
        level, the largest call a full analysis makes.  Returns one delta
        per trial and the number of ``batched_combine`` calls.
        """
        state, plan = self._state, self.circuit.compiled()
        num_samples = self.engine.num_samples
        delay_values, delay_probs = self.engine._delay_rows(self.circuit, row_gate, trial)
        dirty_at = np.full((count, plan.num_gates), -1, dtype=np.intp)
        dirty_at[row_trial, row_gate] = np.arange(row_gate.size)
        moved_at = np.full((count, plan.num_nets + 1), -1, dtype=np.intp)
        starts = np.searchsorted(row_trial, np.arange(count + 1))
        cones = [plan.fanout_cone(row_gate[a:b]) for a, b in pairwise(starts)]
        for cone in cones:
            # The per-resize dirty-cone size is the quantity that makes (or
            # breaks) the incremental win: the headline metric of this layer.
            METRICS.histogram("incremental.dirty_cone_gates", len(cone))
        pair_gate = np.concatenate([np.empty(0, dtype=np.intp), *cones])
        pair_trial = np.repeat(np.arange(count), [len(cone) for cone in cones])
        order = np.argsort(pair_gate, kind="stable")  # gate ids are level-major
        pair_gate, pair_trial = pair_gate[order], pair_trial[order]
        cuts = np.flatnonzero(np.diff(plan.gate_level[pair_gate])) + 1
        max_rows = int(np.diff(plan.level_offsets).max(initial=1))  # a gateless circuit has no level
        overlay = [np.empty((0, num_samples)), np.empty((0, num_samples)), np.empty(0, np.intp)]
        used = kernel_calls = 0
        for trials, gates in np.split(np.stack([pair_trial, pair_gate]), cuts, axis=1):
            in_ids = plan.fanin_matrix[gates]
            sources = moved_at[trials[:, None], in_ids]
            own = dirty_at[trials, gates]
            redo = np.flatnonzero((own >= 0) | (sources >= 0).any(axis=1))
            self.gates_retimed += redo.size
            for start in range(0, redo.size, max_rows):
                part = redo[start:start + max_rows]
                ids, gate_ids = in_ids[part], gates[part]
                rows = fold_rows(
                    _overlaid(state.values, ids, overlay[0], sources[part]),
                    _overlaid(state.probs, ids, overlay[1], sources[part]),
                    ids != plan.num_nets,
                    _overlaid(state.delay_values, gate_ids, delay_values, own[part]),
                    _overlaid(state.delay_probs, gate_ids, delay_probs, own[part]),
                    num_samples,
                )
                kernel_calls += int(plan.fanin_counts[gate_ids].max())
                slots = plan.gate_output_slot[gate_ids]
                moved = ~state.holds(slots, rows)
                end = used + int(moved.sum())
                if end > len(overlay[2]):  # grow geometrically
                    overlay = [
                        np.concatenate([kept[:used], np.empty((end, *kept.shape[1:]), kept.dtype)])
                        for kept in overlay
                    ]
                for kept, row in zip(overlay, rows, strict=True):
                    kept[used:end] = row[moved]
                moved_at[trials[part][moved], slots[moved]] = np.arange(used, end)
                used = end
        sizes = np.where(row_gate == trial[0], trial[1], plan.size_index[row_gate])
        deltas = []
        for t in range(count):
            slots, dirty = np.flatnonzero(moved_at[t] >= 0), slice(starts[t], starts[t + 1])
            at = moved_at[t, slots]
            deltas.append(_Delta(
                plan=plan,
                slots=slots,
                rows=(overlay[0][at], overlay[1][at], overlay[2][at]),
                gate_ids=row_gate[dirty],
                delay_rows=(delay_values[dirty], delay_probs[dirty]),
                sizes=sizes[dirty],
            ))
        return deltas, kernel_calls

    def _apply_delta(self, delta: "_Delta") -> None:
        """Commit ``delta``; an unread one cuts the committed fold at its first moved output."""
        state = self._state
        state.store(delta.slots, delta.rows)
        state.delay_values[delta.gate_ids], state.delay_probs[delta.gate_ids] = delta.delay_rows
        for net, row in delta.index.items():
            state.arrival_pdfs[net], self._arrival_moments[net] = delta.pdf(row), delta.moment(row)
        self._sizes[delta.gate_ids] = delta.sizes
        self._fold = delta.fold or self._fold[:self._first_moved_output(delta)]
        self._bulk = None


def _overlaid(
    committed: np.ndarray, ids: np.ndarray, overlay: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """``committed[ids]``, with every entry whose ``at`` is set read from ``overlay[at]``."""
    rows = committed[ids]
    rows[at >= 0] = overlay[at[at >= 0]]
    return rows


@dataclass
class _Delta:
    """One trial's re-propagation against the committed state."""

    plan: CompiledCircuit
    slots: np.ndarray  # changed net slots, ascending ...
    rows: _Rows  # ... and their new rows
    gate_ids: np.ndarray  # re-derived gates ...
    delay_rows: Tuple[np.ndarray, np.ndarray]  # ... their new delay rows ...
    sizes: np.ndarray  # ... and the sizes those were derived at
    fold: Optional[List[DiscretePDF]] = None  # its result's output fold, once built
    pdfs: Dict[int, DiscretePDF] = field(default_factory=dict)  # per row, once read
    moments: Dict[int, NormalDelay] = field(default_factory=dict)

    @cached_property
    def index(self) -> Dict[str, int]:
        """Each moved net's row, in slot order."""
        return {self.plan.net_names[slot]: row for row, slot in enumerate(self.slots.tolist())}

    def pdf(self, row: int) -> DiscretePDF:
        if row not in self.pdfs:
            self.pdfs[row] = _pdf(self.rows[0][row], self.rows[1][row], int(self.rows[2][row]))
        return self.pdfs[row]

    def moment(self, row: int) -> NormalDelay:
        if row not in self.moments:
            self.moments[row] = _normal(self.pdf(row))
        return self.moments[row]
