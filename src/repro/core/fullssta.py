"""FULLSSTA — the accurate discrete-PDF statistical timing engine (paper §4.2).

The outer loop of the optimization runs this engine.  Every gate delay is
discretized into a small pdf (10-15 samples, following Liou et al. DAC 2001)
and arrival times are propagated as discrete pdfs, levelized over the
circuit's compiled IR: every net owns one padded sample row, and each logic
level folds its gates' input rows left to right with ``max`` and adds their
delay rows (:meth:`LevelizedState.propagate`).  The delay rows discretize
the gate-delay moments of the packed delay stage
(:meth:`VariationModel.delay_moments
<repro.variation.model.VariationModel.delay_moments>`), for the whole
circuit on a full run and for the dirty gates of an incremental one.  A run
always times the whole circuit, from zero-arrival primary inputs to the
primary outputs, so every row is ``num_samples`` wide.  The batched primitives
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

:class:`IncrementalReanalysis` wraps the engine with the levelized state
arrays of its last run: after gate resizes it re-propagates only the
transitive-fanout cone of the changed gates (and of their fanin drivers,
whose loads changed) through the same per-level kernel a full levelized run
uses, and reuses the committed rows everywhere else.  Because the kernel is
row-independent and untouched nets keep bitwise-identical rows, the
incremental result equals a from-scratch :meth:`FULLSSTA.analyze` bit for
bit — it is a pure wall-clock optimization, which is what makes
nesting FULLSSTA inside a sizing loop affordable at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.discrete_pdf import (
    DEFAULT_SAMPLES,
    DiscretePDF,
    batched_combine,
    batched_from_normal,
)
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.ir.compiled import CompiledCircuit
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.model import VariationModel

#: Padded ``(values, probabilities, counts)`` rows (see :mod:`repro.core.discrete_pdf`).
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class FullSstaResult:
    """Per-node pdfs and moments produced by one FULLSSTA run."""

    arrival_pdfs: Dict[str, DiscretePDF]
    arrival_moments: Dict[str, NormalDelay]
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


def _moments(pdfs: Mapping[str, DiscretePDF]) -> Dict[str, NormalDelay]:
    return {net: NormalDelay(pdf.mean(), pdf.std()) for net, pdf in pdfs.items()}


@dataclass
class LevelizedState:
    """Array state of one levelized FULLSSTA run.

    One padded arrival row per net slot of the compiled circuit (padding
    convention of :mod:`repro.core.discrete_pdf`) and one padded delay row
    per gate id, plus the per-net pdfs the result reports.
    :class:`IncrementalReanalysis` keeps it as its committed state.
    """

    values: np.ndarray  # (num_nets, num_samples)
    probs: np.ndarray  # (num_nets, num_samples)
    counts: np.ndarray  # (num_nets,)
    delay_values: np.ndarray  # (num_gates, num_samples)
    delay_probs: np.ndarray  # (num_gates, num_samples)
    arrival_pdfs: Dict[str, DiscretePDF] = field(default_factory=dict)

    def propagate(self, plan: CompiledCircuit, gate_ids: np.ndarray, num_samples: int) -> _Rows:
        """Output rows of ``gate_ids`` (all in one level) from the current rows.

        Gathers each gate's input rows through the sentinel-padded
        ``fanin_matrix``, folds them left to right with ``max`` over the
        gates that have an input in each pin position (the fold order of
        :meth:`DiscretePDF.maximum_of`), then adds the gates' delay rows.
        Every step is row-independent, so a subset of a level yields exactly
        the rows a whole-level call yields for those gates.
        """
        in_ids = plan.fanin_matrix[gate_ids]
        worst_values = self.values[in_ids[:, 0]]
        worst_probs = self.probs[in_ids[:, 0]]
        for col in range(1, in_ids.shape[1]):
            rows = np.flatnonzero(in_ids[:, col] != plan.num_nets)
            if not rows.size:
                break  # sentinel padding is trailing: no later pin either
            slots = in_ids[rows, col]
            worst_values[rows], worst_probs[rows], _ = batched_combine(
                worst_values[rows], worst_probs[rows],
                self.values[slots], self.probs[slots], "max", num_samples,
            )
        return batched_combine(
            worst_values, worst_probs,
            self.delay_values[gate_ids], self.delay_probs[gate_ids], "add", num_samples,
        )

    def store(self, slots: np.ndarray, rows: _Rows) -> None:
        self.values[slots], self.probs[slots], self.counts[slots] = rows

    def take(self, slots: np.ndarray) -> _Rows:
        """Copies of the rows of ``slots``."""
        return self.values[slots], self.probs[slots], self.counts[slots]

    def holds(self, slots: np.ndarray, rows: _Rows) -> np.ndarray:
        """Per slot: is its row bitwise equal to ``rows``?"""
        same = (self.values[slots] == rows[0]) & (self.probs[slots] == rows[1])
        return same.all(axis=1) & (self.counts[slots] == rows[2])

    def pdf(self, slot: int) -> DiscretePDF:
        n = self.counts[slot]
        return DiscretePDF._from_canonical(
            self.values[slot, :n].copy(), self.probs[slot, :n].copy()
        )


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
        timing as zero.
        """
        state = self._propagate_levelized(circuit)
        arrivals = state.arrival_pdfs
        return self._build_result(circuit, arrivals, _moments(arrivals))

    # ------------------------------------------------------------------
    def _delay_rows(
        self, circuit: Circuit, gate_ids: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Discretized delay rows of every gate, or of ``gate_ids``."""
        mu, sigma = self.variation_model.delay_moments(circuit, self.delay_model, gate_ids)
        delay_values, delay_probs, _ = batched_from_normal(mu, sigma, self.num_samples)
        return delay_values, delay_probs

    def _propagate_levelized(self, circuit: Circuit) -> LevelizedState:
        """Levelized batched propagation over padded (net, sample) arrays.

        Every net owns one row of the state arrays; each level runs
        :meth:`LevelizedState.propagate` on all its gates and scatters the
        rows to the output nets.
        """
        METRICS.counter("fullssta.runs")
        with span("fullssta.analyze") as sp:
            plan = circuit.compiled()
            delay_values, delay_probs = self._delay_rows(circuit)
            state = LevelizedState(
                values=np.zeros((plan.num_nets, self.num_samples)),
                probs=np.zeros((plan.num_nets, self.num_samples)),
                counts=np.ones(plan.num_nets, dtype=np.intp),
                delay_values=delay_values,
                delay_probs=delay_probs,
            )
            state.probs[:, 0] = 1.0  # every slot starts as the point pdf at 0.0
            for block in plan.levels:
                state.store(
                    block.out_slots,
                    state.propagate(plan, block.gate_ids, self.num_samples),
                )
            state.arrival_pdfs = {
                net: state.pdf(slot)
                for net, slot in plan.net_index.items()
                if net not in plan.floating
            }
            sp.set(gates=plan.num_gates)
        return state

    # ------------------------------------------------------------------
    def _build_result(
        self,
        circuit: Circuit,
        arrivals: Dict[str, DiscretePDF],
        arrival_moments: Dict[str, NormalDelay],
    ) -> FullSstaResult:
        """Assemble a :class:`FullSstaResult` from propagated per-net state.

        Shared by the from-scratch path and :class:`IncrementalReanalysis`
        so the output max is computed identically in both.
        """
        output_nets = circuit.primary_outputs
        if not output_nets:
            raise ValueError(f"circuit {circuit.name!r} has no outputs to time")
        missing = [net for net in output_nets if net not in arrivals]
        if missing:
            raise KeyError(
                f"unknown output net(s) {missing} in circuit {circuit.name!r}"
            )
        output_pdfs = [arrivals[net] for net in output_nets]
        output_pdf = DiscretePDF.maximum_of(output_pdfs, self.num_samples)
        return FullSstaResult(
            arrival_pdfs=arrivals,
            arrival_moments=arrival_moments,
            output_pdf=output_pdf,
            output_rv=NormalDelay(output_pdf.mean(), output_pdf.std()),
        )


class IncrementalReanalysis:
    """Incremental FULLSSTA over one circuit, driven by its size-change log.

    The wrapper keeps the last committed run's :class:`LevelizedState`, its
    per-net arrival moments and the gate sizes they were computed at.  On
    :meth:`analyze` it reads the gates resized since the previous call
    (logged by :meth:`~repro.netlist.circuit.Circuit.set_size`), keeps those
    whose size differs from the cached state, and re-propagates only the
    gates whose timing can actually have moved:

    * every net-resized gate (its drive, intrinsic delay and sigma changed),
    * the drivers of its input nets (the resized gate's input capacitance is
      part of *their* load),
    * downstream gates, recursively — but propagation stops as soon as a
      recomputed row is bitwise-identical to the cached one, which happens
      quickly once a dominant side path reasserts itself.

    :meth:`preview` evaluates the pending resizes *without* committing them
    to the cache; a caller trying a candidate resize calls ``preview``,
    then either :meth:`commit_preview` (keep it) or simply reverts the
    resize via ``set_size`` (the cancelled pair then costs nothing).  This
    is what makes the sizer's accept/reject trial loop cheap.

    Full rebuilds and dirty cones both run the engine's levelized kernel
    (:meth:`LevelizedState.propagate`), so results are bitwise equal to a
    from-scratch :meth:`FULLSSTA.analyze`.  Contract: all persistent resizes
    must go through ``Circuit.set_size`` (direct ``Gate.size_index`` writes
    bypass the log); structural edits are detected via ``structure_version``
    and trigger a full rebuild automatically.
    """

    def __init__(self, engine: FULLSSTA, circuit: Circuit) -> None:
        self.engine = engine
        self.circuit = circuit
        self._cursor = 0
        self._structure_version: Optional[int] = None
        self._state: Optional[LevelizedState] = None
        self._arrival_moments: Dict[str, NormalDelay] = {}
        self._cached_sizes: Dict[str, int] = {}
        self._pending: Optional[_PendingDelta] = None
        # Diagnostics (cumulative over the wrapper's lifetime).
        self.full_runs = 0
        self.incremental_runs = 0
        self.preview_runs = 0
        self.gates_retimed = 0

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cache; the next :meth:`analyze` runs from scratch."""
        self._state = None
        self._pending = None

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative run counters (full runs, incremental runs, gates retimed)."""
        return {
            "full_runs": self.full_runs,
            "incremental_runs": self.incremental_runs,
            "preview_runs": self.preview_runs,
            "gates_retimed": self.gates_retimed,
        }

    # ------------------------------------------------------------------
    def analyze(self) -> FullSstaResult:
        """Full-circuit FULLSSTA result, reusing cached rows where possible."""
        self._pending = None
        dirty = self._dirty_gates()
        if dirty is None:
            return self._full_rebuild()
        self._cursor = self.circuit.size_change_cursor

        self.incremental_runs += 1
        METRICS.counter("incremental.runs")
        if dirty:
            self._apply_delta(self._compute_delta(dirty))
        return self._result()

    # ------------------------------------------------------------------
    def preview(self) -> Optional[FullSstaResult]:
        """Evaluate pending resizes against the cache without committing.

        Returns ``None`` when the cache cannot answer incrementally (no
        prior run, or a structural change) — callers should fall back to
        :meth:`analyze`.  Otherwise the result reflects the circuit's
        current sizes while the cache keeps the previously committed state;
        call :meth:`commit_preview` to fold the evaluated delta in, or
        revert the resizes (via ``set_size``) to discard it for free.
        """
        dirty = self._dirty_gates()
        if dirty is None:
            return None

        self.preview_runs += 1
        METRICS.counter("incremental.preview_runs")
        self._pending = self._compute_delta(dirty)
        return self._result(self._pending)

    def commit_preview(self) -> bool:
        """Fold the last :meth:`preview` delta into the cache.

        Returns False (and leaves the cache untouched) when no preview is
        pending or further resizes happened after it — the next
        :meth:`analyze`/:meth:`preview` then recomputes from the log as
        usual, so a refused commit is safe, just not free.
        """
        delta = self._pending
        if delta is None or delta.cursor != self.circuit.size_change_cursor:
            return False
        self._apply_delta(delta)
        self._cursor = delta.cursor
        self._pending = None
        return True

    # ------------------------------------------------------------------
    def _dirty_gates(self) -> Optional[Set[str]]:
        """Gates whose delay may differ from the committed state, or None.

        ``None`` means the cache cannot answer incrementally: no committed
        run, a structural edit since, or a logged gate the circuit no longer
        has.  Each logged gate's *current* size is compared against the size
        the cache was computed at, so resize sequences that cancel out are
        recognised as clean.
        """
        circuit = self.circuit
        if self._state is None or self._structure_version != circuit.structure_version:
            return None
        dirty: Set[str] = set()
        for name in circuit.size_changes_since(self._cursor):
            if not circuit.has_gate(name):
                return None
            if circuit.gate(name).size_index == self._cached_sizes.get(name):
                continue
            dirty.add(name)
            for gate in circuit.fanin_gates(name):
                dirty.add(gate.name)
        return dirty

    # ------------------------------------------------------------------
    def _full_rebuild(self) -> FullSstaResult:
        circuit = self.circuit
        self._cursor = circuit.size_change_cursor
        self._structure_version = circuit.structure_version
        self._state = self.engine._propagate_levelized(circuit)
        self._arrival_moments = _moments(self._state.arrival_pdfs)
        self._cached_sizes = circuit.sizes()
        self.full_runs += 1
        self.gates_retimed += circuit.num_gates()
        METRICS.counter("incremental.full_runs")
        return self._result()

    def _result(self, delta: Optional["_PendingDelta"] = None) -> FullSstaResult:
        """The committed state, with ``delta`` laid over it, as a result."""
        state = self._state
        arrivals = dict(state.arrival_pdfs)
        arrival_moments = dict(self._arrival_moments)
        if delta is not None:
            arrivals.update(delta.arrival_pdfs)
            arrival_moments.update(delta.arrival_moments)
        return self.engine._build_result(self.circuit, arrivals, arrival_moments)

    # ------------------------------------------------------------------
    def _compute_delta(self, dirty: Set[str]) -> "_PendingDelta":
        """Re-propagate the cone of the ``dirty`` gates into a delta.

        Candidate gates come from the compiled IR's fanout CSR: the dirty
        gates plus their transitive fanout, ascending and therefore
        level-major, so the sweep is O(cone) instead of a full-circuit scan.
        Level by level, the kernel recomputes the cone gates whose own delay
        is dirty or one of whose input slots changed; an output slot is
        marked changed only when its new row differs from the committed one,
        so the wavefront dies out as soon as the numbers reconverge.

        Later levels gather from the trial rows, so they are written into the
        state arrays during the sweep; the committed rows are put back
        before returning and the delta keeps the trial rows.
        """
        engine, circuit, state = self.engine, self.circuit, self._state
        plan = circuit.compiled()
        names = sorted(dirty, key=plan.gate_index.__getitem__)
        gate_ids = np.array([plan.gate_index[name] for name in names], dtype=np.intp)
        cone = plan.fanout_cone(gate_ids)
        # The per-resize dirty-cone size is the quantity that makes (or
        # breaks) the incremental win: its distribution is the headline
        # observability metric of this layer.
        METRICS.histogram("incremental.dirty_cone_gates", len(cone))

        # The dirty gates' own delay distributions moved (their size or one
        # of their fanout's input caps changed): re-derive them.
        delay_values, delay_probs = engine._delay_rows(circuit, gate_ids)
        is_dirty = np.zeros(plan.num_gates, dtype=bool)
        is_dirty[gate_ids] = True
        changed = np.zeros(plan.num_nets + 1, dtype=bool)  # + the fanin sentinel

        committed_delays = (state.delay_values[gate_ids], state.delay_probs[gate_ids])
        committed_rows: List[Tuple[np.ndarray, _Rows]] = []
        state.delay_values[gate_ids] = delay_values
        state.delay_probs[gate_ids] = delay_probs
        try:
            levels = plan.gate_level[cone]
            for level_ids in np.split(cone, np.flatnonzero(np.diff(levels)) + 1):
                inputs_changed = changed[plan.fanin_matrix[level_ids]].any(axis=1)
                level_ids = level_ids[is_dirty[level_ids] | inputs_changed]
                if not level_ids.size:
                    continue
                self.gates_retimed += level_ids.size
                rows = state.propagate(plan, level_ids, engine.num_samples)
                slots = plan.gate_output_slot[level_ids]
                moved = ~state.holds(slots, rows)
                if not moved.any():
                    continue
                slots = slots[moved]
                committed_rows.append((slots, state.take(slots)))
                state.store(slots, (rows[0][moved], rows[1][moved], rows[2][moved]))
                changed[slots] = True
            slots = np.flatnonzero(changed)
            arrival_pdfs = {plan.net_names[slot]: state.pdf(slot) for slot in slots}
            delta = _PendingDelta(
                cursor=circuit.size_change_cursor,
                slots=slots,
                rows=state.take(slots),
                gate_ids=gate_ids,
                delay_rows=(delay_values, delay_probs),
                arrival_pdfs=arrival_pdfs,
                arrival_moments=_moments(arrival_pdfs),
                sizes={name: circuit.gate(name).size_index for name in names},
            )
        finally:
            for slots, rows in committed_rows:
                state.store(slots, rows)
            state.delay_values[gate_ids], state.delay_probs[gate_ids] = committed_delays
        return delta

    def _apply_delta(self, delta: "_PendingDelta") -> None:
        state = self._state
        state.store(delta.slots, delta.rows)
        state.delay_values[delta.gate_ids], state.delay_probs[delta.gate_ids] = delta.delay_rows
        state.arrival_pdfs.update(delta.arrival_pdfs)
        self._arrival_moments.update(delta.arrival_moments)
        self._cached_sizes.update(delta.sizes)


@dataclass
class _PendingDelta:
    """Uncommitted re-propagation result produced by one preview/analyze."""

    cursor: int
    slots: np.ndarray  # changed net slots ...
    rows: _Rows  # ... and their trial rows
    gate_ids: np.ndarray  # re-derived gates ...
    delay_rows: Tuple[np.ndarray, np.ndarray]  # ... and their trial delay rows
    arrival_pdfs: Dict[str, DiscretePDF]
    arrival_moments: Dict[str, NormalDelay]
    sizes: Dict[str, int]
