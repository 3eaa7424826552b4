"""Each sizing state is timed once.

Both sizers accept a pass through ``resize_scheduled_gates``.
``StatisticalGreedySizer`` previews every pass's bulk resize with the
no-argument ``IncrementalReanalysis.preview()`` and commits it only when it
is kept.  A rejected bulk pass reverts its gates, which leaves the circuit
at the committed state, and the fallback previews its trials against that
state directly.  Only a fallback that keeps nothing calls ``analyze()``,
to commit the bulk sizes the pass keeps anyway, and it commits the bulk
preview's delta without sweeping again.  So between passes the cache holds
exactly the circuit's sizes.  ``MeanDelaySizer`` does the same on a
committed ``NominalTimer``: each pass's report (the near-critical targets
and the candidate sweep's boundary arrivals) propagates nothing, and each
bulk preview and each galloping stack, a column per trial, is one
propagation.
"""

import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark
from repro.core import baseline as baseline_module
from repro.core import sizer as sizer_module
from repro.core.baseline import MeanDelaySizer
from repro.core.cost import CostEvaluator
from repro.core.fullssta import IncrementalReanalysis
from repro.core.sizer import FIRST_STACK, SizerConfig, StatisticalGreedySizer
from repro.sta.dsta import NominalTimer


@dataclass
class _Pass:
    """The protocol calls one sizing pass made."""

    analyses: int = 0  # analyze() calls
    previews: int = 0  # no-argument preview() calls
    stacks: int = 0  # preview(trials) calls
    sweeps: int = 0  # IncrementalReanalysis._sweep calls
    kept: Optional[int] = None  # trials the fallback kept, when it ran
    clean: Optional[bool] = None  # cache == circuit sizes when the pass ended


class _ProtocolLog:
    """Records a sizer run's ``IncrementalReanalysis`` calls, pass by pass.

    ``passes[0]`` holds the calls before the first pass; pass ``k`` starts
    at the ``k``-th ``CostEvaluator.best_sizes`` call (one per pass) and
    ends when its ``IterationRecord`` is built.
    """

    def __init__(self, monkeypatch):
        self.passes: List[_Pass] = [_Pass()]
        self.commits: List[bool] = []
        self.previews_after_analyze = 0  # previews a pass makes after its analyze()
        self._stacks = 0  # stacked previews of the running pass acceptance
        self._reanalysis: Optional[IncrementalReanalysis] = None

        def after(owner, name, record):
            original = getattr(owner, name)

            def spy(instance, *args, **kwargs):
                result = original(instance, *args, **kwargs)
                record(instance, *args, result=result)
                return result

            monkeypatch.setattr(owner, name, spy)

        after(IncrementalReanalysis, "analyze", self._analyze)
        after(IncrementalReanalysis, "preview", self._preview)
        after(IncrementalReanalysis, "commit_preview", self._commit)
        after(CostEvaluator, "best_sizes", lambda *_, result: self.passes.append(_Pass()))
        after(IncrementalReanalysis, "_sweep", self._sweep)

        accept = sizer_module.resize_scheduled_gates

        def spy_accept(*args):
            self._stacks = 0
            outcome = accept(*args)
            if self._stacks:  # the bulk resize was rejected and the fallback ran
                self.passes[-1].kept = len(outcome[0])
            return outcome

        monkeypatch.setattr(sizer_module, "resize_scheduled_gates", spy_accept)

        record = sizer_module.IterationRecord

        def end_of_pass(*args, **kwargs):
            self.passes[-1].clean = self._reanalysis._dirty_gates().size == 0
            return record(*args, **kwargs)

        monkeypatch.setattr(sizer_module, "IterationRecord", end_of_pass)

    def _analyze(self, reanalysis, result):
        self._reanalysis = reanalysis
        self.passes[-1].analyses += 1

    def _preview(self, reanalysis, trials=None, *, result):
        self.previews_after_analyze += self.passes[-1].analyses
        if trials is None:
            self.passes[-1].previews += 1
        else:
            self._stacks += 1
            self.passes[-1].stacks += 1

    def _sweep(self, reanalysis, *args, result):
        self.passes[-1].sweeps += 1

    def _commit(self, reanalysis, index=0, *, result):
        self.commits.append(result)


def _start(name, from_baseline, delay_model):
    circuit = build_benchmark(name)
    if from_baseline:
        MeanDelaySizer(delay_model).optimize(circuit)
    return circuit


def _size(circuit, delay_model, variation_model, config):
    settings = SizerConfig(lam=3.0, max_iterations=4, **config)
    return StatisticalGreedySizer(delay_model, variation_model, settings).optimize(circuit)


#: (circuit, sized from the mean-delay baseline, extra SizerConfig fields,
#: trials kept by each fallback, in pass order).  Under the area budget the
#: first bulk pass improves the objective and is rejected on area after its
#: preview, and later fallbacks reject improving trials on area.
CASES = [
    ("alu2", False, {}, [9]),
    ("c432", True, {}, [3, 0, 0]),
    ("c432", True, {"max_area_ratio": 1.02}, [4, 0, 0, 0]),
]


class TestStatisticalSizerTimesEachStateOnce:
    @pytest.mark.parametrize("name, from_baseline, config, kept", CASES)
    def test_protocol(
        self, name, from_baseline, config, kept,
        delay_model, variation_model, monkeypatch, from_scratch_sizer,
    ):
        with from_scratch_sizer():
            reference = _size(
                _start(name, from_baseline, delay_model), delay_model, variation_model, config
            )
        circuit = _start(name, from_baseline, delay_model)
        log = _ProtocolLog(monkeypatch)
        result = _size(circuit, delay_model, variation_model, config)
        monkeypatch.undo()

        # Identical decisions to every analysis run from scratch.
        assert result.circuit.sizes() == reference.circuit.sizes()
        assert result.iterations == reference.iterations

        before, passes = log.passes[0], log.passes[1:]
        completed = passes[: len(result.iterations)]
        assert len(completed) == len(result.iterations)
        assert [p.kept for p in completed if p.kept is not None] == kept
        # One analysis before the first pass, then only the commit of a
        # bulk pass whose fallback kept nothing, after its last preview.
        assert (before.analyses, before.previews) == (1, 0)
        assert [p.analyses for p in completed] == [int(p.kept == 0) for p in completed]
        assert log.previews_after_analyze == 0
        # That analyze() commits the held bulk preview: only previews sweep.
        assert [p.sweeps for p in completed] == [p.previews + p.stacks for p in completed]
        # One bulk preview per pass; every commit lands, and each pass ends
        # with the cache holding the circuit's sizes.
        assert [p.previews for p in completed] == [1] * len(completed)
        assert all(log.commits)
        assert len(log.commits) == sum(1 if p.kept is None else p.kept for p in completed)
        assert [p.clean for p in completed] == [True] * len(completed)
        # A pass that schedules nothing ends the run without timing anything.
        assert [(p.analyses, p.previews) for p in passes[len(completed):]] in ([], [(0, 0)])


class _TimerLog:
    """Records the calls the baseline's main ``NominalTimer`` makes, pass by pass.

    The main timer is the first one an optimize times with (the area
    recovery makes its own).  ``passes[0]`` holds the calls before the first
    pass; pass ``k`` starts at the ``k``-th ``report()``.  ``starts`` counts,
    per pass, the propagations its ``report()`` made.
    """

    def __init__(self, monkeypatch):
        self.timer = None
        self.passes: List[_Pass] = [_Pass()]
        self.starts: List[int] = []
        self.stack_sizes: List[int] = []
        self._in_report = False

        def spy(name, record):
            original = getattr(NominalTimer, name)

            def wrapper(timer, *args, **kwargs):
                self.timer = self.timer or timer
                if timer is not self.timer:
                    return original(timer, *args, **kwargs)
                record(*args)
                return original(timer, *args, **kwargs)

            monkeypatch.setattr(NominalTimer, name, wrapper)

        spy("analyze", self._analyze)
        spy("preview", self._preview)
        spy("_time", self._time)
        report = NominalTimer.report

        def spy_report(timer, *args, **kwargs):
            if timer is not self.timer:
                return report(timer, *args, **kwargs)
            # The previous pass ended with the timer holding the circuit's sizes.
            self.passes[-1].clean = bool(np.array_equal(
                timer._state.sizes[:, 0], timer.circuit.compiled().size_index))
            self.passes.append(_Pass())
            self.starts.append(0)
            self._in_report = True
            try:
                return report(timer, *args, **kwargs)
            finally:
                self._in_report = False

        monkeypatch.setattr(NominalTimer, "report", spy_report)
        accept = baseline_module.resize_scheduled_gates

        def spy_accept(*args):
            stacks = self.passes[-1].stacks
            outcome = accept(*args)
            if self.passes[-1].stacks > stacks:  # the bulk resize was rejected
                self.passes[-1].kept = len(outcome[0])
            return outcome

        monkeypatch.setattr(baseline_module, "resize_scheduled_gates", spy_accept)

    def _analyze(self):
        if not self._in_report:
            self.passes[-1].analyses += 1

    def _preview(self, trials=None):
        if trials is None:
            self.passes[-1].previews += 1
        else:
            self.passes[-1].stacks += 1
            self.stack_sizes.append(len(trials))

    def _time(self, *args):
        if self._in_report:
            self.starts[-1] += 1
        else:
            self.passes[-1].sweeps += 1


class TestBaselinePassTiming:
    """``MeanDelaySizer`` times each pass on one committed ``NominalTimer``:
    its ``report()`` propagates nothing (the timer already holds the
    circuit's sizes), and each bulk preview and each galloping stack is one
    propagation from the lowest dirty level.  A pass whose fallback keeps
    nothing commits the held bulk preview without propagating again.
    ``kept`` lists the trials each fallback keeps, in pass order."""

    @pytest.mark.parametrize(
        "name, kept", [("alu2", []), ("c432", [7, 5, 3, 2, 2, 1, 0, 0, 0])], ids=["alu2", "c432"]
    )
    def test_no_propagation_at_pass_start(self, name, kept, delay_model, monkeypatch):
        log = _TimerLog(monkeypatch)
        result = MeanDelaySizer(delay_model).optimize(build_benchmark(name))
        monkeypatch.undo()

        before, passes = log.passes[0], log.passes[1:]
        assert result.passes >= 2 and len(passes) == result.passes
        # The first run times every gate; no pass start propagates.
        assert (before.analyses, before.sweeps) == (1, 1)
        assert log.starts == [0] * len(passes)
        # One propagation per bulk preview and per galloping stack, and one
        # bulk preview per pass that schedules anything.
        assert [p.sweeps for p in passes] == [p.previews + p.stacks for p in passes]
        assert all(p.previews == 1 for p in passes[:-1])
        # Only a fallback that keeps nothing calls analyze(), which commits
        # the held bulk preview; every pass leaves the circuit's sizes committed.
        assert [p.kept for p in passes if p.kept is not None] == kept
        assert [p.analyses for p in passes] == [int(p.kept == 0) for p in passes]
        assert [p.clean for p in passes[:-1]] == [True] * (len(passes) - 1)


def _galloping_stacks(num_trials, kept):
    """Stacks a galloping walk over ``num_trials`` previews when it keeps the
    trials at positions ``kept``: ``FIRST_STACK`` trials, then twice as many
    and so on, back to ``FIRST_STACK`` right after a keep."""
    stacks, start, size = 0, 0, FIRST_STACK
    while start < num_trials:
        stacks += 1
        stop = min(start + size, num_trials)
        hit = min(set(kept) & set(range(start, stop)), default=None)
        start, size = (stop, 2 * size) if hit is None else (hit + 1, FIRST_STACK)
    return stacks


#: (circuit, baseline fallbacks, trials they time one at a time, trials they keep).
BASELINE_CASES = [("c432", 9, 126, 20), ("c1908", 12, 374, 15)]


class TestBaselineFallbackSweepsOncePerStack:
    """``MeanDelaySizer`` accepts its passes through ``resize_scheduled_gates``:
    its fallback times each galloping stack in one propagation of the
    committed timer, a column per trial, and keeps exactly what the
    one-at-a-time loop of fresh ``DeterministicSTA.max_delay`` runs keeps."""

    @pytest.mark.parametrize("name, fallbacks, trials, kept", BASELINE_CASES)
    def test_same_decisions_one_sweep_per_stack(
        self, name, fallbacks, trials, kept, delay_model, monkeypatch, one_at_a_time_baseline
    ):
        with one_at_a_time_baseline() as reference_fallbacks:
            reference = MeanDelaySizer(delay_model).optimize(build_benchmark(name))
        assert len(reference_fallbacks) == fallbacks
        assert sum(n for n, _ in reference_fallbacks) == trials
        assert sum(len(positions) for _, positions in reference_fallbacks) == kept

        log = _TimerLog(monkeypatch)
        result = MeanDelaySizer(delay_model).optimize(build_benchmark(name))
        monkeypatch.undo()

        # Bitwise the one-at-a-time loop's decisions.
        assert result.circuit.sizes() == reference.circuit.sizes()
        assert (result.passes, result.final_delay) == (reference.passes, reference.final_delay)
        # One propagation per galloping stack, not one per trial.
        stacks = log.stack_sizes
        assert len(stacks) == sum(_galloping_stacks(n, p) for n, p in reference_fallbacks)
        assert len(stacks) < trials <= sum(stacks)
        # Every propagation after the first run is a bulk preview or a stack.
        passes = log.passes[1:]
        assert sum(p.sweeps for p in passes) == sum(p.previews for p in passes) + len(stacks)
        assert log.starts == [0] * len(passes)


def _pseudo_random(state, salt):
    """A uniform [0, 1) value that depends only on ``state`` (a size dict) and ``salt``."""
    key = repr((salt, sorted(state.items()))).encode()
    return zlib.crc32(key) / 2**32


class _ScriptedTimer:
    """A timer whose result for any sizes is a fixed pseudo-random score.

    It speaks the ``analyze`` / ``preview`` / ``commit_preview`` protocol
    with the same preconditions as the real timers, and records each
    stacked preview's trials.
    """

    def __init__(self, circuit, salt):
        self.circuit, self.salt = circuit, salt
        self.committed = circuit.sizes()
        self.stacks = []
        self._pending = None

    def score(self, state):
        return _pseudo_random(state, self.salt)

    def analyze(self):
        self.committed, self._pending = self.circuit.sizes(), None
        return self.score(self.committed)

    def preview(self, trials=None):
        if trials is None:
            self._pending = [self.circuit.sizes()]
            return self.score(self._pending[0])
        assert self.circuit.sizes() == self.committed, "trials need the committed sizes"
        self.stacks.append(list(trials))
        self._pending = [{**self.committed, name: size} for name, size in trials]
        return [self.score(state) for state in self._pending]

    def commit_preview(self, index=0):
        if self._pending is None or self.circuit.sizes() != self._pending[index]:
            return False
        self.committed, self._pending = self._pending[index], None
        return True


def _one_at_a_time_pass(circuit, scheduled, best, score, better, fits):
    """The reference pass: the bulk resize, else each trial in order, kept
    when it beats the last kept one and fits; else the bulk resize anyway."""
    undo = {name: circuit.gate(name).size_index for name in scheduled}
    circuit.apply_sizes(scheduled)
    bulk = score(circuit.sizes())
    if better(bulk, best) and fits():
        return dict(scheduled), bulk
    circuit.apply_sizes(undo)
    kept = {}
    for name, size in scheduled.items():
        circuit.set_size(name, size)
        trial = score(circuit.sizes())
        if better(trial, best) and fits():
            kept[name], best = size, trial
        else:
            circuit.set_size(name, undo[name])
    if not kept:
        circuit.apply_sizes(scheduled)
        return kept, bulk
    return kept, best


class TestFallbackKeepsTheOneAtATimeTrials:
    """``resize_scheduled_gates`` previews its fallback in stacks of
    ``FIRST_STACK`` and more, yet keeps exactly the trials a one-at-a-time
    loop keeps, for scripted scores and area verdicts of every state."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_accept_patterns(self, seed, library):
        rng = np.random.default_rng(seed)
        circuit = build_benchmark("c432")
        names = list(map(str, rng.choice(list(circuit.gates), size=int(rng.integers(1, 60)),
                                         replace=False)))
        scheduled = {}
        for name in names:
            num_sizes = library.num_sizes(circuit.gate(name).cell_type)
            size = circuit.gate(name).size_index
            scheduled[name] = (size + int(rng.integers(1, num_sizes))) % num_sizes
        best, slack, fit_rate = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.3), rng.uniform(0.3, 1.0)

        def better(new, old):
            return new < old + slack

        def fits(circuit):
            return lambda: _pseudo_random(circuit.sizes(), "fits") < fit_rate

        reference_circuit = build_benchmark("c432")
        timer = _ScriptedTimer(reference_circuit, seed)
        expected = _one_at_a_time_pass(
            reference_circuit, scheduled, best, timer.score, better, fits(reference_circuit)
        )

        timer = _ScriptedTimer(circuit, seed)
        kept, result, score = sizer_module.resize_scheduled_gates(
            timer, circuit, scheduled, best, lambda result: result, better, fits(circuit)
        )
        assert (kept, score) == expected and result == score
        assert circuit.sizes() == reference_circuit.sizes() == timer.committed
        # Trials are previewed in order; each stack starts right after the
        # last trial kept (or read) and holds FIRST_STACK, then twice as many.
        trials = list(scheduled.items())
        start, size = 0, FIRST_STACK
        for stack in timer.stacks:
            assert stack == trials[start:start + size]
            hits = [trial for trial in stack if trial in kept.items()]
            start, size = (
                (trials.index(hits[0]) + 1, FIRST_STACK) if hits else (start + size, 2 * size)
            )
        assert start >= len(trials) or not timer.stacks
