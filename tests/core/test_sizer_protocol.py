"""Each sizing state is timed once.

Both sizers accept a pass through ``resize_scheduled_gates``.
``StatisticalGreedySizer`` previews every pass's bulk resize with the
no-argument ``IncrementalReanalysis.preview()`` and commits it only when it
is kept.  A rejected bulk pass reverts its gates, which leaves the circuit
at the committed state, and the fallback previews its trials against that
state directly.  Only a fallback that keeps nothing calls ``analyze()``,
to commit the bulk sizes the pass keeps anyway, and it commits the bulk
preview's delta without sweeping again.  So between passes the cache holds
exactly the circuit's sizes.  ``MeanDelaySizer`` runs one
deterministic STA per pass, whose report supplies both the near-critical
targets and the candidate sweep's boundary arrivals, and its fallback
times each galloping stack in one DSTA run, a column per trial.
"""

from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.circuits.registry import build_benchmark
from repro.core import sizer as sizer_module
from repro.core.baseline import MeanDelaySizer
from repro.core.cost import CostEvaluator
from repro.core.fullssta import IncrementalReanalysis
from repro.core.sizer import SizerConfig, StatisticalGreedySizer
from repro.sta.dsta import DeterministicSTA


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


class TestBaselineRunsOneStaPerPass:
    @pytest.mark.parametrize("name", ["alu2", "c432"])
    def test_every_arrival_times_call_is_an_analyze(self, name, delay_model, monkeypatch):
        calls = []  # per arrival_times call: is it inside an analyze()?
        inside = []
        analyze, arrival_times = DeterministicSTA.analyze, DeterministicSTA.arrival_times

        def spy_analyze(dsta, *args, **kwargs):
            inside.append(True)
            try:
                return analyze(dsta, *args, **kwargs)
            finally:
                inside.pop()

        def spy_arrival_times(dsta, *args, **kwargs):
            calls.append(bool(inside))
            return arrival_times(dsta, *args, **kwargs)

        monkeypatch.setattr(DeterministicSTA, "analyze", spy_analyze)
        monkeypatch.setattr(DeterministicSTA, "arrival_times", spy_arrival_times)
        result = MeanDelaySizer(delay_model).optimize(build_benchmark(name))
        assert result.passes >= 2
        assert len(calls) >= result.passes
        assert all(calls)


def _galloping_stacks(num_trials, kept):
    """Stacks a galloping walk over ``num_trials`` previews when it keeps the
    trials at positions ``kept``: 1, 2, 4, ... trials, back to 1 after a keep."""
    stacks, start, size = 0, 0, 1
    while start < num_trials:
        stacks += 1
        stop = min(start + size, num_trials)
        hit = min(set(kept) & set(range(start, stop)), default=None)
        start, size = (stop, 2 * size) if hit is None else (hit + 1, 1)
    return stacks


#: (circuit, baseline fallbacks, trials they time one at a time, trials they keep).
BASELINE_CASES = [("c432", 9, 126, 20), ("c1908", 12, 374, 15)]
#: DSTA runs per baseline optimize.
BASELINE_RUNS = {"c432": 98, "c1908": 141}


class TestBaselineFallbackSweepsOncePerStack:
    """``MeanDelaySizer`` accepts its passes through ``resize_scheduled_gates``:
    its fallback times each galloping stack in one DSTA run, a column per
    trial, and keeps exactly what the one-at-a-time loop keeps."""

    @pytest.mark.parametrize("name, fallbacks, trials, kept", BASELINE_CASES)
    def test_same_decisions_one_sweep_per_stack(
        self, name, fallbacks, trials, kept, delay_model, monkeypatch, one_at_a_time_baseline
    ):
        with one_at_a_time_baseline() as reference_fallbacks:
            reference = MeanDelaySizer(delay_model).optimize(build_benchmark(name))
        assert len(reference_fallbacks) == fallbacks
        assert sum(n for n, _ in reference_fallbacks) == trials
        assert sum(len(positions) for _, positions in reference_fallbacks) == kept

        columns = []  # per DSTA run: its trial count, or None at the circuit's sizes
        propagate = DeterministicSTA._propagate

        def spy(dsta, circuit, trials=None):
            columns.append(None if trials is None else len(trials))
            return propagate(dsta, circuit, trials)

        monkeypatch.setattr(DeterministicSTA, "_propagate", spy)
        result = MeanDelaySizer(delay_model).optimize(build_benchmark(name))
        monkeypatch.undo()

        # Bitwise the one-at-a-time loop's decisions.
        assert result.circuit.sizes() == reference.circuit.sizes()
        assert (result.passes, result.final_delay) == (reference.passes, reference.final_delay)
        # One run per galloping stack, not one per trial.
        stacks = [n for n in columns if n is not None]
        assert len(stacks) == sum(_galloping_stacks(n, p) for n, p in reference_fallbacks)
        assert len(stacks) < trials <= sum(stacks)
        # A pass that keeps nothing commits its bulk resize without a DSTA run.
        assert len(columns) == BASELINE_RUNS[name]
