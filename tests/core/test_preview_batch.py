"""Stacked previews and the galloping fallback, pinned to the one-at-a-time loop.

``IncrementalReanalysis.preview(trials)`` times a stack of ``(gate, size)``
trials in one sweep whose kernel rows are (trial, cone gate) pairs, each
trial keeping its moved rows in an overlay over the committed state.  The
sizer's fallback previews its schedule in galloping stacks of 1, 2, 4, ...
and commits the first improving trial.  Both are exact only if every trial
of a stack comes out bit for bit as ``set_size -> preview() -> set_size
(previous)`` shows it; these tests pin that, trial by trial.
"""

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark
from repro.core import fullssta
from repro.core import sizer as sizer_module
from repro.core.baseline import MeanDelaySizer
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis
from repro.core.sizer import SizerConfig, StatisticalGreedySizer
from repro.obs import METRICS, Tracer, activate
from repro.variation.model import VariationModel


def _other_size(circuit, name, library):
    """A size of ``name`` different from its current one."""
    size = circuit.gate(name).size_index
    return (size + 3) % library.num_sizes(circuit.gate(name).cell_type)


def _sequential(reanalysis, circuit, trials):
    """Each trial as ``set_size -> preview() -> set_size(previous)``:
    its delta and result."""
    timed = []
    for name, size in trials:
        previous = circuit.gate(name).size_index
        circuit.set_size(name, size)
        result = reanalysis.preview()
        timed.append((reanalysis._pending[0], result))
        circuit.set_size(name, previous)
    return timed


def _stacked(reanalysis, trials):
    """One stacked preview of ``trials``: every trial's delta and result."""
    results = reanalysis.preview(trials)
    return list(zip(reanalysis._pending, results, strict=True))


def _assert_same_trial(got, expected):
    (delta, result), (ref_delta, ref_result) = got, expected
    assert np.array_equal(delta.slots, ref_delta.slots)
    for part, ref_part in zip(delta.rows, ref_delta.rows, strict=True):
        assert np.array_equal(part, ref_part)
    assert result.arrival_moments == ref_result.arrival_moments
    assert np.array_equal(result.output_pdf.values, ref_result.output_pdf.values)
    assert np.array_equal(result.output_pdf.probabilities, ref_result.output_pdf.probabilities)
    assert result.output_rv == ref_result.output_rv


def _assert_stack_matches_sequential(engine, circuit, trials):
    stacked = IncrementalReanalysis(engine, circuit)
    stacked.analyze()
    got = _stacked(stacked, trials)
    sequential = IncrementalReanalysis(engine, circuit)
    sequential.analyze()
    for trial, pair in enumerate(zip(got, _sequential(sequential, circuit, trials), strict=True)):
        assert pair[0][0].slots.size, trial  # every trial here moves some row
        _assert_same_trial(*pair)
    return stacked


def _fallbacks(name, delay_model, variation_model, monkeypatch):
    """Size ``name`` (c432 from the mean-delay baseline, others from unit
    sizes) at ``max_iterations=4`` and record every fallback pass: its start
    sizes, its schedule and the positions it accepted."""
    circuit = build_benchmark(name)
    if name == "c432":
        MeanDelaySizer(delay_model).optimize(circuit)
    passes = []
    accept = sizer_module.resize_scheduled_gates

    def spy(reanalysis, circuit, scheduled, *args):
        start, batches = circuit.sizes(), reanalysis.preview_batches
        outcome = accept(reanalysis, circuit, scheduled, *args)
        if reanalysis.preview_batches - batches > 1:  # the bulk resize was rejected
            trials = list(scheduled.items())
            passes.append((start, trials, [trials.index(t) for t in outcome[0].items()]))
        return outcome

    monkeypatch.setattr(sizer_module, "resize_scheduled_gates", spy)
    config = SizerConfig(lam=3.0, max_iterations=4)
    return StatisticalGreedySizer(delay_model, variation_model, config).optimize(circuit), passes


class TestStackEqualsSequentialPreviews:
    @pytest.mark.parametrize("name, num_trials", [("c432", 21), ("alu2", 23)])
    def test_every_trial_of_the_first_fallback_pass(
        self, name, num_trials, delay_model, variation_model, monkeypatch
    ):
        _, passes = _fallbacks(name, delay_model, variation_model, monkeypatch)
        start, trials, _ = passes[0]
        assert len(trials) == num_trials
        circuit = build_benchmark(name)
        circuit.apply_sizes(start)
        _assert_stack_matches_sequential(FULLSSTA(delay_model, variation_model), circuit, trials)

    def test_trials_sharing_a_fanin_driver(self, delay_model, variation_model, library):
        circuit = build_benchmark("c432")
        driver, first, second = next(
            (gate.name, *readers)
            for gate in circuit
            for readers in [list(dict.fromkeys(g.name for g in circuit.fanout_gates(gate.name)))]
            if len(readers) >= 2
        )[:3]
        assert driver in {g.name for g in circuit.fanin_gates(first)}
        assert driver in {g.name for g in circuit.fanin_gates(second)}
        trials = [(name, _other_size(circuit, name, library)) for name in (first, second)]
        _assert_stack_matches_sequential(FULLSSTA(delay_model, variation_model), circuit, trials)

    def test_trial_gate_driving_another_trials_gate(self, delay_model, variation_model, library):
        circuit = build_benchmark("c432")
        driver, reader = next(
            (gate.name, circuit.fanout_gates(gate.name)[0].name)
            for gate in circuit
            if circuit.fanout_gates(gate.name)
        )
        trials = [(name, _other_size(circuit, name, library)) for name in (reader, driver, reader)]
        _assert_stack_matches_sequential(FULLSSTA(delay_model, variation_model), circuit, trials)

    def test_zero_sigma_point_rows(self, delay_model, library):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, VariationModel(proportional_alpha=0.0, random_sigma=0.0))
        names = circuit.topological_order()[::40]
        trials = [(name, _other_size(circuit, name, library)) for name in names]
        stacked = _assert_stack_matches_sequential(engine, circuit, trials)
        assert all(set(delta.rows[2].tolist()) == {1} for delta in stacked._pending)

    def test_widest_level_bound_splits_a_level(
        self, delay_model, variation_model, library, monkeypatch
    ):
        circuit = build_benchmark("c432")
        plan = circuit.compiled()
        widest = int(np.diff(plan.level_offsets).max())
        add_rows = []
        combine = fullssta.batched_combine

        def spy(a_values, a_probs, b_values, b_probs, op, num_samples):
            if op == "add":
                add_rows.append(len(a_values))
            return combine(a_values, a_probs, b_values, b_probs, op, num_samples)

        engine = FULLSSTA(delay_model, variation_model)
        stacked = IncrementalReanalysis(engine, circuit)
        stacked.analyze()
        trials = [(name, _other_size(circuit, name, library)) for name in list(circuit.gates)[:60]]
        monkeypatch.setattr(fullssta, "batched_combine", spy)
        got = _stacked(stacked, trials)
        monkeypatch.undo()
        # One add call per kernel group: more groups than levels means some
        # level was split, and no group is wider than the widest level.
        assert max(add_rows) == widest
        assert len(add_rows) > plan.num_levels
        sequential = IncrementalReanalysis(engine, circuit)
        sequential.analyze()
        for pair in zip(got, _sequential(sequential, circuit, trials), strict=True):
            _assert_same_trial(*pair)


class TestCommitOneTrialOfAStack:
    def test_commit_then_preview_the_rest(self, delay_model, variation_model, library):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        names = circuit.topological_order()[5::25]
        trials = [(name, _other_size(circuit, name, library)) for name in names]
        j = 3
        stacked = IncrementalReanalysis(engine, circuit)
        stacked.analyze()
        results = stacked.preview(trials)
        chosen = [next(results) for _ in range(j + 1)][j]
        circuit.set_size(*trials[j])
        assert stacked.commit_preview(j)
        with pytest.raises(RuntimeError):
            next(results)  # timed against a committed state that is gone

        scratch = engine.analyze(circuit)
        committed = stacked.analyze()
        assert committed.arrival_moments == scratch.arrival_moments
        assert chosen.arrival_moments == scratch.arrival_moments
        for net, pdf in scratch.arrival_pdfs.items():
            assert np.array_equal(committed.arrival_pdfs[net].values, pdf.values), net
            assert np.array_equal(committed.arrival_pdfs[net].probabilities, pdf.probabilities)
        assert committed.output_rv == scratch.output_rv == chosen.output_rv

        rest = trials[j + 1:]
        sequential = IncrementalReanalysis(engine, circuit)
        sequential.analyze()
        sequential_rest = _sequential(sequential, circuit, rest)
        for pair in zip(_stacked(stacked, rest), sequential_rest, strict=True):
            _assert_same_trial(*pair)

    def test_commit_refused_unless_the_circuit_holds_the_trial(
        self, delay_model, variation_model, library
    ):
        circuit = build_benchmark("c17")
        stacked = IncrementalReanalysis(FULLSSTA(delay_model, variation_model), circuit)
        stacked.analyze()
        trials = [(name, _other_size(circuit, name, library)) for name in ("g10", "g16")]
        stacked.preview(trials)
        assert not stacked.commit_preview(1)  # g16 still at its committed size
        circuit.set_size(*trials[0])
        assert not stacked.commit_preview(1)  # the circuit holds trial 0, not 1
        assert stacked.commit_preview(0)
        circuit.set_size(*trials[1])  # an uncommitted resize
        with pytest.raises(ValueError, match="analyze"):
            stacked.preview(trials)


class TestGallopingFallback:
    @pytest.mark.parametrize("name", ["alu2", "c432"])
    def test_fallbacks_accept_reject_and_come_up_empty(
        self, name, delay_model, variation_model, monkeypatch
    ):
        result, passes = _fallbacks(name, delay_model, variation_model, monkeypatch)
        diagnostics = result.diagnostics
        accepted = [positions for _, _, positions in passes]
        if name == "alu2":
            assert [len(trials) for _, trials, _ in passes] == [23]
            assert len(accepted[0]) == 9 and accepted[0][:3] == [0, 1, 2]
        else:
            assert accepted == [[14, 17, 18], [], []]
        # Every pass previews its bulk resize and commits only what it
        # keeps; only a fallback that accepts nothing analyzes, to commit
        # the bulk sizes it keeps anyway.
        assert diagnostics["incremental_runs"] == sum(not positions for positions in accepted)
        # Every scheduled trial was previewed at least once, and the stacks
        # hold more than one trial on average.
        assert diagnostics["preview_runs"] >= sum(len(trials) for _, trials, _ in passes)
        assert len(passes) <= diagnostics["preview_batches"] < diagnostics["preview_runs"]

    def test_one_span_per_stacked_preview(self, delay_model, variation_model, library):
        circuit = build_benchmark("c432")
        reanalysis = IncrementalReanalysis(FULLSSTA(delay_model, variation_model), circuit)
        reanalysis.analyze()
        trials = [(name, _other_size(circuit, name, library)) for name in list(circuit.gates)[:12]]
        METRICS.reset()
        tracer = Tracer()
        with activate(tracer):
            retimed = reanalysis.gates_retimed
            reanalysis.preview(trials[:4])
            reanalysis.preview(trials[4:])
        spans = [s for s in tracer.spans if s.name == "fullssta.preview"]
        assert [s.attrs["trials"] for s in spans] == [4, 8]
        assert sum(s.attrs["rows"] for s in spans) == reanalysis.gates_retimed - retimed
        assert all(s.attrs["kernel_calls"] >= 1 for s in spans)
        assert METRICS.get_counter("incremental.preview_batches") == 2
        assert METRICS.get_counter("incremental.preview_runs") == 12
        assert reanalysis.stats["preview_batches"] == 2
