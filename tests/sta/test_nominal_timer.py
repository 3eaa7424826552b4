"""The committed nominal timer: previews, commits and the reverse pass, bit for bit.

``NominalTimer`` keeps the committed delay per gate and arrival per net
slot, and times previews from the lowest dirty level.  Every committed and
previewed column must equal a from-scratch gate-by-gate propagation (the
``reference_fold`` fixture) exactly.  Its report is pinned to the per-gate
required-time walk and critical-path trace below, which the reverse
levelized pass replaced.
"""

import operator

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark, c17
from repro.netlist.circuit import Circuit
from repro.sta.dsta import DeterministicSTA, NominalTimer


def reference_column(fold, delay_model, circuit):
    """Arrival per net slot from the gate-by-gate fold (floating nets at 0.0)."""
    arrival, _ = fold(
        circuit, lambda gate: delay_model.gate_delay(circuit, gate), 0.0, max, operator.add
    )
    return [arrival.get(net, 0.0) for net in circuit.compiled().net_names]


def walk_required(circuit, arrival, gate_delays, clock_period=None):
    """``(worst output, period, required times)`` by the per-gate walk.

    Required times start at the period on the primary outputs and move
    backwards gate by gate in reverse topological order; a dangling gate
    output is required at the period.  Nets nothing reads or constrains are
    left out.
    """
    outputs = circuit.primary_outputs
    worst_output = max(outputs, key=lambda net: arrival.get(net, 0.0))
    period = clock_period if clock_period is not None else arrival.get(worst_output, 0.0)
    required = dict.fromkeys(outputs, period)
    for gate in reversed(list(circuit)):
        out_required = required.get(gate.output)
        if out_required is None:  # dangling gate output: unconstrained
            out_required = required[gate.output] = period
        input_required = out_required - gate_delays[gate.name]
        for net in gate.inputs:
            previous = required.get(net)
            if previous is None or input_required < previous:
                required[net] = input_required
    return worst_output, period, required


def walk_critical_path(circuit, arrival, worst_output):
    """Back from the worst output's driver through each gate's latest-arriving input."""
    path = []
    gate = circuit.driver_of(worst_output)
    while gate is not None:
        path.append(gate.name)
        gate = circuit.driver_of(max(gate.inputs, key=lambda net: arrival.get(net, 0.0)))
    return path[::-1]


def assert_report_matches_walk(report, circuit, delay_model, fold, clock_period=None):
    arrival, gate_delays = fold(
        circuit, lambda gate: delay_model.gate_delay(circuit, gate), 0.0, max, operator.add
    )
    worst_output, period, required = walk_required(circuit, arrival, gate_delays, clock_period)
    assert report.arrival == {net: arrival[net] for net in report.arrival}
    assert report.gate_delays == gate_delays
    assert (report.worst_output, report.worst_arrival) == (
        worst_output, arrival.get(worst_output, 0.0))
    assert report.clock_period == period
    slotted = {net: value for net, value in required.items() if net in report.required}
    assert {net: report.required[net] for net in slotted} == slotted
    assert all(report.required[net] == period for net in report.required.keys() - required)
    assert report.slack == {net: required.get(net, period) - arrival[net] for net in arrival}
    assert report.critical_path == walk_critical_path(circuit, arrival, worst_output)


def _random_trials(rng, circuit, library, count):
    names = list(circuit.gates)
    return [
        (name, int(rng.integers(library.num_sizes(circuit.gate(name).cell_type))))
        for name in (str(n) for n in rng.choice(names, size=count))
    ]


class TestCommittedColumn:
    """Random preview / commit / revert sequences against from-scratch folds."""

    @pytest.mark.parametrize("name, steps, stack", [
        ("c17", 12, 4), ("c432", 10, 6), ("c880", 8, 6), ("c6288", 4, 3)])
    def test_random_sequences(self, name, steps, stack, delay_model, library, reference_fold):
        circuit = c17() if name == "c17" else build_benchmark(name)
        timer = NominalTimer(delay_model, circuit)
        rng = np.random.default_rng(sum(map(ord, name)))

        def reference():
            return reference_column(reference_fold, delay_model, circuit)

        timer.analyze()
        assert timer.arrivals[:-1].tolist() == reference()
        for step in range(steps):
            if step % 2:  # a bulk resize, previewed, then committed or reverted
                undo = circuit.sizes()
                for gate, size in _random_trials(rng, circuit, library, stack):
                    circuit.set_size(gate, size)
                worst = timer.preview()
                assert timer._pending[0].arrivals[:-1].tolist() == reference()
                assert worst == DeterministicSTA(delay_model).max_delay(circuit)
                if rng.random() < 0.5:
                    assert timer.commit_preview()
                else:
                    circuit.apply_sizes(undo)
                assert timer.analyze() == DeterministicSTA(delay_model).max_delay(circuit)
            else:  # a stack of trials, one of them committed
                trials = _random_trials(rng, circuit, library, stack)
                worst = timer.preview(trials)
                deltas = timer._pending
                for j, (gate, size) in enumerate(trials):
                    previous = circuit.gate(gate).size_index
                    circuit.set_size(gate, size)
                    assert deltas[j].arrivals[:-1].tolist() == reference(), (gate, size)
                    assert worst[j] == DeterministicSTA(delay_model).max_delay(circuit)
                    circuit.set_size(gate, previous)
                j = int(rng.integers(len(trials)))
                circuit.set_size(*trials[j])
                assert timer.commit_preview(j)
            assert timer.arrivals[:-1].tolist() == reference()
            assert timer.delays.tolist() == delay_model.nominal_delays(circuit).tolist()

    def test_structural_edit_retimes_everything(self, delay_model, reference_fold):
        circuit = c17()
        timer = NominalTimer(delay_model, circuit)
        timer.analyze()
        timer.preview()
        circuit.add("extra", "INV", ["N22"], "n_extra")
        circuit.add_primary_output("n_extra")
        assert not timer.commit_preview()
        assert timer.analyze() == DeterministicSTA(delay_model).max_delay(circuit)
        assert timer.arrivals[:-1].tolist() == reference_column(
            reference_fold, delay_model, circuit)

    def test_commit_preview_refuses_other_sizes(self, delay_model, library):
        circuit = build_benchmark("c432")
        timer = NominalTimer(delay_model, circuit)
        assert not timer.commit_preview()  # nothing previewed
        timer.analyze()
        gate = circuit.topological_order()[5]
        size = circuit.gate(gate).size_index
        other, third = (size + 1) % 7, (size + 2) % 7
        timer.preview([(gate, other)])
        assert not timer.commit_preview(0)  # the circuit does not hold the trial
        circuit.set_size(gate, third)
        assert not timer.commit_preview(0)  # nor at another size
        with pytest.raises(ValueError, match="committed sizes"):
            timer.preview([(gate, other)])
        circuit.set_size(gate, other)
        assert timer.commit_preview(0)
        assert not timer.commit_preview(0)  # a commit consumes the preview
        # A bulk preview refuses a resize it did not see.
        circuit.set_size(gate, size)
        timer.preview()
        circuit.set_size(circuit.topological_order()[7], 6)
        assert not timer.commit_preview()
        assert timer.analyze() == DeterministicSTA(delay_model).max_delay(circuit)

    def test_report_is_a_snapshot(self, delay_model):
        # A commit replaces the committed vectors rather than writing into
        # them, so a report taken before it keeps its own arrays.
        circuit = build_benchmark("c432")
        timer = NominalTimer(delay_model, circuit)
        report = timer.report()
        fields = ("arrivals", "delays", "required_times", "slacks")
        before = {field: getattr(report, field).tolist() for field in fields}
        trial, bulk = circuit.topological_order()[5], circuit.topological_order()[40]
        size = (circuit.gate(trial).size_index + 3) % 7
        timer.preview([(trial, size)])
        circuit.set_size(trial, size)
        assert timer.commit_preview(0)  # a trial, kept
        circuit.set_size(bulk, (circuit.gate(bulk).size_index + 3) % 7)
        timer.preview()
        timer.analyze()  # a bulk preview, committed
        assert timer.delays.tolist() != before["delays"]
        assert timer.arrivals[:-1].tolist() != before["arrivals"]
        assert {field: getattr(report, field).tolist() for field in fields} == before

    def test_analyze_commits_the_held_preview_without_propagating(
        self, delay_model, monkeypatch
    ):
        circuit = build_benchmark("c432")
        timer = NominalTimer(delay_model, circuit)
        timer.analyze()
        gate = circuit.topological_order()[3]
        circuit.set_size(gate, 6)
        held = timer.preview()
        circuit.set_size(gate, 0)
        timer.preview([(gate, 5)])  # a stack does not replace the held preview
        circuit.set_size(gate, 6)
        runs = []
        time = NominalTimer._time
        monkeypatch.setattr(NominalTimer, "_time", lambda *a: runs.append(a) or time(*a))
        assert timer.analyze() == held
        assert runs == []

    def test_a_commit_drops_the_held_preview(self, delay_model, reference_fold):
        # The held bulk preview is a delta against the state it was timed
        # on, so once a trial is committed, analyze() at its sizes retimes.
        circuit = build_benchmark("c432")
        timer = NominalTimer(delay_model, circuit)
        timer.analyze()
        bulk, trial = circuit.topological_order()[3], circuit.topological_order()[60]
        size = circuit.gate(bulk).size_index
        circuit.set_size(bulk, (size + 3) % 7)
        timer.preview()
        circuit.set_size(bulk, size)
        other = (circuit.gate(trial).size_index + 3) % 7
        timer.preview([(trial, other)])
        circuit.set_size(trial, other)
        assert timer.commit_preview(0)
        circuit.set_size(bulk, (size + 3) % 7)
        assert timer.analyze() == DeterministicSTA(delay_model).max_delay(circuit)
        assert timer.arrivals[:-1].tolist() == reference_column(
            reference_fold, delay_model, circuit)


class TestReversePass:
    """``report()`` against the per-gate required-time walk."""

    @pytest.mark.parametrize("name", ["c17", "c432", "alu2", "c1908", "c6288"])
    @pytest.mark.parametrize("clock_period", [None, 2500.0, 1.0])
    def test_matches_walk(self, name, clock_period, delay_model, library, reference_fold):
        circuit = c17() if name == "c17" else build_benchmark(name)
        timer = NominalTimer(delay_model, circuit)
        report = timer.report(clock_period)
        assert_report_matches_walk(report, circuit, delay_model, reference_fold, clock_period)
        arrivals = report.arrivals.copy()
        # After a committed trial the report reads the new committed arrays,
        # and an earlier report keeps its own.
        rng = np.random.default_rng(3)
        trials = _random_trials(rng, circuit, library, 4)
        timer.preview(trials)
        circuit.set_size(*trials[2])
        assert timer.commit_preview(2)
        assert_report_matches_walk(
            timer.report(clock_period), circuit, delay_model, reference_fold, clock_period)
        assert report.arrivals.tolist() == arrivals.tolist()

    def test_worst_output_is_the_first_latest(self, delay_model, reference_fold):
        for outputs in (["y2", "y1", "a"], ["y1", "y2"], ["a", "y2", "y1"]):
            circuit = Circuit("tie", primary_inputs=["a"], primary_outputs=outputs)
            circuit.add("g1", "INV", ["a"], "y1")
            circuit.add("g2", "INV", ["a"], "y2")
            report = DeterministicSTA(delay_model).analyze(circuit)
            assert report.arrival["y1"] == report.arrival["y2"] > 0.0
            assert report.worst_output == next(net for net in outputs if net != "a")
            assert_report_matches_walk(report, circuit, delay_model, reference_fold)

    @pytest.mark.parametrize("pins, path", [(["n2", "n1"], ["g2", "g3"]),
                                            (["n1", "n2"], ["g1", "g3"])])
    def test_critical_path_takes_the_first_latest_pin(
        self, pins, path, delay_model, reference_fold
    ):
        circuit = Circuit("tie", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "INV", ["a"], "n1")
        circuit.add("g2", "INV", ["a"], "n2")
        circuit.add("g3", "NAND2", pins, "y")
        report = DeterministicSTA(delay_model).analyze(circuit)
        assert report.arrival["n1"] == report.arrival["n2"]
        assert report.critical_path == path
        assert_report_matches_walk(report, circuit, delay_model, reference_fold)

    @pytest.mark.parametrize("clock_period", [None, 900.0])
    def test_dangling_output_is_required_at_the_period(
        self, clock_period, delay_model, reference_fold
    ):
        circuit = Circuit("dangle", primary_inputs=["a", "b"], primary_outputs=["y"])
        circuit.add("g1", "NAND2", ["a", "b"], "n1")
        circuit.add("g2", "INV", ["n1"], "y")
        circuit.add("g3", "INV", ["n1"], "n3")
        circuit.add("g4", "INV", ["n3"], "dangling")
        report = DeterministicSTA(delay_model).analyze(circuit, clock_period)
        period = report.clock_period
        assert report.required["dangling"] == period
        assert report.required["n3"] == period - report.gate_delays["g4"]
        assert_report_matches_walk(report, circuit, delay_model, reference_fold, clock_period)

    def test_primary_input_that_is_an_output(self, delay_model, reference_fold):
        circuit = Circuit("wire", primary_inputs=["a", "b"], primary_outputs=["b", "y"])
        circuit.add("g1", "NAND2", ["a", "b"], "y")
        report = DeterministicSTA(delay_model).analyze(circuit)
        assert report.worst_output == "y"
        assert report.required["b"] == min(report.clock_period, report.required["a"])
        assert report.slack["b"] == report.required["b"] - 0.0
        assert_report_matches_walk(report, circuit, delay_model, reference_fold)
        only_input = Circuit("only", primary_inputs=["a", "b"], primary_outputs=["b"])
        only_input.add("g1", "NAND2", ["a", "b"], "y")
        report = DeterministicSTA(delay_model).analyze(only_input)
        assert (report.worst_output, report.worst_arrival, report.critical_path) == ("b", 0.0, [])
        assert report.required["y"] == report.clock_period == 0.0
        assert_report_matches_walk(report, only_input, delay_model, reference_fold)

    def test_floating_inputs_arrive_at_zero(self, delay_model, reference_fold):
        circuit = Circuit("f", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g", "NAND2", ["ghost", "a"], "n")
        circuit.add("h", "INV", ["n"], "y")
        timer = NominalTimer(delay_model, circuit)
        timer.analyze()
        plan = circuit.compiled()
        assert timer.arrivals[plan.net_index["ghost"]] == 0.0
        report = timer.report()
        assert "ghost" not in report.arrival and "ghost" not in report.slack
        assert report.required["ghost"] == report.required["a"]
        assert report.critical_path == ["g", "h"]  # ghost and a tie at 0.0; ghost is pin 0
        assert_report_matches_walk(report, circuit, delay_model, reference_fold)
