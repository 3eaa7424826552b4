"""Incremental FULLSSTA results cost only what their reader touches.

A result's ``arrival_pdfs`` / ``arrival_moments`` lay its delta's moved nets
over copies of the committed maps and build each moved net on first read,
and its output pdf folds on from the committed running maxima just before
the first primary output the delta moved.  Neither may show: every result
reads as a fresh ``FULLSSTA.analyze`` of its sizes, bit for bit, and stays a
snapshot of them after later commits.
"""

import pytest

from repro.circuits.registry import build_benchmark
from repro.core.discrete_pdf import DiscretePDF
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis
from repro.core.rv import NormalDelay
from repro.obs import METRICS

FLOATING, UNKNOWN = "floating_net", "no_such_net"


def _circuit(name):
    """Registry circuit ``name`` plus a probe gate reading a floating net."""
    circuit = build_benchmark(name)
    circuit.add("probe", "NAND2", [circuit.primary_inputs[0], FLOATING], "probe_out")
    return circuit


def _trials(circuit, library):
    """A resize of every primary output's driver and of a few inner gates, then a no-op."""
    names = [circuit.driver_of(net).name for net in circuit.primary_outputs]
    names += list(circuit.gates)[:: max(1, circuit.num_gates() // 5)]
    trials = []
    for name in dict.fromkeys(names):
        gate = circuit.gate(name)
        trials.append((name, (gate.size_index + 3) % library.num_sizes(gate.cell_type)))
    return [*trials, (names[0], circuit.gate(names[0]).size_index)]


def _at(engine, circuit, trial):
    """A fresh analysis of the circuit's sizes with ``trial`` set."""
    name, size = trial
    previous = circuit.gate(name).size_index
    circuit.set_size(name, size)
    fresh = engine.analyze(circuit)
    circuit.set_size(name, previous)
    return fresh


def _bits(value):
    if isinstance(value, DiscretePDF):
        return value.values.tobytes(), value.probabilities.tobytes()
    return value.mean.hex(), value.sigma.hex()


def assert_same_output(result, fresh):
    assert _bits(result.output_pdf) == _bits(fresh.output_pdf)
    assert _bits(result.output_rv) == _bits(fresh.output_rv)


def assert_reads_as_fresh(result, fresh):
    """Every ``Mapping`` entry point and every value, bitwise."""
    for got, want in (
        (result.arrival_pdfs, fresh.arrival_pdfs),
        (result.arrival_moments, fresh.arrival_moments),
    ):
        assert list(got) == list(want)
        assert len(got) == len(want)
        for net in (FLOATING, UNKNOWN):  # absent from both
            assert net not in got and net not in want
            assert got.get(net) is None and want.get(net) is None
        assert {net: _bits(value) for net, value in dict(got).items()} == {
            net: _bits(value) for net, value in want.items()
        }
    for net in (FLOATING, UNKNOWN, *fresh.arrival_moments):
        assert _bits(result.arrival(net)) == _bits(fresh.arrival(net))
    assert_same_output(result, fresh)


def assert_one_mean(result):
    """Every moment is bitwise ``NormalDelay(pdf.mean(), pdf.std())``."""
    for net, pdf in result.arrival_pdfs.items():
        assert _bits(result.arrival_moments[net]) == _bits(NormalDelay(pdf.mean(), pdf.std()))
    pdf = result.output_pdf
    assert _bits(result.output_rv) == _bits(NormalDelay(pdf.mean(), pdf.std()))


class TestLazyMaps:
    @pytest.mark.parametrize("name", ["c432", "alu2"])
    def test_every_result_reads_as_a_fresh_analysis(
        self, name, delay_model, variation_model, library
    ):
        circuit = _circuit(name)
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        reanalysis.analyze()
        trials = _trials(circuit, library)
        for gate, size in trials[:2]:
            circuit.set_size(gate, size)
        assert_reads_as_fresh(reanalysis.analyze(), engine.analyze(circuit))

        undo = {gate: circuit.gate(gate).size_index for gate, _ in trials[2:4]}
        for gate, size in trials[2:4]:
            circuit.set_size(gate, size)
        assert_reads_as_fresh(reanalysis.preview(), engine.analyze(circuit))
        for gate, size in undo.items():
            circuit.set_size(gate, size)

        trials = _trials(circuit, library)
        fresh = [_at(engine, circuit, trial) for trial in trials]
        for result, want in zip(reanalysis.preview(trials), fresh, strict=True):
            assert_reads_as_fresh(result, want)

    def test_a_kept_result_is_a_snapshot(self, delay_model, variation_model, library):
        circuit = _circuit("c432")
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        reanalysis.analyze()
        trials = _trials(circuit, library)[:2]
        want = _at(engine, circuit, trials[0])
        kept = next(reanalysis.preview(trials))  # built, its maps unread
        circuit.set_size(*trials[1])
        assert reanalysis.commit_preview(1)
        for gate, size in _trials(circuit, library)[2:6]:
            circuit.set_size(gate, size)
        reanalysis.analyze()
        assert_reads_as_fresh(kept, want)

    def test_every_moment_takes_its_pdfs_mean_once(
        self, delay_model, variation_model, library
    ):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        assert_one_mean(reanalysis.analyze())
        for result in reanalysis.preview(_trials(circuit, library)):
            assert_one_mean(result)


class TestOutputFoldPrefix:
    def test_a_trial_folds_on_from_its_first_moved_output(
        self, delay_model, variation_model, library
    ):
        circuit = build_benchmark("c432")
        outputs, plan = circuit.primary_outputs, circuit.compiled()
        n = len(outputs)
        assert n >= 3
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        reanalysis.analyze()
        trials = _trials(circuit, library)
        fresh = [_at(engine, circuit, trial) for trial in trials]
        results = reanalysis.preview(trials)
        firsts = []
        for delta, want in zip(reanalysis._pending, fresh, strict=True):
            moved = {plan.net_names[slot] for slot in delta.slots}
            first = next((k for k, net in enumerate(outputs) if net in moved), n)
            before = METRICS.get_counter("discrete_pdf.maximum")
            result = next(results)
            assert METRICS.get_counter("discrete_pdf.maximum") - before == n - max(first, 1)
            expected = DiscretePDF.maximum_of(
                [want.arrival_pdfs[net] for net in outputs], engine.num_samples
            )
            assert _bits(result.output_pdf) == _bits(expected)
            firsts.append(first)
        assert 0 in firsts and n in firsts and any(0 < k < n for k in firsts)

    def test_later_results_after_each_kind_of_commit(
        self, delay_model, variation_model, library
    ):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        reanalysis = IncrementalReanalysis(engine, circuit)
        reanalysis.analyze()

        def assert_later_results_fresh():
            assert_same_output(reanalysis.analyze(), engine.analyze(circuit))
            trials = _trials(circuit, library)
            fresh = [_at(engine, circuit, trial) for trial in trials]
            for result, want in zip(reanalysis.preview(trials), fresh, strict=True):
                assert_same_output(result, want)

        # A trial whose result was read, committed.
        trials = _trials(circuit, library)
        next(reanalysis.preview(trials))
        circuit.set_size(*trials[0])
        assert reanalysis.commit_preview(0)
        assert_later_results_fresh()

        # A trial never read, committed.
        trials = _trials(circuit, library)
        reanalysis.preview(trials)
        circuit.set_size(*trials[1])
        assert reanalysis.commit_preview(1)
        assert_later_results_fresh()

        # analyze() after direct set_size calls.
        for gate, size in _trials(circuit, library)[2:5]:
            circuit.set_size(gate, size)
        assert_same_output(reanalysis.analyze(), engine.analyze(circuit))
        assert_later_results_fresh()
