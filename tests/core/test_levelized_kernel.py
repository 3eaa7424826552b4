"""The contract of the levelized FULLSSTA kernel, pinned bitwise.

Full levelized runs and incremental dirty-cone re-propagation are one sweep
(:meth:`repro.core.fullssta.IncrementalReanalysis._sweep`, a full run with
every gate dirty), which calls the batched primitives on whatever subset of
a level needs recomputing.  That is exact only if every primitive is
*row-independent*: row ``i`` of a batch must come out bit for bit the same
whatever other rows share the batch.  Given that, incremental results equal
a from-scratch levelized analysis exactly, not merely to a tolerance.
"""

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark
from repro.core.discrete_pdf import DiscretePDF, batched_combine, batched_from_normal
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis
from repro.core.rv import NormalDelay


def _padded(pdfs, width=13):
    values = np.zeros((len(pdfs), width))
    probs = np.zeros((len(pdfs), width))
    for row, pdf in enumerate(pdfs):
        n = pdf.num_samples
        values[row, :n] = pdf.values
        values[row, n:] = pdf.values[-1]
        probs[row, :n] = pdf.probabilities
    return values, probs


def _mixed_pdfs(rng, count):
    """Pdfs with mixed sample counts: full normals, points and compacted sums."""
    pdfs = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            pdfs.append(DiscretePDF.point(rng.uniform(0.0, 300.0)))
        elif kind == 1:
            pdfs.append(DiscretePDF.from_normal(rng.uniform(20.0, 400.0), rng.uniform(1.0, 30.0), 13))
        elif kind == 2:
            pdfs.append(DiscretePDF.from_normal(rng.uniform(20.0, 400.0), rng.uniform(1.0, 30.0), 5))
        else:
            a = DiscretePDF.from_normal(rng.uniform(20.0, 400.0), rng.uniform(1.0, 30.0), 13)
            b = DiscretePDF.from_normal(rng.uniform(20.0, 400.0), rng.uniform(1.0, 30.0), 3)
            pdfs.append(a.maximum(b, 13))
    return pdfs


def _assert_rows_equal(batch, single, row):
    for got, alone in zip(batch, single, strict=True):
        assert np.array_equal(got[row], alone[0]), row


class TestRowIndependence:
    @pytest.mark.parametrize("op", ["add", "max"])
    def test_batched_combine_row_alone_equals_row_in_batch(self, op):
        rng = np.random.default_rng(5)
        a_values, a_probs = _padded(_mixed_pdfs(rng, 24))
        b_values, b_probs = _padded(list(reversed(_mixed_pdfs(rng, 24))))
        assert len({int(np.count_nonzero(row)) for row in a_probs}) > 2  # mixed counts
        batch = batched_combine(a_values, a_probs, b_values, b_probs, op, 13)
        for row in range(len(a_values)):
            keep = slice(row, row + 1)
            single = batched_combine(
                a_values[keep], a_probs[keep], b_values[keep], b_probs[keep], op, 13
            )
            _assert_rows_equal(batch, single, row)

    def test_batched_combine_any_subset_equals_its_rows_in_batch(self):
        rng = np.random.default_rng(8)
        a_values, a_probs = _padded(_mixed_pdfs(rng, 30))
        b_values, b_probs = _padded(_mixed_pdfs(rng, 30))
        batch = batched_combine(a_values, a_probs, b_values, b_probs, "max", 13)
        subset = np.sort(rng.choice(30, size=7, replace=False))
        part = batched_combine(
            a_values[subset], a_probs[subset], b_values[subset], b_probs[subset], "max", 13
        )
        for got, alone in zip(batch, part, strict=True):
            assert np.array_equal(got[subset], alone)

    def test_batched_from_normal_row_alone_equals_row_in_batch(self):
        rng = np.random.default_rng(9)
        means = rng.uniform(5.0, 500.0, 40)
        sigmas = rng.uniform(0.0, 40.0, 40)
        sigmas[::5] = 0.0  # point rows: counts of 1 among counts of 13
        batch = batched_from_normal(means, sigmas, 13)
        assert set(batch[2].tolist()) == {1, 13}
        for row in range(len(means)):
            single = batched_from_normal(means[row: row + 1], sigmas[row: row + 1], 13)
            _assert_rows_equal(batch, single, row)


def _assert_bitwise_equal(result, scratch):
    assert set(result.arrival_pdfs) == set(scratch.arrival_pdfs)
    for net, ref in scratch.arrival_pdfs.items():
        got = result.arrival_pdfs[net]
        assert np.array_equal(got.values, ref.values), net
        assert np.array_equal(got.probabilities, ref.probabilities), net
        assert result.arrival_moments[net] == scratch.arrival_moments[net], net
    assert result.output_rv == scratch.output_rv
    assert result.output_rv == NormalDelay(result.output_pdf.mean(), result.output_pdf.std())
    assert np.array_equal(result.output_pdf.values, scratch.output_pdf.values)


class TestIncrementalMatchesScratchBitwise:
    @pytest.mark.parametrize("name", ["c432", "c880"])
    def test_random_preview_commit_revert_analyze(self, name, delay_model, variation_model):
        circuit = build_benchmark(name)
        scratch = FULLSSTA(delay_model, variation_model, vectorized=True)
        # A scalar engine on purpose: the wrapper runs the levelized kernel
        # whatever the engine's own ``vectorized`` flag says.
        incremental = IncrementalReanalysis(FULLSSTA(delay_model, variation_model), circuit)
        _assert_bitwise_equal(incremental.analyze(), scratch.analyze(circuit))

        rng = np.random.default_rng(sum(map(ord, name)))
        names = list(circuit.gates)
        for _ in range(12):
            resized = {}
            for gate in rng.choice(names, size=int(rng.integers(1, 4)), replace=False):
                gate = str(gate)
                resized.setdefault(gate, circuit.gate(gate).size_index)
                circuit.set_size(gate, int(rng.integers(0, 7)))
            action = rng.choice(["commit", "revert", "analyze"])
            if action == "analyze":
                _assert_bitwise_equal(incremental.analyze(), scratch.analyze(circuit))
                continue
            preview = incremental.preview()
            _assert_bitwise_equal(preview, scratch.analyze(circuit))
            if action == "commit":
                assert incremental.commit_preview()
            else:
                for gate, size in resized.items():
                    circuit.set_size(gate, size)
            # The committed state answers the next query exactly either way.
            _assert_bitwise_equal(incremental.analyze(), scratch.analyze(circuit))

    def test_discarded_preview_leaves_committed_state_untouched(
        self, delay_model, variation_model
    ):
        circuit = build_benchmark("c432")
        scratch = FULLSSTA(delay_model, variation_model, vectorized=True)
        incremental = IncrementalReanalysis(scratch, circuit)
        before = incremental.analyze()
        gate = circuit.topological_order()[2]
        original = circuit.gate(gate).size_index
        circuit.set_size(gate, 6 if original != 6 else 0)
        incremental.preview()
        circuit.set_size(gate, original)
        retimed = incremental.gates_retimed
        _assert_bitwise_equal(incremental.analyze(), before)
        assert incremental.gates_retimed == retimed
        # The next cone re-reads the rows the preview swept: a trial row
        # left behind in the committed arrays would surface here.  Resize a
        # gate two levels down that ``gate`` does not drive, so ``gate``
        # itself is not re-timed (which would overwrite a stale row).
        downstream = next(
            far.name
            for near in circuit.fanout_gates(gate)
            for far in circuit.fanout_gates(near.name)
            if gate not in {g.name for g in circuit.fanin_gates(far.name)}
        )
        circuit.set_size(downstream, 6 if circuit.gate(downstream).size_index != 6 else 0)
        _assert_bitwise_equal(incremental.analyze(), scratch.analyze(circuit))


class TestCommittedSlotMoments:
    """``IncrementalReanalysis.mean`` / ``sigma``, the sizer's boundary
    moments, hold the committed result's ``arrival(net)`` per net slot."""

    @pytest.mark.parametrize("name", ["c432", "alu2"])
    def test_slot_arrays_follow_every_commit(self, name, delay_model, variation_model, library):
        circuit = build_benchmark(name)
        scratch = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(FULLSSTA(delay_model, variation_model), circuit)
        nets = circuit.compiled().net_names

        def assert_committed(result):
            assert result.arrival_moments == scratch.analyze(circuit).arrival_moments
            for array, field in ((incremental.mean, "mean"), (incremental.sigma, "sigma")):
                expected = np.array([getattr(result.arrival(net), field) for net in nets])
                assert array.view(np.int64).tolist() == expected.view(np.int64).tolist(), field

        assert_committed(incremental.analyze())
        rng = np.random.default_rng(sum(map(ord, name)))
        names = list(circuit.gates)

        def other_size(gate):
            num_sizes = library.num_sizes(circuit.gate(gate).cell_type)
            size = circuit.gate(gate).size_index
            return (size + 1 + int(rng.integers(num_sizes - 1))) % num_sizes

        for _ in range(10):
            action = rng.choice(["stack", "bulk", "held", "unread", "revert"])
            if action == "stack":  # keep one trial of a stacked preview, read or not
                trials = [(str(g), other_size(str(g))) for g in rng.choice(names, 5, replace=False)]
                results = incremental.preview(trials)
                keep = int(rng.integers(len(trials)))
                kept = [next(results) for _ in range(keep + 1)][-1] if rng.random() < 0.5 else None
                circuit.set_size(*trials[keep])
                assert incremental.commit_preview(keep)
                assert_committed(kept or incremental.analyze())
                continue
            resized = {}
            for gate in map(str, rng.choice(names, size=int(rng.integers(1, 4)), replace=False)):
                resized.setdefault(gate, circuit.gate(gate).size_index)
                circuit.set_size(gate, other_size(gate))
            if action == "unread":  # an analyze() that sweeps
                assert_committed(incremental.analyze())
                continue
            bulk = incremental.preview()
            if action == "revert":
                circuit.apply_sizes(resized)
                assert_committed(incremental.analyze())
            elif action == "held":  # analyze() commits the held preview
                assert_committed(incremental.analyze())
            else:
                assert incremental.commit_preview()
                assert_committed(bulk)
