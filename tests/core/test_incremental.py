"""Equivalence tests for the incremental/levelized evaluation pipeline.

The whole point of the pipeline is that it is *exactness-preserving*: the
levelized FASSTA, the incremental FULLSSTA re-analysis and the sizer's
caches must reproduce a gate-by-gate reference fold and the from-scratch
engines' moments bit for bit while doing less work.  These tests pin that
contract across registry circuits and randomized resize sequences.
"""

import operator

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark
from repro.core.baseline import MeanDelaySizer
from repro.core.cost import CostEvaluator, WeightedCost
from repro.core.fassta import FASSTA
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis
from repro.core.rv import ZERO_DELAY, NormalDelay
from repro.core.sizer import SizerConfig, StatisticalGreedySizer
from repro.core.subcircuit import SubcircuitCache, extract_subcircuit
from repro.flow import run_sizing_flow
from repro.netlist.circuit import Circuit

#: Registry circuits used for equivalence sweeps (kept small enough that the
#: whole module runs in a few seconds; shapes cover wide/shallow c499,
#: reconvergent c432 and the larger c880).
EQUIV_CIRCUITS = ["alu1", "c432", "c499", "c880"]


def assert_moments_identical(reference, candidate, circuit):
    """Every per-net mean and sigma, and the output moments, are bitwise equal."""
    for net in circuit.nets():
        ref = reference.arrival(net)
        cand = candidate.arrival(net)
        assert (cand.mean, cand.sigma) == (ref.mean, ref.sigma), net
    assert (candidate.output_rv.mean, candidate.output_rv.sigma) == (
        reference.output_rv.mean, reference.output_rv.sigma)


def assert_results_identical(got, want):
    """Bitwise: every net's pdf and moments, and the output pdf."""

    def rows(result):
        pdfs = {**result.arrival_pdfs, None: result.output_pdf}
        return {net: (pdf.values.tolist(), pdf.probabilities.tolist()) for net, pdf in pdfs.items()}

    assert rows(got) == rows(want)
    assert got.arrival_moments == want.arrival_moments


def fassta_reference(fold, engine, circuit):
    """A FASSTA result from the gate-by-gate reference fold."""
    arrivals, _ = fold(
        circuit,
        lambda gate: engine.gate_delay_rv(circuit, gate.name),
        ZERO_DELAY,
        NormalDelay.maximum_of,
        operator.add,
    )
    return engine._build_result(circuit, arrivals)


class TestVectorizedFassta:
    @pytest.mark.parametrize("name", EQUIV_CIRCUITS)
    def test_matches_scalar_on_registry_circuits(
        self, name, delay_model, variation_model, reference_fold
    ):
        circuit = build_benchmark(name)
        engine = FASSTA(delay_model, variation_model)
        assert_moments_identical(
            fassta_reference(reference_fold, engine, circuit), engine.analyze(circuit), circuit
        )

    def test_matches_scalar_after_random_resizes(
        self, delay_model, variation_model, reference_fold
    ):
        circuit = build_benchmark("c432")
        engine = FASSTA(delay_model, variation_model)
        rng = np.random.default_rng(7)
        names = list(circuit.gates)
        for _ in range(5):
            for gate in rng.choice(names, size=4, replace=False):
                circuit.set_size(str(gate), int(rng.integers(0, 7)))
            assert_moments_identical(
                fassta_reference(reference_fold, engine, circuit),
                engine.analyze(circuit),
                circuit,
            )

    def test_plan_rebuilt_after_structural_change(
        self, delay_model, variation_model, reference_fold
    ):
        circuit = build_benchmark("c17")
        engine = FASSTA(delay_model, variation_model)
        engine.analyze(circuit)
        circuit.add("extra", "INV", ["N22"], "n_extra")
        circuit.add_primary_output("n_extra")
        fresh = fassta_reference(reference_fold, engine, circuit)
        assert_moments_identical(fresh, engine.analyze(circuit), circuit)


class TestIncrementalReanalysis:
    @pytest.mark.parametrize("name", EQUIV_CIRCUITS)
    def test_random_resize_sequences_match_scratch(self, name, delay_model, variation_model):
        circuit = build_benchmark(name)
        engine = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(engine, circuit)
        incremental.analyze()
        rng = np.random.default_rng(sum(map(ord, name)))
        names = list(circuit.gates)
        for _ in range(4):
            for gate in rng.choice(names, size=3, replace=False):
                circuit.set_size(str(gate), int(rng.integers(0, 7)))
            assert_moments_identical(incremental.analyze(), engine.analyze(circuit), circuit)

    def test_resize_and_revert_matches_original(self, delay_model, variation_model):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(engine, circuit)
        before = incremental.analyze()
        gate = next(iter(circuit.gates))
        original = circuit.gate(gate).size_index
        circuit.set_size(gate, 6)
        incremental.analyze()
        circuit.set_size(gate, original)
        after = incremental.analyze()
        assert_moments_identical(before, after, circuit)

    def test_noop_resize_recomputes_nothing(self, delay_model, variation_model):
        circuit = build_benchmark("alu1")
        incremental = IncrementalReanalysis(
            FULLSSTA(delay_model, variation_model), circuit
        )
        first = incremental.analyze()
        retimed = incremental.gates_retimed
        gate = next(iter(circuit.gates))
        size = circuit.gate(gate).size_index
        circuit.set_size(gate, size)  # same size: no-op
        incremental.analyze()
        assert incremental.gates_retimed == retimed
        circuit.set_size(gate, size + 1)  # a resize and its revert cancel out
        circuit.set_size(gate, size)
        assert_results_identical(incremental.analyze(), first)
        assert incremental.gates_retimed == retimed

    def test_incremental_retimes_fewer_gates_than_scratch(self, delay_model, variation_model):
        circuit = build_benchmark("c880")
        incremental = IncrementalReanalysis(
            FULLSSTA(delay_model, variation_model), circuit
        )
        incremental.analyze()
        baseline = incremental.gates_retimed
        assert baseline == circuit.num_gates()
        # A single resize must not re-time the whole circuit.
        name = circuit.topological_order()[len(circuit) // 2]
        circuit.set_size(name, 6)
        incremental.analyze()
        assert incremental.gates_retimed - baseline < circuit.num_gates() // 2
        assert incremental.stats["incremental_runs"] == 1

    def test_structural_change_triggers_full_rebuild(self, delay_model, variation_model):
        circuit = build_benchmark("c17")
        engine = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(engine, circuit)
        incremental.analyze()
        circuit.add("extra", "INV", ["N22"], "n_extra")
        circuit.add_primary_output("n_extra")
        result = incremental.analyze()
        assert incremental.full_runs == 2
        assert_moments_identical(engine.analyze(circuit), result, circuit)


class TestSizerPipelineEquivalence:
    #: Circuits sized from the mean-delay baseline design (the flow's
    #: starting point) rather than from the registry's unit sizes.
    FROM_BASELINE = {"c432"}

    @pytest.mark.parametrize("name", ["c17", "alu2", "c432"])
    def test_fast_pipeline_matches_scratch_decisions(
        self, name, delay_model, variation_model, from_scratch_sizer
    ):
        def size():
            circuit = build_benchmark(name)
            if name in self.FROM_BASELINE:
                MeanDelaySizer(delay_model).optimize(circuit)
            config = SizerConfig(lam=3.0, max_iterations=4)
            return StatisticalGreedySizer(delay_model, variation_model, config).optimize(
                circuit
            )

        with from_scratch_sizer():
            scratch = size()
        fast = size()
        # Identical decisions, not merely similar quality.
        assert scratch.circuit.sizes() == fast.circuit.sizes()
        assert [it.resized_gates for it in fast.iterations] == [
            it.resized_gates for it in scratch.iterations
        ]
        assert (fast.final.mean, fast.final.sigma) == (scratch.final.mean, scratch.final.sigma)

    def test_diagnostics_populated(self, delay_model, variation_model, small_adder):
        result = StatisticalGreedySizer(
            delay_model, variation_model, SizerConfig(lam=3.0, max_iterations=3)
        ).optimize(small_adder)
        diag = result.diagnostics
        assert diag["full_runs"] >= 1
        assert diag["evaluation_cache_misses"] > 0
        assert diag["subcircuit_cache_misses"] > 0
        assert "incremental_runs" in diag


class TestStaticCones:
    def test_c432_flow_retimes_every_static_cone_gate(self, monkeypatch, from_scratch_sizer):
        """Each sweep retimes its trials' whole static fanout cones (the seeds'
        netlist transitive fanout), with no early termination, and decides
        as a from-scratch analysis of every state does."""
        cones = []
        sweep = IncrementalReanalysis._sweep

        def spy(reanalysis, count, row_trial, row_gate, trial):
            circuit, names = reanalysis.circuit, reanalysis.circuit.compiled().gate_names
            for t in range(count):
                seeds = {names[g] for g in row_gate[row_trial == t]}
                cones.append(len(seeds.union(*map(circuit.transitive_fanout, seeds))))
            return sweep(reanalysis, count, row_trial, row_gate, trial)

        monkeypatch.setattr(IncrementalReanalysis, "_sweep", spy)
        flow = run_sizing_flow(build_benchmark("c432"), lam=3.0)
        monkeypatch.undo()
        # Stacks of FIRST_STACK trials also retime the cones of the trials
        # after a kept one, which the next stack previews again.
        assert flow.sizer_result.diagnostics["gates_retimed"] == sum(cones) == 7333

        with from_scratch_sizer():
            scratch = run_sizing_flow(build_benchmark("c432"), lam=3.0)
        assert flow.circuit.sizes() == scratch.circuit.sizes()
        assert flow.final_rv == scratch.final_rv
        assert (flow.final_rv.mean, flow.final_rv.sigma) == pytest.approx(
            (1303.3006729355177, 25.537541527679405), abs=1e-9
        )


class TestSubcircuitCache:
    def test_returns_equivalent_subcircuits(self, delay_model, variation_model):
        circuit = build_benchmark("c432")
        cache = SubcircuitCache()
        for seed in list(circuit.gates)[:10]:
            cached = cache.get(circuit, seed, 2)
            fresh = extract_subcircuit(circuit, seed, 2)
            assert cached.gate_names == fresh.gate_names
            assert cached.input_nets == fresh.input_nets
            assert cached.output_nets == fresh.output_nets

    def test_hit_miss_accounting(self, c17_circuit):
        cache = SubcircuitCache()
        cache.get(c17_circuit, "g16", 2)
        cache.get(c17_circuit, "g16", 2)
        cache.get(c17_circuit, "g16", 1)  # different depth: a distinct region
        assert cache.hits == 1
        assert cache.misses == 2

    def test_structural_change_invalidates(self, c17_circuit):
        cache = SubcircuitCache()
        before = cache.get(c17_circuit, "g16", 2)
        c17_circuit.add("extra", "INV", ["N22"], "n_extra")
        after = cache.get(c17_circuit, "g16", 2)
        assert after is not before

    def test_dependencies_track_member_and_fringe_sizes(self, c17_circuit):
        # The decision memo watches the members' and fringe loads' sizes
        # and the input slots' moments, through one IR index array.
        sub = extract_subcircuit(c17_circuit, "g16", depth=1)
        plan = c17_circuit.compiled()
        gates, slots = np.split(sub.dependencies, [sub.num_gates + len(sub.fringe_ids)])
        fringe = [plan.gate_names[g] for g in sub.fringe_ids]
        assert [plan.gate_names[g] for g in gates] == sub.gate_names + fringe
        assert [plan.net_names[s] for s in slots - plan.num_gates] == sub.input_nets
        base = plan.size_index[gates].copy()
        member = sub.gate_names[0]
        c17_circuit.set_size(member, 5)
        assert not np.array_equal(plan.size_index[gates], base)
        c17_circuit.set_size(member, 0)
        assert np.array_equal(plan.size_index[gates], base)


class TestSizeChangeLog:
    def test_structure_version_bumps_on_mutation(self):
        circuit = Circuit("v", primary_inputs=["a"], primary_outputs=["y"])
        v0 = circuit.structure_version
        circuit.add("g", "INV", ["a"], "y")
        assert circuit.structure_version > v0
        version = circuit.structure_version
        circuit.set_size("g", 3)  # resizes are not structural
        assert circuit.structure_version == version
        circuit.remove_gate("g")
        assert circuit.structure_version > version


class TestPreviewProtocol:
    def test_preview_matches_scratch_without_committing(self, delay_model, variation_model):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(engine, circuit)
        base = incremental.analyze()
        gate = circuit.topological_order()[3]
        circuit.set_size(gate, 6)
        previewed = incremental.preview()
        assert previewed is not None
        assert_moments_identical(engine.analyze(circuit), previewed, circuit)
        # Reverting discards the trial for free: the next analyze sees a
        # clean circuit and recomputes nothing.
        circuit.set_size(gate, 0)
        retimed = incremental.gates_retimed
        after = incremental.analyze()
        assert incremental.gates_retimed == retimed
        assert_moments_identical(base, after, circuit)

    def test_commit_preview_folds_delta_in(self, delay_model, variation_model):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(engine, circuit)
        incremental.analyze()
        gate = circuit.topological_order()[3]
        circuit.set_size(gate, 6)
        previewed = incremental.preview()
        assert incremental.commit_preview()
        retimed = incremental.gates_retimed
        committed = incremental.analyze()
        assert incremental.gates_retimed == retimed  # nothing left to do
        assert_moments_identical(previewed, committed, circuit)
        assert_moments_identical(engine.analyze(circuit), committed, circuit)

    def test_commit_preview_refused_after_further_resizes(self, delay_model, variation_model):
        circuit = build_benchmark("c17")
        incremental = IncrementalReanalysis(
            FULLSSTA(delay_model, variation_model), circuit
        )
        incremental.analyze()
        circuit.set_size("g10", 5)
        assert incremental.preview() is not None
        circuit.set_size("g11", 5)  # a resize the preview did not see
        assert not incremental.commit_preview()
        # The next analyze still retimes what differs and converges.
        assert_moments_identical(
            FULLSSTA(delay_model, variation_model).analyze(circuit),
            incremental.analyze(),
            circuit,
        )

    def test_two_wrappers_keep_their_own_committed_sizes(self, delay_model, variation_model):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        first = IncrementalReanalysis(engine, circuit)
        second = IncrementalReanalysis(engine, circuit)
        first.analyze()
        second.analyze()
        rng = np.random.default_rng(22)
        names = list(circuit.gates)
        for _ in range(3):
            for gate in rng.choice(names, size=3, replace=False):
                circuit.set_size(str(gate), int(rng.integers(0, 7)))
            assert_results_identical(first.analyze(), engine.analyze(circuit))
            # second still holds the sizes before this round's resizes.
            assert_results_identical(second.preview(), engine.analyze(circuit))
            assert second.commit_preview()
            trials = [(str(gate), int(rng.integers(0, 7))) for gate in rng.choice(names, size=4)]
            for (gate, size), previewed in zip(trials, first.preview(trials), strict=True):
                previous = circuit.gate(gate).size_index
                circuit.set_size(gate, size)
                assert_results_identical(previewed, engine.analyze(circuit))
                circuit.set_size(gate, previous)
            gate, size = trials[-1]
            circuit.set_size(gate, size)
            assert first.commit_preview(len(trials) - 1)
            assert_results_identical(second.analyze(), engine.analyze(circuit))
            retimed = first.gates_retimed
            assert_results_identical(first.analyze(), engine.analyze(circuit))
            assert first.gates_retimed == retimed

    def test_preview_without_prior_analysis_returns_none(self, delay_model, variation_model, c17_circuit):
        incremental = IncrementalReanalysis(
            FULLSSTA(delay_model, variation_model), c17_circuit
        )
        assert incremental.preview() is None


def _count_sweeps(monkeypatch):
    """Spy on ``IncrementalReanalysis._sweep``; returns the list its calls append to."""
    calls = []
    sweep = IncrementalReanalysis._sweep

    def spy(reanalysis, *args):
        calls.append(args[0])
        return sweep(reanalysis, *args)

    monkeypatch.setattr(IncrementalReanalysis, "_sweep", spy)
    return calls


class TestHeldBulkPreview:
    """The sizer's pass whose fallback keeps nothing: a bulk ``preview()``,
    reverted, stacked ``preview(trials)`` that commit nothing, then the bulk
    sizes again and ``analyze()``, which commits the held bulk delta."""

    def _bulk_then_fallback(self, circuit, incremental):
        names = circuit.topological_order()
        bulk = {names[3]: 6, names[len(names) // 2]: 5}
        undo = {name: circuit.gate(name).size_index for name in bulk}
        circuit.apply_sizes(bulk)
        bulk_result = incremental.preview()
        circuit.apply_sizes(undo)
        list(incremental.preview([(names[7], 4), (names[9], 2)]))
        return bulk, bulk_result

    def test_analyze_commits_the_held_bulk_preview_without_a_sweep(
        self, delay_model, variation_model, monkeypatch
    ):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(engine, circuit)
        incremental.analyze()
        bulk, bulk_result = self._bulk_then_fallback(circuit, incremental)
        circuit.apply_sizes(bulk)
        sweeps, retimed = _count_sweeps(monkeypatch), incremental.gates_retimed
        committed = incremental.analyze()
        assert sweeps == [] and incremental.gates_retimed == retimed
        monkeypatch.undo()
        assert_results_identical(committed, engine.analyze(circuit))
        assert_results_identical(bulk_result, committed)
        assert incremental._dirty_gates().size == 0

    def test_commit_analyze_and_structural_edit_drop_the_held_preview(
        self, delay_model, variation_model, monkeypatch
    ):
        circuit = build_benchmark("c432")
        engine = FULLSSTA(delay_model, variation_model)
        incremental = IncrementalReanalysis(engine, circuit)
        incremental.analyze()
        sweeps = _count_sweeps(monkeypatch)

        # commit_preview(): the bulk delta was committed, nothing is held.
        bulk, _ = self._bulk_then_fallback(circuit, incremental)
        circuit.apply_sizes(bulk)
        assert incremental.preview() is not None and incremental.commit_preview()
        assert incremental._bulk is None

        # analyze() with the bulk reverted drops it; the sizes again then sweep.
        bulk, _ = self._bulk_then_fallback(circuit, incremental)
        assert incremental._bulk is not None
        incremental.analyze()
        assert incremental._bulk is None
        circuit.apply_sizes(bulk)
        del sweeps[:]
        assert_results_identical(incremental.analyze(), engine.analyze(circuit))
        assert sweeps == [1]

        # A structural edit: the next analyze() is a full run.
        bulk, _ = self._bulk_then_fallback(circuit, incremental)
        circuit.apply_sizes(bulk)
        circuit.add("extra", "INV", [circuit.primary_outputs[0]], "n_extra")
        circuit.add_primary_output("n_extra")
        del sweeps[:]
        result = incremental.analyze()
        assert incremental._bulk is None and sweeps == [1] and incremental.full_runs == 2
        monkeypatch.undo()
        assert_results_identical(result, engine.analyze(circuit))


class TestFloatingNetConsistency:
    def test_floating_output_raises_in_both_fassta_paths(self, delay_model, variation_model):
        # A gate input that is neither a primary input nor driven by a gate
        # must be rejected as an output (it is not a timeable net), not
        # silently reported as a zero arrival.
        circuit = Circuit("floaty", primary_inputs=["a"], primary_outputs=["y", "dangling"])
        circuit.add("g", "NAND2", ["a", "dangling"], "y")
        engine = FASSTA(delay_model, variation_model)
        with pytest.raises(KeyError, match="dangling"):
            engine.analyze(circuit)
        # On the subcircuit path a boundary arrival makes the net timeable.
        evaluator = CostEvaluator(engine, WeightedCost(3.0))
        sub = extract_subcircuit(circuit, "g", depth=1)
        arrivals = evaluator.subcircuit_arrivals(sub, {"dangling": NormalDelay(5.0, 1.0)})
        assert arrivals["dangling"].mean == pytest.approx(5.0)
        assert arrivals["y"].mean > 5.0
