"""Unit tests for the weighted cost (Eq. 7) and the subcircuit cost evaluator."""

import numpy as np
import pytest

from repro.circuits.registry import build_benchmark
from repro.core.baseline import MeanDelaySizer
from repro.core.cost import CostComponents, CostEvaluator, WeightedCost
from repro.core.fassta import FASSTA
from repro.core.fullssta import FULLSSTA, IncrementalReanalysis
from repro.core.rv import ZERO_DELAY, NormalDelay
from repro.core.sizer import SizerConfig, StatisticalGreedySizer
from repro.core.subcircuit import DEFAULT_DEPTH, SubcircuitCache, extract_subcircuit
from repro.netlist.gate import Gate
from repro.sta.dsta import DeterministicSTA, NominalTimer
from repro.variation.model import VariationModel


class TestWeightedCost:
    def test_equation_7(self):
        cost = WeightedCost(lam=3.0)
        assert cost.of(NormalDelay(100.0, 10.0)) == pytest.approx(130.0)

    def test_lambda_zero_is_pure_mean(self):
        cost = WeightedCost(lam=0.0)
        assert cost.of(NormalDelay(100.0, 50.0)) == pytest.approx(100.0)

    def test_higher_lambda_penalises_sigma_more(self):
        rv = NormalDelay(100.0, 10.0)
        assert WeightedCost(9.0).of(rv) > WeightedCost(3.0).of(rv)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            WeightedCost(-1.0)

    def test_worst_over_outputs(self):
        cost = WeightedCost(3.0)
        arrivals = {
            "o1": NormalDelay(100.0, 1.0),   # cost 103
            "o2": NormalDelay(95.0, 5.0),    # cost 110
        }
        assert cost.components(arrivals).worst == pytest.approx(110.0)
        with pytest.raises(ValueError):
            cost.components({})

    def test_components(self):
        cost = WeightedCost(3.0)
        arrivals = {
            "o1": NormalDelay(100.0, 1.0),
            "o2": NormalDelay(95.0, 5.0),
        }
        comp = cost.components(arrivals)
        assert comp.worst == pytest.approx(110.0)
        assert comp.total == pytest.approx(213.0)


class TestCostComponents:
    def test_lower_worst_wins(self):
        assert CostComponents(10.0, 100.0).better_than(CostComponents(11.0, 50.0))

    def test_equal_worst_falls_back_to_total(self):
        assert CostComponents(10.0, 90.0).better_than(CostComponents(10.0, 100.0))
        assert not CostComponents(10.0, 100.0).better_than(CostComponents(10.0, 90.0))

    def test_identical_costs_not_better(self):
        comp = CostComponents(10.0, 100.0)
        assert not comp.better_than(CostComponents(10.0, 100.0))


class TestCostEvaluator:
    @pytest.fixture
    def evaluator(self, delay_model, variation_model):
        return CostEvaluator(FASSTA(delay_model, variation_model), WeightedCost(3.0))

    @pytest.fixture
    def boundary(self, delay_model, variation_model, c17_circuit):
        full = FULLSSTA(delay_model, variation_model).analyze(c17_circuit)
        return full.arrival_moments

    def test_subcircuit_cost_positive(self, evaluator, c17_circuit, boundary):
        sub = extract_subcircuit(c17_circuit, "g16", depth=2)
        cost = evaluator.subcircuit_cost_components(sub, boundary)
        assert cost.worst > 0.0

    def test_candidate_size_restores_original(self, evaluator, c17_circuit, boundary):
        sub = extract_subcircuit(c17_circuit, "g16", depth=1)
        original_size = c17_circuit.gate("g16").size_index
        evaluator.candidate_size_cost_components(sub, boundary, 5)
        assert c17_circuit.gate("g16").size_index == original_size

    def test_subcircuit_arrivals_consistent_with_full_fassta(
        self, evaluator, delay_model, variation_model, c17_circuit
    ):
        # Propagating only the member gates with boundary arrivals taken from
        # a full-circuit FASSTA run must reproduce that run's arrival moments
        # at the subcircuit outputs exactly (same math, same inputs).
        fassta = FASSTA(delay_model, variation_model)
        full_arrivals = fassta.analyze(c17_circuit).arrivals
        sub = extract_subcircuit(c17_circuit, "g16", depth=2)
        boundary = {net: full_arrivals[net] for net in sub.input_nets}
        arrivals = evaluator.subcircuit_arrivals(sub, boundary)
        for net in sub.output_nets:
            assert arrivals[net].mean == pytest.approx(full_arrivals[net].mean)
            assert arrivals[net].sigma == pytest.approx(full_arrivals[net].sigma)

    def test_upsizing_high_fanout_gate_reduces_cost(self, evaluator, c17_circuit, boundary):
        # g11 drives two loads; upsizing it from minimum should reduce the
        # local weighted cost (its delay and sigma both drop).
        sub = extract_subcircuit(c17_circuit, "g11", depth=2)
        current = evaluator.subcircuit_cost_components(sub, boundary)
        better = evaluator.candidate_size_cost_components(sub, boundary, 3)
        assert better.better_than(current)


def _slot_moments(circuit, arrival):
    """(mean, sigma) per net slot of ``circuit`` from ``arrival(net) -> NormalDelay``."""
    moments = [arrival(net) for net in circuit.compiled().net_names]
    return np.array([rv.mean for rv in moments]), np.array([rv.sigma for rv in moments])


class TestSizeSweep:
    """The batched size sweep both sizers pick sizes with, against the
    scalar reference that evaluates one candidate size at a time."""

    @pytest.mark.parametrize(
        "lam,variation",
        [(0.0, VariationModel(0.0, 0.0)), (3.0, VariationModel())],
        ids=["baseline-mean-delay", "sizer-lam3"],
    )
    def test_sweep_equals_per_size_evaluation(self, delay_model, library, lam, variation):
        circuit = build_benchmark("c432")
        rng = np.random.default_rng(11)
        for name, gate in circuit.gates.items():
            circuit.set_size(name, int(rng.integers(library.num_sizes(gate.cell_type))))
        if lam == 0.0:
            arrival, _ = DeterministicSTA(delay_model).arrival_times(circuit)
            boundary = {net: NormalDelay(t, 0.0) for net, t in arrival.items()}
        else:
            boundary = FULLSSTA(delay_model, variation).analyze(circuit).arrival_moments
        mean, sigma = _slot_moments(circuit, lambda net: boundary.get(net, ZERO_DELAY))
        evaluator = CostEvaluator(FASSTA(delay_model, variation), WeightedCost(lam))
        subcircuits = SubcircuitCache()
        sizes_before = circuit.sizes()
        regions = [subcircuits.get(circuit, name) for name in circuit.gates]
        # One batched call over every gate of the circuit.
        worst, total, num_sizes = evaluator.size_sweep_components(regions, mean, sigma)
        assert worst.size == total.size == num_sizes.sum()
        rows = iter(zip(worst.tolist(), total.tolist(), strict=True))
        for sub, count in zip(regions, num_sizes.tolist(), strict=True):
            gate = circuit.gate(sub.seed)
            sizes = library.size_indices(gate.cell_type)
            assert count == len(sizes), sub.seed
            scratch = {
                size: evaluator.candidate_size_cost_components(sub, boundary, size)
                for size in sizes
            }
            assert [CostComponents(*next(rows)) for _ in sizes] == list(scratch.values())
            # The best-size rule: the first candidate strictly better than
            # the best so far, starting from the current size.
            best = gate.size_index
            for size in sizes:
                if scratch[size].better_than(scratch[best]):
                    best = size
            assert evaluator.best_seed_size(sub, mean, sigma) == best, sub.seed
        assert circuit.sizes() == sizes_before


class TestBestSize:
    """The memoized size selector both sizers call, against an unmemoized
    sweep of a freshly extracted subcircuit, across every kind of edit the
    memo must see: sizes of members, fringe loads and unrelated gates, a
    resize reverted after a call, boundary moments changed in place, and a
    structural edit."""

    @pytest.fixture(params=["baseline-mean-delay", "sizer-lam3"])
    def owner(self, request, delay_model, variation_model):
        """(evaluator, per-net-slot boundary moments) of one of the two sizers."""
        if request.param == "baseline-mean-delay":

            def boundary_source(circuit):
                timer = NominalTimer(delay_model, circuit)
                timer.analyze()
                return timer.arrivals.copy(), np.zeros(timer.arrivals.size)

            return MeanDelaySizer(delay_model).evaluator, boundary_source
        config = SizerConfig(lam=3.0)
        sizer = StatisticalGreedySizer(delay_model, variation_model, config)

        def boundary_source(circuit):
            reanalysis = IncrementalReanalysis(sizer.fullssta, circuit)
            reanalysis.analyze()
            return reanalysis.mean.copy(), reanalysis.sigma.copy()

        return sizer.evaluator, boundary_source

    @staticmethod
    def assert_exact(evaluator, circuit, moments, names, hits=None):
        """Every gate's memoized answer is a fresh sweep's; with ``hits``,
        the gates named there hit the memo and the others miss."""
        for name in names:
            expected = evaluator.best_seed_size(extract_subcircuit(circuit, name), *moments)
            before = evaluator.memo_hits
            best = evaluator.best_sizes(circuit, [name], DEFAULT_DEPTH, *moments)
            assert best == {name: expected}, name
            if hits is not None:
                assert (evaluator.memo_hits > before) == (name in hits), name

    def test_memoized_selection_is_exact(self, owner, library):
        evaluator, boundary_source = owner
        circuit = build_benchmark("c432")
        rng = np.random.default_rng(5)
        for name, gate in circuit.gates.items():
            circuit.set_size(name, int(rng.integers(library.num_sizes(gate.cell_type))))
        names = list(circuit.gates)
        moments = boundary_source(circuit)
        self.assert_exact(evaluator, circuit, moments, names, hits=())

        # An identical repeat query is answered by the memo.
        self.assert_exact(evaluator, circuit, moments, names[:1], hits=names[:1])

        # Resize members, fringe loads and unrelated gates of a region under
        # fixed boundary moments.  After each edit, every gate whose region
        # holds the resized gate as a member or fringe load misses; a few
        # random gates decided since the last edit hit.
        regions = {name: extract_subcircuit(circuit, name) for name in names}
        context = {
            name: sub.member_set() | set(sub.fringe_gates()) for name, sub in regions.items()
        }

        def resize(gate):
            num_sizes = library.num_sizes(gate.cell_type)
            circuit.set_size(
                gate.name, (gate.size_index + 1 + int(rng.integers(num_sizes - 1))) % num_sizes
            )

        for seed in map(str, rng.choice(names, size=6, replace=False)):
            sub = regions[seed]
            members = [name for name in sub.gate_names if name != seed]
            unrelated = sorted(set(names) - context[seed])
            for group in (members, sub.fringe_gates(), unrelated):
                if not group:
                    continue
                gate = circuit.gate(str(rng.choice(group)))
                resize(gate)
                affected = [name for name in names if gate.name in context[name]]
                self.assert_exact(evaluator, circuit, moments, affected, hits=())
                spot = [str(name) for name in rng.choice(names, size=5, replace=False)]
                self.assert_exact(evaluator, circuit, moments, spot)
                decided = [name for name in spot if name not in affected]
                self.assert_exact(evaluator, circuit, moments, decided, hits=decided)

        # A resize that a call saw, then reverted: the regions holding the
        # gate miss, though their sizes are back where their decisions were made.
        seed = names[len(names) // 3]
        gate = circuit.gate(regions[seed].gate_names[0])
        affected = [name for name in names if gate.name in context[name]]
        self.assert_exact(evaluator, circuit, moments, affected)
        undo = gate.size_index
        resize(gate)
        self.assert_exact(evaluator, circuit, moments, [seed], hits=())
        circuit.set_size(gate.name, undo)
        self.assert_exact(evaluator, circuit, moments, affected, hits=())

        # Boundary moments changed in place in the caller's arrays: the
        # regions reading that slot miss, the others hit.
        self.assert_exact(evaluator, circuit, moments, names)
        slot = regions[seed].input_slots()[0]
        readers = [name for name in names if slot in regions[name].input_slots()]
        for array in moments:
            array[slot] += 1.5
            self.assert_exact(evaluator, circuit, moments, names, hits=set(names) - set(readers))

        # New boundary moments for the new sizes, then a structural edit.
        self.assert_exact(evaluator, circuit, boundary_source(circuit), names)
        driver = circuit.gate(names[len(names) // 2])
        circuit.add("extra_load", "NAND2", [driver.output, driver.output], "n_extra")
        circuit.add_primary_output("n_extra")
        moments = boundary_source(circuit)
        self.assert_exact(evaluator, circuit, moments, list(circuit.gates), hits=())

        # A cell swap keeps every array's shape but is a structural edit too:
        # the memo drops every decision.
        gate = next(g for g in circuit.gates.values() if g.cell_type == "NAND2")
        circuit.replace_gate(Gate(gate.name, "NOR2", list(gate.inputs), gate.output, gate.size_index))
        self.assert_exact(evaluator, circuit, moments, list(circuit.gates), hits=())
