"""The packed delay stage against the scalar per-gate queries.

:meth:`VariationModel.delay_moments` (on top of
:meth:`BaseDelayModel.nominal_delays`) is what every whole-circuit timing
pass reads; :meth:`VariationModel.gate_distribution` is the scalar query the
candidate sweeps use.  The two must agree bit for bit, and a gate-subset call
must return exactly the matching rows of a whole-circuit call.  Bitwise
agreement depends on summation order: each load is accumulated pin by pin
from 0.0 in load order, the order of the scalar loop (summing the same loads
in reverse moves the last bit on some registry gates).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.registry import BENCHMARK_NAMES, build_benchmark, c17
from repro.library.cell import CellSize, CellType, Library
from repro.library.delay_model import make_delay_model
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.netlist.circuit import Circuit
from repro.variation.model import VariationModel


def _scalar_moments(circuit, delay_model, variation_model):
    plan = circuit.compiled()
    dists = [
        variation_model.gate_distribution(circuit, circuit.gate(name), delay_model)
        for name in plan.gate_names
    ]
    return (
        np.array([d.mean for d in dists]),
        np.array([d.sigma for d in dists]),
    )


def _assert_stage_matches_scalar(circuit, delay_model, variation_model, rng):
    mu, sigma = variation_model.delay_moments(circuit, delay_model)
    ref_mu, ref_sigma = _scalar_moments(circuit, delay_model, variation_model)
    assert np.array_equal(mu, ref_mu)
    assert np.array_equal(sigma, ref_sigma)
    assert np.array_equal(delay_model.nominal_delays(circuit), ref_mu)

    num_gates = circuit.compiled().num_gates
    subset = np.sort(rng.choice(num_gates, size=min(9, num_gates), replace=False))
    sub_mu, sub_sigma = variation_model.delay_moments(circuit, delay_model, subset)
    assert np.array_equal(sub_mu, mu[subset])
    assert np.array_equal(sub_sigma, sigma[subset])


def _substrates():
    library = make_synthetic_90nm_library()
    wired = make_synthetic_90nm_library()
    wired.wire_cap_per_fanout = 0.3
    tableless = make_synthetic_90nm_library(with_tables=False)
    default = VariationModel()
    return [
        (make_delay_model(library, "lut"), default),
        (make_delay_model(library, "linear"), default),
        (make_delay_model(wired, "lut"), default),
        (make_delay_model(tableless, "lut"), default),
        (make_delay_model(library, "lut"), VariationModel(0.45, 1.3, 0.37)),
    ]


@pytest.mark.parametrize("name", ["c17", *BENCHMARK_NAMES])
def test_registry_circuits_match_scalar_queries(name):
    circuit = c17() if name == "c17" else build_benchmark(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    for gate_name in circuit.gates:
        circuit.set_size(gate_name, int(rng.integers(7)))
    for delay_model, variation_model in _substrates():
        _assert_stage_matches_scalar(circuit, delay_model, variation_model, rng)


def test_out_of_range_size_raises_like_the_scalar_query(delay_model):
    circuit = c17()
    circuit.set_size("g10", 99)
    with pytest.raises(IndexError, match="size index 99"):
        delay_model.nominal_delays(circuit)
    with pytest.raises(IndexError, match="size index 99"):
        delay_model.gate_delay(circuit, circuit.gate("g10"))


def test_resizes_through_the_log_are_seen(delay_model, variation_model, c17_circuit):
    before, _ = variation_model.delay_moments(c17_circuit, delay_model)
    c17_circuit.set_size("g16", 5)
    after, _ = variation_model.delay_moments(c17_circuit, delay_model)
    ref, _ = _scalar_moments(c17_circuit, delay_model, variation_model)
    assert np.array_equal(after, ref)
    assert not np.array_equal(after, before)


@pytest.mark.parametrize(
    "table,load",
    [
        (((2.0, 5.0), (2.0, 9.0), (2.0, 7.0)), 2.0),  # zero-width, hit exactly
        (((1.0, 3.0), (2.0, 8.0), (2.0, 6.0), (4.0, 9.0)), 2.0),  # duplicate load
        (((4.0, 10.0),), 1.0),  # one point
        (((1.0, 50.0), (2.0, 10.0)), 0.0),  # extrapolates below zero
        (((1.0, 1.0), (2.0, 3.0)), 16.0),  # above the range
        ((), 3.0),  # no table: linear-RC
    ],
)
def test_table_edge_cases_match_scalar_query(table, load):
    library = Library("edge", default_output_load=load)
    cell = CellType("INV", 1)
    cell.add_size(CellSize("INV_X1", 1.0, 1.0, 1.0, 2.0, 3.0, table))
    library.add_cell(cell)
    circuit = Circuit("one", primary_inputs=["a"], primary_outputs=["y"])
    gate = circuit.add("g", "INV", ["a"], "y")
    delay_model = make_delay_model(library, "lut")
    assert delay_model.nominal_delays(circuit).tolist() == [
        delay_model.gate_delay(circuit, gate)
    ]


# ----------------------------------------------------------------------
# Hypothesis: tables the synthetic library never produces
# ----------------------------------------------------------------------
#: Loads on a coarse grid, so draws repeat loads (duplicate table points)
#: and land below, inside and above the circuit's loads.
_LOADS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0])
#: Steep, possibly decreasing curves whose extrapolation goes negative.
_DELAYS = st.floats(-40.0, 200.0, allow_nan=False)
#: Empty = no table (linear-RC fallback); one point = a constant delay;
#: every point at one load = a zero-width table.
_TABLES = st.one_of(
    st.lists(st.tuples(_LOADS, _DELAYS), max_size=6),
    _LOADS.flatmap(lambda x: st.lists(st.tuples(st.just(x), _DELAYS), min_size=2, max_size=4)),
)
#: Grid values let sums of pin caps land exactly on a table point.
_CAPS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 10.0))

_CELLS = (("INV", 1), ("NAND2", 2), ("NOR3", 3))


@st.composite
def _libraries(draw):
    library = Library(
        "hypothesis",
        default_output_load=draw(st.one_of(_LOADS, st.floats(0.0, 10.0))),
        wire_cap_per_fanout=draw(st.sampled_from([0.0, 0.3])),
    )
    for name, fanin in _CELLS:
        cell = CellType(name, fanin)
        drive = 0.0
        for k in range(draw(st.integers(1, 3))):
            drive += draw(st.floats(0.5, 3.0))
            cell.add_size(
                CellSize(
                    name=f"{name}_{k}",
                    drive=drive,
                    area=1.0,
                    input_cap=draw(_CAPS),
                    intrinsic_delay=draw(st.floats(0.0, 30.0)),
                    drive_resistance=draw(st.floats(0.0, 5.0)),
                    # Given unsorted: the stage sorts once, the scalar per call.
                    delay_table=tuple(draw(st.permutations(draw(_TABLES)))),
                )
            )
        library.add_cell(cell)
    return library


def _mesh(library, sizes):
    """Six gates over three cells: reconvergent fanout, a net read twice by
    one gate, and an internal primary output that also drives gates."""
    circuit = Circuit("mesh", primary_inputs=["a", "b", "c"], primary_outputs=["y1", "y2", "n2"])
    for name, cell, inputs, output in (
        ("g1", "NAND2", ["a", "b"], "n1"),
        ("g2", "INV", ["n1"], "n2"),
        ("g3", "NOR3", ["n1", "n2", "c"], "n3"),
        ("g4", "NAND2", ["n2", "n2"], "n4"),
        ("g5", "INV", ["n3"], "y1"),
        ("g6", "NOR3", ["n4", "n3", "n1"], "y2"),
    ):
        size = sizes.draw(st.integers(0, library.num_sizes(cell) - 1))
        circuit.add(name, cell, inputs, output, size)
    return circuit


@settings(max_examples=200, deadline=None)
@given(
    library=_libraries(),
    sizes=st.data(),
    alpha=st.floats(0.0, 1.0),
    random_sigma=st.floats(0.0, 5.0),
    exponent=st.sampled_from([0.0, 0.37, 0.5, 1.0]),
    kind=st.sampled_from(["lut", "linear"]),
)
def test_random_tables_match_scalar_queries(library, sizes, alpha, random_sigma, exponent, kind):
    circuit = _mesh(library, sizes)
    variation_model = VariationModel(alpha, random_sigma, exponent)
    _assert_stage_matches_scalar(
        circuit, make_delay_model(library, kind), variation_model, np.random.default_rng(0)
    )


# ----------------------------------------------------------------------
# The trial form: a seed gate at a candidate size
# ----------------------------------------------------------------------
def _assert_trials_match_scalar(circuit, delay_model, variation_model, seeds):
    """For every seed and every size of it, the trial moments of the seed and
    of each distinct driver of its inputs equal ``gate_distribution`` with
    the trial size written into ``Gate.size_index``."""
    plan = circuit.compiled()
    library = delay_model.library
    gate_ids, trial_ids, trial_sizes, expected = [], [], [], []
    for seed in seeds:
        seed_gate = circuit.gate(seed)
        drivers = [circuit.driver_of(net) for net in seed_gate.inputs]
        names = list(dict.fromkeys([seed, *(d.name for d in drivers if d is not None)]))
        original = seed_gate.size_index
        for size in library.size_indices(seed_gate.cell_type):
            gate_ids += [plan.gate_index[name] for name in names]
            trial_ids += [plan.gate_index[seed]] * len(names)
            trial_sizes += [size] * len(names)
            seed_gate.size_index = size
            try:
                expected += [
                    variation_model.gate_distribution(circuit, circuit.gate(name), delay_model)
                    for name in names
                ]
            finally:
                seed_gate.size_index = original
    gate_ids, trial_ids, trial_sizes = (
        np.array(ids, dtype=np.intp) for ids in (gate_ids, trial_ids, trial_sizes)
    )
    trial = (trial_ids, trial_sizes)
    mu, sigma = variation_model.delay_moments(circuit, delay_model, gate_ids, trial)
    assert np.array_equal(mu, [dist.mean for dist in expected])
    assert np.array_equal(sigma, [dist.sigma for dist in expected])
    assert np.array_equal(delay_model.nominal_delays(circuit, gate_ids, trial), mu)
    # The IR kept the sizes it had: no trial size leaked into it.
    assert np.array_equal(
        plan.size_index, [circuit.gate(name).size_index for name in plan.gate_names]
    )


def test_trial_sizes_match_scalar_queries_on_c432():
    circuit = build_benchmark("c432")
    rng = np.random.default_rng(432)
    for gate_name in circuit.gates:
        circuit.set_size(gate_name, int(rng.integers(7)))
    seeds = [str(name) for name in rng.choice(sorted(circuit.gates), size=40, replace=False)]
    for delay_model, variation_model in _substrates():
        _assert_trials_match_scalar(circuit, delay_model, variation_model, seeds)


def test_trial_sizes_on_a_twice_read_net_and_an_output_net():
    # "n1" feeds the seed "s1" on both pins and also another gate; "po" is a
    # primary output (the library's output load) that drives the seed "s2".
    circuit = Circuit("trial", primary_inputs=["a", "b"], primary_outputs=["y1", "y2", "po"])
    circuit.add("d1", "INV", ["a"], "n1", 3)
    circuit.add("s1", "NAND2", ["n1", "n1"], "n2", 1)
    circuit.add("o1", "NAND2", ["n1", "n2"], "y1", 5)
    circuit.add("d2", "NAND2", ["a", "b"], "po", 2)
    circuit.add("s2", "INV", ["po"], "y2", 4)
    for delay_model, variation_model in _substrates():
        _assert_trials_match_scalar(circuit, delay_model, variation_model, ["s1", "s2", "o1"])


@settings(max_examples=100, deadline=None)
@given(
    library=_libraries(),
    sizes=st.data(),
    kind=st.sampled_from(["lut", "linear"]),
)
def test_random_tables_match_scalar_trial_sizes(library, sizes, kind):
    circuit = _mesh(library, sizes)
    delay_model = make_delay_model(library, kind)
    variation_model = VariationModel(0.45, 1.3, 0.37)
    _assert_trials_match_scalar(circuit, delay_model, variation_model, list(circuit.gates))
