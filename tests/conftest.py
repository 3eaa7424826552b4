"""Shared fixtures for the test suite.

Most tests need the same three substrates — a cell library, a delay model
and a variation model — plus a handful of small circuits.  Building the
synthetic library is cheap but not free, so the library-scoped fixtures are
session-scoped; circuits are function-scoped because many tests mutate gate
sizes.
"""

from __future__ import annotations

import contextlib
import functools
import os
from itertools import pairwise

import numpy as np
import pytest

# Verify every fresh IR lowering against its documented invariants for the
# whole suite (see Circuit.compiled / repro.verify.ir_checks).  Cheap
# relative to the analyses the tests run, and it turns any lowering
# regression into an immediate, named failure.
os.environ.setdefault("REPRO_VERIFY_IR", "1")

from repro.circuits.registry import c17
from repro.circuits.adders import ripple_carry_adder
from repro.circuits.alu import alu
from repro.core.baseline import MeanDelaySizer
from repro.core.discrete_pdf import batched_from_normal
from repro.core.fullssta import _moments, _pdfs, fold_rows
from repro.library.delay_model import LinearRCDelayModel, LookupTableDelayModel
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.netlist.circuit import Circuit
from repro.sta.dsta import DeterministicSTA
from repro.variation.model import VariationModel


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture(scope="session")
def library():
    """The default synthetic 90 nm-like library (7 sizes per cell type)."""
    return make_synthetic_90nm_library()


@pytest.fixture(scope="session")
def delay_model(library):
    """LUT delay model over the default library."""
    return LookupTableDelayModel(library)


@pytest.fixture(scope="session")
def linear_delay_model(library):
    """Linear-RC delay model over the default library."""
    return LinearRCDelayModel(library)


@pytest.fixture(scope="session")
def variation_model():
    """Default variation model (proportional + random components)."""
    return VariationModel()


@pytest.fixture
def c17_circuit():
    """The six-NAND ISCAS-85 toy circuit."""
    return c17()


@pytest.fixture
def small_adder():
    """A 4-bit ripple-carry adder (fast enough for optimizer tests)."""
    return ripple_carry_adder(4)


@pytest.fixture
def small_alu():
    """A 4-bit ALU (used by integration tests)."""
    return alu(4)


@pytest.fixture
def chain_circuit():
    """A simple 4-inverter chain with one fanout branch.

    Layout::

        in -> i1 -> i2 -> i3 -> out1
                     \\-> i4 -> out2
    """
    circuit = Circuit("chain", primary_inputs=["in"], primary_outputs=["out1", "out2"])
    circuit.add("i1", "INV", ["in"], "n1")
    circuit.add("i2", "INV", ["n1"], "n2")
    circuit.add("i3", "INV", ["n2"], "out1")
    circuit.add("i4", "INV", ["n2"], "out2")
    return circuit


def _topological_fold(circuit, gate_delay, zero, max_of, add):
    """Arrival at every net, walking the gates one by one in topological order.

    ``gate_delay(gate)`` is a gate's delay and its output arrives at
    ``add(max_of(input arrivals), delay)`` (a single input is used as is);
    primary inputs and undriven nets read as ``zero``.  ``0.0`` / ``max`` /
    ``operator.add`` make it nominal STA, ``NormalDelay`` moments with the
    Clark max make it FASSTA, and ``DiscretePDF`` convolution and max make it
    FULLSSTA.  Returns ``(arrivals, gate_delays)``.
    """
    arrivals = dict.fromkeys(circuit.primary_inputs, zero)
    gate_delays = {}
    for gate in circuit:
        gate_delays[gate.name] = delay = gate_delay(gate)
        inputs = [arrivals.get(net, zero) for net in gate.inputs]
        worst = inputs[0] if len(inputs) == 1 else max_of(inputs)
        arrivals[gate.output] = add(worst, delay)
    return arrivals, gate_delays


@pytest.fixture(scope="session")
def reference_fold():
    """The gate-by-gate fold the levelized engines are pinned against."""
    return _topological_fold


def _levelized_fold(engine, circuit):
    """A FULLSSTA result from an independent schedule: one ``fold_rows`` per level.

    Every net slot and the fanin sentinel start as the point pdf at zero;
    each ``level_offsets`` window folds its gates' input rows with the
    whole-circuit delay rows and stores their output rows, level by level.
    """
    plan, n = circuit.compiled(), engine.num_samples
    mu, sigma = engine.variation_model.delay_moments(circuit, engine.delay_model)
    delay_values, delay_probs, _ = batched_from_normal(mu, sigma, n)
    values, probs = np.zeros((plan.num_nets + 1, n)), np.zeros((plan.num_nets + 1, n))
    probs[:, 0] = 1.0
    counts = np.ones(plan.num_nets + 1, dtype=np.intp)
    for lo, hi in pairwise(plan.level_offsets.tolist()):
        ids, out = plan.fanin_matrix[lo:hi], plan.gate_output_slot[lo:hi]
        values[out], probs[out], counts[out] = fold_rows(
            values[ids], probs[ids], ids != plan.num_nets,
            delay_values[lo:hi], delay_probs[lo:hi], n,
        )
    timed = np.flatnonzero(~plan.floating_mask)
    names = [plan.net_names[slot] for slot in timed]
    arrivals = _pdfs(names, (values[timed], probs[timed], counts[timed]))
    return engine._build_result(circuit, arrivals, _moments(arrivals))


@pytest.fixture(scope="session")
def levelized_fold():
    """The level-by-level schedule FULLSSTA's all-dirty sweep is pinned against."""
    return _levelized_fold


class _FromScratchReanalysis:
    """``IncrementalReanalysis`` stand-in: every call is a fresh ``FULLSSTA.analyze``.

    Analyses are pure, so a no-argument ``preview()`` is an ``analyze()``
    and ``commit_preview()`` has nothing to fold in.  The batch form of
    ``preview`` times each ``(gate, size)`` trial by setting the size,
    analyzing and reverting.
    """

    def __init__(self, engine, circuit):
        self.engine = engine
        self.circuit = circuit
        self.stats = {}

    def analyze(self):
        return self.engine.analyze(self.circuit)

    def preview(self, trials=None):
        if trials is None:
            return self.analyze()
        results = []
        for gate_name, size_index in trials:
            previous = self.circuit.gate(gate_name).size_index
            self.circuit.set_size(gate_name, size_index)
            results.append(self.analyze())
            self.circuit.set_size(gate_name, previous)
        return results

    def commit_preview(self, index=0):
        return True


@pytest.fixture
def from_scratch_sizer():
    """Context manager: inside it, ``StatisticalGreedySizer`` times every
    outer-loop state with a from-scratch ``FULLSSTA.analyze``.

    The reference the incremental pipeline's sizing decisions are pinned
    against; wrap only the reference run in it.
    """

    @contextlib.contextmanager
    def from_scratch():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.core.sizer.IncrementalReanalysis", _FromScratchReanalysis)
            yield

    return from_scratch


def _one_at_a_time(fallbacks, timer, circuit, scheduled, best, *_):
    """The mean-delay baseline's pass acceptance, one ``max_delay`` per trial.

    Keeps the bulk resize when it gains more than ``min_gain``; otherwise
    reverts it and tries each resize in schedule order, keeping those that
    beat the best delay by more than ``min_gain``; otherwise keeps the bulk
    resize anyway.  Every state is timed with a fresh
    ``DeterministicSTA.max_delay``, never with ``timer``, the baseline's
    committed timer under test.  Appends ``(trials, kept positions)`` per
    fallback.
    """
    max_delay = DeterministicSTA(timer.delay_model).max_delay
    undo = {name: circuit.gate(name).size_index for name in scheduled}
    for name, size in scheduled.items():
        circuit.set_size(name, size)
    new_delay = max_delay(circuit)
    min_gain = MeanDelaySizer.MIN_GAIN * max(best, 1.0)
    if best - new_delay > min_gain:
        return dict(scheduled), new_delay, new_delay
    for name, size in undo.items():
        circuit.set_size(name, size)
    kept, positions = {}, []
    for position, (name, size) in enumerate(scheduled.items()):
        circuit.set_size(name, size)
        trial = max_delay(circuit)
        if trial < best - min_gain:
            best, kept[name] = trial, size
            positions.append(position)
        else:
            circuit.set_size(name, undo[name])
    fallbacks.append((len(scheduled), positions))
    if kept:
        return kept, best, best
    for name, size in scheduled.items():
        circuit.set_size(name, size)
    return kept, new_delay, new_delay


@pytest.fixture
def one_at_a_time_baseline():
    """Context manager: inside it, ``MeanDelaySizer`` accepts each pass with
    the one-at-a-time loop (a fresh ``DeterministicSTA.max_delay`` per
    trial) instead of ``resize_scheduled_gates``; it yields the list of
    fallbacks it ran.

    The reference the baseline's galloping trial columns are pinned against.
    """

    @contextlib.contextmanager
    def one_at_a_time():
        fallbacks = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.core.baseline.resize_scheduled_gates",
                functools.partial(_one_at_a_time, fallbacks),
            )
            yield fallbacks

    return one_at_a_time
