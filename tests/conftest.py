"""Shared fixtures for the test suite.

Most tests need the same three substrates — a cell library, a delay model
and a variation model — plus a handful of small circuits.  Building the
synthetic library is cheap but not free, so the library-scoped fixtures are
session-scoped; circuits are function-scoped because many tests mutate gate
sizes.
"""

from __future__ import annotations

import os

import pytest

# Verify every fresh IR lowering against its documented invariants for the
# whole suite (see Circuit.compiled / repro.verify.ir_checks).  Cheap
# relative to the analyses the tests run, and it turns any lowering
# regression into an immediate, named failure.
os.environ.setdefault("REPRO_VERIFY_IR", "1")

from repro.circuits.registry import c17
from repro.circuits.adders import ripple_carry_adder
from repro.circuits.alu import alu
from repro.library.delay_model import LinearRCDelayModel, LookupTableDelayModel
from repro.library.synthetic90nm import make_synthetic_90nm_library
from repro.netlist.circuit import Circuit
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
