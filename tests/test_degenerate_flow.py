"""Degenerate circuits through the whole sizing flow.

Each case runs ``run_sizing_flow`` (mean-delay baseline, then the
statistical sizer) and either raises the named error listed with it, or
finishes with the baseline's final delay equal to a fresh
``DeterministicSTA.max_delay`` of the sizes it handed on and the flow's
final moments equal to a fresh ``FULLSSTA.analyze`` of the final sizes.
These are the shapes the nominal timer's reverse pass and committed column
treat specially: outputs that are also read or are primary inputs, nets
nothing reads, floating inputs and wide fanout.
"""

import pytest

from repro.circuits.registry import c17
from repro.core.baseline import MeanDelaySizer
from repro.core.fullssta import FULLSSTA
from repro.core.sizer import SizerConfig
from repro.flow import run_sizing_flow
from repro.netlist.circuit import Circuit
from repro.sta.dsta import DeterministicSTA
from repro.variation.model import VariationModel
from repro.verify.preflight import PreflightError


def single_gate():
    circuit = Circuit("single", primary_inputs=["a"], primary_outputs=["y"])
    circuit.add("g", "INV", ["a"], "y")
    return circuit


def every_net_an_output():
    circuit = c17()
    for net in [*circuit.primary_inputs, *(gate.output for gate in circuit)]:
        if not circuit.is_primary_output(net):
            circuit.add_primary_output(net)
    return circuit


def high_fanout(readers):
    """One net read by ``readers`` inverters, each driving an output."""
    circuit = Circuit("fanout", primary_inputs=["a", "b"])
    circuit.add("hub", "NAND2", ["a", "b"], "h")
    for i in range(readers):
        circuit.add(f"r{i}", "INV", ["h"], f"y{i}")
        circuit.add_primary_output(f"y{i}")
    return circuit


def input_to_output():
    """A primary input read by gates and one read by nothing, both outputs."""
    circuit = c17()
    circuit.add_primary_input("through")
    circuit.add_primary_output("through")
    circuit.add_primary_output(circuit.primary_inputs[0])
    return circuit


def dangling_output():
    circuit = c17()
    circuit.add("dangle", "INV", ["N11"], "dangling")
    return circuit


def floating_input():
    circuit = c17()
    circuit.add("float", "NAND2", ["ghost", "N16"], "nf")
    circuit.add_primary_output("nf")
    return circuit


NO_VARIATION = VariationModel(proportional_alpha=0.0, random_sigma=0.0)

#: (id, circuit factory, variation model or None, preflight, expected error or None).
CASES = [
    ("zero-sigma", c17, NO_VARIATION, True, None),
    ("single-gate", single_gate, None, True, None),
    ("every-net-an-output", every_net_an_output, None, True, None),
    ("fanout-64", lambda: high_fanout(64), None, True, None),
    # DRC009: no size of the hub can drive 400 inverter pins.
    ("fanout-400", lambda: high_fanout(400), None, True, PreflightError),
    ("input-to-output", input_to_output, None, True, None),
    ("dangling-output", dangling_output, None, True, None),
    # DRC004: the pre-flight refuses a floating input; unchecked, the engines
    # time it at zero arrival.
    ("floating-input", floating_input, None, True, PreflightError),
    ("floating-input-unchecked", floating_input, None, False, None),
]


@pytest.mark.parametrize(
    "build, variation, preflight, error", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_flow_finishes_or_names_its_error(
    build, variation, preflight, error, delay_model, variation_model, monkeypatch
):
    variation = variation or variation_model
    config = SizerConfig(lam=3.0, max_iterations=6)
    circuit = build()
    if error is not None:
        with pytest.raises(error):
            run_sizing_flow(
                circuit, delay_model=delay_model, variation_model=variation,
                sizer_config=config, preflight=preflight,
            )
        return

    baseline = []  # (reported final delay, fresh max_delay of its sizes)
    optimize = MeanDelaySizer.optimize

    def spy(sizer, target):
        result = optimize(sizer, target)
        baseline.append((result.final_delay, DeterministicSTA(delay_model).max_delay(target)))
        return result

    monkeypatch.setattr(MeanDelaySizer, "optimize", spy)
    flow = run_sizing_flow(
        circuit, delay_model=delay_model, variation_model=variation,
        sizer_config=config, preflight=preflight,
    )
    monkeypatch.undo()

    [(reported, fresh)] = baseline
    assert reported == fresh
    final = FULLSSTA(delay_model, variation, num_samples=config.pdf_samples).analyze(circuit)
    assert (flow.final_rv.mean, flow.final_rv.sigma) == (
        final.output_rv.mean, final.output_rv.sigma)
    if variation is NO_VARIATION:
        assert flow.final_rv.sigma == 0.0  # repro-lint: allow=RL004 -- every delay is a point
