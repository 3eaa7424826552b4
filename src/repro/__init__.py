"""repro — statistical gate sizing for process-variation tolerance.

This package is a full reproduction of the system described in

    O. Neiroukh and X. Song,
    "Improving the Process-Variation Tolerance of Digital Circuits Using
    Gate Sizing and Statistical Techniques", DATE 2005.

The public API is organised into subpackages:

``repro.netlist``
    Gate-level combinational circuit data model, ISCAS-85 ``.bench`` and
    minimal structural-Verilog readers/writers, structural validation.
``repro.library``
    Standard-cell library substrate: cell types with multiple discrete
    sizes, linear-RC and lookup-table delay models, and a synthetic
    90 nm-like library generator.
``repro.variation``
    Process-variation models (proportional + unsystematic random
    components) that assign a delay sigma to every gate instance.
``repro.sta``
    Deterministic static timing analysis (arrival/required/slack, WNS
    critical path) used as a baseline and for sanity checks.
``repro.core``
    The paper's contribution: FULLSSTA (discrete-PDF SSTA), FASSTA
    (moment-based fast SSTA with Clark-max approximations), WNSS path
    tracing, subcircuit extraction, and the StatisticalGreedy sizer.
``repro.montecarlo``
    Monte-Carlo golden model used to validate the statistical engines.
``repro.circuits``
    Parametric benchmark-circuit generators standing in for the ISCAS-85
    and ALU circuits of the paper's evaluation.
``repro.analysis``
    Experiment harnesses that regenerate the paper's Table 1 and
    Figures 1, 3 and 4, plus metrics and text reporting.
``repro.runner``
    Sweep orchestration: (circuit, lambda) cells run serially or on a
    ``ProcessPoolExecutor``, with persistent, resumable JSON artifacts.
``repro.criticality``
    Statistical criticality subsystem: gate/net/edge criticality
    probabilities, top-k statistical path extraction, statistical slack
    PDFs, and the Monte-Carlo critical-path cross-check.

Quickstart
----------
>>> from repro import quick_flow
>>> result = quick_flow("c17", lam=3.0, seed=1)
>>> result.sigma_reduction_pct >= 0
True
"""

from repro.version import __version__
from repro.flow import FlowResult, quick_flow, run_sizing_flow

__all__ = [
    "__version__",
    "FlowResult",
    "quick_flow",
    "run_sizing_flow",
]
