"""Monte-Carlo circuit-delay simulation.

Neither the paper's FASSTA nor FULLSSTA is exact (independence assumptions,
pdf discretization, the quadratic erf approximation), so the reproduction
includes the obvious golden model: draw every gate delay from its normal
distribution, propagate deterministic arrival times per sample, and collect
the circuit-delay samples.  The engines are validated against this model in
the tests and accuracy benchmarks, and the flow benchmark (``flowbench/``)
reports the FULLSSTA-vs-MC sigma error of every final design.

Every gate delay is an independent ``Normal(mu, sigma)`` draw with
``sigma = sigma_prop + sigma_rand``, the gate-delay model the engines time.
Arrival samples still correlate wherever paths reconverge, which is what the
engines' independent ``max`` ignores.

Propagation runs as a levelized array program over the circuit's compiled IR
(:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`): one
``(num_nets, num_samples)`` arrival matrix, one ``np.take`` gather plus one
``np.maximum`` fold per input position per logic level — every sample
advances through a level at once instead of one gate at a time (see
:func:`repro.ir.compiled.propagate_levelized`, the max-plus kernel
deterministic STA runs with a single column).  Every gate's ``(mu, sigma)``
comes from the packed delay stage in one call
(:meth:`VariationModel.delay_moments
<repro.variation.model.VariationModel.delay_moments>`), the same pair the
SSTA engines read.  Gate-delay *draws* stay in
``circuit.topological_order()`` order so the generator stream is
bit-compatible with the historical per-gate loop (pinned by
``tests/montecarlo/test_mc.py``); ``np.maximum`` and float addition are
exact, so the levelized propagation is bit-identical too.

Boundary conditions follow the IR's boundary mask, exactly like the SSTA
engines: primary inputs *and* floating (undriven non-PI) gate inputs carry
a zero arrival.  Undriven primary outputs remain an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.ir.compiled import propagate_levelized
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.model import VariationModel


@dataclass
class MonteCarloResult:
    """Sampled circuit-delay distribution."""

    samples: np.ndarray
    per_output_mean: Dict[str, float]
    per_output_sigma: Dict[str, float]

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def sigma(self) -> float:
        return float(self.samples.std(ddof=1)) if self.samples.size > 1 else 0.0

    @property
    def num_samples(self) -> int:
        return int(self.samples.size)

    def quantile(self, q: float) -> float:
        """Empirical quantile of the circuit delay."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return float(np.quantile(self.samples, q))

    @property
    def cv(self) -> float:
        return self.sigma / self.mean if self.mean else 0.0


class MonteCarloTimer:
    """Samples circuit delays under the gate-delay variation model.

    Parameters
    ----------
    delay_model / variation_model:
        The same substrates the SSTA engines use, so all three see identical
        per-gate distributions.
    """

    def __init__(self, delay_model: BaseDelayModel, variation_model: VariationModel) -> None:
        self.delay_model = delay_model
        self.variation_model = variation_model

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        num_samples: int = 2000,
        seed: Optional[int] = 0,
    ) -> MonteCarloResult:
        """Draw ``num_samples`` independent gate-delay samples and time the circuit.

        The inner propagation is vectorised across samples: each net carries
        a length-``num_samples`` array of arrival times.
        """
        if num_samples < 2:
            raise ValueError("num_samples must be at least 2")
        METRICS.counter("mc.runs")
        METRICS.counter("mc.samples", num_samples)
        with span(
            "mc.run", circuit=circuit.name, samples=num_samples
        ) as mc_span:
            result = self._run(circuit, num_samples, seed)
            mc_span.set(mean=result.mean, sigma=result.sigma)
        return result

    def _run(
        self,
        circuit: Circuit,
        num_samples: int,
        seed: Optional[int],
    ) -> MonteCarloResult:
        rng = np.random.default_rng(seed)

        # Draw order is part of the pinned RNG stream contract (bit-compat
        # with the scalar timer).  repro-lint: allow=RL001
        order = circuit.topological_order()
        plan = circuit.compiled()
        draw_ids = [plan.gate_index[name] for name in order]
        mu, sigma = self.variation_model.delay_moments(circuit, self.delay_model)

        # Pre-draw the gate-delay samples into a (num_gates, num_samples)
        # matrix in IR gate order.  The draw loop itself stays in
        # topological order: the generator stream is pinned bit-for-bit by
        # the regression tests, so only the *storage* is array-native.
        delay = np.empty((plan.num_gates, num_samples))
        for gid, mean, sd in zip(
            draw_ids, mu[draw_ids].tolist(), sigma[draw_ids].tolist(), strict=True
        ):
            delay[gid] = rng.normal(mean, sd, num_samples)

        # Levelized propagation over all samples at once.  Boundary slots
        # (primary inputs and floating gate inputs, per the IR boundary
        # mask) carry a zero arrival — the same convention as the SSTA
        # engines.
        arr = propagate_levelized(plan, delay)

        outputs = circuit.primary_outputs
        if not outputs:
            raise ValueError(f"circuit {circuit.name!r} has no primary outputs")
        # A primary output must be a primary input or a gate output;
        # floating/unknown output nets are netlist bugs, like the engines.
        missing = [
            net
            for net in outputs
            if plan.net_index.get(net) is None or net in plan.floating
        ]
        if missing:
            raise KeyError(
                f"unknown output net(s) {missing} in circuit {circuit.name!r}"
            )
        circuit_delay = None
        per_output_mean: Dict[str, float] = {}
        per_output_sigma: Dict[str, float] = {}
        for net in outputs:
            samples = arr[plan.net_index[net]]
            per_output_mean[net] = float(samples.mean())
            per_output_sigma[net] = float(samples.std(ddof=1))
            circuit_delay = (
                samples
                if circuit_delay is None
                else np.maximum(circuit_delay, samples)
            )

        return MonteCarloResult(
            samples=circuit_delay,
            per_output_mean=per_output_mean,
            per_output_sigma=per_output_sigma,
        )
