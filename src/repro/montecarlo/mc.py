"""Monte-Carlo circuit-delay simulation.

Neither the paper's FASSTA nor FULLSSTA is exact (independence assumptions,
pdf discretization, the quadratic erf approximation), so the reproduction
includes the obvious golden model: draw every gate delay from its normal
distribution, propagate deterministic arrival times per sample, and collect
the circuit-delay samples.  The engines are validated against this model in
the tests and accuracy benchmarks, and the flow benchmark (``flowbench/``)
reports the FULLSSTA-vs-MC sigma error of every final design.

The simulator supports independent per-gate variation (the paper's inner
model) and, optionally, the spatially correlated overlay of
:class:`~repro.variation.correlation.SpatialCorrelationModel`.

Propagation runs as a levelized array program over the circuit's compiled IR
(:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`): one
``(num_nets, num_samples)`` arrival matrix, one ``np.take`` gather plus one
``np.maximum`` fold per input position per logic level — every sample
advances through a level at once instead of one gate at a time (see
:func:`propagate_levelized`).  Gate-delay *draws* stay in
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

from repro.ir.compiled import CompiledCircuit
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.correlation import SpatialCorrelationModel
from repro.variation.model import VariationModel


def propagate_levelized(plan: CompiledCircuit, delay: np.ndarray) -> np.ndarray:
    """Propagate arrival times for all samples at once over the IR.

    ``delay`` is a ``(num_gates, num_samples)`` gate-delay matrix in IR gate
    order.  Returns the ``(num_nets + 1, num_samples)`` arrival matrix whose
    rows follow the IR net-slot layout; boundary slots (primary inputs and
    floating gate inputs) hold zero, and the extra sentinel row holds
    ``-inf`` so the padded fanin matrix folds without a validity mask
    (``max(x, -inf) == x`` exactly).

    Per logic level the program is one ``np.take`` gather per fanin column
    folded with in-place ``np.maximum`` into a preallocated scratch buffer,
    then one ``np.add`` into the level's contiguous output-slot block.
    Every operation is an exact float op applied in the same order as the
    historical per-gate loop, so the result is bit-identical to it.
    """
    num_samples = delay.shape[1]
    arr = np.zeros((plan.num_nets + 1, num_samples))
    arr[plan.num_nets] = -np.inf
    if not plan.num_gates:
        return arr
    fanin = plan.fanin_matrix
    offsets = plan.level_offsets
    num_cols = fanin.shape[1]
    max_width = int(np.diff(offsets).max())
    acc = np.empty((max_width, num_samples))
    tmp = np.empty((max_width, num_samples))
    for li in range(plan.num_levels):
        start, stop = offsets[li], offsets[li + 1]
        width = stop - start
        worst = acc[:width]
        np.take(arr, fanin[start:stop, 0], axis=0, out=worst)
        for col in range(1, num_cols):
            other = tmp[:width]
            np.take(arr, fanin[start:stop, col], axis=0, out=other)
            np.maximum(worst, other, out=worst)
        out = plan.num_pis + start
        np.add(worst, delay[start:stop], out=arr[out: out + width])
    return arr


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
    correlation_model:
        Optional spatial-correlation overlay.  When given, the proportional
        part of every gate's sigma is split into a correlated component
        (driven by shared grid factors) and an independent residual.
    """

    def __init__(
        self,
        delay_model: BaseDelayModel,
        variation_model: VariationModel,
        correlation_model: Optional[SpatialCorrelationModel] = None,
    ) -> None:
        self.delay_model = delay_model
        self.variation_model = variation_model
        self.correlation_model = correlation_model

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        num_samples: int = 2000,
        seed: Optional[int] = 0,
    ) -> MonteCarloResult:
        """Draw ``num_samples`` joint gate-delay samples and time the circuit.

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
        distributions = self.variation_model.all_gate_distributions(
            circuit, self.delay_model
        )
        plan = circuit.compiled()

        # Pre-draw the gate-delay samples into a (num_gates, num_samples)
        # matrix in IR gate order.  The draw loop itself stays in
        # topological order: the generator stream is pinned bit-for-bit by
        # the regression tests, so only the *storage* is array-native.
        delay = np.empty((plan.num_gates, num_samples))
        if self.correlation_model is None:
            for name in order:
                dist = distributions[name]
                delay[plan.gate_index[name]] = rng.normal(
                    dist.mean, dist.sigma, num_samples
                )
        else:
            # Vectorized correlated path: one (num_samples, num_factors) draw
            # for the shared grid factors and one matmul for every gate's
            # correlated component; the independent/random parts stay
            # per-gate (2, num_samples) draws, which consume the exact same
            # generator stream without an O(gates x samples) upfront tensor.
            # Stream and arithmetic match the historical per-sample loop
            # bit-for-bit (pinned by tests/montecarlo/test_mc.py).
            factor_array = self.correlation_model.sample_factor_array(
                rng, num_samples
            )
            correlated_all = self.correlation_model.correlated_components(
                order, factor_array
            )
            sigma_rand = self.variation_model.random_sigma
            for j, name in enumerate(order):
                dist = distributions[name]
                gate = circuit.gate(name)
                drive = self.delay_model.library.size(
                    gate.cell_type, gate.size_index
                ).drive
                sigma_prop = (
                    self.variation_model.proportional_alpha
                    * dist.mean
                    / (drive ** self.variation_model.size_exponent)
                )
                sigma_corr, sigma_ind = self.correlation_model.split_sigma(sigma_prop)
                noise = rng.standard_normal((2, num_samples))
                delay[plan.gate_index[name]] = (
                    dist.mean
                    + sigma_corr * correlated_all[:, j]
                    + sigma_ind * noise[0]
                    + sigma_rand * noise[1]
                )

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
