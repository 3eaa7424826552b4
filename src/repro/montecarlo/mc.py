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

Propagation runs over the circuit's compiled IR with the max-plus kernel
deterministic STA runs too (:func:`repro.ir.compiled.propagate_levelized`),
every sample a column of one ``(num_nets + 1, num_samples)`` arrival
matrix, :data:`BLOCK_COLUMNS` columns at a time so the kernel's scratch
does not grow with the sample count.  Each gate's samples are drawn
straight into its output row (no gate-delay matrix) from the packed delay
stage's ``(mu, sigma)`` (:meth:`VariationModel.delay_moments
<repro.variation.model.VariationModel.delay_moments>`), in gate-id order
(``circuit.topological_order()``), so the generator stream, and with
exact ``max`` and addition the samples, are bit-identical to the historical
per-gate loop (``tests/montecarlo/test_mc.py``).
:meth:`MonteCarloTimer.sample` is that one sampler, and
:meth:`MonteCarloTimer.run` reduces its arrival matrix to circuit-delay
samples.

Boundary conditions match the SSTA engines: primary inputs *and* floating
(undriven non-PI) gate inputs carry a zero arrival.  Undriven primary
outputs remain an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ir.compiled import CompiledCircuit, arrival_matrix, propagate_levelized
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.model import VariationModel

#: Sample columns :meth:`MonteCarloTimer.sample` propagates at a time.
BLOCK_COLUMNS = 1024


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
        """Empirical quantile of the circuit delay.

        The inverted ECDF, like :func:`~repro.analysis.timing_yield.period_for_yield`:
        the smallest sample whose empirical yield reaches ``q``.
        """
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return float(np.quantile(self.samples, q, method="inverted_cdf"))

    @property
    def cv(self) -> float:
        return self.sigma / self.mean if self.mean else 0.0


def output_slots(circuit: Circuit, plan: CompiledCircuit) -> np.ndarray:
    """IR net slots of ``circuit``'s primary outputs, in output order.

    Raises ``ValueError`` when the circuit has no primary outputs and
    ``KeyError`` naming every output that is neither a primary input nor a
    gate output (unknown or floating nets), like the SSTA engines.
    """
    outputs = circuit.primary_outputs
    if not outputs:
        raise ValueError(f"circuit {circuit.name!r} has no primary outputs")
    missing = [
        net for net in outputs if net not in plan.net_index or net in plan.floating
    ]
    if missing:
        raise KeyError(f"unknown output net(s) {missing} in circuit {circuit.name!r}")
    return np.array([plan.net_index[net] for net in outputs], dtype=np.intp)


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
            plan, arrivals = self.sample(circuit, num_samples, seed)
            slots = output_slots(circuit, plan)
            # Row views, not a gathered copy of every output's samples.
            rows = {
                net: arrivals[slot]
                for net, slot in zip(circuit.primary_outputs, slots, strict=True)
            }
            circuit_delay = np.full(num_samples, -np.inf)
            for row in rows.values():
                np.maximum(circuit_delay, row, out=circuit_delay)
            result = MonteCarloResult(
                samples=circuit_delay,
                per_output_mean={net: float(row.mean()) for net, row in rows.items()},
                per_output_sigma={net: float(row.std(ddof=1)) for net, row in rows.items()},
            )
            mc_span.set(mean=result.mean, sigma=result.sigma)
        return result

    def sample(
        self, circuit: Circuit, num_samples: int, seed: Optional[int]
    ) -> Tuple[CompiledCircuit, np.ndarray]:
        """Draw every gate delay ``num_samples`` times and propagate the arrivals.

        Returns the circuit's IR and :func:`propagate_levelized`'s
        ``(num_nets + 1, num_samples)`` arrival matrix, whose last row is the
        ``-inf`` fanin sentinel.  Boundary slots (primary inputs and floating
        gate inputs) carry a zero arrival, the SSTA engines' convention.
        """
        rng = np.random.default_rng(seed)
        plan = circuit.compiled()
        mu, sigma = self.variation_model.delay_moments(circuit, self.delay_model)

        # Draw each gate's delay samples into its output row of the arrival
        # matrix, which propagation adds the fold into.  Gates draw in id
        # order, which is the circuit's topological order: the generator
        # stream is pinned bit for bit by the regression tests.
        arr = arrival_matrix(plan, num_samples)
        for gid, (mean, sd) in enumerate(zip(mu.tolist(), sigma.tolist(), strict=True)):
            arr[plan.num_pis + gid] = rng.normal(mean, sd, num_samples)
        for start in range(0, num_samples, BLOCK_COLUMNS):
            propagate_levelized(plan, arr[:, start:start + BLOCK_COLUMNS])
        return plan, arr
