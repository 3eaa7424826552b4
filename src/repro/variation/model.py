"""Gate-delay variation model.

Every gate delay becomes a normally distributed random variable

    d ~ Normal(mu, sigma),   sigma = sigma_prop + sigma_rand

with

* ``sigma_prop = alpha / sqrt(drive) * mu`` — the *proportional* component.
  ``alpha`` is the relative sigma of a minimum-size (drive = 1) gate;
  dividing by ``sqrt(drive)`` captures the averaging of uncorrelated local
  variation over a wider device, which is exactly the lever the paper's
  sizer exploits ("our algorithm favors bigger gate sizes that reduce the
  variance of delay across them").
* ``sigma_rand`` — the *unsystematic* component, independent of size.  The
  paper notes this is the floor that prevents variance from being driven to
  zero no matter how large lambda is.

The defaults (``alpha = 0.6``, ``sigma_rand = 2 ps``) give minimum-size
gates a sigma of roughly half their delay and maximum-size gates about a
fifth of that, with a small size-independent floor.  These values are calibrated so that mean-delay-optimized
benchmark circuits land in the paper's Table 1 range of output sigma/mu
(about 0.02 for the deepest circuit up to about 0.12 for the shallow ALUs);
``benchmarks/bench_table1.py`` reports the original sigma/mu per circuit.

:meth:`VariationModel.delay_moments` gives every gate's ``(mu, sigma)`` as
two arrays in the circuit's compiled-IR gate order: the packed delay stage
(:meth:`BaseDelayModel.nominal_delays
<repro.library.delay_model.BaseDelayModel.nominal_delays>`) followed by the
sigma formula over arrays.  DSTA, FASSTA, FULLSSTA, both Monte-Carlo
timers and, through its trial-size form, the sizers' batched candidate
sweep read that one pair; it is bitwise equal to
:meth:`VariationModel.gate_distribution`, the scalar query (kept for the
scalar sweep reference and the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.library.delay_model import BaseDelayModel, FloatArray, IntArray, Trial
from repro.netlist.circuit import Circuit
from repro.netlist.gate import Gate


@dataclass(frozen=True)
class GateDelayDistribution:
    """Normal distribution of one gate's delay: ``Normal(mean, sigma)`` in ps."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise ValueError("gate delay mean must be non-negative")
        if self.sigma < 0:
            raise ValueError("gate delay sigma must be non-negative")

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma

    @property
    def cv(self) -> float:
        """Coefficient of variation sigma/mu (0 if the mean is 0)."""
        return self.sigma / self.mean if self.mean > 0 else 0.0


class VariationModel:
    """Maps (nominal delay, gate size) -> delay sigma.

    Parameters
    ----------
    proportional_alpha:
        Relative sigma (sigma/mu) of a minimum-size gate's proportional
        variation component.
    random_sigma:
        Absolute sigma (ps) of the unsystematic random component.
    size_exponent:
        How fast the proportional component shrinks with drive strength:
        ``sigma_prop = alpha * mu / drive**size_exponent``.  The default of
        0.5 is the classic Pelgrom-style 1/sqrt(area) scaling.
    mean_sigma_coupling:
        The constant ``c`` used by the WNSS tracer to couple a change in
        mean to the expected change in sigma along a path
        (``delta_sigma ~= c * delta_mu``, paper section 4.4).  The paper
        states it used "values for c equal to those assumed to relate mean
        delay through a gate to its variance", i.e. the same alpha.
    """

    def __init__(
        self,
        proportional_alpha: float = 0.6,
        random_sigma: float = 2.0,
        size_exponent: float = 0.5,
        mean_sigma_coupling: Optional[float] = None,
    ) -> None:
        if proportional_alpha < 0:
            raise ValueError("proportional_alpha must be non-negative")
        if random_sigma < 0:
            raise ValueError("random_sigma must be non-negative")
        if size_exponent < 0:
            raise ValueError("size_exponent must be non-negative")
        self.proportional_alpha = float(proportional_alpha)
        self.random_sigma = float(random_sigma)
        self.size_exponent = float(size_exponent)
        self.mean_sigma_coupling = (
            float(mean_sigma_coupling)
            if mean_sigma_coupling is not None
            else self.proportional_alpha
        )

    # ------------------------------------------------------------------
    def sigma_for(self, nominal_delay: float, drive: float) -> float:
        """Delay sigma (ps) for a gate with ``nominal_delay`` and ``drive`` strength."""
        if nominal_delay < 0:
            raise ValueError("nominal_delay must be non-negative")
        if drive <= 0:
            raise ValueError("drive must be positive")
        proportional = self.proportional_alpha * nominal_delay / (drive ** self.size_exponent)
        return proportional + self.random_sigma

    def gate_distribution(
        self,
        circuit: Circuit,
        gate: Gate,
        delay_model: BaseDelayModel,
        size_index: Optional[int] = None,
    ) -> GateDelayDistribution:
        """Delay distribution of ``gate`` (optionally evaluated at another size)."""
        library = delay_model.library
        idx = gate.size_index if size_index is None else size_index
        mean = delay_model.gate_delay_at_size(circuit, gate, idx)
        drive = library.size(gate.cell_type, idx).drive
        return GateDelayDistribution(mean=mean, sigma=self.sigma_for(mean, drive))

    def delay_moments(
        self,
        circuit: Circuit,
        delay_model: BaseDelayModel,
        gate_ids: Optional[IntArray] = None,
        trial: Optional[Trial] = None,
    ) -> Tuple[FloatArray, FloatArray]:
        """``(mu, sigma)`` of every gate, or of ``gate_ids``, in IR gate order.

        Bitwise equal to :meth:`gate_distribution` per gate at the sizes the
        compiled IR holds; with ``trial``, at the trial sizes of
        :meth:`BaseDelayModel.nominal_delays
        <repro.library.delay_model.BaseDelayModel.nominal_delays>`.
        """
        mu = delay_model.nominal_delays(circuit, gate_ids, trial)
        plan = circuit.compiled()
        pack = delay_model.packed(plan)
        drive_pow = pack.drive_pow(self.size_exponent)[pack.rows(plan, gate_ids, trial)]
        return mu, self.proportional_alpha * mu / drive_pow + self.random_sigma

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"VariationModel(alpha={self.proportional_alpha}, "
            f"random_sigma={self.random_sigma}, "
            f"size_exponent={self.size_exponent})"
        )
