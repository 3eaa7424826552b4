"""Process-variation substrate.

The paper adds two variation components to every gate delay (following
Cong 1997 and Nassif ISSCC 2000):

* a component **proportional to the delay through the gate**, whose relative
  magnitude shrinks as the gate is upsized (bigger devices average out more
  of the local variation), and
* an **unsystematic random** component that is independent of sizing and can
  never be optimized away.

:class:`~repro.variation.model.VariationModel` turns a nominal gate delay and
a gate size into a delay sigma.  Every gate delay is an independent normal
with ``sigma = sigma_prop + sigma_rand``; the engines and Monte Carlo share
this one model.
"""

from repro.variation.model import VariationModel, GateDelayDistribution

__all__ = [
    "VariationModel",
    "GateDelayDistribution",
]
