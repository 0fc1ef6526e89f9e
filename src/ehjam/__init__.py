"""Anti-jamming link solver with RF energy harvesting.

The model module evaluates the closed-form link capacity, array-native with
scalars as the 0-d case; solvers plays the game on it: ChannelBatch owns the
neutralization threshold (p_threshold) and the jammer's best response
(jamming_sign), and locates the neutralizing and full-power operating points
(with grid oracles to cross-check them); experiments runs seeded SIR sweeps
with Monte Carlo fading; cli is the command-line front end.
"""

from . import experiments, model, solvers
from .experiments import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*model.__all__, *solvers.__all__, *experiments.__all__]
