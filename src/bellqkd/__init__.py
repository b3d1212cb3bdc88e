"""Two-qubit Bell-violation analysis, local filtering, and QKD simulation.

The package covers the pipeline from a two-qubit density matrix to a
usability verdict for CHSH-certified key distribution: correlation
spectra and optimal CHSH settings, QBER and key-rate thresholds, the
Lorentz normal form behind optimal single-copy filtering, and a seeded
Monte Carlo of the filter-then-measure protocol.
"""

# filtering comes first: its source compiles before numpy loads, which
# keeps the peak memory of the import lower
from . import filtering, metrics, protocol_sim, states
from .filtering import *  # noqa: F403
from .metrics import *  # noqa: F403
from .protocol_sim import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for mod in (states, metrics, filtering, protocol_sim)
           for name in mod.__all__] + ["__version__"]
