"""Initial-value privacy auditing for linear dynamical systems.

Rank-based privacy verdicts for initial values observed through noisy
linear measurements, structure-level (generic) verdicts for weighted
networks, (epsilon, delta) noise calibration for trajectory releases, and
an empirical eavesdropper harness.

The public names are those in each module's ``__all__``.
"""

from . import dp, errors, generic, intrinsic, obsv, sim, sysmodel
from .errors import *
from .sysmodel import *
from .obsv import *
from .intrinsic import *
from .dp import *
from .generic import *
from .sim import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *sysmodel.__all__,
    *obsv.__all__,
    *intrinsic.__all__,
    *dp.__all__,
    *generic.__all__,
    *sim.__all__,
]
