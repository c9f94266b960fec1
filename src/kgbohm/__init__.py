"""Bohm-type trajectories for Klein-Gordon plane-wave superpositions.

Implements the construction that splits the logarithmic gradient of a
positive-energy plane-wave superposition into real covectors p_mu and s_mu,
forms the two candidate velocity covectors

    w_plus = exp(theta) p + s,   w_minus = -exp(-theta) p + s,
    sinh(theta) = (p.p - s.s) / (2 p.s),

and selects whichever is timelike. The two candidates are mutually
orthogonal, so they are never both timelike -- but they can be both
spacelike, and then the selection rule has no answer. This package
classifies events by that verdict, integrates the trajectories where they
exist, and estimates the measure of the region where they do not.

numpy is imported inside the functions that take or return arrays (the
batch path), so a process that stays on the scalar path never loads it.
"""

from . import construction, errors, measure, minkowski, trajectory, wavefield
from .construction import *  # noqa: F403
from .errors import *  # noqa: F403
from .measure import *  # noqa: F403
from .minkowski import *  # noqa: F403
from .trajectory import *  # noqa: F403
from .wavefield import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package exports their union.
# cli stays out: it imports __version__ from here, and `python -m kgbohm.cli`
# warns when the package has already imported it.
__all__ = ["__version__"] + [
    name
    for module in (minkowski, wavefield, construction, trajectory, measure, errors)
    for name in module.__all__
]
