"""Spectral distance bounds for perturbed normal matrices.

Given a normal matrix A and an arbitrary perturbation E, this package
computes the true minimum-cost matching distance between the spectra of
A and A + E, evaluates a catalog of Frobenius-norm upper bounds on that
distance, estimates the departure from normality of A + E, and verifies
by fixtures and seeded randomized campaigns that every bound dominates
the true distance.
"""

# The public names are those of the library modules' ``__all__`` lists.
from . import bounds, campaigns, decomp, ensembles, matching, matrices, quantities
from .bounds import *  # noqa: F403
from .campaigns import *  # noqa: F403
from .decomp import *  # noqa: F403
from .ensembles import *  # noqa: F403
from .matching import *  # noqa: F403
from .matrices import *  # noqa: F403
from .quantities import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *matrices.__all__,
    *decomp.__all__,
    *matching.__all__,
    *quantities.__all__,
    *bounds.__all__,
    *ensembles.__all__,
    *campaigns.__all__,
]
