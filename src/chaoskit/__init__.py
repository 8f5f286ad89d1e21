"""Exact symbolic and Monte Carlo tools for polynomial functionals of
Gaussian vectors: Hermite algebra, moment and cumulant computation, Wiener
chaos decompositions, fourth-moment diagnostics, and seeded simulation
experiments with verdict reports."""

from . import algebra, chaos, cli, counterexamples, montecarlo, wick
from .algebra import *
from .chaos import *
from .cli import *
from .counterexamples import *
from .montecarlo import *
from .wick import *

__version__ = "0.1.0"

__all__ = [
    *algebra.__all__,
    *wick.__all__,
    *chaos.__all__,
    *counterexamples.__all__,
    *montecarlo.__all__,
    *cli.__all__,
]
