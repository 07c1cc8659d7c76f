"""Exact integer ground states of the periodic Brauer loop model on chord diagrams."""

from . import checks, counting, diagrams, generators, hamiltonian, kernel
from .checks import *
from .counting import *
from .diagrams import *
from .generators import *
from .hamiltonian import *
from .kernel import *

__version__ = "0.1.0"

__all__ = []
__all__ += checks.__all__
__all__ += counting.__all__
__all__ += diagrams.__all__
__all__ += generators.__all__
__all__ += hamiltonian.__all__
__all__ += kernel.__all__
__all__ += ["__version__"]
