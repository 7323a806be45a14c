"""Bipartite squeezed coherent states, their phase-space entanglement
characterization, and the coupled-oscillator model behind them.

Every name in a layer's ``__all__`` is exported here, and so is
``ConvergenceError``; the layers' lists are the only lists of names.
"""

from . import basis, hermite, model, phase_space, states
from .basis import *  # noqa: F403
from .hermite import *  # noqa: F403
from .model import *  # noqa: F403
from .phase_space import *  # noqa: F403
from .quadrature import ConvergenceError
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["ConvergenceError"] + [
    name for layer in (basis, hermite, model, phase_space, states) for name in layer.__all__
]
