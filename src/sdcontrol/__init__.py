"""Design and certification toolkit for delayed boundary feedback control
of diagonal (modal) infinite-dimensional systems.

Workflow: build a modal plant, validate the truncation and controllability
assumptions, synthesize a delay-compensating gain, compute an explicit
stability certificate, and simulate the interconnected closed loop.
"""

from importlib import import_module as _import_module

from .certificates import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import *  # noqa: F403
from .predictor import *  # noqa: F403
from .simulate import *  # noqa: F403  (binds `simulate` to the function)
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

# the public names are the union of the modules' __all__, which README's
# API list repeats
__all__ = [name for module in ("config", "certificates", "errors",
                               "predictor", "simulate", "spectral")
           for name in _import_module(f".{module}", __name__).__all__]
