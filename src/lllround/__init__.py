"""Rounding covering and minimax integer programs with certified bounds.

The package splits into tail-probability kernels (:mod:`lllround.tailbounds`),
instance modelling and generators (:mod:`lllround.model`), a small dense LP
solver (:mod:`lllround.lp`), the covering rounding pipeline with its success
estimator and derandomizer (:mod:`lllround.cip`), minimax rounding on one
path, support bootstrapping then Las Vegas retries (:mod:`lllround.mip`),
exhaustive verification oracles (:mod:`lllround.oracle`), and the
command-line front end (:mod:`lllround.cli`).

The package's public names are those its modules list in their `__all__`.
"""

from . import cip, lp, mip, model, oracle, tailbounds
from .cip import *  # noqa: F403
from .lp import *  # noqa: F403
from .mip import *  # noqa: F403
from .model import *  # noqa: F403
from .oracle import *  # noqa: F403
from .tailbounds import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *cip.__all__, *lp.__all__, *mip.__all__, *model.__all__, *oracle.__all__, *tailbounds.__all__
]
