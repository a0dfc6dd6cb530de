"""Pre-built optimizers.  Each exposes optimize(objective, x0, callbacks=()) ->
(parameters, OptimizationResult) and a ``requires`` capability constant."""

from . import annealing, gradient_descent, lbfgs, sgd
from .annealing import *
from .gradient_descent import *
from .lbfgs import *
from .sgd import *

__all__ = lbfgs.__all__ + gradient_descent.__all__ + sgd.__all__ + annealing.__all__
