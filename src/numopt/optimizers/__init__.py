"""Pre-built optimizers.  Each exposes optimize(objective, x0, callbacks=()) ->
(parameters, OptimizationResult) and a ``requires`` capability constant.
New ones are built from ``prepare_run``, ``finish_run`` and ``progress_stop``:
``prepare_run`` returns the parameters and the run's adapter, the one handle
the loop calls the objective through, reports each step to
(``adapter.step_taken``, which counts it in ``adapter.iterations``) and
hands to ``finish_run``; no optimizer keeps a step counter of its own.
The stop rules live in ``_common``: the improvement stop
(``progress_stop``), the iteration cap and the gradient-norm stop, each
stated once; the max-abs gradient norm is ``core._max_abs_norm``."""

from . import _common, annealing, gradient_descent, lbfgs, sgd
from ._common import *
from .annealing import *
from .gradient_descent import *
from .lbfgs import *
from .sgd import *

__all__ = (
    lbfgs.__all__ + gradient_descent.__all__ + sgd.__all__ + annealing.__all__ + _common.__all__
)
