"""Pre-built optimizers.  Each exposes optimize(objective, x0, callbacks=()) ->
(parameters, OptimizationResult) and a ``requires`` capability constant.
Each is built from a public kit, and a new one needs nothing else:
``prepare_run`` returns the parameters and the run's adapter, the one handle
the loop calls the objective through, reports each step to
(``adapter.step_taken``, which counts it in ``adapter.iterations``) and
hands to ``finish_run``; no optimizer keeps a step counter of its own.
The stop rules are ``progress_stop`` (improvement and cap), ``cap_stop``
and ``steps_within_cap`` (the iteration cap) and ``gradient_stop`` (the
max-abs gradient norm), each stated once in ``_common``, and the option
rule is ``check_options``, from ``numopt.core``.  No optimizer module
imports a private name."""

from . import _common, annealing, gradient_descent, lbfgs, sgd
from ._common import *
from .annealing import *
from .gradient_descent import *
from .lbfgs import *
from .sgd import *

__all__ = (
    lbfgs.__all__ + gradient_descent.__all__ + sgd.__all__ + annealing.__all__ + _common.__all__
)
