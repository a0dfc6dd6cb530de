"""numopt: small numerical-optimization toolkit.

Objectives are plain objects; optimizers state what they need and check it
up front.  Minimal use:

    import numpy as np
    from numopt import LBFGS
    from numopt.problems import LinearRegression, generate_noisy_linear

    X, y, _ = generate_noisy_linear(d=5, n=200, noise_scale=1.0, seed=0)
    x, result = LBFGS().optimize(LinearRegression(X, y), np.zeros((5, 1)))
    print(result.final_objective, result.termination)

Any object with the right methods works in place of the bundled problems;
see ``numopt.core`` for the method contracts and what gets inferred when a
method is missing.
"""

from . import callbacks, core, optimizers
from .callbacks import *
from .core import *
from .optimizers import *

__version__ = "0.1.0"

__all__ = core.__all__ + callbacks.__all__ + optimizers.__all__ + ["__version__"]
