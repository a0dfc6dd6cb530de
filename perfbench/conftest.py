"""Self-tests import numopt from this checkout's ``src/``, as the benchmark does."""

from run import import_numopt

import_numopt()
