"""Boosting weak controllers for online control of dynamical systems."""

import os

# One BLAS thread, set before any module of the package loads numpy: a large
# product's bits depend on the thread count. README.md says what it overrides.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
