"""Mobility-cluster discovery and Bayesian hypothesis ranking for trip data."""

import os
# Every BLAS product here is small, so a second OpenBLAS thread only spins: pin
# one before numpy loads its pool. A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
