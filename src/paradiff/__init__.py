"""Parallel-in-time solver for high-contrast multiscale diffusion.

Pipeline: assemble fine bilinear FEM operators, build a split NLMC coarse
space (implicit channel directions, explicit matrix directions), integrate
with a partially explicit scheme, and accelerate over time with parareal
whose fine propagator is an alpha-circulant all-at-once solve refreshed by
waveform relaxation.
"""

import os

# One BLAS thread unless the caller chose a count: the dense operands are at
# most a few hundred wide, and at two OpenBLAS threads some processes stall
# the time loop 10-fold. OpenBLAS reads the variable once, when numpy loads,
# so this holds only where paradiff is imported before numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
