"""Parallel-in-time solver for high-contrast multiscale diffusion.

Pipeline: assemble fine bilinear FEM operators, build a split NLMC coarse
space (implicit channel directions, explicit matrix directions), integrate
with a partially explicit scheme, and accelerate over time with parareal
whose fine propagator is an alpha-circulant all-at-once solve refreshed by
waveform relaxation.
"""

__version__ = "0.1.0"
