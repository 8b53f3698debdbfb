"""Conservative Fourier pseudo-spectral solvers for the generalized KdV equation."""
