"""Gauss-Legendre collocation tableaus for any number of stages s (order 2s).

A tableau is its coefficients (A, b, c).  Gauss tableaus preserve quadratic
invariants; ``symplectic_residual`` measures how far a tableau is from that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["ButcherTableau", "gauss_legendre_tableau", "symplectic_residual"]


class ButcherTableau(NamedTuple):
    """Runge-Kutta coefficients: stage matrix A (s, s), weights b and nodes c (s,)."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray


def symplectic_residual(A: np.ndarray, b: np.ndarray) -> float:
    """max_ij |b_i a_ij + b_j a_ji - b_i b_j|, zero for quadratic-preserving RK."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    R = b[:, None] * A + (b[:, None] * A).T - np.outer(b, b)
    return float(np.abs(R).max())


def _lagrange_matrix(nodes, at) -> np.ndarray:
    """Row i holds the weights that take values at ``nodes`` to the value at
    ``at[i]`` of their interpolating polynomial."""
    nodes = np.asarray(nodes, dtype=float)
    at = np.asarray(at, dtype=float)
    W = np.ones((at.size, nodes.size))
    for j, xj in enumerate(nodes):
        for m, xm in enumerate(nodes):
            if m != j:
                W[:, j] *= (at - xm) / (xj - xm)
    return W


def gauss_legendre_tableau(s: int) -> ButcherTableau:
    """Collocation tableau at the s Gauss-Legendre points; order 2s.

    a_ij is the integral of the j-th Lagrange basis polynomial over [0, c_i],
    which the s-point Gauss rule scaled to that interval integrates exactly:
    a_ij = c_i sum_m b_m l_j(c_i c_m).
    """
    if s < 1:
        raise ValueError(f"a collocation tableau needs s >= 1 stages, got s={s}")
    x, w = leggauss(s)
    c, b = (x + 1.0) / 2.0, w / 2.0
    L = _lagrange_matrix(c, np.outer(c, c).ravel()).reshape(s, s, s)  # l_j(c_i c_m)
    A = c[:, None] * np.einsum("m,imj->ij", b, L)
    return ButcherTableau(A, b, c)
