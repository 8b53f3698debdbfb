"""Periodic Fourier pseudo-spectral grid and differentiation operators.

The domain is [-L, L] with N equispaced nodes x_j = j*h, j = -N/2..N/2-1,
h = 2L/N.  Derivatives are computed with the real FFT: a field u sampled at
the nodes is transformed, multiplied by the per-mode symbols of d/dx, d2/dx2
or d3/dx3, and transformed back.  ``SpectralGrid.to_modes``/``from_modes``,
the package's only transforms, act on the last axis, take an optional ``out``
and make the round trip the identity; the quadrature weight h is in ``inner_h``.

The grid also holds ``parseval_d2``, the Parseval weights that give the
energy's (D2 u, u)_h from a spectrum without a transform, and the ones
vector of the momentum (u, 1)_h.

Fields are plain 1-D float64 numpy arrays of length N; no wrapper class.

The Nyquist mode of the odd-derivative symbols is zeroed (standard
pseudo-spectral practice).  This keeps the first-derivative operator exactly
antisymmetric on real data, which the discrete conservation identities rely
on.  The even-derivative symbol keeps its Nyquist entry.

The per-mode stage solve of the implicit integrators lives in
``gkdv.integrators``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralGrid",
    "make_grid",
    "apply_d1",
    "apply_d2",
    "inner_h",
]


# no solver code raises this; it stays only for bench/workloads.py's import
class SingularModeError(ValueError):
    """A per-mode linear solve hit a (numerically) singular mode."""


@dataclass(frozen=True)
class SpectralGrid:
    """Immutable periodic grid with precomputed derivative symbols.

    ``k1``, ``k2``, ``k3`` are the per-mode multipliers of the first, second
    and third derivative on the rfft half-spectrum (length N//2 + 1).  ``k1``
    is purely imaginary with the Nyquist entry zeroed, ``k2`` is real and
    non-positive, ``k3 = k1 * k2``.  ``parseval_d2`` is h/N * w_k * k2_k, with
    w = 1 at k = 0 and at the Nyquist mode and w = 2 elsewhere: the weight of
    |u^_k|^2 in (D2 u, u)_h.
    """

    L: float
    N: int
    h: float
    x: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    dealias: bool = False
    dealias_mask: np.ndarray = field(repr=False, default=None)
    parseval_d2: np.ndarray = field(repr=False, default=None)
    ones: np.ndarray = field(repr=False, default=None)

    @property
    def nmodes(self) -> int:
        return self.N // 2 + 1

    def check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        if u.shape != (self.N,):
            raise ValueError(f"field length {u.shape} does not match grid N={self.N}")
        return u

    def to_modes(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.rfft(u, out=out)

    def from_modes(self, uhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.irfft(uhat, n=self.N, out=out)

    def filter_23(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the 2/3-rule low-pass filter (used only when dealias=True)."""
        return self.from_modes(self.to_modes(u) * self.dealias_mask, out=out)


def make_grid(L: float, N: int, dealias: bool = False) -> SpectralGrid:
    """Build the periodic grid on [-L, L] with N nodes (N a power of two, >= 8)."""
    if not 0 < L < np.inf:
        raise ValueError(f"L must be finite and positive, got {L}")
    if N < 8:
        raise ValueError(f"N must be at least 8, got {N}")
    if N & (N - 1) != 0:
        raise ValueError(f"N must be a power of two, got {N}")

    h = 2.0 * L / N
    x = h * np.arange(-N // 2, N // 2)
    # Angular wavenumbers on the rfft half-spectrum: k_m = 2*pi*m/(2L).
    k = 2.0 * np.pi * np.fft.rfftfreq(N, d=h)
    k1 = 1j * k
    k1[-1] = 0.0  # Nyquist: unpaired mode breaks antisymmetry of odd derivatives
    k2 = -(k**2)
    k3 = k1 * k2

    mask = np.ones(N // 2 + 1)
    mask[np.abs(k) > (2.0 / 3.0) * k.max()] = 0.0

    # each interior mode stands for itself and its conjugate on the full spectrum
    pair = np.full(N // 2 + 1, 2.0)
    pair[[0, -1]] = 1.0

    return SpectralGrid(
        L=float(L), N=int(N), h=h, x=x, k1=k1, k2=k2, k3=k3,
        dealias=dealias, dealias_mask=mask, parseval_d2=(h / N) * pair * k2,
        ones=np.ones(N),
    )


def apply_d1(g: SpectralGrid, u: np.ndarray) -> np.ndarray:
    """First derivative, exact (to rounding) on resolved trigonometric modes."""
    u = g.check_field(u)
    return g.from_modes(g.k1 * g.to_modes(u))


def apply_d2(g: SpectralGrid, u: np.ndarray) -> np.ndarray:
    """Second derivative."""
    u = g.check_field(u)
    return g.from_modes(g.k2 * g.to_modes(u))


def inner_h(g: SpectralGrid, u: np.ndarray, w: np.ndarray) -> float:
    """Discrete inner product h * sum_j u_j w_j (real fields)."""
    u = g.check_field(u)
    w = g.check_field(w)
    return g.h * float(np.dot(u, w))
