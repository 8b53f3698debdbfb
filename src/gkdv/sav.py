"""Scalar-auxiliary-variable form of the generalized KdV equation.

The equation u_t = -(u_xx + u^p/p)_x is augmented with a scalar

    v = sqrt((u^p, u)_h + C0),

which turns the conserved energy into a sum of two quadratic terms, so a
quadratic-preserving time integrator conserves it exactly.  This module
provides the coupled right-hand sides, the auxiliary-variable setup, the
mid-run shift of C0 that keeps the modified energy invariant when the
radicand approaches zero, and the discrete invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralGrid, apply_d1, apply_d2, inner_h

__all__ = [
    "SavState",
    "C0Policy",
    "InvariantRecord",
    "AdjustmentRequired",
    "nonlinear_power",
    "init_sav",
    "rhs_f",
    "rhs_g",
    "adjust_c0",
    "invariants",
    "mass_drift_bound",
]


class AdjustmentRequired(RuntimeError):
    """The SAV radicand (u^p, u)_h + C0 is no longer safely positive."""


@dataclass(frozen=True)
class SavState:
    """Augmented unknown (u, v), v None for a scheme without an auxiliary
    variable, plus the energy shift C0 and exponent p."""

    u: np.ndarray
    v: float | None
    c0: float
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"nonlinearity exponent must be >= 2, got {self.p}")


@dataclass(frozen=True)
class C0Policy:
    """Rule for choosing C0 so the radicand stays comfortably positive.

    ``target`` is the radicand value installed when a shift is needed;
    ``tol`` is the floor below which the run triggers an adjustment.
    """

    target: float = 10.0
    tol: float = 5.0


@dataclass(frozen=True)
class InvariantRecord:
    """One sampled row of the run log: time and the discrete invariants."""

    t: float
    momentum: float       # (u, 1)_h
    mass: float           # (u, u)_h
    energy: float         # physical: -(D2 u, u)_h / 2 - (u^p, u)_h / (p(p+1))
    energy_mod: float     # modified: -(D2 u, u)_h / 2 - (v^2 - C0) / (p(p+1))
    beta_num: float | None = None
    gamma_num: float | None = None

    CSV_HEADER = "t,I,M,E,Etilde"
    CSV_HEADER_BREATHER = "t,I,M,E,Etilde,beta_num,gamma_num"

    def to_csv_row(self) -> str:
        cells = [self.t, self.momentum, self.mass, self.energy, self.energy_mod]
        if self.beta_num is not None:
            cells += [self.beta_num, self.gamma_num]
        return ",".join(f"{c:.17g}" for c in cells)


def nonlinear_power(g: SpectralGrid, u: np.ndarray, p: int, out=None) -> np.ndarray:
    """Pointwise u^p (p >= 2) of a field or an (s, N) stack, low-pass filtered
    only when the grid opts into dealiasing.  Repeated multiplication avoids
    the general ``pow`` path, tens of times slower, of ``u**p`` for p >= 3.
    It is built in ``out`` if given, but a filtered power is a new array."""
    up = np.multiply(u, u, out=out)
    for _ in range(p - 2):
        up *= u
    if g.dealias:
        up = g.filter_23(up)
    return up


def init_sav(
    g: SpectralGrid, u0: np.ndarray, p: int, policy: C0Policy | None = None
) -> SavState:
    """Initialize (u, v, C0) from the initial field.

    C0 is ``target`` for a non-negative radicand contribution and
    ``target - (u^p, u)_h`` otherwise, so the initial radicand is at least
    ``target`` and v = sqrt(radicand) is always well defined.
    """
    policy = policy or C0Policy()
    u0 = g.check_field(np.asarray(u0, dtype=float))
    s = inner_h(g, nonlinear_power(g, u0, p), u0)
    c0 = policy.target if s >= 0 else policy.target - s
    return SavState(u=u0, v=float(np.sqrt(s + c0)), c0=float(c0), p=int(p))


def _power_and_radicand(g: SpectralGrid, state: SavState) -> tuple[np.ndarray, float]:
    """u^p and the radicand (u^p, u)_h + C0, which must be positive."""
    up = nonlinear_power(g, state.u, state.p)
    rad = inner_h(g, up, state.u) + state.c0
    if rad <= 0:
        raise AdjustmentRequired(
            f"radicand {rad:.3e} is non-positive; shift C0 before evaluating"
        )
    return up, rad


def rhs_f(state: SavState, g: SpectralGrid) -> np.ndarray:
    """Field equation right-hand side -D1(D2 u + u^p v / (p sqrt(radicand)))."""
    up, rad = _power_and_radicand(g, state)
    return -apply_d1(
        g, apply_d2(g, state.u) + up * (state.v / (state.p * np.sqrt(rad)))
    )


def rhs_g(state: SavState, g: SpectralGrid, udot: np.ndarray) -> float:
    """Auxiliary-variable rate (p+1)/(2 sqrt(radicand)) * (u^p, udot)_h."""
    up, rad = _power_and_radicand(g, state)
    return (state.p + 1) / (2.0 * np.sqrt(rad)) * inner_h(g, up, udot)


def adjust_c0(state: SavState, g: SpectralGrid, policy: C0Policy | None = None) -> SavState:
    """Replace (C0, v) by (C0~, v~) keeping the modified energy unchanged.

    The new shift puts the radicand back at ``policy.target``; the new v
    follows from requiring v^2 - C0 to be invariant, which is exactly what
    the modified energy depends on.
    """
    policy = policy or C0Policy()
    s = inner_h(g, nonlinear_power(g, state.u, state.p), state.u)
    c0_new = policy.target - s
    v2_new = state.v**2 + c0_new - state.c0
    if v2_new < 0:
        raise RuntimeError(
            f"C0 shift produced v^2 = {v2_new:.3e} < 0; state corrupted upstream"
        )
    return SavState(u=state.u, v=float(np.sqrt(v2_new)), c0=float(c0_new), p=state.p)


def invariants(state: SavState, g: SpectralGrid, t: float = 0.0) -> InvariantRecord:
    """Discrete momentum, mass, physical energy and modified energy at time t;
    without v, the modified energy is the physical one (its v^2 = radicand limit)."""
    u = state.u
    d2u_u = inner_h(g, apply_d2(g, u), u)
    s = inner_h(g, nonlinear_power(g, u, state.p), u)
    pp1 = state.p * (state.p + 1)
    energy = -0.5 * d2u_u - s / pp1
    return InvariantRecord(
        t=float(t),
        momentum=inner_h(g, u, np.ones(g.N)),
        mass=inner_h(g, u, u),
        energy=energy,
        energy_mod=energy if state.v is None
        else -0.5 * d2u_u - (state.v**2 - state.c0) / pp1,
    )


def stage_flux(g: SpectralGrid, u: np.ndarray, p: int) -> float:
    """|u^T D1 u^p|, the spectrally small quantity driving the mass drift.

    ``u`` is one field or an (s, N) stack of stage fields; a stack gives the
    largest row's value from one batched transform pair.
    """
    u = np.atleast_2d(u)
    d1 = np.fft.irfft(g.k1 * np.fft.rfft(nonlinear_power(g, u, p)), n=g.N)
    return max(abs(float(np.dot(a, b))) for a, b in zip(u, d1))


def mass_drift_bound(g: SpectralGrid, p: int, t: float, flux_max: float) -> float:
    """A-posteriori bound t * (4h/p) * flux_max on |M_h(t) - M_h(0)|.

    ``flux_max`` is the largest ``stage_flux`` of the stage fields up to
    time t, which ``evolve`` keeps in ``RunLog.flux_max_series``; the bound
    majorizes the mass drift of the symplectic collocation schemes.
    """
    return t * (4.0 * g.h / p) * flux_max
