"""Scalar-auxiliary-variable form of the generalized KdV equation.

The equation u_t = -(u_xx + u^p/p)_x is augmented with a scalar

    v = sqrt((u^p, u)_h + C0),

which turns the conserved energy into a sum of two quadratic terms, so a
quadratic-preserving time integrator conserves it exactly.  This module
provides the auxiliary-variable setup, the one rule for taking v from its
radicand (``radicand_root``: a radicand <= 0 raises ``AdjustmentRequired``),
the field right-hand side, the mid-run shift of C0 that keeps the modified
energy invariant when the radicand approaches zero, and the discrete
invariants.  ``adjust_c0`` and ``invariants`` take s = (u^p, u)_h if the
caller has it, as every stepper caches it per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralGrid, apply_d1, apply_d2, inner_h

__all__ = [
    "SavState",
    "C0Policy",
    "InvariantRecord",
    "AdjustmentRequired",
    "C0ShiftError",
    "nonlinear_power",
    "init_sav",
    "radicand_root",
    "rhs_f",
    "adjust_c0",
    "invariants",
    "mass_drift_bound",
]


class AdjustmentRequired(RuntimeError):
    """The SAV radicand (u^p, u)_h + C0 is no longer safely positive."""


class C0ShiftError(RuntimeError):
    """A C0 shift that keeps the modified energy would make v^2 negative."""


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


def radicand_root(rad: float) -> float:
    """v = sqrt(rad) of a radicand rad = (u^p, u)_h + C0, which must be positive.

    A NaN radicand passes, and gives a NaN v.
    """
    if rad <= 0:
        raise AdjustmentRequired(f"radicand {rad:.3e} is non-positive")
    return math.sqrt(rad)


def rhs_f(state: SavState, g: SpectralGrid) -> np.ndarray:
    """Field equation right-hand side -D1(D2 u + u^p v / (p sqrt(radicand)))."""
    up = nonlinear_power(g, state.u, state.p)
    root = radicand_root(inner_h(g, up, state.u) + state.c0)
    return -apply_d1(g, apply_d2(g, state.u) + up * (state.v / (state.p * root)))


def adjust_c0(state: SavState, g: SpectralGrid, policy: C0Policy | None = None,
              s: float | None = None) -> SavState:
    """Replace (C0, v) by (C0~, v~) keeping the modified energy unchanged.

    The new shift puts the radicand back at ``policy.target``; the new v
    follows from requiring v^2 - C0 to be invariant, which is exactly what
    the modified energy depends on.  ``s`` is (u^p, u)_h if already computed.
    """
    policy = policy or C0Policy()
    if s is None:
        s = inner_h(g, nonlinear_power(g, state.u, state.p), state.u)
    c0_new = policy.target - s
    v2_new = state.v**2 + c0_new - state.c0
    if v2_new < 0:
        raise C0ShiftError(
            f"C0 shift produced v^2 = {v2_new:.3e} < 0; state corrupted upstream"
        )
    return SavState(u=state.u, v=float(np.sqrt(v2_new)), c0=float(c0_new), p=state.p)


def invariants(state: SavState, g: SpectralGrid, t: float = 0.0,
               uh: np.ndarray | None = None, s: float | None = None) -> InvariantRecord:
    """Discrete momentum, mass, physical energy and modified energy at time t;
    without v, the modified energy is the physical one (its v^2 = radicand limit).
    ``uh`` is the rfft of u and ``s`` is (u^p, u)_h if already computed."""
    u = state.u
    if uh is None:
        uh = g.to_modes(u)
    if s is None:
        s = inner_h(g, nonlinear_power(g, u, state.p), u)
    d2u_u = inner_h(g, g.from_modes(g.k2 * uh), u)
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
    largest row's value from one batched transform pair.  The collocation
    steppers compute the same quantity from their step's spectra, as
    |(D1 u)^T u^p| (D1 is skew); this function is their oracle.
    """
    u = np.atleast_2d(u)
    d1 = g.from_modes(g.k1 * g.to_modes(nonlinear_power(g, u, p)))
    return max(abs(float(np.dot(a, b))) for a, b in zip(u, d1))


def mass_drift_bound(g: SpectralGrid, p: int, t: float, flux_max: float) -> float:
    """A-posteriori bound t * (4h/p) * flux_max on |M_h(t) - M_h(0)|.

    ``flux_max`` is the largest ``stage_flux`` of the stage fields up to
    time t, which ``evolve`` keeps in ``RunLog.flux_max_series``; the bound
    majorizes the mass drift of the symplectic collocation schemes.
    """
    return t * (4.0 * g.h / p) * flux_max
