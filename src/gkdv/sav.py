"""Scalar-auxiliary-variable form of the generalized KdV equation.

The equation u_t = -(u_xx + u^p/p)_x is augmented with a scalar

    v = sqrt((u^p, u)_h + C0),

which turns the conserved energy into a sum of two quadratic terms, so a
quadratic-preserving time integrator conserves it exactly.  This module
provides the auxiliary-variable setup, the one rule for taking v from its
radicand (``radicand_root``: a radicand <= 0 raises ``AdjustmentRequired``),
the mid-run shift of C0 that keeps the modified energy invariant when the
radicand approaches zero, the discrete invariants and the a-posteriori mass
bound.  ``adjust_c0`` and ``invariants`` take s = (u^p, u)_h, and
``invariants`` the spectrum u^, from a stepper's field caches
(``integrators._Stepper.spectrum`` and ``power``); the energies' (D2 u, u)_h
is read from u^ by the Parseval weights ``SpectralGrid.parseval_d2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralGrid, inner_h

__all__ = [
    "SavState",
    "C0Policy",
    "InvariantRecord",
    "AdjustmentRequired",
    "C0ShiftError",
    "nonlinear_power",
    "init_sav",
    "radicand_root",
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

    ``target`` > 0 is the radicand value installed when a shift is needed;
    ``tol`` is the floor below which the run triggers an adjustment.
    """

    target: float = 10.0
    tol: float = 5.0

    def __post_init__(self):
        if not self.target > 0:  # NaN too
            raise ValueError(f"C0 target must be positive, got {self.target}")


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


def nonlinear_power(g: SpectralGrid, u: np.ndarray, p: int, out=None) -> np.ndarray:
    """Pointwise u^p (p >= 2) of a field or an (s, N) stack, low-pass filtered
    only when the grid opts into dealiasing.  Repeated multiplication avoids
    the general ``pow`` path, tens of times slower, of ``u**p`` for p >= 3.
    It is built in ``out`` if given."""
    up = np.multiply(u, u, out=out)
    for _ in range(p - 2):
        up *= u
    if g.dealias:
        g.filter_23(up, out=up)
    return up


def init_sav(g: SpectralGrid, u0: np.ndarray, p: int,
             policy: C0Policy = C0Policy()) -> SavState:
    """Initialize (u, v, C0) from the initial field.

    C0 is ``target`` for a non-negative radicand contribution and
    ``target - (u^p, u)_h`` otherwise, so the initial radicand is at least
    ``target`` and v = radicand_root(radicand) is always well defined.
    """
    u0 = g.check_field(np.asarray(u0, dtype=float))
    s = inner_h(g, nonlinear_power(g, u0, p), u0)
    c0 = policy.target if s >= 0 else policy.target - s
    return SavState(u=u0, v=radicand_root(s + c0), c0=float(c0), p=int(p))


def radicand_root(rad: float) -> float:
    """v = sqrt(rad) of a radicand rad = (u^p, u)_h + C0, which must be positive.

    A NaN radicand passes, and gives a NaN v.
    """
    if rad <= 0:
        raise AdjustmentRequired(f"radicand {rad:.3e} is non-positive")
    return math.sqrt(rad)


def rhs_f(state: SavState, g: SpectralGrid) -> np.ndarray:
    """Field equation right-hand side -D1(D2 u + u^p v / (p sqrt(radicand))):
    a test oracle, kept for the benchmark tracer's binding in ``integrators``."""
    u = g.check_field(state.u)
    up = nonlinear_power(g, u, state.p)
    root = radicand_root(inner_h(g, up, u) + state.c0)
    w = g.from_modes(g.k2 * g.to_modes(u)) + up * (state.v / (state.p * root))
    return -g.from_modes(g.k1 * g.to_modes(w))


def adjust_c0(state: SavState, g: SpectralGrid, policy: C0Policy = C0Policy(),
              s: float | None = None) -> SavState:
    """Replace (C0, v) by (C0~, v~) keeping the modified energy unchanged.

    The new shift puts the radicand back at ``policy.target``; the new v
    follows from requiring v^2 - C0 to be invariant, which is exactly what
    the modified energy depends on.  ``s`` is (u^p, u)_h if already computed.
    Once |s| is so large that s + C0~ rounds away from the target by more
    than half of it, no C0~ restores the radicand: that raises
    ``C0ShiftError``, as does a v~^2 < 0, which means v^2 - C0 has fallen
    below s by more than the target.
    """
    if s is None:
        s = inner_h(g, nonlinear_power(g, state.u, state.p), state.u)
    c0_new = policy.target - s
    if abs(s + c0_new - policy.target) > 0.5 * policy.target:
        raise C0ShiftError(
            f"C0 shift lost its target to rounding: s = {s:.3e}, "
            f"s + C0 = {s + c0_new:.3e} for target {policy.target:.3e}"
        )
    v2_new = state.v**2 + c0_new - state.c0
    if v2_new < 0:
        raise C0ShiftError(
            f"C0 shift produced v^2 = {v2_new:.3e} < 0: v^2 - C0 has drifted below "
            "(u^p, u)_h by more than the C0 target since the last shift"
        )
    return SavState(u=state.u, v=float(np.sqrt(v2_new)), c0=float(c0_new), p=state.p)


def invariants(state: SavState, g: SpectralGrid, t: float = 0.0,
               uh: np.ndarray | None = None, s: float | None = None) -> InvariantRecord:
    """Discrete momentum, mass, physical energy and modified energy at time t;
    without v, the modified energy is the physical one (its v^2 = radicand limit).

    ``uh`` must be the rfft of u (``g.to_modes(u)``), and ``s`` is (u^p, u)_h;
    either is computed here if not given.  The energy's (D2 u, u)_h is read
    from ``uh`` by ``g.parseval_d2``, so a caller that passes both makes no
    transform."""
    u = state.u
    if uh is None:
        uh = g.to_modes(u)
    if s is None:
        s = inner_h(g, nonlinear_power(g, u, state.p), u)
    d2u_u = float(np.dot(g.parseval_d2, uh.real**2 + uh.imag**2))
    pp1 = state.p * (state.p + 1)
    energy = -0.5 * d2u_u - s / pp1
    return InvariantRecord(
        t=float(t),
        momentum=inner_h(g, u, g.ones),
        mass=inner_h(g, u, u),
        energy=energy,
        energy_mod=energy if state.v is None
        else -0.5 * d2u_u - (state.v**2 - state.c0) / pp1,
    )


def stage_flux(g: SpectralGrid, u: np.ndarray, nl: np.ndarray) -> float:
    """The oracle of the stage flux (``integrators._CollocationStepper``) of
    stages ``u`` and their nonlinearity ``nl``, one field or (s, N) stacks."""
    u = np.atleast_2d(u)
    d1 = g.from_modes(g.k1 * g.to_modes(np.atleast_2d(nl)))
    return max(abs(float(np.dot(a, b))) for a, b in zip(u, d1))


def mass_drift_bound(g: SpectralGrid, p: int, t: float, flux_max: float) -> float:
    """A-posteriori bound t * (4h/p) * flux_max on |M_h(t) - M_h(0)|.

    A collocation step of tau changes the mass by at most (2 tau h/p) times
    its stage flux, by the identity stated in
    ``integrators._CollocationStepper``; 4h/p keeps a factor of 2 of slack.
    ``flux_max`` is the largest flux up to t, which ``evolve`` keeps in
    ``RunLog.flux_max_series``.

    The bound has no round-off term.  Where ``flux_max`` is itself at
    round-off, as for the mKdV breather at N = 1024, a drift of 1-2 ulps of
    M0 exceeds it; a check of resolved runs allows a few ulps on top.
    """
    return t * (4.0 * g.h / p) * flux_max
