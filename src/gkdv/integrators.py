"""Time integrators for the generalized KdV equation.

Twelve schemes share the Fourier pseudo-spectral spatial discretization.
The ``SCHEMES`` registry maps each name to its stepper class and formal order:

* SAV-IRK2/4/6/8: Gauss-Legendre collocation applied to the auxiliary-variable
  system; conserves discrete momentum and modified energy exactly, mass to
  spectral accuracy.  The implicit stage equations are solved by fixed-point
  iteration with a per-mode block inverse (cost O(s N log N) per sweep).
* IRK2/4/6/8: the same collocation applied directly to u_t = -(u_xx + u^p/p)_x.
* MCN: modified Crank-Nicolson with the difference-quotient nonlinearity;
  conserves momentum and physical energy.
* SAV-LF: semi-implicit leap-frog on the auxiliary-variable system (no
  nonlinear iteration; first step bootstrapped with MCN).
* SS: Strang splitting, midpoint rule for the conservation-law part and
  Crank-Nicolson for the dispersive part.
* mETDRK4: 4th-order exponential time differencing with contour-stabilized
  coefficients; explicit, subject to an advective CFL restriction.

The implicit schemes start each step's fixed point from a guess of the
stage nonlinearity (or MCN's difference quotient) extrapolated from the last
accepted steps; the solve for that guess counts as one sweep in
``StageStats.iterations``.  A step that raises leaves that history as it was.

``make_stepper`` builds a scheme's stepper from a ``StepperConfig`` (tau,
fp_tol and the scheme's name).  Every stepper has the field ``u``, the
auxiliary value ``v`` (None for schemes without one), the shift ``c0`` and
the exponent ``p``, handed out together as the ``SavState`` ``state``;
``advance()`` takes one step of ``cfg.tau`` in place and returns its
``StageStats``: sweeps, last residual and, for the collocation schemes, the
stage flux max_i |U_i^T D1 U_i^p|.  A step of another size, such as a
backward step of -tau, is taken by a stepper built for it from the current
state.  ``evolve`` drives a stepper to a final time and reads nothing else
of a step.

A stepper with ``v`` owns its radicand (u^p, u)_h + C0: ``radicand()``
reads it, and a step takes v from it only through ``sav.radicand_root``,
which raises ``AdjustmentRequired`` before the step changes any state.
``evolve`` then shifts C0 (``shift_c0``) and retries the step once.
A stepper builds the constants of its tau once and owns the scratch arrays
its sweeps overwrite; ``advance`` never writes into an array it has handed
out, such as ``state.u``, an ``on_step`` field or a history entry.

Each stepper caches what its current field costs to derive: the rfft of
``u`` (``spectrum()``), and u^p with (u^p, u)_h (``power()``).  Both are
computed on first use, and assigning ``u``, as ``advance`` does, drops them.
So ``evolve``'s C0 check, ``shift_c0``, the invariant sample and the next
``advance`` transform u once and build u^p once.  Nothing writes into a
cached array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .sav import (  # rhs_f and stage_flux stay bound for bench/tracing.py
    AdjustmentRequired,
    C0Policy,
    C0ShiftError,
    InvariantRecord,
    SavState,
    adjust_c0,
    invariants,
    nonlinear_power,
    radicand_root,
    rhs_f,  # noqa: F401
    stage_flux,  # noqa: F401
)
from .spectral import SingularModeError, SpectralGrid, inner_h
from .tableaus import _lagrange_matrix, gauss_legendre_tableau

__all__ = [
    "SCHEMES",
    "Scheme",
    "StepperConfig",
    "StageStats",
    "RunLog",
    "FixedPointError",
    "SingularStepError",
    "STEP_ERRORS",
    "COLLOCATION_STAGES",
    "etdrk4_coefficients",
    "make_stepper",
    "evolve",
]

BLOWUP_LINF = 1e8
FP_MAX_ITER = 200  # sweeps a fixed point may take before it fails
ETDRK4_CONTOUR = 32  # points on each mode's contour in etdrk4_coefficients


class FixedPointError(RuntimeError):
    """Stage iteration failed to reach the tolerance within the cap.

    ``residuals`` holds the max-norm update of every sweep, ``residual`` the
    last one, and ``kind`` how the iteration failed: ``diverged``,
    ``stagnated`` or ``budget`` (see ``_fixed_point_error``).
    """

    def __init__(self, msg: str, residual: float = float("nan"),
                 residuals: tuple[float, ...] = (), kind: str = ""):
        super().__init__(msg)
        self.residual = residual
        self.residuals = residuals
        self.kind = kind


class SingularStepError(RuntimeError):
    """A semi-implicit update hit a (numerically) singular scalar system."""


# what a failed step raises; ``evolve`` annotates each with the step and time
STEP_ERRORS = (FixedPointError, SingularModeError, SingularStepError,
               AdjustmentRequired, C0ShiftError)


@dataclass(frozen=True)
class StepperConfig:
    """What a stepper is built from; ``make_stepper`` sets ``scheme``."""

    tau: float
    fp_tol: float = 1e-12
    scheme: str = ""

    def __post_init__(self):
        if self.tau == 0 or not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite and nonzero, got {self.tau}")
        if not 0 < self.fp_tol < np.inf:
            raise ValueError(f"fp_tol must be finite and positive, got {self.fp_tol}")


@dataclass(frozen=True)
class StageStats:
    """What one step reports: sweeps, last residual and stage flux (0.0 if none)."""

    iterations: int
    residual: float = 0.0
    flux: float = 0.0


TREND_SWEEPS = 5  # sweeps per window in which a failed iteration's trend is read


def _fixed_point_error(what: str, cfg: StepperConfig,
                       residuals: list[float]) -> FixedPointError:
    """The error of an iteration that stopped with these per-sweep residuals.

    Its kind is ``diverged`` if the last residual is non-finite or above the
    first, or each of the last k is above each of the k before; ``budget``
    if each of the last k is below each of the k before, so it still
    contracted when the sweeps ran out (one sweep shows no trend and counts
    here too); else ``stagnated``.  k is TREND_SWEEPS, or half the sweeps.
    """
    n, r = len(residuals), residuals[-1]
    k = min(TREND_SWEEPS, n // 2)
    last, before = residuals[n - k:], residuals[n - 2 * k:n - k]
    if not math.isfinite(r) or r > residuals[0] or (k and min(last) > max(before)):
        kind = "diverged"
    elif not k or max(last) < min(before):
        kind = "budget"
    else:
        kind = "stagnated"
    msg = (f"{what} did not reach {cfg.fp_tol:g} in {n} sweeps ({kind}, residual {r:.3e})"
           if math.isfinite(r) else f"{what} diverged: residual {r} at sweep {n}")
    return FixedPointError(msg, residual=r, residuals=tuple(residuals), kind=kind)


def _fixed_point(
    sweep, x: np.ndarray, cfg: StepperConfig, solves: int = 0
) -> tuple[np.ndarray, StageStats]:
    """Iterate x <- sweep(x, out) until the max-norm update drops below cfg.fp_tol.

    ``sweep`` writes the next iterate into ``out``, one of two new arrays
    taken in turn, so the start x is never written.  ``solves`` stage solves
    already spent on x count towards the reported iterations, but not
    towards the cap of FP_MAX_ITER sweeps.  A non-finite update stops the
    iteration at once.
    """
    bufs, d = (np.empty_like(x), np.empty_like(x)), np.empty_like(x)
    residuals = []
    for it in range(1, FP_MAX_ITER + 1):
        x_new = sweep(x, bufs[it % 2])
        np.subtract(x_new, x, out=d)
        residual = float(np.maximum.reduce(np.abs(d, out=d), None))
        residuals.append(residual)
        x = x_new
        if residual < cfg.fp_tol:
            return x, StageStats(it + solves, residual)
        if not math.isfinite(residual):
            break
    raise _fixed_point_error("stage iteration", cfg, residuals)


class _StageSolver:
    """Per-mode inverse of the s-stage linear system I + tau * A * D3.

    D3 is diagonal in Fourier space, so the system decouples into one small
    complex s x s solve per mode.  The inverses, times a per-mode ``sym``,
    are built once per (grid, tau) and stored modes-last, so
    ``solve(rhat) = M^{-1} (sym * rhat)`` is a product and a stage-axis sum.
    """

    def __init__(self, g: SpectralGrid, tau: float, A: np.ndarray, sym):
        A = np.asarray(A, dtype=float)
        M = np.eye(A.shape[0]) + tau * g.k3[:, None, None] * A
        # |det M_k| against its own Hadamard bound, the product of its row
        # norms: |det M_k| grows like (tau |k|^3)^s, so modes are not compared
        hadamard = np.linalg.norm(M, axis=2).prod(axis=1)
        bad = np.abs(np.linalg.det(M)) < 1e-14 * hadamard
        if bad.any():
            raise SingularModeError(
                f"stage system singular at mode {int(np.argmax(bad))} for tau={tau!r}"
            )
        inv = np.linalg.inv(M) * np.asarray(sym)[..., None, None]
        self._inv = np.ascontiguousarray(inv.transpose(1, 2, 0))
        self._products = np.empty_like(self._inv)

    def solve(self, rhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve for (s, nmodes) right-hand sides, or one shared by all stages."""
        products = np.multiply(self._inv, rhat, out=self._products)
        return np.add.reduce(products, axis=1, out=out)


class _Stepper:
    """State every scheme exposes; each subclass defines its own ``advance``."""

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        self.g = g
        self.cfg = cfg
        self.u = state.u.copy()
        self.v: float | None = None
        self.c0 = state.c0
        self.p = state.p

    @property
    def u(self) -> np.ndarray:
        return self._u

    @u.setter
    def u(self, u: np.ndarray):
        """A new field drops what was cached of the old one."""
        self._u, self._uh, self._power = u, None, None

    def spectrum(self) -> np.ndarray:
        """The rfft of ``u``, computed once per field."""
        if self._uh is None:
            self._uh = self.g.to_modes(self._u)
        return self._uh

    def power(self) -> tuple[np.ndarray, float]:
        """u^p and (u^p, u)_h of ``u``, computed once per field."""
        if self._power is None:
            up = nonlinear_power(self.g, self._u, self.p)
            self._power = up, inner_h(self.g, up, self._u)
        return self._power

    def radicand(self) -> float:
        """(u^p, u)_h + C0 of ``u``, or inf for a scheme without ``v``."""
        return math.inf if self.v is None else self.power()[1] + self.c0

    @property
    def state(self) -> SavState:
        """The current (u, v, C0, p), sharing ``u``; ``v`` may be None."""
        return SavState(u=self.u, v=self.v, c0=self.c0, p=self.p)

    def shift_c0(self, policy: C0Policy):
        """Reset the radicand to the policy target, keeping the modified energy.

        Only schemes with an auxiliary variable (``v`` not None) have a C0.
        """
        new = adjust_c0(self.state, self.g, policy, s=self.power()[1])
        self.c0, self.v = new.c0, new.v


class _CollocationStepper(_Stepper):
    """Gauss collocation with order // 2 stages, solved by fixed point.

    A sweep is F = M^{-1} (-D1/p) (p D2 u0 + N(U)), U = u0 + tau A F, with
    -D1/p folded into the solver; the u0 part is solved once per step.

    The iteration starts from the stage derivatives solved for a guessed
    stage nonlinearity N.  After accepted steps the guess is E @ [N_prev;
    N(u0)], the polynomial through the last steps' stages (at c - 1, also
    c - 2 for s = 1) and u0 (at 0) evaluated at c; without one it is N(u0)
    at every stage.  N is smooth, and the solve treats the stiff D3 term
    exactly per mode, so the guess carries no k^3 tau growth.  That solve
    counts as one sweep in ``StageStats.iterations``.

    N(u0) (``_nl0``) and the stage map ``_stages(u0, v0, tau, F)`` (the
    stage fields U, U^p, N(U) and the stage rates of v) are those of the
    unreformulated equation, which has no v; SavIrkStepper overrides both.

    The stage flux max_i |U_i^T D1 U_i^p| of the accepted stages, returned
    in ``StageStats.flux``, takes one batched inverse transform: D1 U =
    irfft(k1 (u0^ + tau A F^)), with F^ the spectrum the final sweep
    inverted to F, and U_i^T D1 U_i^p = -(D1 U_i)^T U_i^p since D1 is skew.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        s = SCHEMES[cfg.scheme].order // 2
        self.tab = gauss_legendre_tableau(s)
        c = self.tab.c
        kept = 2 if s == 1 else 1  # steps of history; one stage gives too few nodes
        # _extrap[m - 1] takes the N of the last m steps, and N(u0), to c
        self._extrap = [_lagrange_matrix(np.append([c - k for k in range(m, 0, -1)], 0.0), c)
                        for m in range(1, kept + 1)]
        self._solver: _StageSolver | None = None  # built by the first advance
        self._history: list[np.ndarray] = []  # N of the last accepted steps
        self._UF = np.empty((2, s, g.N))  # U, and F for SavIrkStepper's dots
        self._up = np.empty((s, g.N))
        self._d1u = np.empty((s, g.N))
        self._spectra = np.empty((2, s, g.nmodes), dtype=complex)

    def _nl0(self) -> np.ndarray:
        return self.power()[0]

    def _stages(self, u0, v0, tau, F):
        """Stage fields U = u0 + tau A F, U^p, which is N(U) without v, and no rates."""
        U = np.matmul(self.tab.A, F, out=self._UF[0])
        U *= tau
        U += u0
        Up = nonlinear_power(self.g, U, self.p, out=self._up)  # dealiased: a new array
        return U, Up, Up, None

    def advance(self) -> StageStats:
        g, u0, v0, tau = self.g, self.u, self.v, self.cfg.tau
        nl0 = self._nl0()
        if self._solver is None:
            self._solver = _StageSolver(g, tau, self.tab.A, -(g.k1 / self.p))
        solver, (nlh, sol) = self._solver, self._spectra
        to_modes, from_modes = g.to_modes, g.from_modes
        uh0 = self.spectrum()
        lin = solver.solve(self.p * g.k2 * uh0)

        def solve(nl, out=None):
            rh = to_modes(nl, out=nlh if nl.ndim == 2 else nlh[0])
            np.add(lin, solver.solve(rh, out=sol), out=sol)
            return from_modes(sol, out=out)

        if self._history:
            E = self._extrap[len(self._history) - 1]
            guess = E[:, :-1] @ np.concatenate(self._history) + E[:, -1:] * nl0
        else:
            guess = nl0  # one right-hand side shared by every stage
        F, stats = _fixed_point(
            lambda F, out: solve(self._stages(u0, v0, tau, F)[2], out),
            solve(guess), self.cfg, solves=1)
        _, Up, nl, rates = self._stages(u0, v0, tau, F)
        d1uh = np.matmul(self.tab.A, sol, out=nlh)  # sol: the spectrum of F
        d1uh *= tau
        d1uh += uh0
        d1uh *= g.k1
        d1u = from_modes(d1uh, out=self._d1u)
        flux = float(np.abs(np.einsum("ij,ij->i", d1u, Up)).max())
        self._history = (self._history + [nl.copy()])[-len(self._extrap):]
        self.u = u0 + tau * (self.tab.b @ F)
        if rates is not None:
            self.v = v0 + tau * float(self.tab.b @ rates)
        return StageStats(stats.iterations, stats.residual, flux)


class SavIrkStepper(_CollocationStepper):
    """One step of the s-stage Gauss collocation method on the SAV system."""

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.v = state.v
        self._nl = np.empty_like(self._up)

    def _nl0(self) -> np.ndarray:
        return self.power()[0] * (self.v / radicand_root(self.radicand()))

    def _stages(self, u0, v0, tau, F):
        """Stage fields, U^p, nonlinearities V U^p / sqrt(radicand), rates of v.

        The (s,) algebra runs on Python floats.  As numpy's min would, a NaN
        radicand suppresses the positivity check; its NaN stages end the
        sweep as diverged.
        """
        h, c0, k = self.g.h, self.c0, 0.5 * (self.p + 1) * self.g.h
        U, Up, _, _ = super()._stages(u0, v0, tau, F)
        self._UF[1] = F
        # (U^p, U) and (U^p, F) per stage
        dots_u, dots_f = np.einsum("ij,kij->ki", Up, self._UF).tolist()
        rad = [h * d + c0 for d in dots_u]
        if min(rad) <= 0 and not any(map(math.isnan, rad)):
            raise AdjustmentRequired(
                f"stage radicand dropped to {min(rad):.3e}; shift C0 first"
            )
        root = [math.sqrt(r) if r > 0 else math.nan for r in rad]
        gs = [k * d / r for d, r in zip(dots_f, root)]
        scale = [(v0 + tau * a) / r for a, r in zip((self.tab.A @ gs).tolist(), root)]
        nl = np.multiply(Up, np.array(scale)[:, None], out=self._nl)
        return U, Up, nl, gs


class DirectIrkStepper(_CollocationStepper):
    """Gauss collocation applied to the unreformulated equation (no v)."""


# weights taking the quotients of steps -2, -1, 0 to step 1 (exact on quadratics)
_MCN_EXTRAP = _lagrange_matrix((-2.0, -1.0, 0.0), (1.0,))[0]


class McnStepper(_Stepper):
    """Modified Crank-Nicolson: conserves discrete momentum and energy.

    The energy-conserving difference quotient is evaluated by Horner's rule
    in w through (w^{p+1} - u^{p+1}) / (w - u) = sum_{k=0..p} w^k u^{p-k},
    with u^2, ..., u^p built once per step, so no division or 0/0 at w = u.
    The CN denominator and tau / (p(p+1)) are folded into the symbols.

    After three accepted steps, a step starts from the w solved for the
    quadratic extrapolation q_-2 - 3 q_-1 + 3 q_0 of their last difference
    quotients; that solve counts as one sweep in ``StageStats.iterations``.
    Otherwise it starts from w = u.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        tau, p = cfg.tau, self.p
        den = 1.0 + 0.5 * tau * g.k3
        self._cn = (1.0 - 0.5 * tau * g.k3) / den
        self._sym = -(tau / (p * (p + 1))) * g.k1 / den
        self._upow = np.empty((p - 1, g.N))
        self._qh = np.empty(g.nmodes, dtype=complex)
        self._history: list[np.ndarray] = []  # quotients of the last three steps

    def advance(self) -> StageStats:
        g, u, sym, qh, upow = self.g, self.u, self._sym, self._qh, self._upow
        to_modes, from_modes = g.to_modes, g.from_modes
        lin = self._cn * self.spectrum()
        for k, uk in enumerate(upow):  # u^2, ..., u^p
            np.multiply(upow[k - 1] if k else u, u, out=uk)
        q = np.empty(g.N)  # the difference quotient of the last sweep

        def solve(quotient, out=None):
            np.multiply(sym, to_modes(quotient, out=qh), out=qh)
            return from_modes(np.add(lin, qh, out=qh), out=out)

        def sweep(w, out):
            np.add(w, u, out=q)
            for uk in upow:
                np.multiply(q, w, out=q)
                np.add(q, uk, out=q)
            return solve(q, out)

        if len(self._history) == 3:
            guess = _MCN_EXTRAP @ np.array(self._history)
            self.u, stats = _fixed_point(sweep, solve(guess), self.cfg, solves=1)
        else:
            self.u, stats = _fixed_point(sweep, u, self.cfg)
        self._history = (self._history + [q])[-3:]
        return stats


class SavLeapFrogStepper(_Stepper):
    """Semi-implicit leap-frog on the SAV system; first step uses MCN.

    Each step solves two decoupled constant-coefficient systems in Fourier
    space and one scalar equation for the midpoint auxiliary value; no
    nonlinear iteration is involved.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.v = state.v
        self._u_prev: np.ndarray | None = None
        self._v_prev: float | None = None

    def shift_c0(self, policy: C0Policy):
        c0 = self.c0
        super().shift_c0(policy)
        if self._v_prev is not None:
            vp2 = self._v_prev**2 + self.c0 - c0
            if vp2 < 0:
                raise C0ShiftError("C0 shift made the previous level inconsistent")
            self._v_prev = float(np.sqrt(vp2))

    def advance(self) -> StageStats:
        """Leap-frog from (u_prev, u, v_prev) to the new level (u1, v1)."""
        g, p, tau = self.g, self.p, self.cfg.tau
        u_prev, u, v_prev = self._u_prev, self.u, self._v_prev
        if u_prev is None:  # leap-frog needs two levels; MCN makes the second
            mcn = McnStepper(g, self.cfg, self.state)
            stats = mcn.advance()
            u1 = mcn.u
            v1 = radicand_root(mcn.power()[1] + self.c0)
        else:
            q = self.power()[0] / radicand_root(self.radicand())

            den_modes = 1.0 + tau * g.k3
            w1 = g.from_modes(g.to_modes(u_prev) / den_modes)
            w2 = g.from_modes(-(tau / p) * g.k1 * g.to_modes(q) / den_modes)

            scal = 1.0 - 0.5 * (p + 1) * inner_h(g, q, w2)
            if abs(scal) < 1e-12:
                raise SingularStepError(
                    f"leap-frog scalar system singular (denominator {scal:.3e}) "
                    f"at tau={tau!r}"
                )
            v_tilde = (0.5 * (p + 1) * inner_h(g, q, w1 - u_prev) + v_prev) / scal
            u1 = 2.0 * (w1 + v_tilde * w2) - u_prev
            v1 = float(2.0 * v_tilde - v_prev)
            stats = StageStats(0)
        self._u_prev, self._v_prev = self.u, self.v
        self.u, self.v = u1, v1
        return stats


class StrangStepper(_Stepper):
    """Strang splitting: half conservation-law step, full dispersion, half again.

    The dispersion step is the Crank-Nicolson flow of u_t + u_xxx = 0,
    unitary per mode.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self._cn = (1.0 - 0.5 * cfg.tau * g.k3) / (1.0 + 0.5 * cfg.tau * g.k3)

    def _transport_step(self, u: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
        """Midpoint rule on u_t + (u^p/p)_x = 0, solved by damped fixed point.

        The plain Picard sweep w <- G(w) stops contracting once tau * k_max
        times the local amplitude approaches one, so the damping factor is
        halved whenever the residual grows; the damped iteration still
        converges to the same midpoint solution.
        """
        g, p, cfg = self.g, self.p, self.cfg
        w = u.copy()
        theta = 1.0
        prev = float("inf")
        residuals = []
        for it in range(1, FP_MAX_ITER + 1):
            mid_pow = nonlinear_power(g, 0.5 * (w + u), p)
            gw = u - (tau / p) * g.from_modes(g.k1 * g.to_modes(mid_pow))
            residual = float(np.abs(gw - w).max())
            residuals.append(residual)
            if residual < cfg.fp_tol:
                return gw, it
            if residual >= prev and theta > 0.05:
                theta *= 0.5
            prev = residual
            w = w + theta * (gw - w)
        raise _fixed_point_error("transport substep", cfg, residuals)

    def advance(self) -> StageStats:
        g, tau = self.g, self.cfg.tau
        u, it1 = self._transport_step(self.u, 0.5 * tau)
        u = g.from_modes(self._cn * g.to_modes(u))
        u, it2 = self._transport_step(u, 0.5 * tau)
        self.u = u
        return StageStats(it1 + it2)


def _phi_brackets(zr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ez = np.exp(zr)
    q = (np.exp(zr / 2.0) - 1.0) / zr
    z3 = zr**3
    g1 = (-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / z3
    g2 = 2.0 * (2.0 + zr + ez * (-2.0 + zr)) / z3
    g3 = (-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / z3
    return q, g1, g2, g3


def etdrk4_coefficients(g: SpectralGrid, tau: float) -> dict[str, np.ndarray]:
    """Per-mode update coefficients with the removable z=0 singularity healed.

    The brackets q, g1, g2, g3 have z^3 denominators; each is evaluated as the
    mean over a unit circle of contour points around tau*L per mode, which is
    accurate to ~1e-14 and finite through z = 0.
    """
    z = tau * (-g.k3)  # dispersive symbol of the linear part
    theta = 2.0 * np.pi * (np.arange(ETDRK4_CONTOUR) + 0.5) / ETDRK4_CONTOUR
    r = np.exp(1j * theta)
    zr = z[:, None] + r[None, :]
    q, g1, g2, g3 = _phi_brackets(zr)
    return {
        "E": np.exp(z),
        "E2": np.exp(z / 2.0),
        "Q": tau * q.mean(axis=1),
        "g1": tau * g1.mean(axis=1),
        "g2": tau * g2.mean(axis=1),
        "g3": tau * g3.mean(axis=1),
    }


class Etdrk4Stepper(_Stepper):
    """Explicit 4th-order exponential integrator of Cox-Matthews type."""

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        if cfg.tau > g.h:
            warnings.warn(
                f"tau={cfg.tau:g} exceeds the advective CFL scale 2L/N={g.h:g}; "
                "the explicit scheme may be unstable",
                RuntimeWarning,
                stacklevel=2,
            )
        self._co = etdrk4_coefficients(g, cfg.tau)
        self._sym = -(g.k1 / self.p)
        self._field = np.empty(g.N)
        self._modes = np.empty((6, g.nmodes), dtype=complex)

    def _nonlinear_hat(self, up: np.ndarray) -> np.ndarray:
        """The spectrum of the nonlinear term -(u^p)_x / p, given u^p."""
        nh = self.g.to_modes(up)
        return np.multiply(self._sym, nh, out=nh)

    def advance(self) -> StageStats:
        """The Cox-Matthews stages, each written into a scratch spectrum."""
        g, p, co, field = self.g, self.p, self._co, self._field
        E2, Q = co["E2"], co["Q"]
        e2uh, ah, bh, ch, t, u1h = self._modes
        uh = self.spectrum()
        np.multiply(E2, uh, out=e2uh)

        n_u = self._nonlinear_hat(self.power()[0])
        np.add(e2uh, np.multiply(Q, n_u, out=ah), out=ah)
        n_a = self._nonlinear_hat(nonlinear_power(g, g.from_modes(ah, out=field), p))
        np.add(e2uh, np.multiply(Q, n_a, out=bh), out=bh)
        n_b = self._nonlinear_hat(nonlinear_power(g, g.from_modes(bh, out=field), p))
        np.subtract(np.multiply(2.0, n_b, out=t), n_u, out=t)
        np.add(np.multiply(E2, ah, out=ch), np.multiply(Q, t, out=t), out=ch)
        n_c = self._nonlinear_hat(nonlinear_power(g, g.from_modes(ch, out=field), p))

        np.multiply(co["E"], uh, out=u1h)
        u1h += np.multiply(co["g1"], n_u, out=t)
        u1h += np.multiply(co["g2"], np.add(n_a, n_b, out=t), out=t)
        u1h += np.multiply(co["g3"], n_c, out=t)
        self.u = g.from_modes(u1h)
        return StageStats(0)


class Scheme(NamedTuple):
    """A registered scheme: the class that steps it and its formal order."""

    stepper: type
    order: int


COLLOCATION_STAGES = (1, 2, 3, 4)  # SAV-IRK2/4/6/8 and IRK2/4/6/8

SCHEMES: dict[str, Scheme] = {
    **{f"SAV-IRK{2 * s}": Scheme(SavIrkStepper, 2 * s) for s in COLLOCATION_STAGES},
    **{f"IRK{2 * s}": Scheme(DirectIrkStepper, 2 * s) for s in COLLOCATION_STAGES},
    "MCN": Scheme(McnStepper, 2),
    "SAV-LF": Scheme(SavLeapFrogStepper, 2),
    "SS": Scheme(StrangStepper, 2),
    "mETDRK4": Scheme(Etdrk4Stepper, 4),
}


def make_stepper(scheme: str, g: SpectralGrid, cfg: StepperConfig, state: SavState):
    """The stepper of ``scheme`` starting from ``state``; sets ``cfg.scheme``."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {tuple(SCHEMES)}")
    return SCHEMES[scheme].stepper(g, replace(cfg, scheme=scheme), state)


# ---------------------------------------------------------------------------
# evolution driver


@dataclass
class RunLog:
    """Sampled invariants and counters of one run.

    ``flux_max_series`` holds, per sample, the running maximum of the stage
    flux |U^T D1 U^p| that ``mass_drift_bound`` scales, over the
    ``StageStats.flux`` of every step so far.  Only the collocation schemes
    (SAV-IRK, IRK), for which that bound holds, report a flux; it stays 0.0
    for MCN, SAV-LF, SS and mETDRK4.  A step computes it from its own
    spectra; ``sav.stage_flux`` is the oracle it matches to round-off.
    """

    scheme: str
    tau: float
    T: float
    records: list[InvariantRecord] = field(default_factory=list)
    flux_max_series: list[float] = field(default_factory=list)
    final_u: np.ndarray | None = None
    fp_iterations_total: int = 0
    c0_adjustments: int = 0
    blowup_time: float | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])


def _blown_up(u: np.ndarray) -> bool:
    """Non-finite u or max|u| > BLOWUP_LINF: a NaN max fails the comparison."""
    return not np.abs(u).max() <= BLOWUP_LINF


def evolve(
    scheme: str,
    state: SavState,
    g: SpectralGrid,
    cfg: StepperConfig,
    T: float,
    sample_every: int = 1,
    policy: C0Policy | None = None,
    on_step=None,
) -> RunLog:
    """Drive ``scheme`` from ``state`` to time T, sampling invariants.

    A final partial step, taken by a stepper built for the remainder from
    the current state, covers T when tau does not divide it.  The C0 shift
    is applied between accepted steps whenever the radicand drops below the
    policy tolerance, and before retrying a step that raised
    ``AdjustmentRequired``.  Blow-up (non-finite u or max|u| > 1e8) halts the
    run and records the blow-up time; step failures are annotated with the
    step index and re-raised.
    """
    if not 0 <= T < np.inf:
        raise ValueError(f"final time T must be finite and non-negative, got {T}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if cfg.tau <= 0:
        raise ValueError(f"tau must be positive, got {cfg.tau}")
    if not math.isfinite(T / cfg.tau):
        raise ValueError(f"step count T/tau is not finite for T={T} and tau={cfg.tau}")
    policy = policy or C0Policy()

    log = RunLog(scheme=scheme, tau=cfg.tau, T=T)
    stepper = make_stepper(scheme, g, cfg, state)
    flux_max = 0.0

    def sample(t: float):
        log.records.append(invariants(stepper.state, g, t=t, uh=stepper.spectrum(),
                                      s=stepper.power()[1]))
        log.flux_max_series.append(flux_max)

    def shift_c0():
        stepper.shift_c0(policy)
        log.c0_adjustments += 1

    def advance() -> StageStats:
        try:
            return stepper.advance()
        except AdjustmentRequired:
            shift_c0()
            return stepper.advance()

    sample(0.0)
    n_full = int(np.floor(T / cfg.tau + 1e-9))
    remainder = T - n_full * cfg.tau
    if remainder < 1e-9 * cfg.tau:
        remainder = 0.0
    total = n_full + (1 if remainder else 0)

    for m in range(1, total + 1):
        t_new = m * cfg.tau if m <= n_full else T
        if m > n_full:  # the partial final step, by a stepper of the remainder
            stepper = make_stepper(scheme, g, replace(cfg, tau=remainder),
                                   stepper.state)
        try:
            if stepper.radicand() < policy.tol:
                shift_c0()
            with np.errstate(over="ignore", invalid="ignore"):
                stats = advance()
        except STEP_ERRORS as err:
            if isinstance(err, FixedPointError) and _blown_up(stepper.u):
                log.blowup_time = t_new
                break
            log.final_u = stepper.u.copy()
            err.args = (f"step {m} (t={t_new:.6g}): {err}",)
            err.partial_log = log
            raise

        log.fp_iterations_total += stats.iterations
        flux_max = max(flux_max, stats.flux)
        if _blown_up(stepper.u):
            log.blowup_time = t_new
            break
        if m % sample_every == 0 or m == total:
            sample(t_new)
        if on_step is not None:
            on_step(m, t_new, stepper.u)

    log.final_u = stepper.u.copy()
    return log
