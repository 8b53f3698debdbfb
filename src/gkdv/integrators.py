"""Time integrators for the generalized KdV equation.

Twelve schemes share the Fourier pseudo-spectral spatial discretization.
The ``SCHEMES`` registry maps each name to its stepper class and formal order:

* SAV-IRK2/4/6/8: Gauss-Legendre collocation of the auxiliary-variable
  system (``SavIrkStepper``); conserves discrete momentum and modified energy
  exactly, mass to spectral accuracy.
* IRK2/4/6/8: the same collocation applied directly to u_t = -(u_xx + u^p/p)_x
  (``_CollocationStepper``).
* MCN: modified Crank-Nicolson with the difference-quotient nonlinearity;
  conserves momentum and physical energy.
* SAV-LF: semi-implicit leap-frog on the auxiliary-variable system (no
  nonlinear iteration; first step bootstrapped with MCN).
* SS: Strang splitting, midpoint rule for the conservation-law part and
  Crank-Nicolson for the dispersive part.
* mETDRK4: 4th-order exponential time differencing with contour-stabilized
  coefficients; explicit, subject to an advective CFL restriction.

``make_stepper`` builds a scheme's stepper (``_Stepper``) from a
``StepperConfig``, ``advance()`` takes one step and returns its
``StageStats``, and ``evolve`` drives a stepper to a final time.  Each rule
is stated once, next to its code: a fixed point's start and count in
``_Stepper._started``, its stop in ``_fixed_point`` (MCN's in
``McnStepper``), the field caches in ``_Stepper.spectrum`` and ``power``,
the collocation step and its stage flux in ``_CollocationStepper``, and the
rule that takes v from its radicand in ``sav.radicand_root``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .sav import (  # the oracles rhs_f and stage_flux are bound for the tracer
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
from .spectral import SpectralGrid, inner_h
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
STEP_ERRORS = (FixedPointError, SingularStepError, AdjustmentRequired, C0ShiftError)


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
    """What one step reports, built by ``_Stepper._started`` or ``advance``:
    its solves (``iterations``, the difference of ``_Stepper._solves``), the
    residual that stopped its fixed point, its stage flux (collocation only,
    see ``_CollocationStepper``) and whether its start fell back."""

    iterations: int
    residual: float = 0.0
    flux: float = 0.0
    fell_back: bool = False


TREND_SWEEPS = 5  # sweeps per window in which a failed iteration's trend is read
ROUNDOFF_ULPS = 16  # a failed update within this many eps * max|start| is round-off
ESTIMATE_FRACTION = 0.1  # of fp_tol, the target of a collocation fixed point
MCN_FRACTION = 0.01  # of fp_tol, MCN's stop (``McnStepper``)


def _roundoff(start: np.ndarray) -> float:
    """ROUNDOFF_ULPS * eps * max|start|, round-off at the scale of ``start``."""
    return ROUNDOFF_ULPS * np.finfo(float).eps * float(np.abs(start).max())


def _fixed_point_error(what: str, tol: float, residuals: list[float],
                       start: np.ndarray) -> FixedPointError:
    """The error of an iteration from ``start`` that stopped with these residuals.

    Its kind is ``stagnated`` if they are finite and the smallest is within
    ``_roundoff(start)``, round-off at the start's scale (so a run that
    grows cannot raise its own floor); else ``budget`` if each of the last k
    is below each of the k before, so it still contracted when the sweeps
    ran out (one sweep shows no trend and counts here too); else
    ``diverged``.  k is TREND_SWEEPS, or half the sweeps.
    """
    n, r = len(residuals), residuals[-1]
    k = min(TREND_SWEEPS, n // 2)
    last, before = residuals[n - k:], residuals[n - 2 * k:n - k]
    floor = _roundoff(start)
    kind = ("diverged" if not math.isfinite(r) else "stagnated" if min(residuals) <= floor
            else "budget" if not k or max(last) < min(before) else "diverged")
    msg = (f"{what} did not reach {tol:g} in {n} sweeps ({kind}, residual {r:.3e})"
           if math.isfinite(r) else f"{what} diverged: residual {r} at sweep {n}")
    return FixedPointError(msg, residual=r, residuals=tuple(residuals), kind=kind)


def _fixed_point(sweep, x: np.ndarray, tol: float,
                 target: float = 0.0) -> tuple[np.ndarray, float]:
    """(x, residual) of x <- sweep(x, out), iterated until the update is below tol.

    The update is a max norm.  The iteration also stops once the updates d_k
    contract, theta = d_k / d_{k-1} < 1, and theta / (1 - theta) d_k, the
    distance to the fixed point that this contraction implies (Hairer &
    Wanner, *Solving ODEs II*, IV.8), is below ``target``, which the default
    0 never is.  ``residual`` is the value that passed, the update or the
    estimate.  Collocation passes fp_tol and ESTIMATE_FRACTION * fp_tol, as
    each iterate's step keeps what the scheme keeps; MCN passes its own stop.
    ``sweep`` writes the next iterate into ``out``, one of two new arrays
    taken in turn, so x is never written.  A non-finite update, or
    FP_MAX_ITER sweeps, raise a ``FixedPointError`` whose ``residuals`` are
    the updates.
    """
    bufs, d = (np.empty_like(x), np.empty_like(x)), np.empty_like(x)
    start, residuals = x, []
    for it in range(1, FP_MAX_ITER + 1):
        x_new = sweep(x, bufs[it % 2])
        np.subtract(x_new, x, out=d)
        residual = float(np.maximum.reduce(np.abs(d, out=d), None))
        residuals.append(residual)
        x = x_new
        if residual < tol:
            return x, residual
        if it > 1 and residual < residuals[-2]:
            theta = residual / residuals[-2]
            distance = theta / (1 - theta) * residual
            if distance < target:
                return x, distance
        if not math.isfinite(residual):
            break
    raise _fixed_point_error("stage iteration", tol, residuals, start)


class _StageSolver:
    """Per-mode inverse of the s-stage linear system I + tau * A * D3.

    D3 is diagonal in Fourier space, so the system decouples into one small
    complex s x s solve per mode.  No mode is singular for a Gauss A: its
    eigenvalues have Re > 0, so I + i kappa A is invertible for every real
    kappa, backward steps included.  The inverses, times a per-mode ``sym``,
    are built once per (grid, tau) and stored modes-last, so
    ``solve(rhat) = M^{-1} (sym * rhat)`` is a product and a stage-axis sum.
    """

    def __init__(self, g: SpectralGrid, tau: float, A: np.ndarray, sym):
        A = np.asarray(A, dtype=float)
        M = np.eye(A.shape[0]) + tau * g.k3[:, None, None] * A
        inv = np.linalg.inv(M) * np.asarray(sym)[..., None, None]
        self._inv = np.ascontiguousarray(inv.transpose(1, 2, 0))
        self._products = np.empty_like(self._inv)

    def products(self, rhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (s, s, nmodes) terms inverse (i, j) times rhat_j of ``solve``."""
        return np.multiply(self._inv, rhat, out=self._products if out is None else out)

    def solve(self, rhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve for (s, nmodes) right-hand sides, or one shared by all stages."""
        return np.add.reduce(self.products(rhat), axis=1, out=out)


class _Stepper:
    """State every scheme exposes; each subclass defines its own ``advance``.

    A stepper holds the field ``u``, the auxiliary value ``v`` (None for a
    scheme without one), the shift ``c0`` and the exponent ``p``, handed out
    together as ``state``.  It builds the constants of its tau once; a step
    of another size, such as a backward step of -tau, is taken by a stepper
    built for it from the current state.  ``advance`` never writes into an
    array it has handed out, such as ``state.u`` or a history entry, and a
    step that raises leaves the stepper as it was: u, v, C0 and history.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        self.g = g
        self.cfg = cfg
        self.u = state.u.copy()
        self.v: float | None = None
        self.c0 = state.c0
        self.p = state.p
        self._history: list[np.ndarray] = []  # what ``_started`` keeps of accepted steps
        self._solves = 0  # solves so far, each step's count (``_started``)

    @property
    def u(self) -> np.ndarray:
        return self._u

    @u.setter
    def u(self, u: np.ndarray):
        """A new field drops what was cached of the old one."""
        self._u, self._uh, self._power = u, None, None

    def spectrum(self) -> np.ndarray:
        """The rfft of ``u``, computed on first use and kept until ``u`` is assigned.

        ``power()`` caches u^p the same way, so ``evolve``'s C0 check,
        ``shift_c0``, the invariant sample and the next ``advance`` transform
        u once and build u^p once; the sample reads the energy's (D2 u, u)_h
        from this spectrum (``SpectralGrid.parseval_d2``).  Nothing writes
        into a cached array.
        """
        if self._uh is None:
            self._uh = self.g.to_modes(self._u)
        return self._uh

    def power(self) -> tuple[np.ndarray, float]:
        """u^p and (u^p, u)_h of ``u``, cached as ``spectrum()`` is."""
        if self._power is None:
            up = nonlinear_power(self.g, self._u, self.p)
            self._power = up, inner_h(self.g, up, self._u)
        return self._power

    def radicand(self) -> float:
        """(u^p, u)_h + C0 of ``u``, or inf for a scheme without ``v``.

        A step takes every v from a radicand through ``sav.radicand_root``.
        """
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

    def _started(self, attempt, cold) -> tuple[np.ndarray, StageStats]:
        """(kept, stats) of the step's fixed point, from its history or cold.

        ``attempt(start)`` iterates from a value of the kind ``_history``
        keeps (F, or MCN's quotient) and returns the step's value and the
        residual of its fixed point; ``cold()`` is that value for a step
        without history.  Once the
        history holds ``_kept`` values, the step first attempts their
        ``_extrapolation`` (Hairer & Wanner, *Solving ODEs II*, IV.8).  On
        rough states that start can be the worse one, so an attempt that
        raises ``AdjustmentRequired``, ``SingularStepError`` or a
        ``diverged`` or ``budget`` ``FixedPointError``, overflow included,
        is retried once from ``cold()`` (``fell_back``), and the history
        restarts from that step's value; a ``stagnated`` one is round-off,
        and is raised.  The history changes only once an attempt returns.
        ``iterations`` is the solves the step made, read from ``_solves``:
        one per completed sweep, failed attempt included, one per start solve.
        """
        history, solves = self._history, self._solves
        warm = len(history) == self._kept
        if warm:
            E = self._extrapolation
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    rows = np.concatenate(history).reshape(-1, self.g.N)
                    kept, residual = attempt(E @ rows[-E.shape[-1]:])
            except (AdjustmentRequired, SingularStepError, FixedPointError) as err:
                if getattr(err, "kind", "") == "stagnated":
                    raise
            else:
                self._history = [*history[1:], kept]
                return kept, StageStats(self._solves - solves, residual)
        kept, residual = attempt(cold())
        self._history = [kept] if warm else [*history, kept]
        return kept, StageStats(self._solves - solves, residual, fell_back=warm)


class _CollocationStepper(_Stepper):
    """Gauss collocation with order // 2 stages, solved by fixed point (IRK2/4/6/8).

    A sweep is F = M^{-1} (-D1/p) (p D2 u0 + N(U)), U = u0 + tau A F, with
    -D1/p folded into the solver; the u0 part ``lin`` is solved once per
    step.  N(u0) (``_nl0``) and the sweeps (``_iterate``) are those of the
    unreformulated equation; SavIrkStepper overrides both.

    A step is its last sweep: u1 = u0 + tau b F of the F that sweep
    returned, with no stage mapped after the fixed point.  Only the sweeps
    write the stage buffers ``_U``, ``_up`` (U and U^p of ``_stages``) and
    ``_spectra``, which holds the N^ and F^ of the last sweep.  The stage
    flux max_i |U_i^T D1 N_i| (``StageStats.flux``) pairs the accepted
    stages U = u0 + tau A F with the N that sweep solved for F.  Gauss
    coefficients keep quadratic forms and D1 D2 is skew, so the step changes
    the mass M_h = h u^T u by exactly -(2 tau h/p) sum_i b_i U_i^T D1 N_i at
    any fp_tol, which ``sav.mass_drift_bound`` bounds.  The flux is read by
    Parseval from u0^ + tau A F^ and N^, with no transform.

    The history keeps the accepted F; the extrapolated start (``_started``)
    is the polynomial through the last stage derivatives, evaluated at c,
    at no solve and no transform: 4 nodes for s = 1, c - 4 ... c - 1, and
    s + 1 for s >= 2, from c - 2 and c - 1.  The cold start is the F solved
    for N(u0), one row shared by all stages.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        s = SCHEMES[cfg.scheme].order // 2
        self.tab = gauss_legendre_tableau(s)
        nodes = 4 if s == 1 else s + 1
        self._kept = -(-nodes // s)  # steps of history: 4 for s = 1, else 2
        # takes the last ``nodes`` stage derivatives of those steps to c
        at = (np.arange(-self._kept, 0)[:, None] + self.tab.c).ravel()
        self._extrapolation = _lagrange_matrix(at[-nodes:], self.tab.c)
        self._solver = _StageSolver(g, cfg.tau, self.tab.A, -(g.k1 / self.p))
        self._U = np.empty((s, g.N))
        self._up = np.empty((s, g.N))  # U^p, scaled in place to G by SAV-IRK
        self._spectra = np.empty((2, s, g.nmodes), dtype=complex)  # N^ (G^), F^

    def _nl0(self) -> np.ndarray:
        return self.power()[0]

    def _stages(self, u0, F):
        """Stage fields U = u0 + tau A F and their nonlinearity N(U) = U^p."""
        U = np.matmul(self.tab.A, F, out=self._U)
        U *= self.cfg.tau
        U += u0
        return U, nonlinear_power(self.g, U, self.p, out=self._up)

    def _iterate(self, u0, lin, start):
        """(F, residual) of the fixed point from ``start``."""
        g, (nlh, Fh) = self.g, self._spectra

        def sweep(F, out):
            g.to_modes(self._stages(u0, F)[1], out=nlh)
            np.add(lin, self._solver.solve(nlh, out=Fh), out=Fh)
            self._solves += 1
            return g.from_modes(Fh, out=out)

        fp_tol = self.cfg.fp_tol
        return _fixed_point(sweep, start, fp_tol, ESTIMATE_FRACTION * fp_tol)

    def advance(self) -> StageStats:
        g, u0, tau = self.g, self.u, self.cfg.tau
        uh0 = self.spectrum()
        lin = self._solver.solve(self.p * g.k2 * uh0)

        def cold():  # the F solved for N(u0)
            F = g.from_modes(lin + self._solver.solve(g.to_modes(self._nl0())))
            self._solves += 1
            return F

        F, stats = self._started(lambda start: self._iterate(u0, lin, start), cold)
        nlh, Fh = self._spectra
        # U_i^T D1 N_i by Parseval, each mode counted with its conjugate:
        # k1 vanishes at the two unpaired modes, k = 0 and Nyquist (SpectralGrid)
        Uh = self.tab.A @ Fh * tau + uh0
        flux = 2.0 / g.N * float(np.abs((Uh.conj() * g.k1 * nlh).real.sum(axis=1)).max())
        self.u = u0 + tau * (self.tab.b @ F)
        return replace(stats, flux=flux)


def _solve_small(aug: list[list[float]]) -> list[float]:
    """x of M x = r, given the rows [M | r] of at most four unknowns.

    Gaussian elimination with partial pivoting on Python floats, which
    costs less than ``numpy.linalg.solve`` at s <= 2.  A zero or non-finite
    pivot raises ``SingularStepError``.
    """
    n = len(aug)
    for k in range(n):
        piv = k
        for i in range(k + 1, n):
            if abs(aug[i][k]) > abs(aug[piv][k]):
                piv = i
        aug[k], aug[piv] = aug[piv], aug[k]
        row = aug[k]
        if not 0 < abs(row[k]) < math.inf:
            raise SingularStepError(f"SAV stage system has pivot {row[k]!r}")
        for i in range(k + 1, n):
            f = aug[i][k] / row[k]
            aug[i] = [a - f * b for a, b in zip(aug[i], row)]
    x = [0.0] * n
    for k in reversed(range(n)):
        row = aug[k]
        x[k] = (row[n] - sum(row[j] * x[j] for j in range(k + 1, n))) / row[k]
    return x


class SavIrkStepper(_CollocationStepper):
    """The s-stage Gauss collocation method on the SAV system.

    The SAV system is u_t = -D1(D2 u + v G(u) / p), v_t = kappa (G(u), u_t)_h
    with G(u) = u^p / sqrt((u^p, u)_h + C0) and kappa = (p + 1)/2.  A sweep
    freezes G_i at the stages of the previous iterate and solves the stage
    equations, which are then linear in (F, V):

    * F^_i = lin_i + sum_j V_j S_ij, where S_ij is the solver's inverse
      (i, j) times G^_j and lin the solved u0 part;
    * the stage rates of v are Vdot = kappa (c + B V), with B_ij = (G_i,
      S_ij)_h and c_i = (G_i, lin_i)_h read by Parseval, and V = v0 + tau A
      Vdot.  So (I - kappa tau B A) Vdot = kappa (c + v0 B 1); a sweep
      solves the same system for V, (I - kappa tau A B) V = v0 + kappa tau
      A c, on Python floats, and the step takes Vdot from that V.  S and
      lin vanish at k = 0 and at the Nyquist mode, as -D1/p does
      (``SpectralGrid``), so each mode they meet weighs 2h/N.

    Since D1 is skew, (D2 U_i + V_i G_i / p, F_i)_h = 0 at each stage, and
    Gauss coefficients keep quadratic invariants, so every sweep's step
    keeps momentum and the modified energy to round-off whatever G is.  At
    the fixed point G is U^p / sqrt(radicand) of the accepted stages.  After
    its last sweep ``_iterate`` sets v = v0 + tau b Vdot and scales G^ in
    place to N^ = V G^, the N of the stage flux.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.v = state.v
        s = self.tab.A.shape[0]
        self._S = np.empty((s, s + 1, g.nmodes), dtype=complex)  # [S_ij | -lin_i]
        self._V = np.full(s + 1, -1.0)  # (V, -1)

    def _nl0(self) -> np.ndarray:
        return self.power()[0] * (self.v / radicand_root(self.radicand()))

    def _iterate(self, u0, lin, start):
        """(F, residual) of the fixed point from ``start``; sets v."""
        g, tau, v0, A = self.g, self.cfg.tau, self.v, self.tab.A
        s, kappa, w = A.shape[0], 0.5 * (self.p + 1), 2.0 * g.h / g.N
        S, V = self._S, self._V
        S_f, (Gh, Fh) = S.view(float), self._spectra
        S[:, s] = -lin  # so that F^ = (V, -1) @ S
        # Bc = [B | -c] / w is the real dot of G^_i with [S_ij | -lin_i], and
        # [I - kappa tau A B | v0 1 + kappa tau A c] = base + Q @ Bc
        Q, base = -kappa * tau * w * A, np.column_stack([np.eye(s), np.full(s, v0)])
        Bc, h, c0 = None, g.h, self.c0

        def sweep(F, out):
            nonlocal Bc
            U, G = self._stages(u0, F)  # G = U^p / sqrt(radicand); a NaN
            # radicand passes radicand_root, and its NaN pivot is typed
            G /= np.array([radicand_root(h * d + c0)
                           for d in np.einsum("ij,ij->i", G, U).tolist()])[:, None]
            g.to_modes(G, out=Gh)
            self._solver.products(Gh, out=S[:, :s])
            Bc = np.matmul(S_f, Gh.view(float)[:, :, None])[..., 0]
            V[:s] = _solve_small((Q @ Bc + base).tolist())
            np.matmul(V, S_f, out=Fh.view(float))
            self._solves += 1
            return g.from_modes(Fh, out=out)

        fp_tol = self.cfg.fp_tol
        F, residual = _fixed_point(sweep, start, fp_tol, ESTIMATE_FRACTION * fp_tol)
        Gh *= V[:s, None]  # N^ = V G^, as the last sweep integrated it
        self.v = v0 + tau * float(self.tab.b @ (kappa * w * (Bc @ V)))  # v0 + tau b Vdot
        return F, residual


class McnStepper(_Stepper):
    """Modified Crank-Nicolson: conserves discrete momentum and energy.

    The energy-conserving difference quotient is evaluated by Horner's rule
    in w through (w^{p+1} - u^{p+1}) / (w - u) = sum_{k=0..p} w^k u^{p-k},
    with u^2, ..., u^p built once per step, so no division or 0/0 at w = u.
    The CN denominator and tau / (p(p+1)) are folded into the symbols.  The
    quotient is never 2/3-filtered, on a dealiased grid too: MCN keeps the
    energy of the unfiltered u^p, while ``invariants`` samples the filtered one.

    The history keeps the quotient of each accepted step's last sweep, and
    the extrapolated start (``_started``) is the solve of the quintic through
    the last six; the cold start is the sweep from w = u.  The energy holds
    only at the fixed point, so both the update and the estimate stop at
    MCN_FRACTION * fp_tol, floored at ``_roundoff`` of the start, where an
    update resolves no less, but never above fp_tol.
    """

    # weights taking the quotients of steps -5 ... 0 to step 1 (exact on quintics)
    _extrapolation = _lagrange_matrix(np.arange(-5.0, 1.0), (1.0,))[0]
    _kept = len(_extrapolation)  # accepted steps whose quotients the start reads

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        tau, p = cfg.tau, self.p
        den = 1.0 + 0.5 * tau * g.k3
        self._cn = (1.0 - 0.5 * tau * g.k3) / den
        self._sym = -(tau / (p * (p + 1))) * g.k1 / den
        self._qh = np.empty(g.nmodes, dtype=complex)

    def advance(self) -> StageStats:
        g, u, sym, qh = self.g, self.u, self._sym, self._qh
        to_modes, from_modes = g.to_modes, g.from_modes
        lin = self._cn * self.spectrum()
        upow = [u * u]  # u^2, ..., u^p
        for _ in range(self.p - 2):
            upow.append(upow[-1] * u)
        q = np.empty(g.N)  # the difference quotient of the last sweep

        def quotient(w):
            np.add(w, u, out=q)
            for uk in upow:
                np.multiply(q, w, out=q)
                np.add(q, uk, out=q)
            return q

        def solve(quot, out=None):
            self._solves += 1  # nothing below raises
            np.multiply(sym, to_modes(quot, out=qh), out=qh)
            return from_modes(np.add(lin, qh, out=qh), out=out)

        def attempt(start):  # from the solve of the quotient ``start``; sets u
            w = solve(start)
            tol = max(MCN_FRACTION * self.cfg.fp_tol, min(self.cfg.fp_tol, _roundoff(w)))
            self.u, residual = _fixed_point(lambda w, out: solve(quotient(w), out), w, tol, tol)
            return q, residual

        return self._started(attempt, lambda: quotient(u))[1]


class SavLeapFrogStepper(_Stepper):
    """Semi-implicit leap-frog on the SAV system; first step uses MCN.

    Each step solves two decoupled constant-coefficient systems in Fourier
    space and one scalar equation for the midpoint auxiliary value; no
    nonlinear iteration is involved.  The MCN level takes v1 with v1^2 -
    (u1^p, u1)_h = v^2 - (u^p, u)_h: MCN keeps the physical energy, so this
    keeps the modified one, also for a stepper built mid-run, as ``evolve``
    builds one for a partial final step.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.v = state.v
        self._den = 1.0 + cfg.tau * g.k3
        self._d1 = -(cfg.tau / self.p) * g.k1
        self._u_prev: np.ndarray | None = None  # the previous level's field and v
        self._v_prev: float | None = None

    def shift_c0(self, policy: C0Policy):
        """Shift v and the previous level's v by the same C0, or neither."""
        s = self.power()[1]
        new = adjust_c0(self.state, self.g, policy, s=s)
        if self._v_prev is not None:
            prev = replace(self.state, v=self._v_prev)
            self._v_prev = adjust_c0(prev, self.g, policy, s=s).v
        self.c0, self.v = new.c0, new.v

    def advance(self) -> StageStats:
        """Leap-frog from (u_prev, u, v_prev) to the new level (u1, v1)."""
        g, p, tau = self.g, self.p, self.cfg.tau
        u_prev, u, v_prev = self._u_prev, self.u, self._v_prev
        if u_prev is None:  # leap-frog needs two levels; MCN makes the second
            mcn = McnStepper(g, self.cfg, self.state)
            stats = mcn.advance()
            u1, r1 = mcn.u, mcn.power()[1] + self.c0
            radicand_root(r1)  # the MCN level's own radicand must be positive
            v1 = radicand_root(r1 + (self.v**2 - self.radicand()))
        else:
            q = self.power()[0] / radicand_root(self.radicand())
            w1 = g.from_modes(g.to_modes(u_prev) / self._den)
            w2 = g.from_modes(self._d1 * g.to_modes(q) / self._den)

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

    def _transport_step(self, u: np.ndarray, tau: float) -> np.ndarray:
        """Midpoint rule on u_t + (u^p/p)_x = 0, solved by damped fixed point.

        The plain Picard sweep w <- G(w) stops contracting once tau * k_max
        times the local amplitude approaches one, so the damping factor is
        halved whenever the residual grows; the damped iteration still
        converges to the same midpoint solution.  Each sweep counts one in
        ``_solves``.  As in ``_fixed_point``, the update stops at fp_tol, and
        a non-finite one stops the iteration at once.
        """
        g, p, cfg = self.g, self.p, self.cfg
        w = u.copy()
        theta = 1.0
        prev = float("inf")
        residuals = []
        for _ in range(FP_MAX_ITER):
            mid_pow = nonlinear_power(g, 0.5 * (w + u), p)
            gw = u - (tau / p) * g.from_modes(g.k1 * g.to_modes(mid_pow))
            self._solves += 1
            residual = float(np.abs(gw - w).max())
            residuals.append(residual)
            if residual < cfg.fp_tol:
                return gw
            if not math.isfinite(residual):
                break
            if residual >= prev and theta > 0.05:
                theta *= 0.5
            prev = residual
            w = w + theta * (gw - w)
        raise _fixed_point_error("transport substep", cfg.fp_tol, residuals, u)

    def advance(self) -> StageStats:
        g, tau, solves = self.g, self.cfg.tau, self._solves
        u = self._transport_step(self.u, 0.5 * tau)
        u = g.from_modes(self._cn * g.to_modes(u))
        self.u = self._transport_step(u, 0.5 * tau)
        return StageStats(self._solves - solves)


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
        if abs(cfg.tau) > g.h:
            warnings.warn(
                f"tau={cfg.tau:g} exceeds the advective CFL scale 2L/N={g.h:g}; "
                "the explicit scheme may be unstable",
                RuntimeWarning,
                stacklevel=2,
            )
        self._co = etdrk4_coefficients(g, cfg.tau)
        self._sym = -(g.k1 / self.p)

    def advance(self) -> StageStats:
        """The Cox-Matthews stages a, b, c and the update, each a spectrum."""
        g, p, co, sym = self.g, self.p, self._co, self._sym
        E2, Q = co["E2"], co["Q"]
        uh = self.spectrum()
        e2uh = E2 * uh

        def n_of(vh):  # the spectrum of -(v^p)_x / p at the field v of spectrum vh
            return sym * g.to_modes(nonlinear_power(g, g.from_modes(vh), p))

        n_u = sym * g.to_modes(self.power()[0])
        ah = e2uh + Q * n_u
        n_a = n_of(ah)
        n_b = n_of(e2uh + Q * n_a)
        n_c = n_of(E2 * ah + Q * (2.0 * n_b - n_u))
        self.u = g.from_modes(co["E"] * uh + co["g1"] * n_u + co["g2"] * (n_a + n_b)
                              + co["g3"] * n_c)
        return StageStats(0)


class Scheme(NamedTuple):
    """A registered scheme: the class that steps it and its formal order."""

    stepper: type
    order: int


COLLOCATION_STAGES = (1, 2, 3, 4)  # SAV-IRK2/4/6/8 and IRK2/4/6/8

SCHEMES: dict[str, Scheme] = {
    **{f"SAV-IRK{2 * s}": Scheme(SavIrkStepper, 2 * s) for s in COLLOCATION_STAGES},
    **{f"IRK{2 * s}": Scheme(_CollocationStepper, 2 * s) for s in COLLOCATION_STAGES},
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

    ``flux_max_series`` holds, per sample, the running maximum of the
    ``StageStats.flux`` of every step so far, which ``sav.mass_drift_bound``
    scales; it stays 0.0 for the schemes without a stage flux.  Over the
    accepted steps, ``steps`` counts them, ``fp_iterations_total`` and
    ``fp_iterations_max`` sum and bound their ``StageStats.iterations``, and
    ``start_fallbacks`` counts those whose start fell back.
    """

    scheme: str
    tau: float
    T: float
    records: list[InvariantRecord] = field(default_factory=list)
    flux_max_series: list[float] = field(default_factory=list)
    final_u: np.ndarray | None = None
    steps: int = 0
    fp_iterations_total: int = 0
    fp_iterations_max: int = 0
    start_fallbacks: int = 0
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
    policy: C0Policy = C0Policy(),
    on_step=None,
) -> RunLog:
    """Drive ``scheme`` from ``state`` to time T, sampling invariants.

    A final partial step, taken by a stepper built for the remainder from
    the current state, covers T when tau does not divide it.  The C0 shift
    is applied between accepted steps whenever the radicand drops below the
    policy tolerance, and before retrying a step that raised
    ``AdjustmentRequired``.  Blow-up (non-finite u or max|u| > 1e8) is
    checked after each accepted step; it halts the run and records the
    blow-up time.  A step that raises one of ``STEP_ERRORS`` leaves u as it
    was, checked after the previous step, so its error is annotated with the
    step index and time, given the log so far as ``partial_log`` (at least
    the t = 0 record, ``final_u`` the field before the step) and re-raised.
    """
    if not 0 <= T < np.inf:
        raise ValueError(f"final time T must be finite and non-negative, got {T}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if cfg.tau <= 0:
        raise ValueError(f"tau must be positive, got {cfg.tau}")
    if not math.isfinite(T / cfg.tau):
        raise ValueError(f"step count T/tau is not finite for T={T} and tau={cfg.tau}")

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
            log.final_u = stepper.u.copy()
            err.args = (f"step {m} (t={t_new:.6g}): {err}",)
            err.partial_log = log
            raise

        log.steps += 1
        log.fp_iterations_total += stats.iterations
        log.fp_iterations_max = max(log.fp_iterations_max, stats.iterations)
        log.start_fallbacks += stats.fell_back
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
