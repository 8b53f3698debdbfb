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

``make_stepper`` builds a scheme's stepper.  Every stepper has the field
``u``, the auxiliary value ``v`` (None for schemes without one), the shift
``c0`` and the exponent ``p``, handed out together as the ``SavState``
``state``; ``advance()`` takes one step of ``cfg.tau`` in place.  A step of
another size, such as a backward step of -tau, is taken by a stepper built
for it from the current state.  ``evolve`` drives a stepper to a final time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .sav import (
    AdjustmentRequired,
    C0Policy,
    InvariantRecord,
    SavState,
    _power_and_radicand,
    adjust_c0,
    invariants,
    nonlinear_power,
    rhs_f,  # noqa: F401  no longer called here; kept bound for bench/tracing.py
    stage_flux,
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
    "cn_dispersion_step",
    "etdrk4_coefficients",
    "etdrk4_coefficients_direct",
    "make_stepper",
    "evolve",
]

BLOWUP_LINF = 1e8
ETDRK4_CONTOUR = 32  # points on each mode's contour in etdrk4_coefficients


class FixedPointError(RuntimeError):
    """Stage iteration failed to reach the tolerance within the cap."""

    def __init__(self, msg: str, residual: float = float("nan")):
        super().__init__(msg)
        self.residual = residual


class SingularStepError(RuntimeError):
    """A semi-implicit update hit a (numerically) singular scalar system."""


# what a failed step raises; ``evolve`` annotates each with the step and time
STEP_ERRORS = (FixedPointError, SingularModeError, SingularStepError,
               AdjustmentRequired)


@dataclass(frozen=True)
class StepperConfig:
    tau: float
    fp_tol: float = 1e-12
    fp_max_iter: int = 200
    scheme: str = ""

    def __post_init__(self):
        if self.tau == 0 or not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite and nonzero, got {self.tau}")
        if not 0 < self.fp_tol < np.inf:
            raise ValueError(f"fp_tol must be finite and positive, got {self.fp_tol}")
        if self.fp_max_iter < 1:
            raise ValueError(f"fp_max_iter must be >= 1, got {self.fp_max_iter}")
        if self.scheme and self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; choose from {tuple(SCHEMES)}"
            )


@dataclass(frozen=True)
class StageStats:
    iterations: int
    residual: float


def _fixed_point(
    sweep, x: np.ndarray, cfg: StepperConfig, solves: int = 0
) -> tuple[np.ndarray, StageStats]:
    """Iterate x <- sweep(x) until the max-norm update drops below cfg.fp_tol.

    ``solves`` stage solves already spent on the start x count towards the
    reported iterations, but not towards the cap of cfg.fp_max_iter sweeps.
    A non-finite update stops the iteration at once.
    """
    residual = float("inf")
    for it in range(1, cfg.fp_max_iter + 1):
        x_new = sweep(x)
        residual = float(np.abs(x_new - x).max())
        x = x_new
        if residual < cfg.fp_tol:
            return x, StageStats(it + solves, residual)
        if not np.isfinite(residual):
            raise FixedPointError(
                f"stage iteration diverged: residual {residual} at sweep {it}",
                residual=residual,
            )
    raise FixedPointError(
        f"stage iteration did not reach {cfg.fp_tol:g} in "
        f"{cfg.fp_max_iter} sweeps (residual {residual:.3e})",
        residual=residual,
    )


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

    def solve(self, rhat: np.ndarray) -> np.ndarray:
        """Solve for (s, nmodes) right-hand sides, or one shared by all stages."""
        return (self._inv * rhat[None]).sum(axis=1)


class _Stepper:
    """State every scheme exposes; each subclass defines its own ``advance``."""

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        self.g = g
        self.cfg = cfg
        self.u = state.u.copy()
        self.v: float | None = None
        self.c0 = state.c0
        self.p = state.p
        self.stage_flux_max = 0.0

    @property
    def state(self) -> SavState:
        """The current (u, v, C0, p), sharing ``u``; ``v`` may be None."""
        return SavState(u=self.u, v=self.v, c0=self.c0, p=self.p)

    def shift_c0(self, policy: C0Policy):
        """Reset the radicand to the policy target, keeping the modified energy.

        Only schemes with an auxiliary variable (``v`` not None) have a C0.
        """
        new = adjust_c0(self.state, self.g, policy)
        self.c0, self.v = new.c0, new.v


class _CollocationStepper(_Stepper):
    """Gauss collocation with order // 2 stages, solved by fixed point.

    A sweep is F = M^{-1} (-D1/p) (p D2 u0 + N(U)), U = u0 + tau A F, with
    -D1/p folded into the solver; the u0 part is solved once per step.

    The iteration starts from the stage derivatives solved for a guessed
    stage nonlinearity N.  After an accepted step the guess
    is E @ [N_prev; N(u0)], the polynomial through the last step's stages
    (at c - 1) and u0 (at 0) evaluated at c; without one it is N(u0) at
    every stage.  N is smooth, and the solve treats the stiff D3 term
    exactly per mode, so the guess carries no k^3 tau growth.  That solve
    counts as one sweep in ``StageStats.iterations``.

    A subclass supplies N(u0) (``_nl0``) and its stage map
    ``_stages(u0, v0, tau, F)``: the stage fields U, N(U) and the stage
    rates of v, or None for a scheme without v.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.tab = gauss_legendre_tableau(SCHEMES[cfg.scheme].order // 2)
        c = self.tab.c
        self._extrap = _lagrange_matrix(np.append(c - 1.0, 0.0), c)
        self._solver: _StageSolver | None = None  # built by the first advance
        self._history: np.ndarray | None = None  # N of the last accepted step

    def advance(self) -> StageStats:
        g, u0, v0, tau = self.g, self.u, self.v, self.cfg.tau
        nl0 = self._nl0()
        if self._solver is None:
            self._solver = _StageSolver(g, tau, self.tab.A, -(g.k1 / self.p))
        solver = self._solver
        lin = solver.solve(self.p * g.k2 * g.to_modes(u0))

        def solve(nl):
            return np.fft.irfft(lin + solver.solve(np.fft.rfft(nl, axis=-1)),
                                n=g.N, axis=-1)

        if self._history is not None:
            E = self._extrap
            guess = E[:, :-1] @ self._history + E[:, -1:] * nl0
        else:
            guess = nl0  # one right-hand side shared by every stage
        F, stats = _fixed_point(lambda F: solve(self._stages(u0, v0, tau, F)[1]),
                                solve(guess), self.cfg, solves=1)
        U, nl, rates = self._stages(u0, v0, tau, F)
        self.stage_flux_max = max(self.stage_flux_max, stage_flux(g, U, self.p))
        self._history = nl
        self.u = u0 + tau * (self.tab.b @ F)
        if rates is not None:
            self.v = v0 + tau * float(self.tab.b @ rates)
        return stats


class SavIrkStepper(_CollocationStepper):
    """One step of the s-stage Gauss collocation method on the SAV system."""

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.v = state.v

    def _nl0(self) -> np.ndarray:
        up, rad = _power_and_radicand(self.g, self.state)
        return up * (self.v / np.sqrt(rad))

    def _stages(self, u0, v0, tau, F):
        """Stage fields, nonlinearities V u^p / sqrt(radicand), rates of v."""
        g, A, p = self.g, self.tab.A, self.p
        U = u0[None, :] + tau * (A @ F)
        Up = nonlinear_power(g, U, p)
        rad = g.h * np.einsum("ij,ij->i", Up, U) + self.c0
        if (rad <= 0).any():
            raise AdjustmentRequired(
                f"stage radicand dropped to {rad.min():.3e}; shift C0 first"
            )
        root = np.sqrt(rad)
        gs = 0.5 * (p + 1) * g.h * np.einsum("ij,ij->i", Up, F) / root
        V = v0 + tau * (A @ gs)
        return U, Up * (V / root)[:, None], gs


class DirectIrkStepper(_CollocationStepper):
    """Gauss collocation applied to the unreformulated equation (no v)."""

    def _nl0(self) -> np.ndarray:
        return nonlinear_power(self.g, self.u, self.p)

    def _stages(self, u0, v0, tau, F):
        """Stage fields and their nonlinearities U^p; no v, so no rates."""
        U = u0[None, :] + tau * (self.tab.A @ F)
        return U, nonlinear_power(self.g, U, self.p), None


# weights taking the quotients of steps -2, -1, 0 to step 1 (exact on quadratics)
_MCN_EXTRAP = _lagrange_matrix((-2.0, -1.0, 0.0), (1.0,))[0]


class McnStepper(_Stepper):
    """Modified Crank-Nicolson: conserves discrete momentum and energy.

    The energy-conserving difference quotient is evaluated by Horner's rule
    in w through (w^{p+1} - u^{p+1}) / (w - u) = sum_{k=0..p} w^k u^{p-k},
    with u, ..., u^p built once per step, so no division or 0/0 at w = u.
    The CN denominator and tau / (p(p+1)) are folded into the symbols.

    After three accepted steps, a step starts from the w solved for the
    quadratic extrapolation q_-2 - 3 q_-1 + 3 q_0 of their last difference
    quotients; that solve counts as one sweep in ``StageStats.iterations``.
    Otherwise it starts from w = u.
    """

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self._history: list[np.ndarray] = []  # quotients of the last three steps

    def advance(self) -> StageStats:
        g, u, p, tau = self.g, self.u, self.p, self.cfg.tau
        den = 1.0 + 0.5 * tau * g.k3
        lin = (1.0 - 0.5 * tau * g.k3) / den * g.to_modes(u)
        sym = -(tau / (p * (p + 1))) * g.k1 / den
        upow = np.cumprod(np.broadcast_to(u, (p, g.N)), axis=0)  # u, ..., u^p
        q = None  # the difference quotient of the last sweep

        def solve(quotient):
            return np.fft.irfft(lin + sym * np.fft.rfft(quotient), n=g.N)

        def sweep(w):
            nonlocal q
            q = w + u
            for uk in upow[1:]:
                q *= w
                q += uk
            return solve(q)

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
                raise RuntimeError("C0 shift made the previous level inconsistent")
            self._v_prev = float(np.sqrt(vp2))

    def advance(self) -> StageStats:
        """Leap-frog from (u_prev, u, v_prev) to the new level (u1, v1)."""
        g, p, tau = self.g, self.p, self.cfg.tau
        u_prev, u, v_prev = self._u_prev, self.u, self._v_prev
        if u_prev is None:  # leap-frog needs two levels; MCN makes the second
            mcn = McnStepper(g, self.cfg, self.state)
            stats = mcn.advance()
            u1 = mcn.u
            v1 = float(np.sqrt(inner_h(g, nonlinear_power(g, u1, p), u1) + self.c0))
        else:
            up = nonlinear_power(g, u, p)
            rad = inner_h(g, up, u) + self.c0
            if rad <= 0:
                raise AdjustmentRequired(
                    f"radicand {rad:.3e} is non-positive; shift C0 before stepping"
                )
            q = up / np.sqrt(rad)

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
            stats = StageStats(0, 0.0)
        self._u_prev, self._v_prev = self.u, self.v
        self.u, self.v = u1, v1
        return stats


def cn_dispersion_step(g: SpectralGrid, tau: float, u: np.ndarray) -> np.ndarray:
    """Crank-Nicolson flow of u_t + u_xxx = 0; unitary per mode."""
    sym = (1.0 - 0.5 * tau * g.k3) / (1.0 + 0.5 * tau * g.k3)
    return g.from_modes(sym * g.to_modes(u))


class StrangStepper(_Stepper):
    """Strang splitting: half conservation-law step, full dispersion, half again."""

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
        residual = float("inf")
        for it in range(1, cfg.fp_max_iter + 1):
            mid_pow = nonlinear_power(g, 0.5 * (w + u), p)
            gw = u - (tau / p) * g.from_modes(g.k1 * g.to_modes(mid_pow))
            residual = float(np.abs(gw - w).max())
            if residual < cfg.fp_tol:
                return gw, it
            if residual >= prev and theta > 0.05:
                theta *= 0.5
            prev = residual
            w = w + theta * (gw - w)
        raise FixedPointError(
            f"transport substep did not reach {cfg.fp_tol:g} in "
            f"{cfg.fp_max_iter} sweeps (residual {residual:.3e})",
            residual=residual,
        )

    def advance(self) -> StageStats:
        tau = self.cfg.tau
        u, it1 = self._transport_step(self.u, 0.5 * tau)
        u = cn_dispersion_step(self.g, tau, u)
        u, it2 = self._transport_step(u, 0.5 * tau)
        self.u = u
        return StageStats(it1 + it2, 0.0)


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


def etdrk4_coefficients_direct(g: SpectralGrid, tau: float) -> dict[str, np.ndarray]:
    """Same coefficients from the closed formulas; unstable for |z| near 0."""
    z = tau * (-g.k3)
    with np.errstate(divide="ignore", invalid="ignore"):
        q, g1, g2, g3 = _phi_brackets(z)
    return {
        "E": np.exp(z),
        "E2": np.exp(z / 2.0),
        "Q": tau * q,
        "g1": tau * g1,
        "g2": tau * g2,
        "g3": tau * g3,
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

    def _nonlinear_hat(self, u: np.ndarray) -> np.ndarray:
        g = self.g
        return -(g.k1 / self.p) * g.to_modes(nonlinear_power(g, u, self.p))

    def advance(self) -> StageStats:
        g, co = self.g, self._co
        uh = g.to_modes(self.u)

        n_u = self._nonlinear_hat(self.u)
        ah = co["E2"] * uh + co["Q"] * n_u
        n_a = self._nonlinear_hat(g.from_modes(ah))
        bh = co["E2"] * uh + co["Q"] * n_a
        n_b = self._nonlinear_hat(g.from_modes(bh))
        ch = co["E2"] * ah + co["Q"] * (2.0 * n_b - n_u)
        n_c = self._nonlinear_hat(g.from_modes(ch))

        u1h = co["E"] * uh + co["g1"] * n_u + co["g2"] * (n_a + n_b) + co["g3"] * n_c
        self.u = g.from_modes(u1h)
        return StageStats(0, 0.0)


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
    flux |U^T D1 U^p| that ``mass_drift_bound`` scales; only the collocation
    schemes (SAV-IRK, IRK), for which that bound holds, track it.  It stays
    0.0 for MCN, SAV-LF, SS and mETDRK4.
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
    return not np.isfinite(u).all() or np.abs(u).max() > BLOWUP_LINF


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
    policy = policy or C0Policy()

    log = RunLog(scheme=scheme, tau=cfg.tau, T=T)
    stepper = make_stepper(scheme, g, cfg, state)

    def sample(t: float):
        log.records.append(invariants(stepper.state, g, t=t))
        log.flux_max_series.append(stepper.stage_flux_max)

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
            flux_max = stepper.stage_flux_max
            stepper = make_stepper(scheme, g, replace(cfg, tau=remainder),
                                   stepper.state)
            stepper.stage_flux_max = flux_max
        if stepper.v is not None:
            s_now = inner_h(g, nonlinear_power(g, stepper.u, stepper.p), stepper.u)
            if s_now + stepper.c0 < policy.tol:
                shift_c0()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                stats = advance()
        except STEP_ERRORS as err:
            if isinstance(err, FixedPointError) and _blown_up(stepper.u):
                log.blowup_time = t_new
                break
            log.final_u = stepper.u.copy()
            wrapped = type(err)(f"step {m} (t={t_new:.6g}): {err}")
            wrapped.__dict__.update(vars(err), partial_log=log)  # keeps .residual
            raise wrapped from None

        log.fp_iterations_total += stats.iterations
        if _blown_up(stepper.u):
            log.blowup_time = t_new
            break
        if m % sample_every == 0 or m == total:
            sample(t_new)
        if on_step is not None:
            on_step(m, t_new, stepper.u)

    log.final_u = stepper.u.copy()
    return log
