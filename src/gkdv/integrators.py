"""Time integrators for the generalized KdV equation.

Ten schemes share the Fourier pseudo-spectral spatial discretization.  The
``SCHEMES`` registry maps each name to its stepper class and formal order:

* SAV-IRK2/4/6: Gauss-Legendre collocation applied to the auxiliary-variable
  system; conserves discrete momentum and modified energy exactly, mass to
  spectral accuracy.  The implicit stage equations are solved by fixed-point
  iteration with a per-mode block inverse (cost O(s N log N) per sweep).
* IRK2/4/6: the same collocation applied directly to u_t = -(u_xx + u^p/p)_x.
* MCN: modified Crank-Nicolson with the difference-quotient nonlinearity;
  conserves momentum and physical energy.
* SAV-LF: semi-implicit leap-frog on the auxiliary-variable system (no
  nonlinear iteration; first step bootstrapped with MCN).
* SS: Strang splitting, midpoint rule for the conservation-law part and
  Crank-Nicolson for the dispersive part.
* mETDRK4: 4th-order exponential time differencing with contour-stabilized
  coefficients; explicit, subject to an advective CFL restriction.

``make_stepper`` builds a scheme's stepper.  Every stepper exposes the same
state: the field ``u``, the auxiliary value ``v`` (None for schemes without
one), the shift ``c0`` and the exponent ``p``; ``advance(tau)`` takes one
step in place.  ``evolve`` drives a stepper to a final time.
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
    adjust_c0,
    invariants,
    nonlinear_power,
    rhs_f,
    stage_flux,
)
from .spectral import SingularModeError, SpectralGrid, inner_h
from .tableaus import gauss_legendre_tableau

__all__ = [
    "SCHEMES",
    "Scheme",
    "StepperConfig",
    "StageStats",
    "RunLog",
    "FixedPointError",
    "SingularStepError",
    "sav_lf_step_impl",
    "cn_dispersion_step",
    "etdrk4_coefficients",
    "etdrk4_coefficients_direct",
    "make_stepper",
    "evolve",
]

BLOWUP_LINF = 1e8


class FixedPointError(RuntimeError):
    """Stage iteration failed to reach the tolerance within the cap."""

    def __init__(self, msg: str, residual: float = float("nan")):
        super().__init__(msg)
        self.residual = residual


class SingularStepError(RuntimeError):
    """A semi-implicit update hit a (numerically) singular scalar system."""


@dataclass(frozen=True)
class StepperConfig:
    tau: float
    fp_tol: float = 1e-12
    fp_max_iter: int = 200
    scheme: str = ""

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.fp_tol <= 0:
            raise ValueError(f"fp_tol must be positive, got {self.fp_tol}")
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


def _fixed_point(sweep, x: np.ndarray, cfg: StepperConfig) -> tuple[np.ndarray, StageStats]:
    """Iterate x <- sweep(x) until the max-norm update drops below cfg.fp_tol."""
    residual = float("inf")
    for it in range(1, cfg.fp_max_iter + 1):
        x_new = sweep(x)
        residual = float(np.abs(x_new - x).max())
        x = x_new
        if residual < cfg.fp_tol:
            return x, StageStats(it, residual)
    raise FixedPointError(
        f"stage iteration did not reach {cfg.fp_tol:g} in "
        f"{cfg.fp_max_iter} sweeps (residual {residual:.3e})",
        residual=residual,
    )


class _StageSolver:
    """Per-mode inverse of the s-stage linear system I + tau * A * D3.

    D3 is diagonal in Fourier space, so the system decouples into one small
    complex s x s solve per mode.  The inverses are built once per
    (grid, tau) and stored modes-last, so a solve is a broadcast product and
    a sum over the stage axis.
    """

    def __init__(self, g: SpectralGrid, tau: float, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        M = np.eye(A.shape[0]) + tau * g.k3[:, None, None] * A
        det = np.linalg.det(M)
        bad = np.abs(det) < 1e-14 * np.abs(det).max()
        if bad.any():
            raise SingularModeError(
                f"stage system singular at mode {int(np.argmax(bad))} for tau={tau!r}"
            )
        self._inv = np.ascontiguousarray(np.linalg.inv(M).transpose(1, 2, 0))

    def solve(self, rhat: np.ndarray) -> np.ndarray:
        """Solve for the stacked (s, nmodes) right-hand side."""
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

    def shift_c0(self, policy: C0Policy):
        """Reset the radicand to the policy target, keeping the modified energy.

        Only schemes with an auxiliary variable (``v`` not None) have a C0.
        """
        new = adjust_c0(SavState(u=self.u, v=self.v, c0=self.c0, p=self.p),
                        self.g, policy)
        self.c0, self.v = new.c0, new.v

    def _track_flux(self, fields):
        """Raise the running maximum of |u^T D1 u^p| over ``fields``."""
        flux = max(stage_flux(self.g, f, self.p) for f in fields)
        self.stage_flux_max = max(self.stage_flux_max, flux)


class _CollocationStepper(_Stepper):
    """Gauss collocation with order // 2 stages, solved by fixed point."""

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.tab = gauss_legendre_tableau(SCHEMES[cfg.scheme].order // 2)
        self._solvers: dict[float, _StageSolver] = {}

    def _solver(self, tau: float) -> _StageSolver:
        sol = self._solvers.get(tau)
        if sol is None:
            sol = _StageSolver(self.g, tau, self.tab.A)
            self._solvers[tau] = sol
        return sol


class SavIrkStepper(_CollocationStepper):
    """One step of the s-stage Gauss collocation method on the SAV system."""

    def __init__(self, g: SpectralGrid, cfg: StepperConfig, state: SavState):
        super().__init__(g, cfg, state)
        self.v = state.v

    def _aux(self, u0, v0, tau, F):
        """Stage fields, scaled nonlinearities and auxiliary rates from F."""
        g, A, p = self.g, self.tab.A, self.p
        U = u0[None, :] + tau * (A @ F)
        Up = np.stack([nonlinear_power(g, U[i], p) for i in range(self.tab.s)])
        rad = g.h * np.einsum("ij,ij->i", Up, U) + self.c0
        if (rad <= 0).any():
            raise AdjustmentRequired(
                f"stage radicand dropped to {rad.min():.3e}; shift C0 first"
            )
        Phi = Up / np.sqrt(rad)[:, None]
        gs = 0.5 * (p + 1) * g.h * np.einsum("ij,ij->i", Phi, F)
        V = v0 + tau * (A @ gs)
        return U, Phi, gs, V

    def advance(self, tau: float | None = None) -> StageStats:
        cfg, g, tab, p = self.cfg, self.g, self.tab, self.p
        tau = cfg.tau if tau is None else tau
        solver = self._solver(tau)
        u0, v0 = self.u, self.v
        d3u0 = g.k3 * g.to_modes(u0)
        f0 = rhs_f(SavState(u=u0, v=v0, c0=self.c0, p=p), g)

        def sweep(F):
            _, Phi, _, V = self._aux(u0, v0, tau, F)
            nl_hat = np.fft.rfft(Phi * V[:, None], axis=1)
            rhat = -d3u0[None, :] - (g.k1[None, :] / p) * nl_hat
            return np.fft.irfft(solver.solve(rhat), n=g.N, axis=1)

        F, stats = _fixed_point(sweep, np.tile(f0, (tab.s, 1)), cfg)
        U, _, gs, _ = self._aux(u0, v0, tau, F)
        self._track_flux(U)
        self.u = u0 + tau * (tab.b @ F)
        self.v = v0 + tau * float(tab.b @ gs)
        return stats


class DirectIrkStepper(_CollocationStepper):
    """Gauss collocation applied to the unreformulated equation (no v)."""

    def advance(self, tau: float | None = None) -> StageStats:
        cfg, g, tab, p = self.cfg, self.g, self.tab, self.p
        tau = cfg.tau if tau is None else tau
        solver = self._solver(tau)
        u0 = self.u
        d3u0 = g.k3 * g.to_modes(u0)
        f0 = g.from_modes(-d3u0 - (g.k1 / p) * g.to_modes(nonlinear_power(g, u0, p)))

        def sweep(F):
            U = u0[None, :] + tau * (tab.A @ F)
            Up = np.stack([nonlinear_power(g, U[i], p) for i in range(tab.s)])
            rhat = -d3u0[None, :] - (g.k1[None, :] / p) * np.fft.rfft(Up, axis=1)
            return np.fft.irfft(solver.solve(rhat), n=g.N, axis=1)

        F, stats = _fixed_point(sweep, np.tile(f0, (tab.s, 1)), cfg)
        self._track_flux(u0[None, :] + tau * (tab.A @ F))
        self.u = u0 + tau * (tab.b @ F)
        return stats


def _mcn_nonlinearity(w: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """Difference-quotient term R(w,u) * (w+u) / (p(p+1)).

    R = (w^{p+1} - u^{p+1}) / (w^2 - u^2); where the denominator vanishes the
    pointwise limit (p+1)/2 * midpoint^{p-1} is substituted, which removes the
    0/0 without biasing the conservation identities.
    """
    num = w ** (p + 1) - u ** (p + 1)
    den = w * w - u * u
    small = np.abs(den) < 1e-14 * (1.0 + u * u)
    ratio = np.empty_like(u)
    np.divide(num, den, out=ratio, where=~small)
    if small.any():
        mid = 0.5 * (w + u)
        ratio[small] = 0.5 * (p + 1) * mid[small] ** (p - 1)
    return ratio * (w + u) / (p * (p + 1))


def _mcn_step(
    g: SpectralGrid, cfg: StepperConfig, u: np.ndarray, p: int, tau: float
) -> tuple[np.ndarray, StageStats]:
    """One modified Crank-Nicolson step from u."""
    den = 1.0 + 0.5 * tau * g.k3
    lin = (1.0 - 0.5 * tau * g.k3) * g.to_modes(u)

    def sweep(w):
        nl_hat = g.k1 * np.fft.rfft(_mcn_nonlinearity(w, u, p))
        return np.fft.irfft((lin - tau * nl_hat) / den, n=g.N)

    return _fixed_point(sweep, u, cfg)


class McnStepper(_Stepper):
    """Modified Crank-Nicolson: conserves discrete momentum and energy."""

    def advance(self, tau: float | None = None) -> StageStats:
        tau = self.cfg.tau if tau is None else tau
        self.u, stats = _mcn_step(self.g, self.cfg, self.u, self.p, tau)
        self._track_flux([self.u])
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

    def _bootstrap(self, tau: float) -> StageStats:
        u1, stats = _mcn_step(self.g, self.cfg, self.u, self.p, tau)
        s1 = inner_h(self.g, nonlinear_power(self.g, u1, self.p), u1)
        self._u_prev, self._v_prev = self.u, self.v
        self.u, self.v = u1, float(np.sqrt(s1 + self.c0))
        return stats

    def advance(self, tau: float | None = None) -> StageStats:
        tau = self.cfg.tau if tau is None else tau
        if self._u_prev is None or tau != self.cfg.tau:
            # leap-frog needs uniform spacing; MCN starts it and closes out remainders
            return self._bootstrap(tau)

        u1, v1 = sav_lf_step_impl(
            self.g, self._u_prev, self.u, self._v_prev, self.p, self.c0, tau
        )
        self._u_prev, self._v_prev = self.u, self.v
        self.u, self.v = u1, v1
        if np.isfinite(u1).all():
            self._track_flux([u1])
        return StageStats(0, 0.0)


def sav_lf_step_impl(
    g: SpectralGrid,
    u_prev: np.ndarray, u_curr: np.ndarray, v_prev: float,
    p: int, c0: float, tau: float,
) -> tuple[np.ndarray, float]:
    """Two-level leap-frog update (u_prev, u_curr, v_prev) -> (u_next, v_next)."""
    up = nonlinear_power(g, u_curr, p)
    rad = inner_h(g, up, u_curr) + c0
    if rad <= 0:
        raise AdjustmentRequired(
            f"radicand {rad:.3e} is non-positive; shift C0 before stepping"
        )
    q = up / np.sqrt(rad)

    den_modes = 1.0 + tau * g.k3
    u1 = g.from_modes(g.to_modes(u_prev) / den_modes)
    u2 = g.from_modes(-(tau / p) * g.k1 * g.to_modes(q) / den_modes)

    scal = 1.0 - 0.5 * (p + 1) * inner_h(g, q, u2)
    if abs(scal) < 1e-12:
        raise SingularStepError(
            f"leap-frog scalar system singular (denominator {scal:.3e}) at tau={tau!r}"
        )
    v_tilde = (0.5 * (p + 1) * inner_h(g, q, u1 - u_prev) + v_prev) / scal
    u_next = 2.0 * (u1 + v_tilde * u2) - u_prev
    v_next = 2.0 * v_tilde - v_prev
    return u_next, float(v_next)


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

    def advance(self, tau: float | None = None) -> StageStats:
        tau = self.cfg.tau if tau is None else tau
        u, it1 = self._transport_step(self.u, 0.5 * tau)
        u = cn_dispersion_step(self.g, tau, u)
        u, it2 = self._transport_step(u, 0.5 * tau)
        self.u = u
        self._track_flux([u])
        return StageStats(it1 + it2, 0.0)


def _phi_brackets(zr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ez = np.exp(zr)
    q = (np.exp(zr / 2.0) - 1.0) / zr
    z3 = zr**3
    g1 = (-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / z3
    g2 = 2.0 * (2.0 + zr + ez * (-2.0 + zr)) / z3
    g3 = (-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / z3
    return q, g1, g2, g3


def etdrk4_coefficients(
    g: SpectralGrid, tau: float, n_contour: int = 32
) -> dict[str, np.ndarray]:
    """Per-mode update coefficients with the removable z=0 singularity healed.

    The brackets q, g1, g2, g3 have z^3 denominators; each is evaluated as the
    mean over a unit circle of contour points around tau*L per mode, which is
    accurate to ~1e-14 and finite through z = 0.
    """
    z = tau * (-g.k3)  # dispersive symbol of the linear part
    theta = 2.0 * np.pi * (np.arange(n_contour) + 0.5) / n_contour
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
        self._coeff: dict[float, dict[str, np.ndarray]] = {}
        if cfg.tau > g.h:
            warnings.warn(
                f"tau={cfg.tau:g} exceeds the advective CFL scale 2L/N={g.h:g}; "
                "the explicit scheme may be unstable",
                RuntimeWarning,
                stacklevel=2,
            )

    def _coefficients(self, tau: float) -> dict[str, np.ndarray]:
        co = self._coeff.get(tau)
        if co is None:
            co = etdrk4_coefficients(self.g, tau)
            self._coeff[tau] = co
        return co

    def _nonlinear_hat(self, u: np.ndarray) -> np.ndarray:
        g = self.g
        return -(g.k1 / self.p) * g.to_modes(nonlinear_power(g, u, self.p))

    def advance(self, tau: float | None = None) -> StageStats:
        g = self.g
        tau = self.cfg.tau if tau is None else tau
        co = self._coefficients(tau)
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
        if np.isfinite(self.u).all():
            self._track_flux([self.u])
        return StageStats(0, 0.0)


class Scheme(NamedTuple):
    """A registered scheme: the class that steps it and its formal order."""

    stepper: type
    order: int


SCHEMES: dict[str, Scheme] = {
    "SAV-IRK2": Scheme(SavIrkStepper, 2),
    "SAV-IRK4": Scheme(SavIrkStepper, 4),
    "SAV-IRK6": Scheme(SavIrkStepper, 6),
    "IRK2": Scheme(DirectIrkStepper, 2),
    "IRK4": Scheme(DirectIrkStepper, 4),
    "IRK6": Scheme(DirectIrkStepper, 6),
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
    scheme: str
    tau: float
    T: float
    records: list[InvariantRecord] = field(default_factory=list)
    flux_max_series: list[float] = field(default_factory=list)
    final_u: np.ndarray | None = None
    final_v: float | None = None
    c0: float = 0.0
    p: int = 2
    fp_iterations_total: int = 0
    c0_adjustments: int = 0
    blowup_time: float | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])


def _sample_record(stepper, g: SpectralGrid, t: float) -> InvariantRecord:
    """Invariants of the current state.

    Schemes without an auxiliary variable report the physical energy in the
    modified-energy slot, which is the exact limit of the modified form when
    v^2 equals the radicand.
    """
    if stepper.v is not None:
        state = SavState(u=stepper.u, v=stepper.v, c0=stepper.c0, p=stepper.p)
        return invariants(state, g, t=t)
    rec = invariants(SavState(u=stepper.u, v=1.0, c0=1.0, p=stepper.p), g, t=t)
    return replace(rec, energy_mod=rec.energy)


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

    A final partial step covers T when tau does not divide it.  The C0 shift
    is applied between accepted steps whenever the radicand drops below the
    policy tolerance, and before retrying a step that raised
    ``AdjustmentRequired``.  Blow-up (non-finite u or max|u| > 1e8) halts the
    run and records the blow-up time; step failures are annotated with the
    step index and re-raised.
    """
    if T < 0:
        raise ValueError(f"final time must be non-negative, got {T}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    policy = policy or C0Policy()

    log = RunLog(scheme=scheme, tau=cfg.tau, T=T, c0=state.c0, p=state.p)
    stepper = make_stepper(scheme, g, cfg, state)
    sav = stepper.v is not None

    def sample(t: float):
        log.records.append(_sample_record(stepper, g, t))
        log.flux_max_series.append(stepper.stage_flux_max)

    def shift_c0():
        stepper.shift_c0(policy)
        log.c0 = stepper.c0
        log.c0_adjustments += 1

    def advance(tau: float | None) -> StageStats:
        try:
            return stepper.advance(tau)
        except AdjustmentRequired:
            if not sav:
                raise
            shift_c0()
            return stepper.advance(tau)

    sample(0.0)
    n_full = int(np.floor(T / cfg.tau + 1e-9))
    remainder = T - n_full * cfg.tau
    if remainder < 1e-9 * cfg.tau:
        remainder = 0.0
    total = n_full + (1 if remainder else 0)

    for m in range(1, total + 1):
        tau_m = cfg.tau if m <= n_full else remainder
        t_new = m * cfg.tau if m <= n_full else T
        if sav:
            s_now = inner_h(g, nonlinear_power(g, stepper.u, stepper.p), stepper.u)
            if s_now + stepper.c0 < policy.tol:
                shift_c0()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                stats = advance(None if tau_m == cfg.tau else tau_m)
        except FixedPointError as err:
            if _blown_up(stepper.u):
                log.blowup_time = t_new
                break
            log.final_u = stepper.u.copy()
            log.final_v = stepper.v
            wrapped = FixedPointError(
                f"step {m} (t={t_new:.6g}): {err}", residual=err.residual
            )
            wrapped.partial_log = log
            raise wrapped from None
        except (SingularModeError, SingularStepError) as err:
            log.final_u = stepper.u.copy()
            log.final_v = stepper.v
            wrapped = type(err)(f"step {m} (t={t_new:.6g}): {err}")
            wrapped.partial_log = log
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
    log.final_v = stepper.v
    return log
