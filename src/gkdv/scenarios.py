"""Initial conditions, exact solutions and diagnostics for the experiments.

Three setups are bundled as presets:

* ``example1``: mKdV breather, domain [-10*pi, 10*pi], N = 1024, p = 3.
* ``example2``: KdV two-soliton interaction, [-30*pi, 30*pi], N = 2048, p = 2.
* ``example3``: KdV scattering of -sech^2(x), same grid as example2.

The initial states are the free-space formulas sampled on the grid; domain
truncation relies on their exponential decay.  The breather's exact solution
is periodized: it sums the images of the free-space breather near the wrapped
envelope, so it follows the periodic run after the envelope has crossed the
boundary, at any time.  The two-soliton's exact solution is the free-space
formula, which the periodic run matches while both solitons stay inside.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import SpectralGrid, make_grid

__all__ = [
    "BreatherParams",
    "TwoSolitonParams",
    "Scenario",
    "breather",
    "periodic_breather",
    "two_soliton",
    "scatter_ic",
    "q_soliton_constants",
    "breather_diagnostics",
    "get_scenario",
]

BOUNDARY_DECAY_WARN = 5e-12


@dataclass(frozen=True)
class BreatherParams:
    """Oscillatory-pulse parameters; gamma/delta are always derived fresh."""

    alpha: float = 3.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")

    @property
    def gamma(self) -> float:
        return 3.0 * self.alpha**2 - self.beta**2

    @property
    def delta(self) -> float:
        return self.alpha**2 - 3.0 * self.beta**2


@dataclass(frozen=True)
class TwoSolitonParams:
    gamma1: float = 0.4
    gamma2: float = 0.6
    x1: float = 10.0
    x2: float = 25.0

    def __post_init__(self):
        if self.gamma1 == -self.gamma2:
            raise ValueError("gamma1 = -gamma2 makes the amplitude ratio singular")

    @property
    def a2(self) -> float:
        return ((self.gamma1 - self.gamma2) / (self.gamma1 + self.gamma2)) ** 2


def breather(params: BreatherParams, x, t: float):
    """Two-parameter mKdV breather; envelope travels left with speed gamma."""
    a, b = params.alpha, params.beta
    xg = b * (np.asarray(x, dtype=float) + params.gamma * t)
    xd = a * (np.asarray(x, dtype=float) + params.delta * t)
    sech = 1.0 / np.cosh(xg)
    sin = np.sin(xd)
    num = np.cos(xd) - (b / a) * sin * np.tanh(xg)
    den = 1.0 + (b / a) ** 2 * sin**2 * sech**2
    return 2.0 * np.sqrt(6.0) * b * sech * num / den


def periodic_breather(params: BreatherParams, x, t: float, L: float):
    """The breather on the periodic domain [-L, L): the sum of the images
    B(x + 2Lm, t) for m within 2 of -gamma t / (2L), where the envelope
    centre wraps; farther images are below round-off."""
    x = np.asarray(x, dtype=float)
    m0 = round(-params.gamma * t / (2.0 * L))
    with np.errstate(over="ignore"):  # far from the envelope sech = 1/cosh is 0
        return sum(breather(params, x + 2.0 * L * m, t) for m in range(m0 - 2, m0 + 3))


def two_soliton(params: TwoSolitonParams, x, t: float):
    """Exact two-soliton solution of KdV (p = 2), in overflow-safe form.

    The rational expression is rescaled by the largest exponential phase so
    every term stays bounded; the shift cancels between numerator and the
    squared denominator.
    """
    g1, g2, a2 = params.gamma1, params.gamma2, params.a2
    x = np.asarray(x, dtype=float)
    th1 = g1 * x - g1**3 * t + params.x1
    th2 = g2 * x - g2**3 * t + params.x2
    c = np.maximum.reduce([np.zeros_like(th1), th1, th2, th1 + th2])

    e1 = np.exp(th1 - c)
    e2 = np.exp(th2 - c)
    e12 = np.exp(th1 + th2 - c)
    num = (
        g1**2 * np.exp(th1 - 2.0 * c)
        + g2**2 * np.exp(th2 - 2.0 * c)
        + 2.0 * (g2 - g1) ** 2 * np.exp(th1 + th2 - 2.0 * c)
        + a2 * (g2**2 * e1 + g1**2 * e2) * e12
    )
    den = np.exp(-c) + e1 + e2 + a2 * e12
    return 12.0 * num / den**2


def scatter_ic(x):
    """Negative scattering initial state -sech^2(x)."""
    return -1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2


def q_soliton_constants() -> tuple[float, float]:
    """Mass and |energy| of the reference soliton sqrt(6) sech(x).

    Analytically: integral of 6 sech^2 is 12; the energy
    (1/2) int Q_x^2 - (1/12) int Q^4 = 2 - 4 = -2, so its magnitude is 2.
    """
    return 12.0, 2.0


def breather_diagnostics(
    mass: float, energy: float, beta_from_energy: bool = False
) -> tuple[float, float]:
    """Recover (beta, gamma) estimates from the discrete mass and energy.

    Uses the soliton relations M[B] = 2 beta M[Q] and E[B] = 2 beta gamma
    |E[Q]|; with M[Q] = 12 and |E[Q]| = 2 the default estimates are
    beta = M/24 and gamma = 6E/M.  ``energy`` is whichever energy the caller
    tracks (``attach_breather_columns`` passes the modified energy for SAV
    schemes and the physical one otherwise).  ``beta_from_energy`` switches
    the beta estimate to energy / (2 M[Q]) instead of the mass-based default.
    """
    m_q, abs_e_q = q_soliton_constants()
    beta_num = (energy if beta_from_energy else mass) / (2.0 * m_q)
    if beta_num <= 0:
        raise ValueError(f"non-positive beta estimate {beta_num:.3e}")
    gamma_num = energy / (2.0 * beta_num * abs_e_q)
    return float(beta_num), float(gamma_num)


@dataclass(frozen=True)
class Scenario:
    """A named experiment: grid, nonlinearity, initial state and the exact
    solution ``solution(x, t, L)`` on [-L, L) (None without a closed form),
    which ``exact(x, t)`` evaluates on the scenario's own L."""

    name: str
    p: int
    L: float
    N: int
    fp_tol: float
    tau: float
    T: float
    initial: Callable[[np.ndarray], np.ndarray]
    solution: Callable[[np.ndarray, float, float], np.ndarray] | None = None
    track_breather: bool = False
    # radicand level the C0 rule installs; the two-soliton experiment needs
    # the larger historical value to reproduce its published error tables
    c0_target: float = 10.0

    def exact(self, x, t: float) -> np.ndarray:
        return self.solution(x, t, self.L)

    def make_grid(self, dealias: bool = False) -> SpectralGrid:
        g = make_grid(self.L, self.N, dealias)
        edge = float(np.abs(self.initial(np.array([-g.L, g.L]))).max())
        if edge > BOUNDARY_DECAY_WARN:
            warnings.warn(
                f"initial condition is {edge:.1e} at the boundary; the periodic "
                "truncation may contaminate long runs",
                RuntimeWarning,
                stacklevel=2,
            )
        return g


def _example1() -> Scenario:
    params = BreatherParams(alpha=3.0, beta=1.0)
    return Scenario(
        name="breather",
        p=3,
        L=10.0 * np.pi,
        N=1024,
        fp_tol=1e-11,
        tau=0.02,
        T=1000.0,
        initial=lambda x: breather(params, x, 0.0),
        solution=lambda x, t, L: periodic_breather(params, x, t, L),
        track_breather=True,
    )


def _example2() -> Scenario:
    params = TwoSolitonParams()
    return Scenario(
        name="two_soliton",
        p=2,
        L=30.0 * np.pi,
        N=2048,
        fp_tol=1e-12,
        tau=0.1,
        T=200.0,
        initial=lambda x: two_soliton(params, x, 0.0),
        solution=lambda x, t, L: two_soliton(params, x, t),
        c0_target=100.0,
    )


def _example3() -> Scenario:
    return Scenario(
        name="scatter",
        p=2,
        L=30.0 * np.pi,
        N=2048,
        fp_tol=1e-12,
        tau=0.01,
        T=1.0,
        initial=scatter_ic,
        solution=None,
    )


_SCENARIOS = {
    "breather": _example1,
    "two_soliton": _example2,
    "scatter": _example3,
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
}


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}"
        ) from None
