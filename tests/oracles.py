"""Reference implementations that tests compare the solver against."""

import numpy as np

from gkdv.integrators import _phi_brackets
from gkdv.sav import SavState, nonlinear_power, radicand_root
from gkdv.spectral import SpectralGrid, inner_h


def etdrk4_coefficients_direct(g, tau: float) -> dict[str, np.ndarray]:
    """The mETDRK4 coefficients from the closed formulas; unstable for |z| near 0."""
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


def apply_d3(g: SpectralGrid, u: np.ndarray) -> np.ndarray:
    """Third derivative, composing the first- and second-derivative symbols."""
    u = g.check_field(u)
    return g.from_modes(g.k3 * g.to_modes(u))


def d2u_u_quadrature(g: SpectralGrid, u: np.ndarray) -> float:
    """(D2 u, u)_h by quadrature: the second derivative transformed back to
    the nodes, then h * sum_j (D2 u)_j u_j."""
    u = g.check_field(u)
    return inner_h(g, g.from_modes(g.k2 * g.to_modes(u)), u)


def norm_h(g: SpectralGrid, u: np.ndarray) -> float:
    return float(np.sqrt(inner_h(g, u, u)))


def rhs_g(state: SavState, g: SpectralGrid, udot: np.ndarray) -> float:
    """Auxiliary-variable rate (p+1)/(2 sqrt(radicand)) * (u^p, udot)_h."""
    up = nonlinear_power(g, state.u, state.p)
    root = radicand_root(inner_h(g, up, state.u) + state.c0)
    return (state.p + 1) / (2.0 * root) * inner_h(g, up, udot)
