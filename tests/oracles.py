"""Reference implementations that tests compare the solver against."""

import numpy as np

from gkdv.integrators import _phi_brackets


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
