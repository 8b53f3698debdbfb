import numpy as np
import pytest

from gkdv.tableaus import gauss_legendre_tableau, symplectic_residual

R3 = np.sqrt(3) / 6
W15 = np.sqrt(15)
# the closed-form Gauss tableaus (A, b, c) for one, two and three stages
CLOSED_FORM = {
    1: ([[0.5]], [1.0], [0.5]),
    2: ([[0.25, 0.25 - R3], [0.25 + R3, 0.25]], [0.5, 0.5], [0.5 - R3, 0.5 + R3]),
    3: ([[5 / 36, 2 / 9 - W15 / 15, 5 / 36 - W15 / 30],
         [5 / 36 + W15 / 24, 2 / 9, 5 / 36 - W15 / 24],
         [5 / 36 + W15 / 30, 2 / 9 + W15 / 15, 5 / 36]],
        [5 / 18, 4 / 9, 5 / 18], [0.5 - W15 / 10, 0.5, 0.5 + W15 / 10]),
}


def test_one_stage_midpoint():
    A, b, c = gauss_legendre_tableau(1)
    assert A.tolist() == [[0.5]]
    assert b.tolist() == [1.0]
    assert c.tolist() == [0.5]


def test_two_stage_coefficients():
    tab = gauss_legendre_tableau(2)
    r = np.sqrt(3) / 6
    np.testing.assert_allclose(tab.b, [0.5, 0.5])
    assert np.isclose(tab.A[0, 1], 0.25 - r)
    np.testing.assert_allclose(tab.c, [0.5 - r, 0.5 + r])
    # with b1 = 1/2 and a11 = 1/4 the residual vanishes identically
    assert 0.5 * 0.25 + 0.5 * 0.25 - 0.25 == 0.0


def test_three_stage_coefficients():
    tab = gauss_legendre_tableau(3)
    w = np.sqrt(15)
    np.testing.assert_allclose(tab.b, [5 / 18, 4 / 9, 5 / 18])
    np.testing.assert_allclose(tab.c, [0.5 - w / 10, 0.5, 0.5 + w / 10])
    assert np.isclose(tab.A[1, 0], 5 / 36 + w / 24)


@pytest.mark.parametrize("s", sorted(CLOSED_FORM))
def test_generated_matches_closed_form(s):
    tab = gauss_legendre_tableau(s)
    for got, want in zip((tab.A, tab.b, tab.c), CLOSED_FORM[s]):
        assert np.abs(got - np.array(want)).max() <= 1e-16


@pytest.mark.parametrize("s", range(1, 9))
def test_symplectic_and_collocation_consistency(s):
    tab = gauss_legendre_tableau(s)
    assert symplectic_residual(tab.A, tab.b) <= 1e-15
    assert np.abs(tab.A.sum(axis=1) - tab.c).max() < 1e-15
    assert np.isclose(tab.b.sum(), 1.0)


@pytest.mark.parametrize("s", range(1, 9))
def test_simplifying_assumptions(s):
    # B(2s): the weights integrate degree 2s - 1 exactly over [0, 1];
    # C(s): row i integrates degree s - 1 exactly over [0, c_i]
    tab = gauss_legendre_tableau(s)
    A, b, c = tab.A, tab.b, tab.c
    for k in range(1, 2 * s + 1):
        assert abs(b @ c ** (k - 1) - 1.0 / k) <= 1e-15, k
    for k in range(1, s + 1):
        assert np.abs(A @ c ** (k - 1) - c**k / k).max() <= 1e-15, k
    assert np.all(np.diff(c) > 0) and 0 < c[0] and c[-1] < 1


@pytest.mark.parametrize("s", range(1, 9))
def test_stage_systems_are_never_singular(s):
    # Re lambda(A) > 0, so the per-mode stage matrix I + tau k3 A = I + i kappa A
    # is invertible for every real kappa, negative steps too; min Re lambda
    # falls from 0.5 (s = 1) to 0.029 (s = 8), and the largest condition
    # number rises from 1 to 88
    A = gauss_legendre_tableau(s).A
    assert np.linalg.eigvals(A).real.min() > 0
    kappa = np.logspace(-3, 9, 241)
    M = np.eye(s) + 1j * np.concatenate([kappa, -kappa])[:, None, None] * A
    assert np.linalg.cond(M).max() <= 100


@pytest.mark.parametrize("s", [0, -1])
def test_unsupported_stage_counts(s):
    with pytest.raises(ValueError):
        gauss_legendre_tableau(s)


def test_non_symplectic_residual():
    # an explicit two-stage tableau, which conserves no quadratic invariant
    assert symplectic_residual([[0, 0], [0.5, 0]], [0.5, 0.5]) == 0.25
