import numpy as np
import pytest

from gkdv.integrators import StepperConfig, _StageSolver, make_stepper
from gkdv.sav import C0Policy, init_sav
from gkdv.scenarios import get_scenario
from gkdv.spectral import inner_h, make_grid
from gkdv.tableaus import gauss_legendre_tableau

from conftest import random_smooth_field
from oracles import apply_d1, apply_d2, apply_d3, norm_h


def stage_solve(g, tau, A, rs):
    """Fields f with (I + tau*A*D3) f = rs, through the per-mode stage solver
    with a unit symbol folded in."""
    rhat = np.stack([g.to_modes(r) for r in rs])
    return np.fft.irfft(_StageSolver(g, tau, A, 1.0).solve(rhat), n=g.N, axis=1)


class TestMakeGrid:
    def test_basic_spacing(self):
        g = make_grid(np.pi, 8)
        assert g.h == np.pi / 4
        assert g.x[0] == -np.pi
        assert np.isclose(g.x[-1], 3 * np.pi / 4)
        assert g.h * g.N == 2 * g.L  # exact for power-of-two N

    def test_paper_grids(self):
        g = make_grid(30 * np.pi, 2048)
        assert g.h == 30 * np.pi / 1024
        g = make_grid(10 * np.pi, 1024)
        assert g.N == 1024 and g.nmodes == 513

    @pytest.mark.parametrize("L,N", [(np.pi, 9), (np.pi, 4), (0.0, 64),
                                     (-1.0, 64), (np.pi, 48)])
    def test_rejects_bad_arguments(self, L, N):
        with pytest.raises(ValueError):
            make_grid(L, N)

    @pytest.mark.parametrize("L", [np.inf, np.nan])
    def test_rejects_non_finite_length(self, L):
        with pytest.raises(ValueError, match="L must be finite"):
            make_grid(L, 64)

    def test_multiplier_structure(self):
        g = make_grid(2.0, 32)
        assert np.all(g.k1.real == 0)          # purely imaginary
        assert g.k1[-1] == 0                   # Nyquist zeroed
        assert np.all(g.k2 <= 0) and np.all(g.k2.imag == 0)
        assert g.k2[-1] != 0                   # even derivative keeps Nyquist
        np.testing.assert_allclose(g.k3, g.k1 * g.k2)


class TestDerivatives:
    def test_d1_constant_is_zero(self, grid64):
        u = np.ones(grid64.N)
        assert np.abs(apply_d1(grid64, u)).max() < 1e-13

    def test_d1_resolved_mode_exact(self, grid64):
        g = grid64
        u = np.sin(2 * np.pi * g.x / g.L)
        exact = (2 * np.pi / g.L) * np.cos(2 * np.pi * g.x / g.L)
        assert np.abs(apply_d1(g, u) - exact).max() < 1e-12

    def test_d1_antisymmetry_direct_sum(self, grid64, rng):
        g = grid64
        u = rng.standard_normal(g.N)
        uh = np.fft.rfft(u)
        uh[-1] = 0.0
        u = np.fft.irfft(uh, n=g.N)
        val = g.h * np.sum(apply_d1(g, u) * u)  # direct summation oracle
        assert abs(val) < 1e-11 * norm_h(g, u) ** 2

    def test_d2_constant_and_mode(self, grid64):
        g = grid64
        assert np.abs(apply_d2(g, np.ones(g.N))).max() < 1e-12
        u = np.cos(2 * np.pi * g.x / g.L)
        exact = -((2 * np.pi / g.L) ** 2) * u
        assert np.abs(apply_d2(g, u) - exact).max() < 1e-12

    def test_d3_composes_d1_d2(self, grid64, rng):
        g = grid64
        u = random_smooth_field(g, rng)
        d3 = apply_d3(g, u)
        composed = apply_d1(g, apply_d2(g, u))
        assert np.abs(d3 - composed).max() < 1e-12 * max(1.0, np.abs(d3).max())

    def test_d2_symmetry(self, grid64, rng):
        g = grid64
        u = random_smooth_field(g, rng)
        w = random_smooth_field(g, rng)
        lhs = inner_h(g, apply_d2(g, u), w)
        rhs = inner_h(g, u, apply_d2(g, w))
        assert abs(lhs - rhs) < 1e-11 * norm_h(g, u) * norm_h(g, w)

    def test_d1_d2_commute(self, grid64, rng):
        g = grid64
        u = random_smooth_field(g, rng)
        a = apply_d1(g, apply_d2(g, u))
        b = apply_d2(g, apply_d1(g, u))
        assert np.abs(a - b).max() < 1e-11 * max(1.0, np.abs(a).max())

    def test_round_trip(self, grid64, rng):
        g = grid64
        u = rng.standard_normal(g.N)
        back = g.from_modes(g.to_modes(u))
        assert np.abs(back - u).max() < 1e-13 * np.abs(u).max()

    @pytest.mark.parametrize("N", [2**m for m in range(3, 13)])
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_transforms_are_numpy_fft_bit_for_bit(self, rng, N, shape):
        # the contract any other transform backend must keep
        g = make_grid(np.pi, N)
        u = rng.standard_normal(shape + (N,))
        uh = np.fft.rfft(u)
        back = np.fft.irfft(uh, n=N)
        np.testing.assert_array_equal(g.to_modes(u), uh)
        np.testing.assert_array_equal(g.from_modes(uh), back)
        out_h, out = np.empty_like(uh), np.empty_like(u)
        assert g.to_modes(u, out=out_h) is out_h
        assert g.from_modes(uh, out=out) is out
        np.testing.assert_array_equal(out_h, uh)
        np.testing.assert_array_equal(out, back)

    def test_length_mismatch(self, grid64):
        with pytest.raises(ValueError, match="length"):
            apply_d1(grid64, np.zeros(grid64.N + 1))


class TestInnerProduct:
    def test_constant(self):
        g = make_grid(3.0, 16)
        ones = np.ones(g.N)
        assert np.isclose(inner_h(g, ones, ones), 2 * g.L, rtol=1e-14)

    def test_zero_norm(self, grid64):
        assert norm_h(grid64, np.zeros(grid64.N)) == 0.0

    def test_parseval(self, grid64, rng):
        g = grid64
        u = rng.standard_normal(g.N)
        direct = inner_h(g, u, u)
        spectral = g.h / g.N * np.sum(np.abs(np.fft.fft(u)) ** 2)
        assert abs(direct - spectral) < 1e-12 * direct


class TestBlockSolve:
    """The per-mode stage solver of the collocation schemes."""

    def test_tau_zero_is_identity(self, grid64, rng):
        g = grid64
        A = gauss_legendre_tableau(2).A
        r1 = rng.standard_normal(g.N)
        r2 = rng.standard_normal(g.N)
        f1, f2 = stage_solve(g, 0.0, A, [r1, r2])
        np.testing.assert_allclose(f1, r1, atol=1e-14)
        np.testing.assert_allclose(f2, r2, atol=1e-14)

    def test_diagonal_decoupled(self, grid64, rng):
        g = grid64
        A = np.diag([0.3, 0.7])
        r1 = random_smooth_field(g, rng)
        f1, f2 = stage_solve(g, 0.05, A, [r1, np.zeros(g.N)])
        assert np.abs(f2).max() < 1e-14
        lhs = f1 + 0.05 * 0.3 * apply_d3(g, f1)
        assert np.abs(lhs - r1).max() < 1e-11 * np.abs(r1).max()

    def test_residual_oracle_irk4(self, grid64, rng):
        g = grid64
        tau = 0.1
        A = gauss_legendre_tableau(2).A
        r1 = rng.standard_normal(g.N)
        r2 = rng.standard_normal(g.N)
        f1, f2 = stage_solve(g, tau, A, [r1, r2])
        res1 = f1 + tau * (A[0, 0] * apply_d3(g, f1) + A[0, 1] * apply_d3(g, f2)) - r1
        res2 = f2 + tau * (A[1, 0] * apply_d3(g, f1) + A[1, 1] * apply_d3(g, f2)) - r2
        scale = max(np.abs(r1).max(), np.abs(r2).max())
        assert max(np.abs(res1).max(), np.abs(res2).max()) < 1e-11 * scale

    def test_matches_dense_per_mode_solve(self, grid64, rng):
        g = grid64
        tau = 0.07
        A = gauss_legendre_tableau(2).A
        r1 = rng.standard_normal(g.N)
        r2 = rng.standard_normal(g.N)
        f1, f2 = stage_solve(g, tau, A, [r1, r2])

        # independent oracle: full-spectrum dense 2x2 solves via numpy.fft.fft
        k = 2 * np.pi * np.fft.fftfreq(g.N, d=g.h)
        k1 = 1j * k
        k1[g.N // 2] = 0.0
        lam = k1 * (-(k**2))
        rh = np.stack([np.fft.fft(r1), np.fft.fft(r2)], axis=-1)[:, :, None]
        M = np.eye(2)[None, :, :] + tau * lam[:, None, None] * A[None, :, :]
        fh = np.linalg.solve(M, rh)[:, :, 0]
        o1 = np.fft.ifft(fh[:, 0]).real
        o2 = np.fft.ifft(fh[:, 1]).real
        assert np.abs(f1 - o1).max() < 1e-11
        assert np.abs(f2 - o2).max() < 1e-11

    @pytest.mark.parametrize("scheme", ["SAV-IRK6", "IRK6", "SAV-IRK8", "IRK8"])
    @pytest.mark.parametrize("tau", [0.1, 0.4])
    def test_three_stages_on_fine_grid(self, scheme, tau):
        # On the two-soliton domain at N = 8192, tau |k^3| spans ten decades
        # across the modes, yet every M_k = I + i kappa A is well conditioned:
        # cond <= 10.7 for s = 3 and <= 19.4 for s = 4 over every real kappa.
        sc = get_scenario("example2")
        g = make_grid(sc.L, 8192)
        state = init_sav(g, sc.initial(g.x), sc.p, C0Policy(target=sc.c0_target))
        cfg = StepperConfig(tau=tau, fp_tol=sc.fp_tol)
        stepper = make_stepper(scheme, g, cfg, state)
        stats = stepper.advance()
        assert stats.residual < sc.fp_tol
        assert np.isfinite(stepper.u).all()

    def test_folded_symbol_and_shared_rhs(self, grid64, rng):
        g = grid64
        A = gauss_legendre_tableau(2).A
        sym = -(g.k1 / 3)
        rhat = np.stack([g.to_modes(rng.standard_normal(g.N)) for _ in range(2)])
        plain = _StageSolver(g, 0.1, A, 1.0)
        folded = _StageSolver(g, 0.1, A, sym)
        gap = np.abs(folded.solve(rhat) - plain.solve(sym * rhat)).max()
        assert gap < 1e-13 * np.abs(sym * rhat).max()
        # one (nmodes,) right-hand side stands for the same one at every stage
        shared = rhat[0]
        assert np.array_equal(plain.solve(shared), plain.solve(np.stack([shared] * 2)))

    @pytest.mark.parametrize("s", [1, 3])
    def test_general_stage_count(self, grid64, rng, s):
        g = grid64
        tau = 0.03
        A = gauss_legendre_tableau(s).A
        rs = [rng.standard_normal(g.N) for _ in range(s)]
        fs = stage_solve(g, tau, A, rs)
        for i in range(s):
            res = fs[i] + tau * sum(
                A[i, j] * apply_d3(g, fs[j]) for j in range(s)
            ) - rs[i]
            assert np.abs(res).max() < 1e-11 * np.abs(rs[i]).max()


def test_dealias_mask_kills_top_third():
    g = make_grid(np.pi, 64, dealias=True)
    u = np.cos(30 * g.x)  # mode near the top of the spectrum
    filtered = g.filter_23(u)
    assert np.abs(filtered).max() < 1e-12
    low = np.cos(3 * g.x)
    np.testing.assert_allclose(g.filter_23(low), low, atol=1e-13)
    # in place, as nonlinear_power filters its power, and on a stack
    stack = np.stack([u, low])
    expected = np.stack([g.filter_23(u), g.filter_23(low)])
    assert g.filter_23(stack, out=stack) is stack
    np.testing.assert_array_equal(stack, expected)
