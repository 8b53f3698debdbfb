from dataclasses import replace

import numpy as np
import pytest

from gkdv.cli import JobSpec
from gkdv.scenarios import (
    Q_SOLITON_ABS_ENERGY,
    Q_SOLITON_MASS,
    BreatherParams,
    TwoSolitonParams,
    breather,
    breather_diagnostics,
    get_scenario,
    scatter_ic,
    two_soliton,
)
from gkdv.spectral import inner_h, make_grid

from oracles import apply_d1, apply_d2


def pde_residual(g, u_of_t, t, p, dt=1e-6):
    """|u_t + (u_xx + u^p/p)_x| with spectral space derivatives and a centered
    time difference."""
    u = u_of_t(t)
    ut = (u_of_t(t + dt) - u_of_t(t - dt)) / (2 * dt)
    return np.abs(ut + apply_d1(g, apply_d2(g, u) + u**p / p))


class TestBreather:
    def test_origin_value(self):
        assert np.isclose(breather(BreatherParams(3, 1), 0.0, 0.0),
                          2 * np.sqrt(6.0))

    def test_derived_speeds(self):
        params = BreatherParams(3, 1)
        assert params.gamma == 26.0
        assert params.delta == 6.0

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            BreatherParams(alpha=0.0)

    def test_mkdv_residual_on_grid(self):
        g = make_grid(10 * np.pi, 1024)
        params = BreatherParams(3, 1)
        res = pde_residual(g, lambda t: breather(params, g.x, t), 0.0, p=3)
        interior = np.abs(g.x) < 0.9 * g.L
        assert res[interior].max() < 1e-6

    def test_travels_left(self):
        params = BreatherParams(3, 1)
        x = np.linspace(-20, 20, 2001)
        peak0 = x[np.argmax(np.abs(breather(params, x, 0.0)))]
        peak1 = x[np.argmax(np.abs(breather(params, x, 0.3)))]
        assert peak1 < peak0

    @pytest.mark.parametrize("t", [0.0, 1.3, 1000.0])
    def test_periodic_exact(self, t):
        # the envelope crosses the boundary at t = L/gamma = 1.2; the
        # periodized solution keeps the whole pulse (mass 2 beta M[Q] = 24)
        # on the grid at any time, without an overflow warning
        sc = get_scenario("breather")
        g = sc.make_grid()
        u = sc.exact(g.x, t)
        assert abs(inner_h(g, u, u) - 24.0) < 1e-10
        np.testing.assert_allclose(sc.exact(g.x + 2 * sc.L, t), u, rtol=0, atol=1e-10)
        if t == 0.0:
            assert np.abs(u - sc.initial(g.x)).max() < 1e-12


class TestTwoSoliton:
    def test_amplitude_ratio(self):
        assert np.isclose(TwoSolitonParams().a2, 1.0 / 25.0)

    def test_decay_at_domain_ends(self):
        g = make_grid(30 * np.pi, 2048)
        u0 = two_soliton(TwoSolitonParams(), g.x, 0.0)
        assert max(abs(u0[0]), abs(u0[-1])) < 5e-12

    def test_kdv_residual_on_grid(self):
        g = make_grid(30 * np.pi, 2048)
        params = TwoSolitonParams()
        res = pde_residual(g, lambda t: two_soliton(params, g.x, t), 0.0, p=2)
        assert res.max() < 1e-6

    def test_single_soliton_limit(self):
        params = TwoSolitonParams(x2=-500.0)  # suppress the second channel
        x = np.linspace(-40, 10, 400)
        g1 = params.gamma1
        th1 = g1 * x + params.x1
        single = 12 * g1**2 * np.exp(th1) / (1 + np.exp(th1)) ** 2
        assert np.abs(two_soliton(params, x, 0.0) - single).max() < 1e-10

    def test_overflow_safe_far_future(self):
        g = make_grid(30 * np.pi, 2048)
        with np.errstate(over="raise"):
            u = two_soliton(TwoSolitonParams(), g.x, 1e4)
        assert np.isfinite(u).all()

    def test_matches_naive_formula_in_safe_window(self):
        params = TwoSolitonParams()
        x = np.linspace(-30, 30, 301)
        t = 7.0
        th1 = params.gamma1 * x - params.gamma1**3 * t + params.x1
        th2 = params.gamma2 * x - params.gamma2**3 * t + params.x2
        a2 = params.a2
        g1, g2 = params.gamma1, params.gamma2
        num = (g1**2 * np.exp(th1) + g2**2 * np.exp(th2)
               + 2 * (g2 - g1) ** 2 * np.exp(th1 + th2)
               + a2 * (g2**2 * np.exp(th1) + g1**2 * np.exp(th2))
               * np.exp(th1 + th2))
        den = (1 + np.exp(th1) + np.exp(th2) + a2 * np.exp(th1 + th2)) ** 2
        naive = 12 * num / den
        ours = two_soliton(params, x, t)
        assert np.abs(ours - naive).max() < 1e-13 * np.abs(naive).max()

    def test_rejects_opposite_speeds(self):
        with pytest.raises(ValueError):
            TwoSolitonParams(gamma1=0.5, gamma2=-0.5)


class TestScatter:
    def test_values(self):
        assert scatter_ic(0.0) == -1.0
        assert abs(scatter_ic(30 * np.pi)) < 1e-80

    def test_cubic_integral_negative(self):
        g = make_grid(30 * np.pi, 2048)
        u0 = scatter_ic(g.x)
        val = inner_h(g, u0**3, np.ones(g.N))
        assert abs(val - (-16.0 / 15.0)) < 1e-10  # -int sech^6 = -16/15


class TestQSoliton:
    def test_constants(self):
        assert Q_SOLITON_MASS == 12.0 and Q_SOLITON_ABS_ENERGY == 2.0

    def test_quadrature_cross_check(self):
        g = make_grid(30.0, 512)
        q = np.sqrt(6.0) / np.cosh(g.x)
        mass = inner_h(g, q, q)
        qx = apply_d1(g, q)
        energy = 0.5 * inner_h(g, qx, qx) - inner_h(g, q**3, q) / 12.0
        assert abs(mass - 12.0) < 1e-10
        assert abs(abs(energy) - 2.0) < 1e-10

    def test_solves_soliton_ode(self):
        g = make_grid(30.0, 512)
        q = np.sqrt(6.0) / np.cosh(g.x)
        res = -apply_d2(g, q) + q - q**3 / 3.0
        assert np.abs(res).max() < 1e-10


class TestBreatherDiagnostics:
    def _sampled_invariants(self, params):
        g = make_grid(10 * np.pi, 1024)
        u = breather(params, g.x, 0.0)
        mass = inner_h(g, u, u)
        energy = -0.5 * inner_h(g, apply_d2(g, u), u) - inner_h(g, u**3, u) / 12.0
        return mass, energy

    def test_unit_breather(self):
        mass, energy = self._sampled_invariants(BreatherParams(3, 1))
        b, gm = breather_diagnostics(mass, energy)
        assert abs(b - 1.0) < 1e-6
        assert abs(gm - 26.0) < 1e-4

    def test_doubling_beta(self):
        mass1, _ = self._sampled_invariants(BreatherParams(3, 1))
        mass2, _ = self._sampled_invariants(BreatherParams(3, 2))
        b1, _ = breather_diagnostics(mass1, 104.0)
        b2, _ = breather_diagnostics(mass2, 104.0)
        assert abs(b2 - 2 * b1) < 1e-6

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            breather_diagnostics(-1.0, 104.0)


class TestPresets:
    @pytest.mark.parametrize("name,p,N,tau", [
        ("breather", 3, 1024, 0.02),
        ("two_soliton", 2, 2048, 0.1),
        ("scatter", 2, 2048, 0.01),
    ])
    def test_fields(self, name, p, N, tau):
        sc = get_scenario(name)
        assert sc.p == p and sc.N == N and sc.tau == tau

    def test_example_aliases(self):
        assert get_scenario("example1").name == "breather"
        assert get_scenario("example2").name == "two_soliton"
        assert get_scenario("example3").name == "scatter"

    def test_presets_are_shared_values(self):
        # a lookup returns the table's value; an override derives a new one
        preset = get_scenario("two_soliton")
        assert get_scenario("example2") is preset
        resolved = JobSpec(scenario="example2", N=256, p=3, tau=0.05).resolve_scenario()
        assert (resolved.N, resolved.p, resolved.tau) == (256, 3, 0.05)
        assert resolved.solution is None
        assert get_scenario("two_soliton") is preset
        assert (preset.N, preset.p, preset.tau) == (2048, 2, 0.1)
        assert preset.solution is not None

    def test_boundary_decay(self):
        for name in ("breather", "two_soliton", "scatter"):
            sc = get_scenario(name)
            g = sc.make_grid()
            u0 = sc.initial(g.x)
            assert max(abs(u0[0]), abs(u0[-1])) < 5e-12

    def test_truncation_warning(self):
        sc = replace(get_scenario("breather"), L=2.0, N=64)
        with pytest.warns(RuntimeWarning, match="boundary"):
            sc.make_grid()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("example9")

    def test_example2_fixed_point_tolerances(self):
        assert get_scenario("breather").fp_tol == 1e-11
        assert get_scenario("two_soliton").fp_tol == 1e-12
        assert get_scenario("scatter").fp_tol == 1e-12
