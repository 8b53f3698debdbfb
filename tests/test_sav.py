import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gkdv.sav import (
    C0Policy,
    C0ShiftError,
    SavState,
    adjust_c0,
    init_sav,
    invariants,
    mass_drift_bound,
    nonlinear_power,
    radicand_root,
    rhs_f,
    stage_flux,
)
from gkdv.scenarios import breather, BreatherParams
from gkdv.spectral import SpectralGrid, inner_h, make_grid

from conftest import random_smooth_field
from oracles import apply_d1, apply_d2, d2u_u_quadrature, norm_h, rhs_g


def random_state(g, rng, p):
    u = random_smooth_field(g, rng, amp=1.5)
    st = init_sav(g, u, p)
    # perturb v so the v/sqrt(radicand) ratio is not trivially one
    return SavState(u=st.u, v=st.v * (1 + 0.1 * rng.standard_normal()),
                    c0=st.c0, p=p)


class TestNonlinearPower:
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_matches_pow_within_4_ulp(self, rng, p, dealias):
        eps = np.finfo(float).eps
        g = make_grid(np.pi, 256, dealias=dealias)
        U = rng.uniform(-2.0, 2.0, (3, g.N))
        batch = nonlinear_power(g, U, p)
        ref = g.filter_23(U**p) if dealias else U**p
        gap = np.abs(batch - ref)
        if dealias:  # the filter spreads each point's error over the field
            assert (gap.max(axis=1) <= 4 * eps * np.abs(ref).max(axis=1)).all()
        else:
            assert (gap <= 4 * eps * np.abs(ref)).all()
        for i in range(U.shape[0]):  # each batch row equals the 1-D call
            assert np.array_equal(batch[i], nonlinear_power(g, U[i], p))
        out = np.empty_like(U)  # the same power built in a given array, filtered too
        into = nonlinear_power(g, U, p, out=out)
        assert np.array_equal(into, batch) and into is out


class TestInitSav:
    def test_zero_field_default_policy(self, grid64):
        st = init_sav(grid64, np.zeros(grid64.N), 2)
        assert st.c0 == 10.0
        assert np.isclose(st.v, np.sqrt(10.0))

    def test_breather_initial_state(self):
        g = make_grid(10 * np.pi, 1024)
        u0 = breather(BreatherParams(), g.x, 0.0)
        st = init_sav(g, u0, 3)
        s = g.h * np.sum(u0**4)  # direct quadrature of the quartic integral
        assert np.isclose(st.v, np.sqrt(s + st.c0), rtol=1e-13)
        assert st.v > 0

    def test_mkdv_radicand_nonnegative(self, grid64, rng):
        for _ in range(5):
            u = random_smooth_field(grid64, rng, amp=3.0)
            s = inner_h(grid64, u**3, u)
            assert s >= 0  # p + 1 even: any positive shift is valid

    def test_negative_integral_gets_shifted(self, grid64):
        u = -np.exp(-grid64.x**2)  # (u^2, u)_h < 0
        st = init_sav(grid64, u, 2)
        s = inner_h(grid64, u**2, u)
        assert np.isclose(st.c0, 10.0 - s)
        assert np.isclose(st.v**2, 10.0)

    def test_rejects_small_p(self, grid64):
        with pytest.raises(ValueError):
            SavState(u=np.zeros(grid64.N), v=1.0, c0=10.0, p=1)

    @pytest.mark.parametrize("target", [-1.0, 0.0, np.nan])
    def test_policy_rejects_a_target_that_is_not_positive(self, target):
        # init_sav would take v = sqrt(target) of a small field: NaN
        with pytest.raises(ValueError, match="C0 target must be positive"):
            C0Policy(target=target)


class TestRhs:
    def test_zero_state(self, grid64):
        st = init_sav(grid64, np.zeros(grid64.N), 2)
        assert np.abs(rhs_f(st, grid64)).max() == 0.0
        assert rhs_g(st, grid64, np.zeros(grid64.N)) == 0.0

    def test_constant_state(self, grid64):
        st = init_sav(grid64, np.full(grid64.N, 2.5), 2)
        assert np.abs(rhs_f(st, grid64)).max() < 1e-12

    def test_zero_udot(self, grid64, rng):
        st = random_state(grid64, rng, 2)
        assert rhs_g(st, grid64, np.zeros(grid64.N)) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_momentum_consistency(self, grid64, rng, p):
        st = random_state(grid64, rng, p)
        f = rhs_f(st, grid64)
        ones = np.ones(grid64.N)
        assert abs(inner_h(grid64, f, ones)) < 1e-12 * max(1.0, norm_h(grid64, f))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_energy_consistency(self, grid64, rng, p):
        g = grid64
        st = random_state(g, rng, p)
        f = rhs_f(st, g)
        gv = rhs_g(st, g, f)
        val = -inner_h(g, apply_d2(g, st.u), f) - 2.0 / (p * (p + 1)) * st.v * gv
        scale = max(1.0, abs(inner_h(g, apply_d2(g, st.u), f)))
        assert abs(val) < 1e-10 * scale

    @pytest.mark.parametrize("p", [2, 3])
    def test_mass_derivative_identity(self, grid64, rng, p):
        g = grid64
        st = random_state(g, rng, p)
        f = rhs_f(st, g)
        lhs = inner_h(g, f, st.u)
        rhs = -(2.0 * g.h / p) * np.dot(st.u, apply_d1(g, st.u**p))
        # both sides are spectrally tiny for band-limited fields
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_is_the_derivative_oracles_composed_bit_for_bit(self, rng, p, dealias):
        g = make_grid(2 * np.pi, 128, dealias=dealias)
        for _ in range(3):
            st = random_state(g, rng, p)
            up = nonlinear_power(g, st.u, p)
            root = radicand_root(inner_h(g, up, st.u) + st.c0)
            expected = -apply_d1(g, apply_d2(g, st.u) + up * (st.v / (p * root)))
            assert np.array_equal(rhs_f(st, g), expected)


class TestAdjustC0:
    def _state_with_negative_integral(self, g):
        # constant field with (u^2, u)_h = -6 on [-L, L]
        a = -np.cbrt(6.0 / (2 * g.L))
        return SavState(u=np.full(g.N, a), v=1.0, c0=5.0, p=2)

    def test_shift_arithmetic(self, grid64):
        st = self._state_with_negative_integral(grid64)
        new = adjust_c0(st, grid64)
        assert np.isclose(new.c0, 16.0)
        assert np.isclose(new.v, np.sqrt(12.0))

    def test_modified_energy_preserved(self, grid64, rng):
        st = random_state(grid64, rng, 2)
        before = invariants(st, grid64).energy_mod
        after = invariants(adjust_c0(st, grid64), grid64).energy_mod
        assert abs(before - after) < 1e-13 * max(1.0, abs(before))

    def test_mkdv_default_policy_never_triggers(self, grid64, rng):
        policy = C0Policy()
        for _ in range(5):
            u = random_smooth_field(grid64, rng, amp=2.0)
            st = init_sav(grid64, u, 3, policy)
            rad = inner_h(grid64, st.u**3, st.u) + st.c0
            assert rad >= policy.target > policy.tol

    @pytest.mark.parametrize("s", [-2.6e20, 2.6e20])
    def test_target_lost_to_rounding_is_fatal(self, grid64, s):
        # doubles near 2.6e20 are 32768 apart, so target - s rounds to -s
        st = SavState(u=np.zeros(grid64.N), v=1.0, c0=5.0, p=2)
        with pytest.raises(C0ShiftError, match=re.escape(f"s = {s:.3e}")):
            adjust_c0(st, grid64, s=s)

    def test_target_kept_at_large_s(self, grid64):
        # doubles near 1e15 are 0.125 apart: the radicand lands near the target
        st = SavState(u=np.zeros(grid64.N), v=1.0, c0=5.0, p=2)
        new = adjust_c0(st, grid64, s=-1e15)
        assert abs(-1e15 + new.c0 - 10.0) <= 0.125

    def test_inconsistent_state_is_fatal(self, grid64):
        u = np.full(grid64.N, 0.5)
        st = SavState(u=u, v=0.1, c0=1000.0, p=2)
        with pytest.raises(C0ShiftError, match=r"has drifted below \(u\^p, u\)_h"):
            adjust_c0(st, grid64)


class TestInvariants:
    def test_zero_state(self, grid64):
        st = init_sav(grid64, np.zeros(grid64.N), 2)
        rec = invariants(st, grid64)
        assert rec.momentum == rec.mass == rec.energy == 0.0
        assert abs(rec.energy_mod) < 1e-15  # v*v - c0 only vanishes to rounding

    @pytest.mark.parametrize("p", [2, 3])
    def test_unit_constant(self, p):
        g = make_grid(2.0, 32)
        st = init_sav(g, np.ones(g.N), p)
        rec = invariants(st, g)
        assert np.isclose(rec.momentum, 2 * g.L)
        assert np.isclose(rec.mass, 2 * g.L)
        assert np.isclose(rec.energy, -2 * g.L / (p * (p + 1)))
        assert np.isclose(rec.energy_mod, rec.energy)

    def test_state_without_v_reports_physical_energy(self, grid64, rng):
        u = random_smooth_field(grid64, rng, amp=1.5)
        rec = invariants(SavState(u=u, v=None, c0=3.0, p=3), grid64)
        assert rec.energy_mod == rec.energy
        assert rec.energy == invariants(init_sav(grid64, u, 3), grid64).energy

    def test_q_soliton_energy(self):
        g = make_grid(30.0, 512)
        q = np.sqrt(6.0) / np.cosh(g.x)
        st = init_sav(g, q, 3)
        rec = invariants(st, g)
        assert abs(rec.energy - (-2.0)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(N=hs.sampled_from([8, 16, 32, 64, 128, 256]),
           L=hs.floats(0.1, 100.0), p=hs.integers(2, 6), dealias=hs.booleans(),
           amp=hs.floats(1e-3, 10.0), nyquist=hs.floats(-1.0, 1.0),
           smooth=hs.booleans(), seed=hs.integers(0, 2**32 - 1))
    def test_energy_matches_quadrature_oracle(self, N, L, p, dealias, amp,
                                              nyquist, smooth, seed):
        # Parseval against transforming D2 u back to the nodes: the two
        # differ by rounding only, measured at up to 1.3 ulp of the scale
        rng = np.random.default_rng(seed)
        g = make_grid(L, N, dealias=dealias)
        base = (random_smooth_field(g, rng, kfrac=0.5) if smooth
                else rng.standard_normal(N))
        u = amp * (base / np.abs(base).max() + nyquist * (-1.0) ** np.arange(N))
        sav = init_sav(g, u, p)
        rec = invariants(sav, g)

        d2u_u = d2u_u_quadrature(g, u)
        s = inner_h(g, nonlinear_power(g, u, p), u)
        pp1 = p * (p + 1)
        scale = g.h * np.abs(apply_d2(g, u) * u).sum() + abs(s) / pp1
        tol = 4 * np.finfo(float).eps * scale
        assert abs(rec.energy - (-0.5 * d2u_u - s / pp1)) <= tol
        assert abs(rec.energy_mod - (-0.5 * d2u_u - (sav.v**2 - sav.c0) / pp1)) <= tol

    def test_sample_from_spectrum_makes_no_transform(self, grid64, rng, monkeypatch):
        sav = random_state(grid64, rng, 3)
        uh = grid64.to_modes(sav.u)
        s = inner_h(grid64, nonlinear_power(grid64, sav.u, 3), sav.u)
        expected = invariants(sav, grid64, t=0.5)

        def no_transform(*args, **kwargs):
            raise AssertionError("invariants transformed a field")

        monkeypatch.setattr(SpectralGrid, "to_modes", no_transform)
        monkeypatch.setattr(SpectralGrid, "from_modes", no_transform)
        assert invariants(sav, grid64, t=0.5, uh=uh, s=s) == expected


class TestMassDriftBound:
    def test_no_tracked_flux(self, grid64):
        # schemes that track no stage flux keep flux_max at 0.0
        assert mass_drift_bound(grid64, 2, 5.0, 0.0) == 0.0

    def test_constant_stages(self, grid64):
        U = np.stack([np.ones(grid64.N), np.full(grid64.N, 2.0)])
        flux = stage_flux(grid64, U, nonlinear_power(grid64, U, 2))
        assert mass_drift_bound(grid64, 2, 1.0, flux) < 1e-12

    def test_single_stage_at_t0(self, grid64, rng):
        u = random_smooth_field(grid64, rng)
        flux = stage_flux(grid64, u, nonlinear_power(grid64, u, 2))
        assert mass_drift_bound(grid64, 2, 0.0, flux) == 0.0

    def test_scales_linearly_with_time(self, grid64, rng):
        u = rng.standard_normal(grid64.N)  # aliased field: flux is nonzero
        flux = stage_flux(grid64, u, nonlinear_power(grid64, u, 2))
        b1 = mass_drift_bound(grid64, 2, 1.0, flux)
        assert b1 == 4.0 * grid64.h / 2 * flux > 0.0
        assert np.isclose(mass_drift_bound(grid64, 2, 2.0, flux), 2 * b1)


class TestStageFlux:
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("p", [2, 3])
    def test_stack_is_max_of_rows(self, rng, p, dealias):
        g = make_grid(np.pi, 64, dealias=dealias)
        U = rng.standard_normal((3, g.N))  # aliased fields: each flux nonzero
        N = nonlinear_power(g, U, p)
        rows = [abs(float(np.dot(u, apply_d1(g, n)))) for u, n in zip(U, N)]
        assert [stage_flux(g, u, n) for u, n in zip(U, N)] == rows
        assert stage_flux(g, U, N) == max(rows)
