from dataclasses import replace

import numpy as np
import pytest

from gkdv.diagnostics import max_drifts
from gkdv.integrators import (
    _MCN_EXTRAP,
    COLLOCATION_STAGES,
    SCHEMES,
    Etdrk4Stepper,
    FixedPointError,
    SavIrkStepper,
    StepperConfig,
    _fixed_point,
    cn_dispersion_step,
    etdrk4_coefficients,
    etdrk4_coefficients_direct,
    evolve,
    make_stepper,
)
from gkdv.sav import (
    AdjustmentRequired,
    C0Policy,
    SavState,
    init_sav,
    invariants,
    mass_drift_bound,
)
from gkdv.scenarios import get_scenario
from gkdv.spectral import inner_h, make_grid

from conftest import random_smooth_field


def small_state(g, rng, p=2, amp=0.5):
    u = random_smooth_field(g, rng, amp=amp)
    return init_sav(g, u, p)


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(tau=0.0)
        with pytest.raises(ValueError):
            StepperConfig(tau=0.1, fp_tol=0.0)
        with pytest.raises(ValueError):
            StepperConfig(tau=0.1, fp_max_iter=0)
        with pytest.raises(ValueError):
            StepperConfig(tau=0.1, scheme="RK99")
        assert StepperConfig(tau=-0.1).tau == -0.1  # a backward stepper

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="tau must be finite"):
            StepperConfig(tau=bad)
        with pytest.raises(ValueError, match="fp_tol must be finite"):
            StepperConfig(tau=0.1, fp_tol=abs(bad))


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_zero_state_stays_zero(grid128, scheme):
    # two steps, so SAV-LF's leap-frog kernel runs after its MCN start
    st = init_sav(grid128, np.zeros(grid128.N), 2)
    stepper = make_stepper(scheme, grid128, StepperConfig(tau=0.01), st)
    for _ in range(2):
        stats = stepper.advance()
    assert np.abs(stepper.u).max() == 0.0
    assert stepper.v == (st.v if scheme.startswith("SAV") else None)
    # collocation: the solve from the guess, then one sweep to confirm it
    expected = {"SS": 2, "SAV-LF": 0, "mETDRK4": 0, "MCN": 1}.get(scheme, 2)
    assert stats.iterations == expected


def test_fixed_point_stops_at_first_nonfinite_residual():
    calls = []

    def sweep(x):
        calls.append(1)
        return x + 1.0 if len(calls) < 3 else np.full_like(x, np.nan)

    with pytest.raises(FixedPointError, match="diverged") as exc:
        _fixed_point(sweep, np.zeros(4), StepperConfig(tau=0.1))
    assert len(calls) == 3
    assert np.isnan(exc.value.residual)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_stage_flux_tracked_for_collocation_only(grid128, rng, scheme):
    st = small_state(grid128, rng)
    cfg = StepperConfig(tau=0.005, fp_tol=1e-12)
    log = evolve(scheme, st, grid128, cfg, T=0.02)
    collocation = "IRK" in scheme
    assert (log.flux_max_series[-1] > 0.0) == collocation
    assert log.flux_max_series[0] == 0.0


@pytest.mark.parametrize("scheme", [s for s in SCHEMES if "IRK" in s])
def test_collocation_order_2s(scheme):
    # non-stiff setting, against SAV-IRK8 at tau = 1/64: the observed order
    # from tau = 1 to 0.5 is 1.93, 3.98, 5.99 and 7.99 for s = 1..4
    g = make_grid(8 * np.pi, 16)
    u0 = 1.0 / np.cosh(g.x / 4) ** 2

    def final(name, tau):
        cfg = StepperConfig(tau=tau, fp_tol=1e-14)
        return evolve(name, init_sav(g, u0, 2), g, cfg, T=8.0).final_u

    ref = final("SAV-IRK8", 1 / 64)
    e1, e2 = (np.abs(final(scheme, tau) - ref).max() for tau in (1.0, 0.5))
    assert abs(np.log2(e1 / e2) - SCHEMES[scheme].order) < 0.15


def test_collocation_schemes_registered_for_every_stage_count():
    collocation = [f"{kind}{2 * s}" for kind in ("SAV-IRK", "IRK")
                   for s in COLLOCATION_STAGES]
    assert list(SCHEMES) == collocation + ["MCN", "SAV-LF", "SS", "mETDRK4"]
    for s in COLLOCATION_STAGES:
        assert SCHEMES[f"SAV-IRK{2 * s}"].order == SCHEMES[f"IRK{2 * s}"].order == 2 * s


class TestWarmStart:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_extrapolation_exact_on_degree_s(self, grid128, rng, s):
        st = small_state(grid128, rng)
        stepper = make_stepper(f"SAV-IRK{2 * s}", grid128, StepperConfig(tau=0.1), st)
        E, c = stepper._extrap, stepper.tab.c
        nodes = np.append(c - 1.0, 0.0)
        assert E.shape == (s, s + 1)
        for deg in range(s + 1):
            coef = rng.standard_normal(deg + 1)
            np.testing.assert_allclose(E @ np.polyval(coef, nodes),
                                       np.polyval(coef, c), rtol=0, atol=1e-13)
        if s == 1:
            np.testing.assert_allclose(E, [[-1.0, 2.0]], rtol=0, atol=1e-15)

    def test_mcn_weights_exact_on_quadratics(self, rng):
        np.testing.assert_array_equal(_MCN_EXTRAP, [1.0, -3.0, 3.0])
        for deg in range(3):
            coef = rng.standard_normal(deg + 1)
            vals = np.polyval(coef, np.array([-2.0, -1.0, 0.0]))
            assert abs(_MCN_EXTRAP @ vals - np.polyval(coef, 1.0)) < 1e-13

    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-IRK6",
                                        "IRK4", "MCN"])
    def test_warm_step_matches_cold_step(self, grid128, rng, scheme):
        g = grid128
        u = random_smooth_field(g, rng, kfrac=1.0 / 16.0, amp=0.5)
        cfg = StepperConfig(tau=0.02, fp_tol=1e-12)
        warm = make_stepper(scheme, g, cfg, init_sav(g, u, 2))
        for _ in range(3):
            warm.advance()
        cold = make_stepper(scheme, g, cfg, warm.state)
        warm_stats, cold_stats = warm.advance(), cold.advance()
        assert np.abs(warm.u - cold.u).max() < 10 * cfg.fp_tol
        if warm.v is not None:
            assert abs(warm.v - cold.v) < 10 * cfg.fp_tol
        assert warm_stats.iterations <= cold_stats.iterations

    @pytest.mark.parametrize("scheme", ["SAV-IRK4", "IRK4", "MCN"])
    def test_failed_step_keeps_history(self, grid128, rng, scheme):
        g = grid128
        st = small_state(g, rng)
        cfg = StepperConfig(tau=0.02, fp_tol=1e-12)
        failing, clean = (make_stepper(scheme, g, cfg, st) for _ in range(2))
        for _ in range(3):
            failing.advance()
            clean.advance()
        kept = np.array(failing._history, copy=True)
        failing.cfg = StepperConfig(tau=0.02, fp_tol=1e-300, fp_max_iter=1)
        with pytest.raises(FixedPointError):
            failing.advance()
        np.testing.assert_array_equal(np.array(failing._history), kept)
        failing.cfg = cfg  # the retry starts from the same guess
        assert failing.advance() == clean.advance()
        np.testing.assert_array_equal(failing.u, clean.u)

    @pytest.mark.parametrize("tau", [5e-3, 2e-2])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-IRK6",
                                        "IRK4", "MCN"])
    def test_random_field_stress(self, scheme, p, tau):
        # p = 3 on a dealiased grid; the first steps of SAV-IRK4/6 at the
        # larger tau once drove a stage radicand negative from a cold start
        g = make_grid(2.0 * np.pi, 128, dealias=p == 3)
        u = random_smooth_field(g, np.random.default_rng(3), kfrac=0.3, amp=1.0)
        cfg = StepperConfig(tau=tau, fp_tol=1e-12)
        log = evolve(scheme, init_sav(g, u, p), g, cfg, T=0.2)
        assert log.blowup_time is None
        I = np.array([r.momentum for r in log.records])
        assert np.abs(I - I[0]).max() < 100 * cfg.fp_tol
        # IRK4 keeps no energy; MCN's physical energy is exact only unfiltered
        if scheme.startswith("SAV") or (scheme == "MCN" and not g.dealias):
            E = np.array([r.energy_mod for r in log.records])
            assert np.abs(E - E[0]).max() < 100 * cfg.fp_tol


class TestSavIrk:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_time_reversal_round_trip(self, grid128, rng, s):
        st = small_state(grid128, rng)
        cfg = StepperConfig(tau=0.05, fp_tol=1e-13)
        stepper = make_stepper(f"SAV-IRK{2*s}", grid128, cfg, st)
        stepper.advance()
        back = make_stepper(f"SAV-IRK{2*s}", grid128, replace(cfg, tau=-cfg.tau),
                            SavState(u=stepper.u, v=stepper.v, c0=stepper.c0, p=stepper.p))
        back.advance()
        assert np.abs(back.u - st.u).max() < 10 * cfg.fp_tol
        assert abs(back.v - st.v) < 10 * cfg.fp_tol

    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-IRK6"])
    def test_conservation_and_mass_bound(self, grid128, rng, scheme):
        g = grid128
        st = small_state(g, rng)
        cfg = StepperConfig(tau=0.02, fp_tol=1e-12, scheme=scheme)
        log = evolve(scheme, st, g, cfg, T=1.0, sample_every=1)
        I = np.array([r.momentum for r in log.records])
        E = np.array([r.energy_mod for r in log.records])
        M = np.array([r.mass for r in log.records])
        assert np.abs(I - I[0]).max() < 100 * cfg.fp_tol
        assert np.abs(E - E[0]).max() < 100 * cfg.fp_tol
        # a-posteriori mass bound, up to the fixed-point noise floor
        for k, rec in enumerate(log.records):
            bound = mass_drift_bound(g, st.p, rec.t, log.flux_max_series[k])
            assert abs(M[k] - M[0]) <= bound + 10 * cfg.fp_tol

    @pytest.mark.parametrize("scheme", ["SAV-IRK4", "SAV-IRK6"])
    def test_conservation_on_dealiased_grid(self, rng, scheme):
        g = make_grid(2.0 * np.pi, 128, dealias=True)
        # wide enough band that the 2/3 rule removes part of u^3
        u = random_smooth_field(g, rng, kfrac=0.3, amp=1.0)
        cfg = StepperConfig(tau=0.01, fp_tol=1e-12)
        log = evolve(scheme, init_sav(g, u, 3), g, cfg, T=0.5)
        I = np.array([r.momentum for r in log.records])
        E = np.array([r.energy_mod for r in log.records])
        assert np.abs(I - I[0]).max() < 10 * cfg.fp_tol
        assert np.abs(E - E[0]).max() < 10 * cfg.fp_tol

    def test_eighth_order_conserves_on_two_soliton(self):
        sc = get_scenario("two_soliton")
        g = sc.make_grid()
        policy = C0Policy(target=sc.c0_target)
        state = init_sav(g, sc.initial(g.x), sc.p, policy)
        cfg = StepperConfig(tau=0.1, fp_tol=sc.fp_tol)
        log = evolve("SAV-IRK8", state, g, cfg, T=20.0, policy=policy)
        assert log.blowup_time is None
        for q, drift in max_drifts(log).items():
            assert drift <= 1e-10, q

    def test_nonconvergence_carries_partial_log(self, grid128, rng):
        st = small_state(grid128, rng, amp=1.5)
        cfg = StepperConfig(tau=0.5, fp_tol=1e-14, fp_max_iter=2,
                            scheme="SAV-IRK4")
        with pytest.raises(FixedPointError) as exc:
            evolve("SAV-IRK4", st, grid128, cfg, T=5.0)
        assert np.isfinite(exc.value.residual)
        assert exc.value.partial_log.records


class TestDirectIrk:
    def test_momentum_conserved(self, grid128, rng):
        u = random_smooth_field(grid128, rng, amp=0.5)
        cfg = StepperConfig(tau=0.02, fp_tol=1e-13)
        ones = np.ones(grid128.N)
        stepper = make_stepper("IRK4", grid128, cfg, init_sav(grid128, u, 2))
        stepper.advance()
        assert abs(inner_h(grid128, stepper.u - u, ones)) < 1e-11


class TestMcn:
    def test_zero_and_constant(self, grid128):
        cfg = StepperConfig(tau=0.05)

        def step(u0):
            stepper = make_stepper("MCN", grid128, cfg, init_sav(grid128, u0, 2))
            stepper.advance()
            return stepper.u

        assert np.abs(step(np.zeros(grid128.N))).max() == 0.0
        const = np.full(grid128.N, 1.3)
        u1 = step(const)  # w = u at every node: the quotient must not divide
        assert np.abs(u1 - const).max() < 1e-11

    def test_momentum_energy_conserved_1000_steps(self, rng):
        g = make_grid(np.pi, 128)
        u = random_smooth_field(g, rng, amp=0.4)
        cfg = StepperConfig(tau=1e-3, fp_tol=1e-12, scheme="MCN")
        log = evolve("MCN", init_sav(g, u, 2), g, cfg, T=1.0,
                     sample_every=100)
        I = np.array([r.momentum for r in log.records])
        E = np.array([r.energy for r in log.records])
        assert np.abs(I - I[0]).max() < 10 * cfg.fp_tol
        assert np.abs(E - E[0]).max() < 10 * cfg.fp_tol

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_momentum_energy_conserved_any_p(self, grid128, rng, p):
        g = grid128
        st = init_sav(g, random_smooth_field(g, rng, amp=1.0), p)
        cfg = StepperConfig(tau=2e-3, fp_tol=1e-12)
        stepper = make_stepper("MCN", g, cfg, st)
        for _ in range(200):
            stepper.advance()
        before = invariants(st, g)
        after = invariants(SavState(u=stepper.u, v=st.v, c0=st.c0, p=p), g)
        assert abs(after.momentum - before.momentum) < 10 * cfg.fp_tol
        assert abs(after.energy - before.energy) < 10 * cfg.fp_tol


class TestSavLeapFrog:
    def test_momentum_two_level(self, grid128, rng):
        g = grid128
        u_prev = random_smooth_field(g, rng, amp=0.5)
        u_curr = random_smooth_field(g, rng, amp=0.5)
        v_prev = float(np.sqrt(inner_h(g, u_prev**2, u_prev) + 10.0))
        v_curr = float(np.sqrt(inner_h(g, u_curr**2, u_curr) + 10.0))
        stepper = make_stepper("SAV-LF", g, StepperConfig(tau=5e-3),
                               SavState(u=u_curr, v=v_curr, c0=10.0, p=2))
        stepper._u_prev, stepper._v_prev = u_prev, v_prev
        stepper.advance()
        ones = np.ones(g.N)
        drift = inner_h(g, stepper.u, ones) - inner_h(g, u_prev, ones)
        assert abs(drift) < 1e-12 * max(1.0, abs(inner_h(g, u_prev, ones)))

    def test_first_step_is_one_mcn_step(self, grid128, rng):
        g = grid128
        st = small_state(g, rng)
        cfg = StepperConfig(tau=5e-3, fp_tol=1e-12)
        lf, mcn = make_stepper("SAV-LF", g, cfg, st), make_stepper("MCN", g, cfg, st)
        assert lf.advance().iterations == mcn.advance().iterations
        np.testing.assert_array_equal(lf.u, mcn.u)
        assert lf.v == np.sqrt(inner_h(g, lf.u**2, lf.u) + st.c0)


class TestStrang:
    def test_dispersion_substep_is_unitary(self, grid128):
        g = grid128
        u = np.sin(2 * np.pi * g.x / g.L)
        out = cn_dispersion_step(g, 0.3, u)
        assert np.isclose(np.abs(np.fft.rfft(out)).max(),
                          np.abs(np.fft.rfft(u)).max(), rtol=1e-14)

    def test_second_order_on_smooth_data(self, grid128, rng):
        # low-wavenumber data so the splitting error is in its asymptotic range
        g = grid128
        u0 = random_smooth_field(g, rng, kfrac=1.0 / 16.0, amp=0.3)
        cfg_fine = StepperConfig(tau=2.5e-4, fp_tol=1e-13, scheme="SS")
        ref = evolve("SS", init_sav(g, u0, 2), g, cfg_fine, T=0.5).final_u
        errs = []
        for tau in (0.01, 0.005):
            cfg = StepperConfig(tau=tau, fp_tol=1e-13, scheme="SS")
            log = evolve("SS", init_sav(g, u0, 2), g, cfg, T=0.5)
            errs.append(np.abs(log.final_u - ref).max())
        rate = errs[0] / errs[1]
        assert 3.0 < rate < 5.0


class TestEtdrk4:
    def test_pure_linear_flow(self, grid128, rng, monkeypatch):
        g = grid128
        u = random_smooth_field(g, rng)
        cfg = StepperConfig(tau=0.01, scheme="mETDRK4")
        st = Etdrk4Stepper(g, cfg, SavState(u=u, v=1.0, c0=10.0, p=2))
        monkeypatch.setattr(
            st, "_nonlinear_hat",
            lambda field: np.zeros(g.nmodes, dtype=complex),
        )
        st.advance()
        expected = g.from_modes(np.exp(cfg.tau * (-g.k3)) * g.to_modes(u))
        assert np.abs(st.u - expected).max() < 1e-14 * max(1.0, np.abs(u).max())

    def test_contour_matches_direct_formulas(self):
        g = make_grid(30 * np.pi, 2048)
        tau = 0.01
        co = etdrk4_coefficients(g, tau)
        di = etdrk4_coefficients_direct(g, tau)
        z = tau * np.abs(g.k3)
        mask = z > 0.5
        for name in ("Q", "g1", "g2", "g3"):
            rel = np.abs(co[name][mask] - di[name][mask]) / np.abs(di[name][mask])
            assert rel.max() < 1e-12, name

    def test_coefficients_smooth_through_origin(self):
        g = make_grid(30 * np.pi, 2048)
        co = etdrk4_coefficients(g, 0.01)
        for name in ("Q", "g1", "g2", "g3"):
            a = np.abs(co[name][:60])
            assert np.isfinite(co[name]).all()
            spikes = a[1:-1] / np.maximum(a[:-2], a[2:])
            assert spikes.max() < 10.0, name

    def test_cfl_warning(self, grid128, rng):
        u = random_smooth_field(grid128, rng)
        cfg = StepperConfig(tau=10.0 * grid128.h, scheme="mETDRK4")
        with pytest.warns(RuntimeWarning, match="CFL"):
            Etdrk4Stepper(grid128, cfg, SavState(u=u, v=1.0, c0=10.0, p=2))


class TestEvolve:
    def test_t_zero_single_record(self, grid128, rng):
        st = small_state(grid128, rng)
        cfg = StepperConfig(tau=0.1, scheme="SAV-IRK4")
        log = evolve("SAV-IRK4", st, grid128, cfg, T=0.0)
        assert len(log.records) == 1
        assert log.records[0].t == 0.0

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_partial_final_step(self, grid128, rng, scheme):
        st = small_state(grid128, rng)
        cfg = StepperConfig(tau=0.03, fp_tol=1e-12)
        log = evolve(scheme, st, grid128, cfg, T=0.1, sample_every=1)
        np.testing.assert_allclose(log.times, [0.0, 0.03, 0.06, 0.09, 0.1],
                                   atol=1e-12)
        assert log.times[-1] == 0.1
        # the stepper of the remainder carries the running stage-flux maximum
        assert log.flux_max_series[-1] >= log.flux_max_series[-2]

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_non_finite_final_time_rejected(self, grid128, rng, T):
        st = small_state(grid128, rng)
        with pytest.raises(ValueError, match="final time T must be finite"):
            evolve("SAV-IRK4", st, grid128, StepperConfig(tau=0.1), T=T)

    def test_negative_tau_rejected(self, grid128, rng):
        st = small_state(grid128, rng)
        with pytest.raises(ValueError, match="tau must be positive, got -0.1"):
            evolve("SAV-IRK4", st, grid128, StepperConfig(tau=-0.1), T=1.0)

    def test_blowup_detection(self):
        g = make_grid(10 * np.pi, 256)
        u = 6.0 * np.exp(-g.x**2)
        cfg = StepperConfig(tau=10.0 * g.h, fp_tol=1e-12, scheme="mETDRK4")
        with pytest.warns(RuntimeWarning):
            log = evolve("mETDRK4", init_sav(g, u, 2), g, cfg, T=10.0)
        assert log.blowup_time is not None and log.blowup_time < 10.0
        assert all(np.isfinite(r.mass) for r in log.records)

    def test_c0_adjustment_mid_run(self, grid128):
        g = grid128
        u = -0.8 * np.exp(-(g.x * 2) ** 2)
        s = inner_h(g, u**2, u)
        # start with the radicand just under the trigger tolerance
        st = SavState(u=u, v=float(np.sqrt(s + (4.0 - s))), c0=4.0 - s, p=2)
        cfg = StepperConfig(tau=0.01, fp_tol=1e-12, scheme="SAV-IRK4")
        log = evolve("SAV-IRK4", st, g, cfg, T=0.1, sample_every=1)
        assert log.c0_adjustments >= 1
        E = np.array([r.energy_mod for r in log.records])
        assert np.abs(E - E[0]).max() < 1e-10  # shift keeps modified energy

    def test_failed_retry_after_c0_shift_is_annotated(self, grid128, rng,
                                                      monkeypatch):
        calls = []

        def advance(self):
            calls.append(self.cfg.tau)
            if len(calls) == 1:
                raise AdjustmentRequired("stage radicand dropped")
            raise FixedPointError("stage iteration did not converge", residual=1.0)

        monkeypatch.setattr(SavIrkStepper, "advance", advance)
        st = small_state(grid128, rng)
        with pytest.raises(FixedPointError) as exc:
            evolve("SAV-IRK4", st, grid128, StepperConfig(tau=0.1), T=1.0)
        assert str(exc.value).startswith("step 1 (t=")
        assert exc.value.residual == 1.0
        assert exc.value.partial_log.records
        assert exc.value.partial_log.c0_adjustments == 1
        assert len(calls) == 2

    def test_failed_retry_adjustment_is_annotated(self, grid128, rng,
                                                   monkeypatch):
        def advance(self):
            raise AdjustmentRequired("stage radicand dropped")

        monkeypatch.setattr(SavIrkStepper, "advance", advance)
        st = small_state(grid128, rng)
        with pytest.raises(AdjustmentRequired) as exc:
            evolve("SAV-IRK4", st, grid128, StepperConfig(tau=0.1), T=1.0)
        assert str(exc.value).startswith("step 1 (t=")
        assert exc.value.partial_log.records
        assert exc.value.partial_log.c0_adjustments == 1

    def test_unknown_scheme(self, grid128, rng):
        st = small_state(grid128, rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            evolve("RK4", st, grid128, StepperConfig(tau=0.1), T=1.0)
