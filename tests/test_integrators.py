import numpy as np
import pytest

from gkdv.integrators import (
    SCHEMES,
    Etdrk4Stepper,
    FixedPointError,
    SavIrkStepper,
    StepperConfig,
    cn_dispersion_step,
    etdrk4_coefficients,
    etdrk4_coefficients_direct,
    evolve,
    make_stepper,
    sav_lf_step_impl,
)
from gkdv.sav import AdjustmentRequired, SavState, init_sav
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


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_zero_state_stays_zero(grid128, scheme):
    # two steps, so SAV-LF's leap-frog kernel runs after its MCN start
    st = init_sav(grid128, np.zeros(grid128.N), 2)
    stepper = make_stepper(scheme, grid128, StepperConfig(tau=0.01), st)
    for _ in range(2):
        stats = stepper.advance()
    assert np.abs(stepper.u).max() == 0.0
    assert stepper.v == (st.v if scheme.startswith("SAV") else None)
    assert stats.iterations == {"SS": 2, "SAV-LF": 0, "mETDRK4": 0}.get(scheme, 1)


class TestSavIrk:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_time_reversal_round_trip(self, grid128, rng, s):
        st = small_state(grid128, rng)
        cfg = StepperConfig(tau=0.05, fp_tol=1e-13)
        stepper = make_stepper(f"SAV-IRK{2*s}", grid128, cfg, st)
        stepper.advance()
        stepper.advance(-cfg.tau)
        assert np.abs(stepper.u - st.u).max() < 10 * cfg.fp_tol
        assert abs(stepper.v - st.v) < 10 * cfg.fp_tol

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
            bound = rec.t * (4 * g.h / st.p) * log.flux_max_series[k]
            assert abs(M[k] - M[0]) <= bound + 10 * cfg.fp_tol

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
        u1 = step(const)  # exercises the 0/0 limit path
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


class TestSavLeapFrog:
    def test_momentum_two_level(self, grid128, rng):
        g = grid128
        u_prev = random_smooth_field(g, rng, amp=0.5)
        u_curr = random_smooth_field(g, rng, amp=0.5)
        v_prev = float(np.sqrt(inner_h(g, u_prev**2, u_prev) + 10.0))
        u_next, _ = sav_lf_step_impl(g, u_prev, u_curr, v_prev, 2, 10.0, 5e-3)
        ones = np.ones(g.N)
        drift = inner_h(g, u_next, ones) - inner_h(g, u_prev, ones)
        assert abs(drift) < 1e-12 * max(1.0, abs(inner_h(g, u_prev, ones)))


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

    def test_partial_final_step(self, grid128, rng):
        st = small_state(grid128, rng)
        cfg = StepperConfig(tau=0.3, fp_tol=1e-12, scheme="SAV-IRK4")
        log = evolve("SAV-IRK4", st, grid128, cfg, T=1.0, sample_every=1)
        np.testing.assert_allclose(log.times, [0.0, 0.3, 0.6, 0.9, 1.0],
                                   atol=1e-12)

    def test_partial_final_step_leapfrog(self, grid128, rng):
        st = small_state(grid128, rng)
        cfg = StepperConfig(tau=0.3, fp_tol=1e-12, scheme="SAV-LF")
        log = evolve("SAV-LF", st, grid128, cfg, T=1.0, sample_every=1)
        assert log.times[-1] == 1.0

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

        def advance(self, tau=None):
            calls.append(tau)
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

    def test_unknown_scheme(self, grid128, rng):
        st = small_state(grid128, rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            evolve("RK4", st, grid128, StepperConfig(tau=0.1), T=1.0)
