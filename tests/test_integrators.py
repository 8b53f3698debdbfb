from dataclasses import replace

import numpy as np
import pytest

import gkdv.integrators as integrators
from gkdv.diagnostics import max_drifts
from gkdv.integrators import (
    _MCN_EXTRAP,
    COLLOCATION_STAGES,
    SCHEMES,
    STEP_ERRORS,
    Etdrk4Stepper,
    FixedPointError,
    SavIrkStepper,
    StepperConfig,
    StrangStepper,
    _fixed_point,
    etdrk4_coefficients,
    evolve,
    make_stepper,
)
from gkdv.sav import (
    AdjustmentRequired,
    C0Policy,
    C0ShiftError,
    SavState,
    init_sav,
    invariants,
    mass_drift_bound,
    nonlinear_power,
    stage_flux,
)
from gkdv.scenarios import get_scenario
from gkdv.spectral import apply_d1, inner_h, make_grid
from gkdv.tableaus import _lagrange_matrix, gauss_legendre_tableau

from conftest import random_smooth_field
from oracles import etdrk4_coefficients_direct


COLLOCATION = [name for name in SCHEMES if "IRK" in name]
IMPLICIT = COLLOCATION + ["MCN"]


def small_state(g, rng, p=2, amp=0.5):
    u = random_smooth_field(g, rng, amp=amp)
    return init_sav(g, u, p)


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(tau=0.0)
        with pytest.raises(ValueError):
            StepperConfig(tau=0.1, fp_tol=0.0)
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

    def sweep(x, out):
        calls.append(1)
        out[:] = x + 1.0 if len(calls) < 3 else np.nan
        return out

    with pytest.raises(FixedPointError, match="diverged") as exc:
        _fixed_point(sweep, np.zeros(4), StepperConfig(tau=0.1))
    assert len(calls) == 3
    assert np.isnan(exc.value.residual)
    assert exc.value.kind == "diverged"
    assert exc.value.residuals[:2] == (1.0, 1.0) and np.isnan(exc.value.residuals[2])


def _noise_sweep(x, out, noise=np.random.default_rng(1).standard_normal((50, 4))):
    """Sweeps that hover at 1e-10 around 1, taking the rows of ``noise`` in turn."""
    out[:] = 1.0 + 1e-10 * noise[_noise_sweep.calls]
    _noise_sweep.calls += 1
    return out


@pytest.mark.parametrize("kind, sweep", [
    ("diverged", lambda x, out: np.multiply(x, 2.0, out=out) + 1.0),  # 1, 2, 4, ...
    ("stagnated", _noise_sweep),
    ("budget", lambda x, out: np.multiply(x, 0.5, out=out) + 0.5),  # 0.5, 0.25, ...
])
def test_fixed_point_failure_kind(kind, sweep, monkeypatch):
    _noise_sweep.calls = 0
    monkeypatch.setattr(integrators, "FP_MAX_ITER", 20)
    cfg = StepperConfig(tau=0.1, fp_tol=1e-14)
    with pytest.raises(FixedPointError, match=f"in 20 sweeps \\({kind}, residual") as exc:
        _fixed_point(sweep, np.zeros(4), cfg)
    err = exc.value
    assert err.kind == kind
    assert len(err.residuals) == 20 and err.residual == err.residuals[-1]
    if kind == "budget":
        assert err.residuals == tuple(0.5 ** np.arange(1, 21))


@pytest.mark.parametrize("scheme, tau, last", [("SAV-IRK4", 0.02, 1.93e-1),
                                               ("MCN", 2e-3, 1.51e-5)])
def test_breather_budget_is_typed(scheme, tau, last, monkeypatch):
    # the first step of the paper's breather runs, cut to 5 sweeps while it
    # still contracts
    monkeypatch.setattr(integrators, "FP_MAX_ITER", 5)
    sc = get_scenario("breather")
    g = sc.make_grid()
    stepper = make_stepper(scheme, g, StepperConfig(tau=tau, fp_tol=sc.fp_tol),
                           init_sav(g, sc.initial(g.x), sc.p))
    with pytest.raises(FixedPointError, match="in 5 sweeps \\(budget") as exc:
        stepper.advance()
    err = exc.value
    assert err.kind == "budget" and len(err.residuals) == 5
    assert err.residual == pytest.approx(last, rel=5e-3)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_stage_flux_tracked_for_collocation_only(grid128, rng, scheme):
    st = small_state(grid128, rng)
    cfg = StepperConfig(tau=0.005, fp_tol=1e-12)
    log = evolve(scheme, st, grid128, cfg, T=0.02)
    collocation = "IRK" in scheme
    assert (log.flux_max_series[-1] > 0.0) == collocation
    assert log.flux_max_series[0] == 0.0


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("scheme", COLLOCATION)
def test_stage_flux_matches_oracle(scheme, p, dealias):
    # the flux from the step's spectra, against stage_flux of the accepted
    # stages, each step alone; a full band so that U^{p+1} aliases
    g = make_grid(2.0 * np.pi, 64, dealias=dealias)
    u = random_smooth_field(g, np.random.default_rng(p), kfrac=1.0, amp=0.5)
    stepper = make_stepper(scheme, g, StepperConfig(tau=0.01), init_sav(g, u, p))
    for _ in range(3):
        flux = stepper.advance().flux
        U = stepper._UF[0]
        oracle = stage_flux(g, U, p)
        scale = max(np.linalg.norm(a) * np.linalg.norm(apply_d1(g, nonlinear_power(g, a, p)))
                    for a in U)
        assert oracle > 1e-4 * scale
        assert abs(flux - oracle) <= 1e-14 * scale


@pytest.mark.parametrize("scheme", COLLOCATION)
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
        E, c = stepper._extrap[-1], stepper.tab.c
        # s = 1 keeps two steps, so its single stage still gives three nodes
        nodes = np.append([c - 2.0, c - 1.0] if s == 1 else c - 1.0, 0.0)
        assert E.shape == (s, len(nodes))
        for deg in range(max(s, 2) + 1):
            coef = rng.standard_normal(deg + 1)
            np.testing.assert_allclose(E @ np.polyval(coef, nodes),
                                       np.polyval(coef, c), rtol=0, atol=1e-13)
        if s == 1:
            np.testing.assert_allclose(E, [[1 / 3, -2.0, 8 / 3]], rtol=0, atol=1e-15)
            np.testing.assert_allclose(stepper._extrap[0], [[-1.0, 2.0]],
                                       rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("scheme", IMPLICIT)
    def test_failed_step_keeps_history(self, grid128, rng, scheme, monkeypatch):
        g = grid128
        st = small_state(g, rng)
        cfg = StepperConfig(tau=0.02, fp_tol=1e-12)
        failing, clean = (make_stepper(scheme, g, cfg, st) for _ in range(2))
        for _ in range(3):
            failing.advance()
            clean.advance()
        kept = np.array(failing._history, copy=True)
        failing.cfg = StepperConfig(tau=0.02, fp_tol=1e-300)
        with monkeypatch.context() as m, pytest.raises(FixedPointError):
            m.setattr(integrators, "FP_MAX_ITER", 1)
            failing.advance()
        np.testing.assert_array_equal(np.array(failing._history), kept)
        failing.cfg = cfg  # the retry starts from the same guess
        assert failing.advance() == clean.advance()
        np.testing.assert_array_equal(failing.u, clean.u)

    @pytest.mark.parametrize("tau", [5e-3, 2e-2])
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
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


class TestBuffers:
    """``advance`` reuses scratch arrays between sweeps and steps, but never
    one it has handed out or kept as history, and none shared by steppers."""

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_handed_out_arrays_are_never_written(self, grid128, rng, scheme):
        stepper = make_stepper(scheme, grid128, StepperConfig(tau=0.01),
                               small_state(grid128, rng))
        kept = []
        for _ in range(5):
            for a in [stepper.state.u, stepper.spectrum(), stepper.power()[0],
                      *getattr(stepper, "_history", [])]:
                kept.append((a, a.copy()))
            stepper.advance()
            np.testing.assert_array_equal(stepper.spectrum(), np.fft.rfft(stepper.u))
        for a, copy in kept:
            np.testing.assert_array_equal(a, copy)

    @pytest.mark.parametrize("scheme", IMPLICIT)
    def test_on_step_fields_are_never_written(self, grid128, rng, scheme):
        seen = []
        evolve(scheme, small_state(grid128, rng), grid128, StepperConfig(tau=0.01),
               T=0.05, on_step=lambda m, t, u: seen.append((u, u.copy())))
        assert len(seen) == 5
        for u, copy in seen:
            np.testing.assert_array_equal(u, copy)

    @pytest.mark.parametrize("scheme", IMPLICIT)
    def test_alternating_steppers_match_each_alone(self, grid128, rng, scheme):
        cfg = StepperConfig(tau=0.01)
        states = [small_state(grid128, rng), small_state(grid128, rng, amp=0.8)]
        alone = []
        for st in states:
            stepper = make_stepper(scheme, grid128, cfg, st)
            for _ in range(4):
                stepper.advance()
            alone.append(stepper)
        pair = [make_stepper(scheme, grid128, cfg, st) for st in states]
        for _ in range(4):
            for stepper in pair:
                stepper.advance()
        for stepper, ref in zip(pair, alone):
            np.testing.assert_array_equal(stepper.u, ref.u)
            assert stepper.v == ref.v


def _plain_fixed_point(sweep, x, tol, solves=0):
    for it in range(1, 201):
        x_new = sweep(x)
        residual = np.abs(x_new - x).max()
        x = x_new
        if residual < tol:
            return x, it + solves
    raise AssertionError("no convergence")


def _plain_mcn(g, u, p, tau, tol, steps):
    """MCN steps in plain array expressions: (u, sweeps) after each step."""
    den = 1.0 + 0.5 * tau * g.k3
    sym = -(tau / (p * (p + 1))) * g.k1 / den
    history, out = [], []
    for _ in range(steps):
        lin = (1.0 - 0.5 * tau * g.k3) / den * np.fft.rfft(u)
        upow = np.cumprod(np.broadcast_to(u, (p, g.N)), axis=0)
        quotients = []

        def solve(q):
            return np.fft.irfft(lin + sym * np.fft.rfft(q), n=g.N)

        def sweep(w):
            q = w + u
            for uk in upow[1:]:
                q = q * w + uk
            quotients.append(q)
            return solve(q)

        if len(history) == 3:
            guess = np.array([1.0, -3.0, 3.0]) @ np.array(history)
            u, sweeps = _plain_fixed_point(sweep, solve(guess), tol, solves=1)
        else:
            u, sweeps = _plain_fixed_point(sweep, u, tol)
        history = (history + [quotients[-1]])[-3:]
        out.append((u, None, sweeps))
    return out


def _plain_collocation(g, state, s, sav, tau, tol, steps):
    """Gauss collocation steps in plain array expressions: (u, v, sweeps)."""
    tab = gauss_legendre_tableau(s)
    A, b, c = tab.A, tab.b, tab.c
    p, u, v, c0 = state.p, state.u, state.v, state.c0
    M = np.eye(s) + tau * g.k3[:, None, None] * A
    inv = (np.linalg.inv(M) * (-(g.k1 / p))[:, None, None]).transpose(1, 2, 0)
    E = _lagrange_matrix(np.append(c - 1.0, 0.0), c)
    history, out = None, []
    for _ in range(steps):
        up = nonlinear_power(g, u, p)
        nl0 = up * (v / np.sqrt(inner_h(g, up, u) + c0)) if sav else up
        lin = (inv * (p * g.k2 * np.fft.rfft(u))[None]).sum(axis=1)

        def solve(nl):
            rhat = np.fft.rfft(nl, axis=-1)
            return np.fft.irfft(lin + (inv * rhat[None]).sum(axis=1), n=g.N, axis=-1)

        def stages(F):
            U = u[None, :] + tau * (A @ F)
            Up = nonlinear_power(g, U, p)
            if not sav:
                return Up, None
            root = np.sqrt(g.h * np.einsum("ij,ij->i", Up, U) + c0)
            gs = 0.5 * (p + 1) * g.h * np.einsum("ij,ij->i", Up, F) / root
            return Up * ((v + tau * (A @ gs)) / root)[:, None], gs

        guess = nl0 if history is None else E[:, :-1] @ history + E[:, -1:] * nl0
        F, sweeps = _plain_fixed_point(lambda F: solve(stages(F)[0]), solve(guess),
                                       tol, solves=1)
        history, gs = stages(F)
        u = u + tau * (b @ F)
        if sav:
            v = v + tau * float(b @ gs)
        out.append((u, v if sav else None, sweeps))
    return out


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("scheme", ["MCN", "SAV-IRK4", "IRK4"])
def test_steps_equal_plain_array_expressions(scheme, p):
    # cold steps, then warm ones: MCN extrapolates from its fourth step on,
    # the two-stage collocation from its second; p = 3 on a dealiased grid
    g = make_grid(2.0 * np.pi, 128, dealias=p == 3)
    u = random_smooth_field(g, np.random.default_rng(p), kfrac=0.2, amp=1.0)
    st = init_sav(g, u, p)
    cfg = StepperConfig(tau=0.01, fp_tol=1e-12)
    if scheme == "MCN":
        expected = _plain_mcn(g, st.u, p, cfg.tau, cfg.fp_tol, steps=4)
    else:
        expected = _plain_collocation(g, st, 2, scheme.startswith("SAV"), cfg.tau,
                                      cfg.fp_tol, steps=2)
    stepper = make_stepper(scheme, g, cfg, st)
    for u_ref, v_ref, sweeps in expected:
        assert stepper.advance().iterations == sweeps
        np.testing.assert_array_equal(stepper.u, u_ref)
        assert stepper.v == v_ref


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

    def test_nonconvergence_carries_partial_log(self, grid128, rng, monkeypatch):
        st = small_state(grid128, rng, amp=1.5)
        monkeypatch.setattr(integrators, "FP_MAX_ITER", 2)
        cfg = StepperConfig(tau=0.5, fp_tol=1e-14, scheme="SAV-IRK4")
        with pytest.raises(FixedPointError) as exc:
            evolve("SAV-IRK4", st, grid128, cfg, T=5.0)
        assert np.isfinite(exc.value.residual)
        assert exc.value.partial_log.records
        assert len(exc.value.residuals) == 2
        assert exc.value.kind in ("diverged", "stagnated", "budget")

    def test_breather_divergence_is_typed(self):
        # the breather at N = 256 and tau = 0.5: the stage iteration of step 2
        # grows without bound until a sweep turns non-finite
        sc = get_scenario("breather")
        g = make_grid(sc.L, 256)
        policy = C0Policy(target=sc.c0_target)
        state = init_sav(g, sc.initial(g.x), sc.p, policy)
        with pytest.raises(FixedPointError) as exc:
            evolve("SAV-IRK4", state, g, StepperConfig(tau=0.5, fp_tol=sc.fp_tol), 1.0,
                   policy=policy)
        err = exc.value
        assert str(err) == "step 2 (t=1): stage iteration diverged: residual nan at sweep 6"
        assert err.kind == "diverged"
        assert np.isnan(err.residual) and len(err.residuals) == 6
        assert np.all(np.diff(err.residuals[:5]) > 0)
        assert [r.t for r in err.partial_log.records] == [0.0, 0.5]


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
    def test_dispersion_substep_is_unitary(self, grid128, monkeypatch):
        # with the transport substeps taken out, a step is the dispersion step
        g = grid128
        u = np.sin(2 * np.pi * g.x / g.L)
        monkeypatch.setattr(StrangStepper, "_transport_step",
                            lambda self, field, tau: (field, 0))
        stepper = make_stepper("SS", g, StepperConfig(tau=0.3), init_sav(g, u, 2))
        stepper.advance()
        out = stepper.u
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

    def test_non_finite_step_count_rejected(self, grid128, rng):
        st = small_state(grid128, rng)
        with pytest.raises(ValueError, match=r"T/tau is not finite for T=1e\+200 "
                                             r"and tau=1e-200"):
            evolve("MCN", st, grid128, StepperConfig(tau=1e-200), T=1e200)

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

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_records_equal_invariants_of_on_step_states(self, grid128, rng, scheme,
                                                        monkeypatch):
        # samples read the stepper's cached spectrum and u^p; here with a C0
        # shift before every step (radicand 10 < tol 20) and a partial last step
        steppers = []

        def spy(*args):
            steppers.append(make_stepper(*args))
            return steppers[-1]

        monkeypatch.setattr(integrators, "make_stepper", spy)
        g, st, sav = grid128, small_state(grid128, rng), scheme.startswith("SAV")
        expected = [invariants(st if sav else replace(st, v=None), g)]

        def on_step(m, t, u):
            s = steppers[-1]
            expected.append(invariants(SavState(u=u.copy(), v=s.v, c0=s.c0, p=s.p), g, t))

        log = evolve(scheme, st, g, StepperConfig(tau=0.03), T=0.1, sample_every=1,
                     policy=C0Policy(target=10.0, tol=20.0), on_step=on_step)
        assert len(steppers) == 2 and len(log.records) == 5
        assert log.records == expected
        assert log.c0_adjustments == (4 if sav else 0)

    def test_c0_shift_failure_is_typed_and_annotated(self):
        # a stage radicand drops below zero on step 2, and the shift of the
        # retry finds v^2 - C0 far below -(u^p, u)_h
        g = make_grid(2.0 * np.pi, 128)
        u = random_smooth_field(g, np.random.default_rng(2), kfrac=0.3, amp=3.0)
        with pytest.raises(C0ShiftError) as exc:
            evolve("SAV-IRK2", init_sav(g, u, 4), g, StepperConfig(tau=0.02), 0.2)
        assert str(exc.value) == ("step 2 (t=0.04): C0 shift produced v^2 = "
                                  "-9.389e+00 < 0; state corrupted upstream")
        assert exc.value.partial_log.c0_adjustments == 0
        assert len(exc.value.partial_log.records) == 2
        assert C0ShiftError in STEP_ERRORS

    @pytest.mark.parametrize("warm", [0, 2])
    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-LF"])
    def test_non_positive_radicand_refuses_the_step(self, grid128, rng, scheme, warm):
        # a radicand of -1 at the start of a step: the first step of SAV-LF
        # checks the radicand of its MCN level, a later one that of u
        stepper = make_stepper(scheme, grid128, StepperConfig(tau=0.01),
                               small_state(grid128, rng))
        for _ in range(warm):
            stepper.advance()
        stepper.c0 = -stepper.power()[1] - 1.0

        def snapshot():
            return (stepper.u.copy(), stepper.v, stepper.c0,
                    [a.copy() for a in getattr(stepper, "_history", [])],
                    getattr(stepper, "_u_prev", None), getattr(stepper, "_v_prev", None))

        u, before = stepper.u, snapshot()
        with pytest.raises(AdjustmentRequired, match=r"^radicand -\S+ is non-positive$"):
            stepper.advance()
        assert stepper.u is u
        np.testing.assert_equal(snapshot(), before)

    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-LF"])
    def test_non_positive_radicand_recovered_by_retry(self, grid128, rng, scheme):
        # with the pre-step trigger off, the step's own check asks for the shift
        g, st = grid128, small_state(grid128, rng)
        start = replace(st, c0=-inner_h(g, nonlinear_power(g, st.u, st.p), st.u) - 1.0)
        log = evolve(scheme, start, g, StepperConfig(tau=0.01), T=0.03,
                     policy=C0Policy(tol=-np.inf))
        assert log.c0_adjustments == 1
        assert log.blowup_time is None and len(log.records) == 4
        if scheme != "SAV-LF":  # the shift keeps the modified energy
            E = np.array([r.energy_mod for r in log.records])
            assert np.abs(E - E[0]).max() < 1e-10

    def test_leap_frog_bootstrap_radicand_is_checked(self):
        # MCN's first level has radicand -43 even after the C0 shift of the
        # retry, so SAV-LF has no v for it: a typed error, not a NaN v
        g = make_grid(2.0 * np.pi, 128)
        u = random_smooth_field(g, np.random.default_rng(1), kfrac=0.3, amp=3.0)
        with pytest.raises(AdjustmentRequired) as exc:
            evolve("SAV-LF", init_sav(g, u, 4), g, StepperConfig(tau=0.02), 0.2)
        assert str(exc.value) == "step 1 (t=0.02): radicand -4.303e+01 is non-positive"
        assert exc.value.partial_log.c0_adjustments == 1
        assert len(exc.value.partial_log.records) == 1

    def test_leap_frog_c0_shift_failure_is_typed(self, grid128, rng):
        st = small_state(grid128, rng)
        stepper = make_stepper("SAV-LF", grid128, StepperConfig(tau=5e-3), st)
        stepper.advance()
        stepper._v_prev = 0.1  # a lower C0 must take v_prev^2 below zero
        with pytest.raises(C0ShiftError, match="previous level inconsistent"):
            stepper.shift_c0(C0Policy(target=1.0))

    def test_unknown_scheme(self, grid128, rng):
        st = small_state(grid128, rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            evolve("RK4", st, grid128, StepperConfig(tau=0.1), T=1.0)
