import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gkdv.integrators as integrators
from gkdv.diagnostics import max_drifts
from gkdv.integrators import (
    COLLOCATION_STAGES,
    SCHEMES,
    STEP_ERRORS,
    Etdrk4Stepper,
    FixedPointError,
    McnStepper,
    SavIrkStepper,
    SingularStepError,
    StepperConfig,
    StrangStepper,
    _fixed_point,
    _solve_small,
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
from gkdv.spectral import SpectralGrid, apply_d1, inner_h, make_grid
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
    # collocation and MCN: the solve of the start, then one sweep to confirm it
    expected = {"SS": 2, "SAV-LF": 0, "mETDRK4": 0}.get(scheme, 2)
    assert stats.iterations == expected


def test_fixed_point_stops_at_first_nonfinite_residual():
    calls = []

    def sweep(x, out):
        calls.append(1)
        out[:] = x + 1.0 if len(calls) < 3 else np.nan
        return out

    with pytest.raises(FixedPointError, match="diverged") as exc:
        _fixed_point(sweep, np.zeros(4), 1e-12)
    assert len(calls) == 3
    assert np.isnan(exc.value.residual)
    assert exc.value.kind == "diverged"
    assert exc.value.residuals[:2] == (1.0, 1.0) and np.isnan(exc.value.residuals[2])


def _noise_sweep(x, out, noise=np.random.default_rng(1).standard_normal((50, 4))):
    """Sweeps that hover within a few ulps of 1e4, taking the rows of ``noise`` in turn."""
    out[:] = 1e4 + 1e-11 * noise[_noise_sweep.calls]
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
    start = np.full(4, 1e4) if kind == "stagnated" else np.zeros(4)  # round-off's scale
    with pytest.raises(FixedPointError, match=f"in 20 sweeps \\({kind}, residual") as exc:
        _fixed_point(sweep, start, 1e-14)
    err = exc.value
    assert err.kind == kind
    assert len(err.residuals) == 20 and err.residual == err.residuals[-1]
    if kind == "budget":
        assert err.residuals == tuple(0.5 ** np.arange(1, 21))


def test_round_off_floor_is_the_starts(monkeypatch):
    # the same hover, from a start of 0: iterates of 1e4 do not raise the
    # floor of a run that started at 0, so this is no stagnation
    _noise_sweep.calls = 0
    monkeypatch.setattr(integrators, "FP_MAX_ITER", 20)
    with pytest.raises(FixedPointError, match="in 20 sweeps \\(diverged") as exc:
        _fixed_point(_noise_sweep, np.zeros(4), 1e-14)
    assert min(exc.value.residuals) < 1e-10


def _contracting_sweep(x, out):
    """Updates 0.999, 0.999e-3, 0.999e-6, ...: a contraction by 1e-3 towards 1."""
    return np.add(np.multiply(x, 1e-3, out=out), 1.0 - 1e-3, out=out)


def test_fixed_point_estimate_saves_a_sweep():
    # at fp_tol 3e-8 the update drops below it at sweep 4 (1e-9), while the
    # estimate 1e-3 / (1 - 1e-3) * 1e-6 = 1e-9 is below 0.1 fp_tol at sweep 3
    fp_tol, target = 3e-8, integrators.ESTIMATE_FRACTION * 3e-8
    _, plain = _fixed_point(_contracting_sweep, np.zeros(4), fp_tol)
    assert plain.iterations == 4 and plain.residual < fp_tol
    _, early = _fixed_point(_contracting_sweep, np.zeros(4), fp_tol, target)
    assert early.iterations == plain.iterations - 1
    assert early.residual == pytest.approx(1e-3 / (1 - 1e-3) * 0.999e-6, rel=1e-9)
    assert early.residual < target


@pytest.mark.parametrize("sweep", [
    lambda x, out: np.subtract(1.0, x, out=out),  # 1, 0, 1, ...: theta = 1
    lambda x, out: np.multiply(x, 2.0, out=out) + 1.0,  # theta = 2, estimate < 0
])
def test_fixed_point_estimate_needs_a_contraction(sweep, monkeypatch):
    monkeypatch.setattr(integrators, "FP_MAX_ITER", 20)
    with pytest.raises(FixedPointError, match="in 20 sweeps"):
        _fixed_point(sweep, np.zeros(4), 1e-14, integrators.ESTIMATE_FRACTION * 1e-14)


@pytest.mark.parametrize("scheme, at_fp_tol", [("SAV-IRK2", True), ("SAV-IRK4", True),
                                               ("IRK4", True), ("MCN", False)])
def test_only_mcn_stops_at_the_update(grid128, rng, scheme, at_fp_tol, monkeypatch):
    # every collocation iterate keeps what the scheme keeps, so its update
    # stops at fp_tol and its estimate at ESTIMATE_FRACTION of it; MCN's
    # energy holds only at the fixed point, so both its update and its
    # estimate stop at MCN_FRACTION of fp_tol, far above round-off here
    seen, fixed_point = [], integrators._fixed_point

    def spy(sweep, x, tol, target=0.0):
        seen.append((tol, target))
        return fixed_point(sweep, x, tol, target)

    monkeypatch.setattr(integrators, "_fixed_point", spy)
    cfg = StepperConfig(tau=0.01)
    make_stepper(scheme, grid128, cfg, small_state(grid128, rng)).advance()
    fraction = integrators.MCN_FRACTION * cfg.fp_tol
    assert seen == ([(cfg.fp_tol, integrators.ESTIMATE_FRACTION * cfg.fp_tol)] if at_fp_tol
                    else [(fraction, fraction)])


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_small_solve_matches_numpy(rng, s):
    M, r = rng.standard_normal((s, s)), rng.standard_normal(s)
    M[0, 0] = 0.0 if s > 1 else M[0, 0]  # the first column needs a row swap
    x = _solve_small(np.column_stack([M, r]).tolist())
    np.testing.assert_allclose(x, np.linalg.solve(M, r), rtol=1e-12)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_small_solve_types_a_bad_pivot(bad):
    with pytest.raises(SingularStepError, match="pivot"):
        _solve_small([[1.0, 2.0, 1.0], [2.0, 4.0, bad]] if bad == 0.0
                     else [[bad, 1.0, 1.0], [1.0, 1.0, 1.0]])


@pytest.mark.parametrize("scheme, tau, last", [("SAV-IRK4", 0.02, 1.224e-1),
                                               ("MCN", 2e-3, 1.19e-6)])
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
def test_stage_flux_matches_oracle(scheme, p, dealias, monkeypatch):
    # the flux from the step's spectra, against stage_flux of the accepted
    # stages u0 + tau A F and the N the last sweep solved for F, each step
    # alone; a full band so that U^{p+1} aliases
    g = make_grid(2.0 * np.pi, 64, dealias=dealias)
    u = random_smooth_field(g, np.random.default_rng(p), kfrac=1.0, amp=0.5)
    stepper = make_stepper(scheme, g, StepperConfig(tau=0.01), init_sav(g, u, p))
    A, tau = stepper.tab.A, stepper.cfg.tau
    sweeps = []  # the input and output of every sweep
    fixed_point = integrators._fixed_point

    def spy(sweep, x, *args):
        def recorded(F, out):
            sweeps.append((F.copy(), sweep(F, out).copy()))
            return out
        return fixed_point(recorded, x, *args)

    monkeypatch.setattr(integrators, "_fixed_point", spy)
    for _ in range(3):
        u0 = stepper.u
        flux = stepper.advance().flux
        F_in, F = sweeps[-1]
        U = u0 + tau * (A @ F)
        U_in = u0 + tau * (A @ F_in)  # the last sweep's input stages
        N = nonlinear_power(g, U_in, p)
        if scheme.startswith("SAV"):  # N = V G, G = U^p / sqrt(radicand)
            root = np.sqrt(g.h * np.einsum("ij,ij->i", N, U_in) + stepper.c0)
            N = stepper._V[:len(A), None] * (N / root[:, None])
        oracle = stage_flux(g, U, N)
        scale = max(np.linalg.norm(a) * np.linalg.norm(apply_d1(g, n)) for a, n in zip(U, N))
        assert oracle > 1e-4 * scale
        assert abs(flux - oracle) <= 1e-14 * scale


@pytest.mark.parametrize("scheme", COLLOCATION)
def test_step_maps_no_stages_after_its_fixed_point(grid128, rng, scheme):
    # one stage map per sweep, none for a start: cold steps until the
    # history is full (4 for one stage, else 2), whose start solve counts
    # as a sweep, then two warm ones, whose start is free
    stepper = make_stepper(scheme, grid128, StepperConfig(tau=0.01),
                           small_state(grid128, rng))
    stages, calls = stepper._stages, []
    cold = 4 if scheme.endswith("IRK2") else 2
    assert stepper._kept == cold

    def spy(u0, F):
        calls.append(1)
        return stages(u0, F)

    stepper._stages = spy
    for step in range(cold + 2):
        calls.clear()
        stats = stepper.advance()
        assert not stats.fell_back
        assert len(calls) == stats.iterations - (step < cold) > 0


@pytest.mark.parametrize("scheme", ["IRK6", "SAV-IRK6"])
def test_cold_step_transforms_n_of_u0_as_one_row(grid128, rng, scheme, monkeypatch):
    # forward transforms, counted in rows: one for u0, one for N(u0), whose
    # solve every stage shares, and s per sweep; no filter on this grid
    stepper = make_stepper(scheme, grid128, StepperConfig(tau=0.01),
                           small_state(grid128, rng))
    to_modes, rows = SpectralGrid.to_modes, []

    def counting(self, u, out=None):
        rows.append(np.size(u) // np.shape(u)[-1])
        return to_modes(self, u, out=out)

    monkeypatch.setattr(SpectralGrid, "to_modes", counting)
    stats, s = stepper.advance(), stepper.tab.A.shape[0]
    assert stats.iterations > 2
    assert sum(rows) == 2 + s * (stats.iterations - 1)


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
        # one stage: the stage derivatives of the last four steps sit at
        # c - 4 ... c - 1, and the start takes all four to c (exact on
        # cubics); s >= 2: those of the last two steps sit at c - 2 and
        # c - 1, and the start takes the last s + 1 of them to c
        st = small_state(grid128, rng)
        stepper = make_stepper(f"SAV-IRK{2 * s}", grid128, StepperConfig(tau=0.1), st)
        E, c = stepper._extrapolation, stepper.tab.c
        if s == 1:
            nodes, degree = c - np.array([4.0, 3.0, 2.0, 1.0]), 3
        else:
            nodes, degree = np.concatenate([c - 2.0, c - 1.0])[-(s + 1):], s
        assert E.shape == (s, degree + 1)
        for deg in range(degree + 1):
            coef = rng.standard_normal(deg + 1)
            np.testing.assert_allclose(E @ np.polyval(coef, nodes),
                                       np.polyval(coef, c), rtol=0, atol=1e-13)
        if s == 1:  # the cubic through the stages at -7/2, -5/2, -3/2, -1/2
            np.testing.assert_allclose(E, [[-1.0, 4.0, -6.0, 4.0]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scheme, history, failure", [
        ("SAV-IRK4", -500.0, AdjustmentRequired),  # (U^2, U)_h << 0 at every stage
        ("IRK4", 1e4, FixedPointError),  # rough: the iteration overflows
        ("SAV-IRK4", None, SingularStepError),  # a spy's pivot in the third sweep
    ])
    def test_failed_start_is_retried_from_the_solved_one(self, grid128, rng, scheme,
                                                         history, failure, monkeypatch):
        # a crafted history whose extrapolated start fails: a constant, or
        # noise; or the accepted history, whose attempt a spy refuses in its
        # third sweep.  The step then takes the solved start, as a stepper
        # without history does, and adds the sweeps the failed attempt
        # completed: the diverged ones, none for a radicand refused in the
        # first sweep, two for a pivot refused in the third
        g = grid128
        stepper = make_stepper(scheme, g, StepperConfig(tau=0.01, fp_tol=1e-12),
                               small_state(g, rng))
        for _ in range(2):
            stepper.advance()
        twin = make_stepper(scheme, g, stepper.cfg, stepper.state)
        if history is None:
            solve_small, calls = integrators._solve_small, []

            def singular_third(aug):
                calls.append(1)
                if len(calls) == 3:
                    raise SingularStepError("SAV stage system has pivot 0.0")
                return solve_small(aug)

            monkeypatch.setattr(integrators, "_solve_small", singular_third)
        else:
            F = history * (np.random.default_rng(0).standard_normal((2, g.N)) if history > 0
                           else np.ones((2, g.N)))
            stepper._history = [F, F]
        iterate, stages, failures, maps = stepper._iterate, stepper._stages, [], []

        def spy_iterate(u0, lin, start):
            try:
                return iterate(u0, lin, start)
            except STEP_ERRORS as err:
                failures.append(err)
                raise

        def spy_stages(u0, F):
            maps.append(1)
            return stages(u0, F)

        stepper._iterate, stepper._stages = spy_iterate, spy_stages
        stats, cold = stepper.advance(), twin.advance()
        assert stats.fell_back and not cold.fell_back
        np.testing.assert_array_equal(stepper.u, twin.u)
        assert stepper.v == twin.v
        [err] = failures
        assert type(err) is failure
        failed = (len(err.residuals) if failure is FixedPointError
                  else 2 if failure is SingularStepError else 0)
        if failure is FixedPointError:
            assert err.kind == "diverged" and failed > 1
        assert stats.iterations == failed + cold.iterations
        # one stage map per sweep, the refused one too, none for the start solve
        assert len(maps) == stats.iterations - 1 + (failure is not FixedPointError)

    @pytest.mark.parametrize("scheme, history", [
        ("SAV-IRK2", -500.0), ("SAV-IRK4", -500.0), ("IRK2", 1e4), ("IRK4", 1e4)])
    def test_fallback_restarts_the_history(self, grid128, rng, scheme, history):
        # after a crafted history whose extrapolated start fails, a constant
        # (a negative radicand) or noise (the iteration overflows), the
        # history holds the fallback step's F alone, so the stepper goes on
        # as a twin built from the state before that step: solved starts
        # until the history is full again, then the same extrapolated ones
        g = grid128
        stepper = make_stepper(scheme, g, StepperConfig(tau=0.01, fp_tol=1e-12),
                               small_state(g, rng))
        for _ in range(stepper._kept):
            stepper.advance()
        twin = make_stepper(scheme, g, stepper.cfg, stepper.state)
        shape = (stepper._kept, *stepper._U.shape)
        stepper._history = list(history * (np.random.default_rng(0).standard_normal(shape)
                                           if history > 0 else np.ones(shape)))
        assert stepper.advance().fell_back and not twin.advance().fell_back
        assert len(stepper._history) == 1
        np.testing.assert_array_equal(stepper._history[0], twin._history[0])
        stages, maps = stepper._stages, []

        def spy(u0, F):
            maps.append(1)
            return stages(u0, F)

        stepper._stages = spy
        for step in range(stepper._kept + 1):
            maps.clear()
            stats = stepper.advance()
            assert stats == twin.advance() and not stats.fell_back
            np.testing.assert_array_equal(stepper.u, twin.u)
            assert stepper.v == twin.v
            # a start solve, counted as a sweep, until the history is full
            assert len(maps) == stats.iterations - (step < stepper._kept - 1)

    def test_fifth_one_stage_step_starts_from_the_cubic(self, grid128, rng):
        # four cold steps, whose start solve counts as a sweep; the fifth
        # maps a stage in every sweep it counts and starts from
        # -F_{n-4} + 4 F_{n-3} - 6 F_{n-2} + 4 F_{n-1}
        stepper = make_stepper("SAV-IRK2", grid128, StepperConfig(tau=0.01),
                               small_state(grid128, rng))
        iterate, stages, starts, maps = stepper._iterate, stepper._stages, [], []

        def spy_iterate(u0, lin, start):
            starts.append(start)
            return iterate(u0, lin, start)

        def spy_stages(u0, F):
            maps.append(1)
            return stages(u0, F)

        stepper._iterate, stepper._stages = spy_iterate, spy_stages
        for step in range(5):
            kept = [F.copy() for F in stepper._history]
            maps.clear()
            stats = stepper.advance()
            assert not stats.fell_back
            assert len(maps) == stats.iterations - (step < 4) > 0
        assert len(kept) == 4
        cubic = -kept[0] + 4.0 * kept[1] - 6.0 * kept[2] + 4.0 * kept[3]
        scale = 15.0 * max(np.abs(F).max() for F in kept)
        np.testing.assert_allclose(starts[-1], cubic, rtol=0, atol=4 * np.spacing(scale))

    def test_mcn_weights_exact_on_quintics(self, rng):
        E = McnStepper._extrapolation
        np.testing.assert_array_equal(E, [-1.0, 6.0, -15.0, 20.0, -15.0, 6.0])
        for deg in range(6):
            coef = rng.standard_normal(deg + 1)
            vals = np.polyval(coef, np.arange(-5.0, 1.0))
            scale = np.abs(E) @ np.abs(vals)  # the terms reach 20 * 5^5
            assert abs(E @ vals - np.polyval(coef, 1.0)) < 4 * np.spacing(scale)

    def test_failed_mcn_start_is_retried_and_restarts_the_history(self, grid128, rng,
                                                                 monkeypatch):
        # a crafted history of noise whose quintic start overflows.  The step
        # then takes the sweep from w = u, as a stepper without history does,
        # and adds the start solve and the sweeps of the failed attempt.  The
        # history then holds that step's quotient alone, so the stepper goes
        # on as a twin built from the state before that step: cold steps until
        # the history is full again, then the same extrapolated ones
        g = grid128
        stepper = make_stepper("MCN", g, StepperConfig(tau=0.01, fp_tol=1e-12),
                               small_state(g, rng))
        for _ in range(stepper._kept):
            stepper.advance()
        assert stepper._kept == 6 and len(stepper._history) == 6
        twin = make_stepper("MCN", g, stepper.cfg, stepper.state)
        stepper._history = list(1e4 * np.random.default_rng(0).standard_normal((6, g.N)))
        failures, fixed_point = [], integrators._fixed_point

        def spy(*args, **kw):
            try:
                return fixed_point(*args, **kw)
            except FixedPointError as err:
                failures.append(err)
                raise

        monkeypatch.setattr(integrators, "_fixed_point", spy)
        stats, cold = stepper.advance(), twin.advance()
        assert stats.fell_back and not cold.fell_back
        np.testing.assert_array_equal(stepper.u, twin.u)
        [err] = failures
        failures.clear()
        assert err.kind == "diverged" and len(err.residuals) > 1
        assert stats.iterations == 1 + len(err.residuals) + cold.iterations
        assert len(stepper._history) == 1
        np.testing.assert_array_equal(stepper._history[0], twin._history[0])
        for step in range(stepper._kept):
            warm = len(twin._history) == 6  # the last step extrapolates
            assert warm == (step == stepper._kept - 1)
            stats = stepper.advance()
            assert stats == twin.advance() and not stats.fell_back
            np.testing.assert_array_equal(stepper.u, twin.u)
        assert not failures

    @pytest.mark.parametrize("scheme", ["MCN", "SAV-IRK4"])
    def test_stagnated_start_is_raised(self, grid128, rng, scheme, monkeypatch):
        # an extrapolated attempt that stagnates is at round-off, where no
        # start does better: the step raises it from its one fixed point and
        # keeps u, v and its history.  MCN's updates on these states reach
        # exactly 0, even at fp_tol 1e-300, so the stagnation is the spy's
        stepper = make_stepper(scheme, grid128, StepperConfig(tau=0.01), small_state(grid128, rng))
        for _ in range(stepper._kept):
            stepper.advance()
        u, v, history, attempts = stepper.u, stepper.v, list(stepper._history), []
        assert len(history) == stepper._kept

        def stagnated(*args, **kw):
            attempts.append(1)
            raise FixedPointError("stage iteration stagnated", kind="stagnated")

        monkeypatch.setattr(integrators, "_fixed_point", stagnated)
        with pytest.raises(FixedPointError, match="stagnated"):
            stepper.advance()
        assert len(attempts) == 1 and stepper.u is u and stepper.v == v
        assert all(a is b for a, b in zip(stepper._history, history, strict=True))

    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-IRK6",
                                        "IRK4", "MCN"])
    def test_warm_step_matches_cold_step(self, grid128, rng, scheme):
        g = grid128
        u = random_smooth_field(g, rng, kfrac=1.0 / 16.0, amp=0.5)
        cfg = StepperConfig(tau=0.02, fp_tol=1e-12)
        warm = make_stepper(scheme, g, cfg, init_sav(g, u, 2))
        for _ in range(max(3, getattr(warm, "_kept", 0))):  # until the history is full
            warm.advance()
        if scheme in COLLOCATION:
            assert len(warm._history) == warm._kept
        cold = make_stepper(scheme, g, cfg, warm.state)
        warm_stats, cold_stats = warm.advance(), cold.advance()
        assert np.abs(warm.u - cold.u).max() < 10 * cfg.fp_tol
        if warm.v is not None:
            assert abs(warm.v - cold.v) < 10 * cfg.fp_tol
        assert warm_stats.iterations <= cold_stats.iterations

    @pytest.mark.parametrize("scheme, where", [
        *(pytest.param(s, "fixed point", id=s) for s in IMPLICIT),
        *(pytest.param(s, w, id=f"{s}-{w}") for s, w in [
            ("SS", "first half step"), ("SS", "second half step"),
            ("SAV-LF", "MCN level"), ("SAV-LF", "leap-frog level")])])
    def test_failed_step_keeps_history(self, grid128, rng, scheme, where, monkeypatch):
        # a step that raises leaves u (the same object), v, C0 and what the
        # next step reads of the last ones: MCN's quotients or the stage
        # derivatives of a collocation step, whose extrapolated start and
        # solved retry both fail here, or SAV-LF's previous level; the retry
        # takes the step a clean twin takes
        g = grid128
        st = small_state(g, rng)
        cfg = StepperConfig(tau=0.02, fp_tol=1e-12)
        failing, clean = (make_stepper(scheme, g, cfg, st) for _ in range(2))
        # until the history is full, 4 steps for one stage, 6 for MCN
        for _ in range(0 if where == "MCN level" else max(3, getattr(failing, "_kept", 0))):
            failing.advance()
            clean.advance()
        if scheme in IMPLICIT:  # so the failing step tries the extrapolated start
            assert len(failing._history) == failing._kept

        def snapshot():
            kept = [getattr(failing, a, None)
                    for a in ("_history", "_u_prev", "_v_prev")]
            return failing.u.copy(), failing.v, failing.c0, *copy.deepcopy(kept)

        u, before = failing.u, snapshot()
        with monkeypatch.context() as m:
            if scheme == "SS":
                calls, transport = [], StrangStepper._transport_step

                def half_step(self, field, tau):
                    calls.append(tau)
                    if len(calls) == (1 if where == "first half step" else 2):
                        raise FixedPointError("transport substep failed")
                    return transport(self, field, tau)

                m.setattr(StrangStepper, "_transport_step", half_step)
                error = FixedPointError
            elif where == "leap-frog level":  # 1 - (p+1)/2 (q, w2)_h = 0
                failing.power()
                m.setattr(integrators, "inner_h", lambda g, a, b: 2.0 / (failing.p + 1))
                error = SingularStepError
            else:  # the fixed point runs out of sweeps
                m.setattr(integrators, "FP_MAX_ITER", 1)
                failing.cfg = StepperConfig(tau=0.02, fp_tol=1e-300)
                error = FixedPointError
            with pytest.raises(error):
                failing.advance()
        assert failing.u is u
        np.testing.assert_equal(snapshot(), before)
        failing.cfg = cfg  # the retry starts from the same guess
        assert failing.advance() == clean.advance()
        np.testing.assert_array_equal(failing.u, clean.u)
        assert failing.v == clean.v

    @pytest.mark.parametrize("tau", [5e-3, 2e-2])
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-IRK6",
                                        "IRK4", "MCN", "SS", "SAV-LF"])
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
        # IRK4 and SS keep no energy; MCN's physical energy is exact only
        # unfiltered, and SAV-LF's first level is an MCN step
        if (scheme.startswith("SAV-IRK")
                or (scheme in ("MCN", "SAV-LF") and not g.dealias)):
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
                      *stepper._history]:
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


def _plain_fixed_point(sweep, x, tol, solves=0, target=0.0):
    updates = []
    for it in range(1, 201):
        x_new = sweep(x)
        updates.append(np.abs(x_new - x).max())
        x = x_new
        theta = updates[-1] / updates[-2] if len(updates) > 1 else 1.0
        if updates[-1] < tol or (theta < 1 and theta / (1 - theta) * updates[-1] < target):
            return x, it + solves
    raise AssertionError("no convergence")


def _plain_mcn(g, u, p, tau, tol, steps):
    """MCN steps in plain array expressions: (u, None, sweeps) after each step.

    From the seventh step on, a step starts from the solve of the quintic
    through the last six quotients.  Its update and its estimate stop at a
    hundredth of tol, or at 16 ulps of its start where that is larger, up
    to tol.
    """
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

        def fixed_point(start):  # the start is one solve
            stop = max(0.01 * tol, min(tol, 16 * np.finfo(float).eps * np.abs(start).max()))
            return _plain_fixed_point(sweep, start, stop, solves=1, target=stop)

        if len(history) == 6:
            quintic = np.array([-1.0, 6.0, -15.0, 20.0, -15.0, 6.0])
            u, sweeps = fixed_point(solve(quintic @ np.array(history)))
        else:
            u, sweeps = fixed_point(sweep(u))
        history = (history + [quotients[-1]])[-6:]
        out.append((u, None, sweeps))
    return out


def _plain_collocation(g, state, s, sav, tau, tol, steps):
    """Gauss collocation steps in plain array expressions: (u, v, sweeps).

    A SAV-IRK sweep freezes G = U^p / sqrt(radicand) at the stages of its
    input and solves the stage system, linear in (F, V), with ``np.linalg``.
    Both families may stop at the estimated distance to the fixed point.  The
    first steps start from the F solved for N(u0) at every stage; once the
    history holds four steps for s = 1, or two for s >= 2, a step starts
    from the polynomial through their last 4, or s + 1, accepted stage
    derivatives F, at c.
    """
    tab = gauss_legendre_tableau(s)
    A, b, c = tab.A, tab.b, tab.c
    p, u, v, c0 = state.p, state.u, state.v, state.c0
    kappa = 0.5 * (p + 1)
    M = np.eye(s) + tau * g.k3[:, None, None] * A
    inv = (np.linalg.inv(M) * (-(g.k1 / p))[:, None, None]).transpose(1, 2, 0)
    nodes = 4 if s == 1 else s + 1
    kept = 4 if s == 1 else 2
    E = _lagrange_matrix(np.concatenate([c - k for k in range(kept, 0, -1)])[-nodes:], c)

    w = np.full(g.nmodes, 2.0 * g.h / g.N)
    w[[0, -1]] = g.h / g.N  # the unpaired modes

    def dot_h(ah, bh):  # (a, b)_h from the spectra of a and b
        return (ah.conj() * bh).real @ w

    history, out = [], []
    for _ in range(steps):
        up = nonlinear_power(g, u, p)
        nl0 = up * (v / np.sqrt(inner_h(g, up, u) + c0)) if sav else up
        lin = (inv * (p * g.k2 * np.fft.rfft(u))[None]).sum(axis=1)
        last = {}  # the stage rates of v the last sweep integrated

        def solve(nl):
            rhat = np.fft.rfft(nl, axis=-1)
            return np.fft.irfft(lin + (inv * rhat[None]).sum(axis=1), n=g.N, axis=-1)

        def stage_power(F):
            U = u[None, :] + tau * (A @ F)
            return U, nonlinear_power(g, U, p)

        def sav_sweep(F):
            U, Up = stage_power(F)
            G = Up / np.sqrt(g.h * np.einsum("ij,ij->i", Up, U) + c0)[:, None]
            Gh = np.fft.rfft(G, axis=-1)
            S = inv * Gh[None]  # S[i, j] = inv[i, j] G^_j
            B, cv = dot_h(Gh[:, None], S), dot_h(Gh, lin)
            rates = np.linalg.solve(np.eye(s) - kappa * tau * B @ A,
                                    kappa * (cv + v * B.sum(axis=1)))
            V = v + tau * (A @ rates)
            last.update(rates=rates)
            return np.fft.irfft(lin + (V[None, :, None] * S).sum(axis=1), n=g.N, axis=-1)

        def irk_sweep(F):
            return solve(stage_power(F)[1])

        sweep = sav_sweep if sav else irk_sweep
        if len(history) == kept:
            F, sweeps = _plain_fixed_point(sweep, E @ np.concatenate(history)[-nodes:],
                                           tol, target=0.1 * tol)
        else:
            F, sweeps = _plain_fixed_point(sweep, solve(nl0), tol, solves=1, target=0.1 * tol)
        if sav:
            v = v + tau * float(b @ last["rates"])
        history = (history + [F])[-kept:]
        u = u + tau * (b @ F)
        out.append((u, v if sav else None, sweeps))
    return out


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("scheme", ["MCN", "SAV-IRK4", "IRK4", "SAV-IRK2", "IRK2"])
def test_steps_equal_plain_array_expressions(scheme, p):
    # cold steps, then warm ones: MCN extrapolates from its seventh step on,
    # the two-stage collocation from its third, the one-stage from its
    # fifth; p = 3 on a dealiased grid
    g = make_grid(2.0 * np.pi, 128, dealias=p == 3)
    u = random_smooth_field(g, np.random.default_rng(p), kfrac=0.2, amp=1.0)
    st = init_sav(g, u, p)
    cfg = StepperConfig(tau=0.01, fp_tol=1e-12)
    if scheme == "MCN":
        expected = _plain_mcn(g, st.u, p, cfg.tau, cfg.fp_tol, steps=9)
    else:
        s = SCHEMES[scheme].order // 2
        expected = _plain_collocation(g, st, s, scheme.startswith("SAV"), cfg.tau,
                                      cfg.fp_tol, steps=4 if s == 2 else 6)
    stepper = make_stepper(scheme, g, cfg, st)
    for u_ref, v_ref, sweeps in expected:
        assert stepper.advance().iterations == sweeps
        if scheme.startswith("SAV"):  # sums in another order: within 16 ulps
            np.testing.assert_allclose(stepper.u, u_ref, rtol=0,
                                       atol=16 * np.spacing(np.abs(u_ref).max()))
            assert stepper.v == pytest.approx(v_ref, rel=16 * np.finfo(float).eps)
        else:
            np.testing.assert_array_equal(stepper.u, u_ref)
            assert stepper.v == v_ref


def test_irk_history_is_the_accepted_stage_derivatives():
    # the history keeps the F each step took, the last iterate.  At fp_tol
    # 1e-8 that F is far enough from the fixed point that a history of F
    # mapped once more moves the start: those steps first differ from these
    # at step 4, and those of a start extrapolated from the stage
    # nonlinearity N at step 2; p = 3 on a dealiased grid
    g = make_grid(2.0 * np.pi, 128, dealias=True)
    u = random_smooth_field(g, np.random.default_rng(3), kfrac=0.2, amp=1.0)
    st = init_sav(g, u, 3)
    cfg = StepperConfig(tau=0.01, fp_tol=1e-8)
    stepper = make_stepper("IRK4", g, cfg, st)
    for u_ref, _, sweeps in _plain_collocation(g, st, 2, False, cfg.tau, cfg.fp_tol, steps=8):
        assert stepper.advance().iterations == sweeps
        np.testing.assert_array_equal(stepper.u, u_ref)


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
        # the a-posteriori mass bound holds at any fp_tol; the bound has no
        # round-off term, so a few ulps of M0 are allowed
        for k, rec in enumerate(log.records):
            bound = mass_drift_bound(g, st.p, rec.t, log.flux_max_series[k])
            assert abs(M[k] - M[0]) <= bound + 4 * np.spacing(M[0])

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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4", "SAV-IRK6"])
    def test_conservation_at_any_fp_tol(self, scheme, p, seed):
        # every sweep's step conserves, so fp_tol 1e-4 keeps both invariants
        # to round-off; a sweep with G from its own iterate drifted 1e-7 here
        g = make_grid(2.0 * np.pi, 128, dealias=p == 3)
        u = random_smooth_field(g, np.random.default_rng(seed), kfrac=0.2, amp=1.0)
        log = evolve(scheme, init_sav(g, u, p), g, StepperConfig(tau=0.01, fp_tol=1e-4),
                     T=0.5)
        d = max_drifts(log)
        assert d["E"] <= 1e-13 * abs(log.records[0].energy_mod)
        assert d["I"] <= 1e-14

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

    def test_mass_drift_decays_spectrally_on_the_breather(self):
        # SAV-IRK4 at tau = 0.01 to T = 1: the relative mass drift was 6.7e-4,
        # 2.0e-9 and 2.7e-15 at N = 256, 512 and 1024, under bounds of 0.144,
        # 1.65e-6 and 5.04e-15 times M0 at T; momentum and the modified energy
        # stay at round-off at every N.  The bound has no round-off term: at
        # N = 1024 and t <= 0.11 a drift of 1-2 ulps of M0 exceeds it, so the
        # samples before T are allowed 4 ulps
        sc = get_scenario("breather")
        policy = C0Policy(target=sc.c0_target)
        drifts = []
        for N in (256, 512, 1024):
            g = replace(sc, N=N).make_grid()
            state = init_sav(g, sc.initial(g.x), sc.p, policy)
            cfg = StepperConfig(tau=0.01, fp_tol=sc.fp_tol)
            log = evolve("SAV-IRK4", state, g, cfg, T=1.0, sample_every=1, policy=policy)
            M = np.array([r.mass for r in log.records])
            bounds = [mass_drift_bound(g, sc.p, r.t, f)
                      for r, f in zip(log.records, log.flux_max_series)]
            assert np.all(np.abs(M - M[0]) <= np.array(bounds) + 4 * np.spacing(M[0])), N
            assert abs(M[-1] - M[0]) <= bounds[-1], N
            d = max_drifts(log)
            assert d["I"] < 1e-13, N
            assert d["E"] < 1e-13 * abs(log.records[0].energy_mod), N
            drifts.append(d["M"] / M[0])
        for coarse, fine in zip(drifts, drifts[1:]):
            assert coarse < 1e-13 or fine <= coarse / 100, drifts
        assert drifts[-1] < 1e-13, drifts

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
        # the breather at N = 128 and tau = 0.3: the update of the first step's
        # iteration jumps from 32 to hundreds within five sweeps and wanders
        # there, chaotically, until the cap.  Each sweep conserves, so it
        # stays finite; which value it stops at moves with round-off
        sc = get_scenario("breather")
        g = make_grid(sc.L, 128)
        policy = C0Policy(target=sc.c0_target)
        state = init_sav(g, sc.initial(g.x), sc.p, policy)
        with pytest.raises(FixedPointError) as exc:
            evolve("SAV-IRK4", state, g, StepperConfig(tau=0.3, fp_tol=sc.fp_tol), 0.6,
                   policy=policy)
        err = exc.value
        assert str(err).startswith("step 1 (t=0.3): stage iteration did not reach 1e-11 "
                                   "in 200 sweeps (diverged, residual ")
        assert err.kind == "diverged" and len(err.residuals) == 200
        assert np.all(np.isfinite(err.residuals))
        assert np.median(err.residuals) > 3 * err.residuals[0]
        assert [r.t for r in err.partial_log.records] == [0.0]

    def test_breather_hover_far_above_round_off_is_diverged(self):
        # the same breather at tau = 0.5: the update never falls below 4.66,
        # about 1e15 eps times the start's max|F| of 18.5, and no window of
        # it contracts at the cap, so the iteration neither stagnated at
        # round-off nor ran out of sweeps while it converged
        sc = get_scenario("breather")
        g = make_grid(sc.L, 128)
        policy = C0Policy(target=sc.c0_target)
        state = init_sav(g, sc.initial(g.x), sc.p, policy)
        with pytest.raises(FixedPointError) as exc:
            evolve("SAV-IRK4", state, g, StepperConfig(tau=0.5, fp_tol=sc.fp_tol), 1.0,
                   policy=policy)
        err = exc.value
        assert str(err).startswith("step 1 (t=0.5): stage iteration did not reach 1e-11 "
                                   "in 200 sweeps (diverged, residual ")
        assert err.kind == "diverged" and len(err.residuals) == 200
        assert np.all(np.isfinite(err.residuals)) and min(err.residuals) > 1.0

    def test_two_soliton_stagnation_is_typed(self, monkeypatch):
        # fp_tol 1e-300 on the two-soliton at tau = 0.2: steps 1 to 13 reach
        # an update of exactly 0; the residual of step 14, a warm step,
        # settles at round-off and hovers there until the cap.  Round-off is
        # no fault of the extrapolated start, so that attempt is not retried:
        # one fixed point per step, and 200 residuals
        sc = get_scenario("two_soliton")
        g = sc.make_grid()
        policy = C0Policy(target=sc.c0_target)
        state = init_sav(g, sc.initial(g.x), sc.p, policy)
        attempts, fixed_point = [], integrators._fixed_point

        def spy(*args, **kw):
            attempts.append(1)
            return fixed_point(*args, **kw)

        monkeypatch.setattr(integrators, "_fixed_point", spy)
        with pytest.raises(FixedPointError) as exc:
            evolve("SAV-IRK4", state, g, StepperConfig(tau=0.2, fp_tol=1e-300), 3.0,
                   policy=policy)
        err = exc.value
        assert str(err) == ("step 14 (t=2.8): stage iteration did not reach 1e-300 in "
                            "200 sweeps (stagnated, residual 2.776e-17)")
        assert err.kind == "stagnated" and len(err.residuals) == 200
        assert len(attempts) == 14 and err.partial_log.start_fallbacks == 0
        assert [r.t for r in err.partial_log.records] == pytest.approx(
            [0.2 * m for m in range(14)])


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

    def test_accepted_field_is_within_the_fraction_of_its_fixed_point(self):
        # the paper's breather run (N = 1024, tau = 2e-3, fp_tol 1e-11), cold
        # and warm steps: each accepted field against that of a copy of the
        # stepper iterated to round-off, 16 ulps of its start.  The update
        # test at fp_tol alone left these fields 3.1e-13 away (median)
        sc = get_scenario("breather")
        g = sc.make_grid()
        cfg = StepperConfig(tau=2e-3, fp_tol=sc.fp_tol)
        state = init_sav(g, sc.initial(g.x), sc.p, C0Policy(target=sc.c0_target))
        stepper = make_stepper("MCN", g, cfg, state)
        # its stop is the round-off floor, 16 ulps of max|w| = 1.7e-14
        converged = StepperConfig(tau=cfg.tau, fp_tol=1e-13)
        distances = []
        for _ in range(60):
            copied = copy.deepcopy(stepper)
            copied.cfg = converged
            stepper.advance()
            copied.advance()
            distances.append(np.abs(stepper.u - copied.u).max())
        assert max(distances) < integrators.MCN_FRACTION * cfg.fp_tol

    def test_fp_tol_below_round_off_completes(self, monkeypatch):
        # at fp_tol 1e-14 a hundredth of it is below what an update resolves,
        # so the stop is floored at 16 ulps of the start, but never above
        # fp_tol.  On the breather (max|u| = 4.9) that floor is 1.7e-14, so
        # every step stops at fp_tol, as the plain update test did, and the
        # run completes as it did under that test
        stops, fixed_point = [], integrators._fixed_point

        def spy(sweep, x, tol, target=0.0):
            stops.append((tol, target))
            return fixed_point(sweep, x, tol, target)

        monkeypatch.setattr(integrators, "_fixed_point", spy)
        sc = get_scenario("breather")
        g = sc.make_grid()
        log = evolve("MCN", init_sav(g, sc.initial(g.x), sc.p), g,
                     StepperConfig(tau=2e-3, fp_tol=1e-14), T=0.2)
        assert log.steps == 100 and log.blowup_time is None
        assert set(stops) == {(1e-14, 1e-14)}
        E = np.array([r.energy for r in log.records])
        assert np.abs(E - E[0]).max() < 1e-13 * abs(E[0])


class TestSavLeapFrog:
    def test_momentum_two_level(self, grid128, rng):
        g = grid128
        u_prev = random_smooth_field(g, rng, amp=0.5)
        u_curr = random_smooth_field(g, rng, amp=0.5)
        v_prev = float(np.sqrt(inner_h(g, u_prev**2, u_prev) + 10.0))
        v_curr = float(np.sqrt(inner_h(g, u_curr**2, u_curr) + 10.0))
        stepper = make_stepper("SAV-LF", g, StepperConfig(tau=5e-3),
                               SavState(u=u_curr, v=v_curr, c0=10.0, p=2))
        # the previous level as advance stores it: field and v
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

    def test_non_finite_residual_stops_transport_substep(self, grid128):
        # from a field far past blow-up the midpoint sweep overflows to NaN;
        # the substep stops there instead of running out its sweep budget
        g = grid128
        u = 1e9 * np.exp(-g.x**2)
        stepper = make_stepper("SS", g, StepperConfig(tau=0.01), init_sav(g, u, 2))
        with np.errstate(all="ignore"), pytest.raises(FixedPointError) as info:
            stepper.advance()
        err = info.value
        assert err.kind == "diverged" and len(err.residuals) == 6
        assert str(err) == "transport substep diverged: residual nan at sweep 6"

    def test_damping_converges_two_soliton_first_step(self):
        # the undamped sweep of this step reaches NaN by sweep 72; halving
        # the damping factor whenever the residual grows converges both
        # substeps (14 + 49 sweeps)
        sc = get_scenario("two_soliton")
        g = sc.make_grid()
        policy = C0Policy(target=sc.c0_target)
        cfg = StepperConfig(tau=0.2, fp_tol=sc.fp_tol)
        assert cfg.fp_tol == 1e-12
        stepper = make_stepper("SS", g, cfg,
                               init_sav(g, sc.initial(g.x), sc.p, policy))
        assert stepper.advance().iterations == 63
        assert np.isfinite(stepper.u).all()


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

    def test_cfl_warning_for_backward_step(self, grid128, rng):
        # a backward stepper is built with -tau; the CFL scale bounds |tau|
        st = SavState(u=random_smooth_field(grid128, rng), v=1.0, c0=10.0, p=2)
        with pytest.warns(RuntimeWarning, match="CFL"):
            Etdrk4Stepper(grid128, StepperConfig(tau=-2.0 * grid128.h, scheme="mETDRK4"), st)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Etdrk4Stepper(grid128, StepperConfig(tau=-0.5 * grid128.h, scheme="mETDRK4"), st)


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
        if scheme.startswith("SAV") or scheme == "MCN":  # and the modified energy
            E0, ET = log.records[0].energy_mod, log.records[-1].energy_mod
            assert abs(ET - E0) <= 1e-13 * abs(E0)

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

    @pytest.mark.parametrize("fail_at", [1, 3])
    @pytest.mark.parametrize("error", STEP_ERRORS)
    def test_step_error_carries_partial_log(self, grid128, rng, monkeypatch, error,
                                            fail_at):
        # every step error, at the first step and after two accepted ones
        steps, advance = [], SavIrkStepper.advance

        def failing_advance(self):
            if len(steps) == fail_at - 1:
                raise error("no step")
            steps.append(advance(self))
            return steps[-1]

        monkeypatch.setattr(SavIrkStepper, "advance", failing_advance)
        st = small_state(grid128, rng)
        fields = [st.u]
        with pytest.raises(error) as exc:
            evolve("SAV-IRK4", st, grid128, StepperConfig(tau=0.01), T=0.05,
                   on_step=lambda m, t, u: fields.append(u.copy()))
        assert str(exc.value) == f"step {fail_at} (t={0.01 * fail_at:.6g}): no step"
        log = exc.value.partial_log
        assert [r.t for r in log.records] == pytest.approx([0.01 * m for m in range(fail_at)])
        np.testing.assert_array_equal(log.final_u, fields[-1])
        assert log.blowup_time is None

    def test_no_step_error_is_a_config_error(self):
        # the CLI reports every ValueError as a config error (exit 2)
        assert not any(issubclass(e, ValueError) for e in STEP_ERRORS)

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
        assert str(exc.value) == (
            "step 2 (t=0.04): C0 shift produced v^2 = -9.389e+00 < 0: v^2 - C0 has "
            "drifted below (u^p, u)_h by more than the C0 target since the last shift")
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
                    [a.copy() for a in stepper._history],
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
        E = np.array([r.energy_mod for r in log.records])  # the shift keeps it
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

    def test_leap_frog_c0_shift_lost_to_rounding_is_typed(self):
        # max|u| grows 3.3 -> 17,420 over 8 steps and (u^4, u)_h reaches
        # -2.6e20, where C0 = target - s rounds to -s: the shift must fail
        # as such, not hand the step a zero radicand
        g = make_grid(2.0 * np.pi, 128)
        u = random_smooth_field(g, np.random.default_rng(0), kfrac=0.3, amp=3.0)
        with pytest.raises(C0ShiftError) as exc:
            evolve("SAV-LF", init_sav(g, u, 4), g, StepperConfig(tau=0.02), 0.2)
        assert str(exc.value).startswith(
            "step 9 (t=0.18): C0 shift lost its target to rounding: s = -2.633e+20")
        assert len(exc.value.partial_log.records) == 9

    def test_leap_frog_c0_shift_failure_is_typed(self, grid128, rng):
        st = small_state(grid128, rng)
        stepper = make_stepper("SAV-LF", grid128, StepperConfig(tau=5e-3), st)
        stepper.advance()
        stepper._v_prev = 0.1  # a lower C0 must take v_prev^2 below zero
        before = (stepper.c0, stepper.v, stepper._v_prev)
        with pytest.raises(C0ShiftError, match=r"^C0 shift produced v\^2 = -\S+ < 0"):
            stepper.shift_c0(C0Policy(target=1.0))
        assert (stepper.c0, stepper.v, stepper._v_prev) == before  # not half shifted

    def test_leap_frog_c0_shift_moves_both_levels(self, grid128, rng):
        # v^2 - C0 is kept at both levels, by the same C0
        stepper = make_stepper("SAV-LF", grid128, StepperConfig(tau=5e-3),
                               small_state(grid128, rng))
        stepper.advance()
        c0, v, v_prev = stepper.c0, stepper.v, stepper._v_prev
        stepper.shift_c0(C0Policy(target=30.0))
        assert stepper.c0 == 30.0 - stepper.power()[1]
        assert stepper.v == np.sqrt(v**2 + stepper.c0 - c0)
        assert stepper._v_prev == np.sqrt(v_prev**2 + stepper.c0 - c0)

    @pytest.mark.parametrize("scheme", ["SAV-IRK2", "SAV-IRK4"])
    def test_stage_radicand_takes_the_one_rule(self, grid128, rng, scheme):
        # a C0 that puts the lowest stage radicand at -1, the step's at +1:
        # the frozen G = U^p / sqrt(radicand) of the first sweep refuses it
        g = grid128
        stepper = make_stepper(scheme, g, StepperConfig(tau=0.01), small_state(g, rng))
        u0 = stepper.u
        F = np.full((stepper.tab.A.shape[0], g.N), -500.0)  # (U^2, U)_h << 0
        U, Up = stepper._stages(u0, F)
        stepper.c0 = -min(g.h * float(np.dot(a, b)) for a, b in zip(Up, U)) - 1.0
        assert stepper.radicand() > 0
        lin = stepper._solver.solve(stepper.p * g.k2 * stepper.spectrum())
        with pytest.raises(AdjustmentRequired, match=r"^radicand -\S+ is non-positive$"):
            stepper._iterate(u0, lin, F)

    def test_run_log_counts_sweeps_and_start_fallbacks(self, monkeypatch):
        # the rough stress state of SAV-IRK4 at p = 4, tau = 0.02, where some
        # extrapolated starts fail and are retried from the solved start
        stats, advance = [], SavIrkStepper.advance

        def spy(self):
            stats.append(advance(self))
            return stats[-1]

        monkeypatch.setattr(SavIrkStepper, "advance", spy)
        g = make_grid(2.0 * np.pi, 128)
        u = random_smooth_field(g, np.random.default_rng(3), kfrac=0.3, amp=1.0)
        log = evolve("SAV-IRK4", init_sav(g, u, 4), g, StepperConfig(tau=0.02), T=0.2)
        assert log.steps == len(stats) == 10
        assert log.fp_iterations_total == sum(s.iterations for s in stats)
        assert log.fp_iterations_max == max(s.iterations for s in stats)
        assert log.start_fallbacks == sum(s.fell_back for s in stats) > 0

    def test_unknown_scheme(self, grid128, rng):
        st = small_state(grid128, rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            evolve("RK4", st, grid128, StepperConfig(tau=0.1), T=1.0)
