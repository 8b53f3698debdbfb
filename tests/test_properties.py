"""Property tests of the paper's conservation theorems on random states.

SAV-IRK keeps momentum and the modified energy up to its fixed-point
tolerance, and its mass drift stays under ``mass_drift_bound``; MCN keeps
momentum, and the physical energy on undealiased grids; SAV-LF keeps
momentum, and its modified energy on undealiased grids; IRK and SS keep
momentum.  A run that stops must stop with a typed step error.  A C0 shift
keeps the modified energy to round-off, or fails as ``C0ShiftError``.  One
SAV-IRK2 step changes the mass by exactly half of ``mass_drift_bound``, and
a step of -tau undoes a step of tau of every symmetric scheme.  A collocation
step's extrapolated start selects the fixed point its solved start selects.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hs

import gkdv.integrators as integrators
from gkdv.integrators import STEP_ERRORS, StepperConfig, evolve, make_stepper
from gkdv.sav import (
    C0Policy,
    C0ShiftError,
    adjust_c0,
    init_sav,
    invariants,
    mass_drift_bound,
    nonlinear_power,
)
from gkdv.spectral import inner_h, make_grid

from conftest import random_smooth_field

STEPS = 5
FP_TOL = 1e-12
DRIFT_PER_STEP = 100  # allowed drift per step, in fp_tol times the invariant's scale
# round-off on top of the a-posteriori mass bound, which has none.  A few ulps
# of M0 do not cover it on rough states: SAV-IRK8 at N = 128, L = 2.00001,
# p = 6 drifts 2.05e-15 by step 5, 72.5 ulps of its M0 = 0.2335, over a bound
# of 4.1e-17
MASS_SLACK = 1e-11
# allowed gap per step between runs from the extrapolated and the solved
# start, in fp_tol times max(1, max|u|) of the solved run's final field; the
# largest measured was 5.3e-4 over this test's examples (IRK2, N = 64, p = 6)
# and 9.6e-4 over 200 other draws of its strategy (IRK2, N = 64, p = 6)
START_GAP_PER_STEP = 0.01
SHIFT_EVERY_STEP = C0Policy(tol=math.inf)  # the radicand is always below inf
# a state whose first SAV-IRK2 step drifts 1.4e-5 in mass
MASS_IDENTITY_STATE = dict(N=128, L=7.5917080849805005, p=4, tau=0.01342337542849665,
                           kfrac=0.47513593607835736, amp=2.9586493893790915,
                           seed=2315267915)


def energy_scale(g, state, physical: bool) -> float:
    """The sum of the magnitudes of the conserved energy's terms at the start:
    (D2 u, u)_h / 2 and (u^p, u)_h / (p(p+1)) of the physical energy, or
    (D2 u, u)_h / 2, v^2 / (p(p+1)) and C0 / (p(p+1)) of the modified one."""
    uh = g.to_modes(state.u)
    d2u_u = float(np.dot(g.parseval_d2, uh.real**2 + uh.imag**2))
    pp1 = state.p * (state.p + 1)
    s = inner_h(g, nonlinear_power(g, state.u, state.p), state.u)
    rest = abs(s) if physical else state.v**2 + abs(state.c0)
    return 0.5 * abs(d2u_u) + rest / pp1


def assert_conserved(g, state, scheme, log):
    """The drifts of the records an evolve (or its ``partial_log``) kept."""
    steps = len(log.records) - 1
    bound = DRIFT_PER_STEP * FP_TOL * max(steps, 1)
    I = np.array([r.momentum for r in log.records])
    momentum_scale = g.h * float(np.abs(state.u).sum())
    assert np.abs(I - I[0]).max() <= bound * momentum_scale
    if scheme.startswith("IRK") or scheme == "SS":
        return  # they keep no energy
    if scheme in ("MCN", "SAV-LF") and g.dealias:
        # MCN never filters its difference quotient, so it keeps the energy
        # of the unfiltered u^p, not the sampled one; SAV-LF's first level
        # is an MCN step
        return
    E = np.array([r.energy_mod for r in log.records])
    assert np.abs(E - E[0]).max() <= bound * energy_scale(g, state, scheme == "MCN")
    if scheme.startswith("SAV-IRK"):
        M = np.array([r.mass for r in log.records])
        for k, r in enumerate(log.records):
            limit = mass_drift_bound(g, state.p, r.t, log.flux_max_series[k])
            assert abs(M[k] - M[0]) <= limit + MASS_SLACK


@settings(max_examples=200, deadline=None, derandomize=True)
@given(N=hs.sampled_from([32, 64, 128]), L=hs.floats(2.0, 20.0),
       p=hs.integers(2, 6), tau=hs.floats(1e-3, 2e-2),
       kfrac=hs.floats(0.1, 0.5), amp=hs.floats(0.1, 3.0),
       seed=hs.integers(0, 2**32 - 1), dealias=hs.booleans(),
       scheme=hs.sampled_from(["SAV-IRK2", "SAV-IRK4", "SAV-IRK6", "SAV-IRK8",
                               "IRK2", "IRK4", "IRK6", "IRK8", "MCN", "SS", "SAV-LF"]),
       shift=hs.booleans())
# the SAV-IRK2 frontier, p = 4 at amplitude 3: a stage radicand turns negative at step 2
@example(N=128, L=2.0 * np.pi, p=4, tau=2e-2, kfrac=0.3, amp=3.0, seed=1,
         dealias=False, scheme="SAV-IRK2", shift=False)
# small, rough grids whose step-1 mass drift exceeded a bound that read the
# stage flux of U^p instead of the nonlinearity the step integrates
@example(N=64, L=2.0, p=5, tau=1 / 64, kfrac=0.5, amp=3.0, seed=0,
         dealias=False, scheme="SAV-IRK2", shift=False)
@example(N=64, L=2.0, p=4, tau=1 / 64, kfrac=0.5, amp=3.0, seed=6,
         dealias=False, scheme="SAV-IRK2", shift=False)
@example(**MASS_IDENTITY_STATE, dealias=False, scheme="SAV-IRK2", shift=False)
def test_conservation_on_random_states(N, L, p, tau, kfrac, amp, seed, dealias,
                                       scheme, shift):
    g = make_grid(L, N, dealias=dealias)
    u = random_smooth_field(g, np.random.default_rng(seed), kfrac=kfrac, amp=amp)
    state = init_sav(g, u, p)
    policy = SHIFT_EVERY_STEP if shift else C0Policy()
    try:
        log = evolve(scheme, state, g, StepperConfig(tau=tau, fp_tol=FP_TOL),
                     T=STEPS * tau, policy=policy)
        event("completed" if log.blowup_time is None else "blew up")
    except STEP_ERRORS as err:
        event(type(err).__name__)
        m = len(err.partial_log.records)
        assert str(err).startswith(f"step {m} (t=")
        log = err.partial_log
    assert log.records[0].t == 0.0
    assert_conserved(g, state, scheme, log)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(N=hs.sampled_from([32, 64, 128]), L=hs.floats(2.0, 20.0),
       p=hs.integers(2, 6), kfrac=hs.floats(0.1, 0.5), amp=hs.floats(0.1, 3.0),
       seed=hs.integers(0, 2**32 - 1), dealias=hs.booleans(),
       v_factor=hs.floats(0.0, 2.0), target=hs.floats(1.0, 1e3))
def test_c0_shift_keeps_the_modified_energy(N, L, p, kfrac, amp, seed, dealias,
                                            v_factor, target):
    # v away from init_sav's sqrt((u^p, u)_h + C0), as after accepted steps;
    # a v^2 - C0 far below (u^p, u)_h leaves no real v for the new C0
    g = make_grid(L, N, dealias=dealias)
    u = random_smooth_field(g, np.random.default_rng(seed), kfrac=kfrac, amp=amp)
    state = init_sav(g, u, p)
    state = replace(state, v=v_factor * state.v)
    try:
        shifted = adjust_c0(state, g, C0Policy(target=target))
    except C0ShiftError:
        event("C0ShiftError")
        return
    event("shifted")
    drift = abs(invariants(shifted, g).energy_mod - invariants(state, g).energy_mod)
    scale = max(energy_scale(g, state, False), energy_scale(g, shifted, False))
    assert drift <= 4 * np.finfo(float).eps * scale


def test_one_stage_mass_change_is_half_the_bound():
    # with one stage, dM = -(2 tau h/p) U^T D1 N exactly, and the bound's
    # 4h/p is twice that
    st = MASS_IDENTITY_STATE
    g = make_grid(st["L"], st["N"])
    u = random_smooth_field(g, np.random.default_rng(st["seed"]), kfrac=st["kfrac"],
                            amp=st["amp"])
    stepper = make_stepper("SAV-IRK2", g, StepperConfig(tau=st["tau"], fp_tol=FP_TOL),
                           init_sav(g, u, st["p"]))
    mass0 = inner_h(g, u, u)
    stats = stepper.advance()
    dM = abs(inner_h(g, stepper.u, stepper.u) - mass0)
    bound = mass_drift_bound(g, st["p"], st["tau"], stats.flux)
    assert bound == pytest.approx(2 * dM, rel=1e-6)


# the schemes whose step of -tau inverts their step of tau
SYMMETRIC = ["SAV-IRK2", "SAV-IRK4", "SAV-IRK6", "SAV-IRK8",
             "IRK2", "IRK4", "IRK6", "IRK8", "MCN", "SS"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(N=hs.sampled_from([32, 64, 128, 256]), L=hs.floats(2.0, 20.0),
       p=hs.integers(2, 6), tau=hs.floats(1e-3, 2e-2),
       kfrac=hs.floats(0.1, 0.5), amp=hs.floats(0.1, 3.0),
       seed=hs.integers(0, 2**32 - 1), dealias=hs.booleans(),
       scheme=hs.sampled_from(SYMMETRIC))
def test_backward_step_undoes_a_forward_step(N, L, p, tau, kfrac, amp, seed, dealias,
                                             scheme):
    g = make_grid(L, N, dealias=dealias)
    u = random_smooth_field(g, np.random.default_rng(seed), kfrac=kfrac, amp=amp)
    state = init_sav(g, u, p)
    forward = make_stepper(scheme, g, StepperConfig(tau=tau, fp_tol=FP_TOL), state)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            forward.advance()
            back = make_stepper(scheme, g, StepperConfig(tau=-tau, fp_tol=FP_TOL),
                                forward.state)
            back.advance()
    except STEP_ERRORS as err:
        event(type(err).__name__)
        return
    event("round trip")
    assert np.abs(back.u - u).max() <= 10 * FP_TOL * max(1.0, float(np.abs(u).max()))
    if back.v is not None:
        assert abs(back.v - state.v) <= 10 * FP_TOL * max(1.0, state.v)


def _solved_start_stepper(*args):
    """A stepper whose history is cleared before every step, so that each
    collocation step starts from the F solved for N(u0)."""
    stepper = make_stepper(*args)
    advance = stepper.advance

    def solved_start_advance():
        stepper._history = []
        return advance()

    stepper.advance = solved_start_advance
    return stepper


@settings(max_examples=200, deadline=None, derandomize=True)
@given(N=hs.sampled_from([32, 64, 128]), L=hs.floats(2.0, 20.0),
       p=hs.integers(2, 6), tau=hs.floats(1e-3, 2e-2),
       kfrac=hs.floats(0.1, 0.5), amp=hs.floats(0.1, 3.0),
       seed=hs.integers(0, 2**32 - 1), dealias=hs.booleans(),
       scheme=hs.sampled_from(["SAV-IRK2", "SAV-IRK4", "SAV-IRK6", "SAV-IRK8",
                               "IRK2", "IRK4", "IRK6", "IRK8"]),
       shift=hs.booleans())
def test_extrapolated_start_selects_the_solved_starts_fixed_point(
        N, L, p, tau, kfrac, amp, seed, dealias, scheme, shift):
    # both runs stop within the estimate's 0.1 fp_tol of the fixed point, so
    # they agree to a share of fp_tol per step, and fail alike
    g = make_grid(L, N, dealias=dealias)
    u = random_smooth_field(g, np.random.default_rng(seed), kfrac=kfrac, amp=amp)
    state = init_sav(g, u, p)
    policy = SHIFT_EVERY_STEP if shift else C0Policy()
    runs = []
    for solved in (False, True):
        with pytest.MonkeyPatch.context() as m:
            if solved:
                m.setattr(integrators, "make_stepper", _solved_start_stepper)
            try:
                log = evolve(scheme, state, g, StepperConfig(tau=tau, fp_tol=FP_TOL),
                             T=STEPS * tau, policy=policy)
                runs.append(("blew up" if log.blowup_time is not None else "completed", log))
            except STEP_ERRORS as err:
                runs.append((f"{type(err).__name__} {getattr(err, 'kind', '')}",
                             err.partial_log))
    (status, log), (solved_status, solved_log) = runs
    event(status)
    assert (status, len(log.records)) == (solved_status, len(solved_log.records))
    if status != "completed":
        return
    steps = len(log.records) - 1
    gap = START_GAP_PER_STEP * FP_TOL * steps
    assert np.abs(log.final_u - solved_log.final_u).max() <= gap * max(
        1.0, float(np.abs(solved_log.final_u).max()))
