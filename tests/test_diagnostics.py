from dataclasses import replace

import numpy as np
import pytest

import gkdv.diagnostics as diagnostics
from gkdv.diagnostics import (
    ReferenceMismatch,
    attach_breather_columns,
    convergence_study,
    drift_series,
    linf_error,
    make_reference,
    max_drifts,
)
from gkdv.integrators import FixedPointError, RunLog, SingularStepError, StepperConfig, evolve
from gkdv.sav import InvariantRecord, init_sav
from gkdv.scenarios import get_scenario
from gkdv.spectral import make_grid


def fake_log(scheme="SAV-IRK4", I=(1.0, 1.0, 1.0), M=(2.0, 2.0, 2.0),
             Em=(3.0, 3.0, 3.0), E=None):
    E = E or Em
    records = [
        InvariantRecord(t=float(k), momentum=I[k], mass=M[k], energy=E[k],
                        energy_mod=Em[k])
        for k in range(len(I))
    ]
    return RunLog(scheme=scheme, tau=1.0, T=float(len(I) - 1), records=records)


class TestLinfError:
    def test_identical(self):
        u = np.arange(5.0)
        assert linf_error(u, u) == 0.0

    def test_single_node_bump(self):
        u = np.zeros(8)
        v = u.copy()
        v[3] += 1e-3
        assert np.isclose(linf_error(v, u), 1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linf_error(np.zeros(4), np.zeros(5))


class TestDriftSeries:
    def test_constant_invariants(self):
        dI, dM, dE = drift_series(fake_log())
        assert dI.max() == dM.max() == dE.max() == 0.0

    def test_monotone_input_gives_cumulative_max(self):
        log = fake_log(M=(2.0, 2.5, 2.2))
        _, dM, _ = drift_series(log)
        np.testing.assert_allclose(dM, [0.0, 0.5, 0.5])

    def test_non_decreasing(self):
        log = fake_log(I=(0.0, 0.3, 0.1), M=(1.0, 0.2, 0.9), Em=(5.0, 5.4, 5.2))
        for series in drift_series(log):
            assert np.all(np.diff(series) >= 0)

    def test_energy_column_selection(self, grid64):
        # evolve records a scheme without v's physical energy as energy_mod,
        # and the energy column follows energy_mod
        u = 0.5 * np.cos(grid64.x)
        log = evolve("MCN", init_sav(grid64, u, 2), grid64,
                     StepperConfig(tau=0.05), T=0.2)
        assert [r.energy_mod for r in log.records] == [r.energy for r in log.records]
        _, _, dE = drift_series(log)
        Em = np.array([r.energy_mod for r in log.records])
        np.testing.assert_array_equal(dE, np.maximum.accumulate(np.abs(Em - Em[0])))
        log = fake_log(scheme="MCN", Em=(3.0, 4.0, 5.0), E=(3.0, 3.0, 3.0))
        assert drift_series(log)[2].max() == 2.0

    def test_empty_log(self):
        with pytest.raises(ValueError):
            drift_series(RunLog(scheme="MCN", tau=1.0, T=0.0))

    def test_max_drifts_dict(self):
        d = max_drifts(fake_log(I=(0.0, 1.0, 0.5)))
        assert d["I"] == 1.0 and d["M"] == 0.0 and d["E"] == 0.0


class TestAttachBreatherColumns:
    def test_energy_convention_by_scheme(self):
        sav = fake_log(scheme="SAV-IRK4", M=(24.0,) * 3, Em=(104.0,) * 3,
                       E=(100.0,) * 3)
        recs = attach_breather_columns(sav)
        assert np.isclose(recs[0].gamma_num, 26.0)  # modified energy used
        mcn = fake_log(scheme="MCN", M=(24.0,) * 3, Em=(104.0,) * 3,
                       E=(104.0,) * 3)
        recs = attach_breather_columns(mcn)
        assert np.isclose(recs[0].beta_num, 1.0)


class TestConvergenceStudy:
    def test_exact_stepper_double(self, monkeypatch):
        sc = get_scenario("two_soliton")
        g = make_grid(sc.L, sc.N)

        def exact_run(scenario, grid, scheme, tau, T):
            rec = InvariantRecord(t=T, momentum=0, mass=0, energy=0,
                                  energy_mod=0)
            return RunLog(scheme=scheme, tau=tau, T=T, records=[rec],
                          final_u=scenario.exact(grid.x, T))

        monkeypatch.setattr(diagnostics, "_run", exact_run)
        rows = convergence_study("SAV-IRK4", sc, [0.2, 0.1], 1.0, g=g)
        assert all(r.error == 0.0 for r in rows)
        assert all(r.rate is None for r in rows)

    def test_rate_is_error_ratio_sorted_by_tau(self, monkeypatch):
        sc = get_scenario("two_soliton")
        g = make_grid(sc.L, sc.N)
        errors = {0.2: 8.0, 0.1: 2.0, 0.05: 0.5}

        def canned(scenario, grid, scheme, tau, T):
            exact = scenario.exact(grid.x, T)
            u = exact.copy()
            u[0] += errors[tau]
            rec = InvariantRecord(t=T, momentum=0, mass=0, energy=0,
                                  energy_mod=0)
            return RunLog(scheme=scheme, tau=tau, T=T, records=[rec], final_u=u)

        monkeypatch.setattr(diagnostics, "_run", canned)
        rows = convergence_study("SAV-IRK2", sc, [0.05, 0.2, 0.1], 1.0, g=g)
        assert [r.tau for r in rows] == [0.2, 0.1, 0.05]
        assert rows[0].rate is None
        assert np.isclose(rows[1].rate, 4.0)
        assert np.isclose(rows[2].rate, 4.0)

    def test_blowup_row_flagged(self, monkeypatch):
        sc = get_scenario("two_soliton")
        g = make_grid(sc.L, sc.N)

        def sometimes_blows(scenario, grid, scheme, tau, T):
            rec = InvariantRecord(t=T, momentum=0, mass=0, energy=0,
                                  energy_mod=0)
            log = RunLog(scheme=scheme, tau=tau, T=T, records=[rec],
                         final_u=scenario.exact(grid.x, T))
            if tau > 0.15:
                log.blowup_time = 0.5
            return log

        monkeypatch.setattr(diagnostics, "_run", sometimes_blows)
        rows = convergence_study("SAV-IRK2", sc, [0.2, 0.1], 1.0, g=g)
        assert rows[0].blowup and rows[0].error is None and rows[0].rate is None
        assert rows[0].status == "blowup" and rows[0].detail == ""
        assert not rows[1].blowup and rows[1].status == "ok"

    def test_failed_run_is_a_row(self, monkeypatch):
        # a step error is a row that breaks the rate chain; its status is the
        # fixed point's kind, else the error's type
        sc = get_scenario("two_soliton")
        g = make_grid(sc.L, sc.N)
        errors = {0.4: FixedPointError("no fixed point", kind="budget"),
                  0.1: SingularStepError("pivot 0.0")}

        def sometimes_fails(scenario, grid, scheme, tau, T):
            if tau in errors:
                raise errors[tau]
            u = scenario.exact(grid.x, T)
            u[0] += tau
            rec = InvariantRecord(t=T, momentum=0, mass=0, energy=0, energy_mod=0)
            return RunLog(scheme=scheme, tau=tau, T=T, records=[rec], final_u=u)

        monkeypatch.setattr(diagnostics, "_run", sometimes_fails)
        rows = convergence_study("SAV-IRK2", sc, [0.4, 0.2, 0.1, 0.05], 1.0, g=g)
        assert [(r.tau, r.status, r.detail) for r in rows] == [
            (0.4, "budget", "no fixed point"), (0.2, "ok", ""),
            (0.1, "SingularStepError", "pivot 0.0"), (0.05, "ok", "")]
        assert [r.error is None for r in rows] == [True, False, True, False]
        assert all(r.rate is None and not r.blowup for r in rows)

    def test_scatter_requires_reference(self):
        sc = get_scenario("scatter")
        with pytest.raises(ValueError, match="reference"):
            convergence_study("SAV-IRK4", sc, [0.1], 0.1, g=sc.make_grid())


class TestRun:
    def test_samples_only_the_start_and_the_end(self):
        # T/tau = 3.33 steps, a partial last one included: a sample interval
        # of round(T/tau) = 3 would also record t = 0.9
        sc = get_scenario("scatter")
        log = diagnostics._run(sc, make_grid(sc.L, 256), "SAV-IRK4", 0.3, 1.0)
        assert [r.t for r in log.records] == [0.0, 1.0]


class TestMakeReference:
    def test_t_zero_returns_initial(self):
        sc = get_scenario("scatter")
        g = make_grid(sc.L, 256)
        u_ref, gap = make_reference(sc, g, 0.01, 0.0)
        np.testing.assert_allclose(u_ref, sc.initial(g.x))
        assert gap == 0.0

    def test_short_horizon_agreement(self):
        sc = get_scenario("scatter")
        g = make_grid(sc.L, 1024)
        u_ref, gap = make_reference(sc, g, 1e-4, 0.05)
        assert gap <= 1e-10
        assert np.isfinite(u_ref).all()

    def test_blown_up_reference_run_is_rejected(self):
        # the breather's initial state scaled by 5 blows up in mETDRK4's
        # first step; tau_ref < h, so no CFL warning (an error in this suite)
        # comes first
        sc = get_scenario("breather")
        sc = replace(sc, initial=lambda x, u0=sc.initial: 5.0 * u0(x))
        g = make_grid(sc.L, 256)
        assert 0.05 < g.h
        with pytest.raises(ReferenceMismatch,
                           match=r"^mETDRK4 reference run blew up at t=0.05$"):
            make_reference(sc, g, 0.05, 5.0)

    def test_desk_tau_ref_is_rejected_on_example3(self):
        # the 4th-order reference at tau_ref = 1/6400 still carries ~2e-9 of
        # its own error at T = 1, so the two integrators disagree beyond the
        # 1e-10 acceptance gap and the reference must be rejected
        sc = get_scenario("scatter")
        g = make_grid(sc.L, 1024)
        with pytest.raises(ReferenceMismatch, match="disagree"):
            make_reference(sc, g, 1.0 / 6400.0, 1.0)
