import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gkdv.cli import (
    SNAPSHOT_HEADER,
    JobSpec,
    _spec_from_args,
    build_parser,
    main,
    write_invariants_csv,
)
from gkdv.integrators import SavIrkStepper, SingularStepError
from gkdv.sav import AdjustmentRequired, init_sav, invariants
from gkdv.spectral import make_grid


def run_cli(args):
    return main([str(a) for a in args])


def read_snapshots(path):
    """Parse a snapshot stream back into (t, field) pairs."""
    out = []
    raw = path.read_bytes()
    off = 0
    while off < len(raw):
        n, _L, _p, t = SNAPSHOT_HEADER.unpack_from(raw, off)
        off += SNAPSHOT_HEADER.size
        u = np.frombuffer(raw, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        out.append((t, u))
    return out


def spec_for(args, command="run"):
    return _spec_from_args(build_parser().parse_args([command, *map(str, args)]))


# JobSpec field -> INI section, INI key, flag, words after the flag (a boolean
# flag takes none; its INI value is "true"), typed value.  No value is a default.
SETTINGS = {
    "scenario": ("scenario", "name", "--scenario", ["breather"], "breather"),
    "scheme": ("scheme", "name", "--scheme", ["MCN"], "MCN"),
    "schemes": ("scheme", "schemes", "--schemes", ["MCN", "SS"], ["MCN", "SS"]),
    "tau": ("scheme", "tau", "--tau", ["0.05"], 0.05),
    "taus": ("scheme", "taus", "--taus", ["0.2", "0.1"], [0.2, 0.1]),
    "T": ("scheme", "T", "--T", ["3.5"], 3.5),
    "N": ("scenario", "N", "--N", ["512"], 512),
    "L": ("scenario", "L", "--L", ["12.5"], 12.5),
    "p": ("scenario", "p", "--p", ["3"], 3),
    "fp_tol": ("scheme", "fp_tol", "--fp-tol", ["1e-10"], 1e-10),
    "c0_tol": ("scheme", "c0_tol", "--c0-tol", ["2.5"], 2.5),
    "out_dir": ("output", "dir", "--out-dir", ["x/y"], "x/y"),
    "snapshots": ("output", "snapshots", "--snapshots", ["4"], 4),
    "sample_every": ("output", "sample_every", "--sample-every", ["3"], 3),
    "dealias": ("scenario", "dealias", "--dealias", [], True),
    "tau_ref": ("scheme", "tau_ref", "--tau-ref", ["1e-4"], 1e-4),
    "rate_min": ("scheme", "rate_min", "--rate-min", ["3"], 3.0),
    "rate_max": ("scheme", "rate_max", "--rate-max", ["5"], 5.0),
}

BAD_SETTINGS = [["--N", 100], ["--L", 0], ["--p", 1], ["--tau", -1],
                ["--fp-tol", 0], ["--T", -1], ["--sample-every", 0], ["--snapshots", -1],
                ["--rate-min", "nan"], ["--rate-min", 5, "--rate-max", 3]]
COMMAND_ARGS = {"run": [], "compare": ["--schemes", "SAV-IRK4"],
                "converge": ["--taus", 0.1]}
# the settings each command does not read, so has no flag for
IGNORED = {
    "run": ["schemes", "taus", "tau_ref", "rate_min", "rate_max"],
    "compare": ["scheme", "taus", "snapshots", "tau_ref", "rate_min", "rate_max"],
    "converge": ["tau", "schemes", "c0_tol", "snapshots", "sample_every"],
}
# command, flag, value, the setting the error names
NON_FINITE = [("run", "--T", "inf", "T"), ("converge", "--T", "inf", "T"),
              ("run", "--T", "nan", "T"), ("run", "--tau", "inf", "tau"),
              ("run", "--tau", "nan", "tau"), ("compare", "--tau", "inf", "tau"),
              ("run", "--fp-tol", "nan", "fp_tol"), ("run", "--fp-tol", "inf", "fp_tol"),
              ("converge", "--fp-tol", "nan", "fp_tol"), ("run", "--L", "inf", "L"),
              ("compare", "--L", "nan", "L")]


def reader_of(name):
    """A command that reads the setting, so takes its flag."""
    return next(c for c in COMMAND_ARGS if name not in IGNORED[c])


def assert_flag_rejected(command, name, tmp_path, capsys):
    flag, words = SETTINGS[name][2:4]
    rc = run_cli([command, "--preset", "example2", "--T", 0.2,
                  *COMMAND_ARGS[command], flag, *words, "--out-dir", tmp_path / "o"])
    assert rc == 2
    assert "error: unrecognized arguments: " + flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_invariants_csv_format(tmp_path):
    g = make_grid(np.pi, 64)
    rec = invariants(init_sav(g, np.zeros(g.N), 2), g, t=0.25)
    write_invariants_csv(tmp_path / "a.csv", [rec])
    header, row = (tmp_path / "a.csv").read_text().splitlines()
    assert header == "t,I,M,E,Etilde"
    assert row.split(",")[0] == "0.25"
    assert len(row.split(",")) == 5
    tracked = replace(rec, beta_num=1 / 3, gamma_num=26.0)
    write_invariants_csv(tmp_path / "b.csv", [tracked])
    header, row = (tmp_path / "b.csv").read_text().splitlines()
    assert header == "t,I,M,E,Etilde,beta_num,gamma_num"
    assert row.split(",")[5:] == ["0.3333333333333333", "26.0"]


class TestRun:
    def test_t_zero(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["run", "--preset", "example2", "--T", 0, "--out-dir", out])
        assert rc == 0
        lines = (out / "invariants.csv").read_text().splitlines()
        assert lines[0] == "t,I,M,E,Etilde"
        assert len(lines) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scheme"] == "SAV-IRK4"
        assert summary["T"] == 0.0

    def test_summary_reports_sweeps(self, tmp_path):
        # five steps of tau = 0.2: the total, per step and the most of one
        # step, and the steps whose extrapolated start fell back
        out = tmp_path / "o"
        assert run_cli(["run", "--preset", "example2", "--tau", 0.2, "--T", 1,
                        "--out-dir", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        total, most = summary["fp_iterations_total"], summary["fp_iterations_max"]
        assert summary["fp_iterations_per_step"] == total / 5
        assert total / 5 <= most < total
        assert summary["start_fallbacks"] == 0

    def test_outputs_are_deterministic(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run_cli(["run", "--preset", "example2", "--T", 1,
                          "--out-dir", out])
            assert rc == 0
            texts.append((out / "invariants.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_floats_round_trip_exactly(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["run", "--preset", "example2", "--T", 1, "--out-dir", out])
        lines = (out / "invariants.csv").read_text().splitlines()[1:]
        cells = lines[-1].split(",")
        assert cells == [repr(float(c)) for c in cells]  # shortest round-trip form

    def test_snapshot_stream(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["run", "--preset", "example2", "--T", 1, "--out-dir", out,
                      "--snapshots", 5])
        assert rc == 0
        snaps = read_snapshots(out / "snapshots.bin")
        assert [t for t, _ in snaps] == [0.5, 1.0]
        assert all(u.shape == (2048,) for _, u in snaps)
        assert all(np.isfinite(u).all() for _, u in snaps)

    def test_breather_invariants_have_diagnostic_columns(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["run", "--preset", "example1", "--T", 0.1,
                      "--tau", 0.02, "--out-dir", out])
        assert rc == 0
        lines = (out / "invariants.csv").read_text().splitlines()
        assert lines[0] == "t,I,M,E,Etilde,beta_num,gamma_num"
        last = [float(c) for c in lines[-1].split(",")]
        assert abs(last[5] - 1.0) < 1e-6    # beta estimate
        assert abs(last[6] - 26.0) < 1e-4   # gamma estimate

    @pytest.mark.parametrize("p, closed_form", [(2, False), (3, True)])
    def test_p_override_keeps_closed_form_only_for_preset_exponent(
            self, tmp_path, p, closed_form):
        # the breather preset is mKdV (p = 3); at p = 2 it is another equation
        sc = spec_for(["--preset", "example1", "--p", p]).resolve_scenario()
        assert (sc.solution is not None, sc.track_breather) == (closed_form, closed_form)
        out = tmp_path / "o"
        rc = run_cli(["run", "--preset", "example1", "--p", p, "--N", 256,
                      "--T", 0.04, "--tau", 0.02, "--out-dir", out])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert ("final_error" in summary) is closed_form
        header = (out / "invariants.csv").read_text().splitlines()[0]
        assert header == ("t,I,M,E,Etilde,beta_num,gamma_num" if closed_form
                          else "t,I,M,E,Etilde")

    @pytest.mark.parametrize("name", IGNORED["run"])
    def test_flags_it_ignores_are_rejected(self, tmp_path, capsys, name):
        assert_flag_rejected("run", name, tmp_path, capsys)

    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_boundary_decay_warning(self, tmp_path, command):
        # the two-soliton is 0.34 at x = +-20; every command warns and runs on
        with pytest.warns(RuntimeWarning, match="3.4e-01 at the boundary"):
            rc = run_cli([command, "--preset", "example2", "--L", 20, "--T", 0.2,
                          *COMMAND_ARGS[command], "--out-dir", tmp_path / "o"])
        assert rc == 0

    def test_numerical_failure_still_writes_summary(self, tmp_path):
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning):
            rc = run_cli(["run", "--scenario", "breather", "--scheme", "mETDRK4",
                          "--N", 256, "--tau", 2.0, "--T", 20,
                          "--fp-tol", "1e-12", "--out-dir", out])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert "blowup_time" in summary or "error" in summary


class TestCompare:
    def test_missing_schemes_is_a_config_error(self, tmp_path, capsys):
        rc = run_cli(["compare", "--preset", "example1", "--out-dir", tmp_path / "o"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: compare needs at least one scheme (--schemes)\n")
        assert not (tmp_path / "o").exists()

    def test_two_schemes(self, tmp_path):
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning, match="CFL"):
            rc = run_cli(["compare", "--preset", "example2", "--T", 1,
                          "--schemes", "SAV-IRK2", "mETDRK4", "--out-dir", out])
        assert rc == 0
        assert (out / "invariants_SAV-IRK2.csv").exists()
        assert (out / "invariants_mETDRK4.csv").exists()
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header.startswith("t,SAV-IRK2_dI")
        status = json.loads((out / "summary_compare.json").read_text())["status"]
        assert status == {"SAV-IRK2": "ok", "mETDRK4": "ok"}

    @pytest.mark.parametrize("name", IGNORED["compare"])
    def test_flags_it_ignores_are_rejected(self, tmp_path, capsys, name):
        assert_flag_rejected("compare", name, tmp_path, capsys)

    def test_empty_scheme_list(self, tmp_path):
        rc = run_cli(["compare", "--preset", "example2",
                      "--out-dir", tmp_path / "o"])
        assert rc == 2

    def test_failed_retry_adjustment_is_reported(self, tmp_path, monkeypatch):
        def advance(self):
            raise AdjustmentRequired("stage radicand dropped")

        monkeypatch.setattr(SavIrkStepper, "advance", advance)
        out = tmp_path / "o"
        rc = run_cli(["compare", "--preset", "example2", "--T", 0.2,
                      "--schemes", "SAV-IRK4", "MCN", "--out-dir", out])
        status = json.loads((out / "summary_compare.json").read_text())["status"]
        assert status["SAV-IRK4"].startswith("failed: step 1 (t=")
        assert status["MCN"] == "ok"
        assert rc == 0
        rc = run_cli(["run", "--preset", "example2", "--T", 0.2,
                      "--out-dir", tmp_path / "r"])
        assert rc == 3

    def test_failed_c0_shift_is_reported(self, tmp_path, monkeypatch):
        # a C0 far above the radicand target: the retry's shift finds v^2 < 0
        def advance(self):
            self.c0 = 1e6
            raise AdjustmentRequired("stage radicand dropped")

        monkeypatch.setattr(SavIrkStepper, "advance", advance)
        out = tmp_path / "o"
        rc = run_cli(["compare", "--preset", "example2", "--T", 0.2,
                      "--schemes", "SAV-IRK4", "MCN", "--out-dir", out])
        status = json.loads((out / "summary_compare.json").read_text())["status"]
        assert status["SAV-IRK4"].startswith("failed: step 1 (t=0.1): C0 shift produced")
        assert status["MCN"] == "ok"
        assert rc == 0
        rc = run_cli(["run", "--preset", "example2", "--T", 0.2,
                      "--out-dir", tmp_path / "r"])
        assert rc == 3
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["error"].endswith("< 0: v^2 - C0 has drifted below (u^p, u)_h "
                                         "by more than the C0 target since the last shift")

    def test_partial_failure_still_ok(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["compare", "--scenario", "breather", "--N", 256,
                      "--tau", 0.02, "--T", 5, "--fp-tol", "1e-11",
                      "--schemes", "SAV-LF", "SAV-IRK2", "--out-dir", out])
        status = json.loads((out / "summary_compare.json").read_text())["status"]
        assert status["SAV-LF"].startswith("failed")
        assert status["SAV-IRK2"] == "ok"
        assert rc == 0  # at least one scheme succeeded


class TestConverge:
    def test_single_tau_no_rates(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example2", "--T", 2,
                      "--taus", 0.1, "--out-dir", out])
        assert rc == 0
        rows = (out / "rates.csv").read_text().splitlines()
        assert rows[0] == "tau,error,rate,status"
        assert rows[1].endswith(",,ok")  # no rate column value

    def test_second_order_band(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example2", "--T", 5,
                      "--scheme", "SAV-IRK2", "--taus", 0.2, 0.1,
                      "--out-dir", out])
        assert rc == 0
        rows = (out / "rates.csv").read_text().splitlines()[1:]
        rate = float(rows[1].split(",")[2])
        assert 3.0 < rate < 5.0

    def test_out_of_band_exit_code(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example2", "--T", 5,
                      "--scheme", "SAV-IRK2", "--taus", 0.2, 0.1,
                      "--rate-min", 100.0, "--rate-max", 200.0, "--out-dir", out])
        assert rc == 1

    def test_diverged_step_exits_numerical(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example1", "--N", 128, "--T", 0.3,
                      "--taus", 0.3, "--out-dir", out])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "converge failed: step 1 (t=0.3): stage iteration did not reach 1e-11 in "
            "200 sweeps (diverged")
        assert (out / "rates.csv").read_text() == "tau,error,rate,status\n0.3,,,diverged\n"

    def test_diverged_row_keeps_the_next(self, tmp_path, capsys):
        # the diverged tau = 0.3 run is a row, and tau = 0.01 still runs; with
        # no rate the study exits numerical
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example1", "--N", 128, "--T", 0.3,
                      "--taus", 0.3, 0.01, "--out-dir", out])
        assert rc == 3
        captured = capsys.readouterr()
        assert [line.split() for line in captured.out.splitlines()[1:]] == [
            ["0.3", "diverged", "-"], ["0.01", "3.892516e-01", "-"]]
        assert captured.err.startswith("converge failed: step 1 (t=0.3): ")
        assert captured.err.count("converge failed") == 1
        rows = (out / "rates.csv").read_text().splitlines()
        assert rows[1] == "0.3,,,diverged"
        tau, error, rate, status = rows[2].split(",")
        assert (tau, rate, status) == ("0.01", "", "ok")
        assert float(error) == pytest.approx(0.3893, abs=5e-5)

    def test_missing_taus_is_a_config_error(self, tmp_path, capsys):
        rc = run_cli(["converge", "--preset", "example1", "--out-dir", tmp_path / "o"])
        assert rc == 2
        assert capsys.readouterr().err == "config error: converge needs --taus\n"
        assert not (tmp_path / "o").exists()

    def test_lone_blowup_row_exits_numerical(self, tmp_path, capsys):
        # SAV-LF on the breather at N = 256 blows up at tau = 0.02, so the
        # study has a flagged row and no rate
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example1", "--scheme", "SAV-LF",
                      "--N", 256, "--T", 5, "--taus", 0.02, "--out-dir", out])
        assert rc == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["0.02", "blow-up", "-"]
        assert (out / "rates.csv").read_text() == "tau,error,rate,status\n0.02,,,blowup\n"

    @pytest.mark.parametrize("name", IGNORED["converge"],
                             ids=lambda name: SETTINGS[name][2])
    def test_flags_it_ignores_are_rejected(self, tmp_path, capsys, name):
        assert_flag_rejected("converge", name, tmp_path, capsys)

    @pytest.mark.parametrize("L", [[], ["--L", 40]])
    def test_breather_against_periodic_exact(self, tmp_path, L):
        # the envelope crosses the boundary near t = L/26; against the exact
        # solution periodized on the run's own domain SAV-IRK4 converges at
        # its order
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example1", "--T", 2, *L,
                      "--taus", 0.01, 0.005, "--out-dir", out])
        assert rc == 0
        rows = [r.split(",") for r in (out / "rates.csv").read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx([4.34e-2, 2.81e-3], rel=5e-3)
        assert float(rows[1][2]) == pytest.approx(15.4, abs=0.1)

    def test_reference_for_scenario_without_closed_form(self, tmp_path, capsys):
        # scattering has no exact solution; at N = 128 mETDRK4 and SAV-IRK4
        # agree to 4.5e-11 at tau_ref = 0.0025
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example3", "--N", 128, "--T", 0.2,
                      "--tau-ref", 0.0025, "--taus", 0.1, 0.05, "--out-dir", out])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "reference computed at tau_ref=0.0025 (cross-method gap ")
        rows = [r.split(",") for r in (out / "rates.csv").read_text().splitlines()]
        assert rows[0] == ["tau", "error", "rate", "status"]
        assert [float(r[0]) for r in rows[1:]] == [0.1, 0.05]
        assert [r[3] for r in rows[1:]] == ["ok", "ok"]
        errors = [float(r[1]) for r in rows[1:]]
        assert 0.0 < errors[1] < errors[0] < 1e-3
        assert rows[1][2] == "" and 2**4 / 1.3 < float(rows[2][2]) < 2**4 * 1.3

    def test_p_override_takes_reference_path(self, tmp_path, capsys):
        # a KdV run from the breather's initial state: judged against the
        # mKdV breather it read 5.114 and 5.154 (rate 0.992, exit 1)
        out = tmp_path / "o"
        rc = run_cli(["converge", "--preset", "example1", "--p", 2, "--N", 128,
                      "--T", 0.1, "--tau-ref", 7.8125e-5, "--taus", 0.01, 0.005,
                      "--out-dir", out])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "reference computed at tau_ref=7.8125e-05 (cross-method gap ")
        rows = [r.split(",") for r in (out / "rates.csv").read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx([1.652e-2, 9.172e-4], rel=1e-3)
        assert 2**4 / 1.3 < float(rows[1][2]) < 2**4 * 1.3

    def test_failed_reference_step_is_rejected(self, tmp_path, capsys,
                                               monkeypatch):
        def advance(self):
            raise SingularStepError("scalar system singular")

        monkeypatch.setattr(SavIrkStepper, "advance", advance)
        rc = run_cli(["converge", "--preset", "example3", "--T", 0.1,
                      "--tau-ref", 0.05, "--taus", 0.1, "--out-dir", tmp_path / "o"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "reference rejected: step 1 (t=0.05): scalar system singular")


class TestConfig:
    def test_missing_config_file(self, tmp_path):
        rc = run_cli(["run", "--config", tmp_path / "nope.ini"])
        assert rc == 2

    def test_bad_value_in_config(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[scheme]\ntau = banana\n")
        rc = run_cli(["run", "--config", cfg])
        assert rc == 2

    def test_unknown_scheme_rejected(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[scheme]\nname = RK5\n")
        rc = run_cli(["run", "--config", cfg])
        assert rc == 2

    @pytest.mark.parametrize("text, message", [
        ("[scheme]\nfp-tol = 1e-300\n", "unknown key 'fp-tol' in section [scheme]"),
        ("[outptu]\ndir = x\n", "unknown section [outptu]"),
        ("[output]\nbeta_from_energy = no\n",
         "unknown key 'beta_from_energy' in section [output]"),
        ("[DEFAULT]\nN = 256\n[scenario]\np = 2\n[scheme]\ntau = 0.1\n",
         "unknown key 'n' in section [scheme]"),
        ("[DEFAULT]\nN = 256\n", "unknown section [DEFAULT]"),
    ], ids=["flag-spelling", "section", "removed-key", "default-key", "default-alone"])
    def test_unknown_ini_section_or_key_is_config_error(self, tmp_path, capsys,
                                                         text, message):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        rc = run_cli(["run", "--preset", "example2", "--T", 0, "--config", cfg,
                      "--out-dir", tmp_path / "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message} ") and repr(str(cfg)) in err
        assert not (tmp_path / "o").exists()

    def test_default_keys_a_section_reads_are_accepted(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[DEFAULT]\nN = 256\n[scenario]\np = 2\n")
        spec = spec_for(["--config", cfg])
        assert (spec.N, spec.p) == (256, 2)

    def test_config_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[scenario]\nname = two_soliton\n"
            "[scheme]\nname = SAV-IRK2\ntau = 0.2\nT = 2\n"
            "[output]\ndir = %s\n" % (tmp_path / "cfg_out")
        )
        rc = run_cli(["run", "--config", cfg, "--T", 1])
        assert rc == 0
        summary = json.loads((tmp_path / "cfg_out" / "summary.json").read_text())
        assert summary["scheme"] == "SAV-IRK2"
        assert summary["tau"] == 0.2
        assert summary["T"] == 1.0  # flag wins over config

    def test_unknown_scenario_flag(self, tmp_path):
        rc = run_cli(["run", "--scenario", "nonsense",
                      "--out-dir", tmp_path / "o"])
        assert rc == 2

    @pytest.mark.parametrize("name", [f.name for f in fields(JobSpec)])
    def test_ini_key_and_flag_agree(self, tmp_path, name):
        section, key, flag, words, expected = SETTINGS[name]
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[{section}]\n{key} = {' '.join(words) or 'true'}\n")
        from_ini = getattr(spec_for(["--config", cfg]), name)
        from_flag = getattr(spec_for([flag, *words], reader_of(name)), name)
        assert from_ini == from_flag == expected
        assert expected != getattr(JobSpec(), name)
        for value in (from_ini, from_flag):
            assert type(value) is type(expected)
            if isinstance(expected, list):
                assert [type(v) for v in value] == [type(v) for v in expected]

    def test_precedence_preset_ini_flag(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[scenario]\nname = scatter\ndealias = false\n"
                       "[scheme]\ntau = 0.2\nT = 2\n")
        spec = spec_for(["--preset", "example1", "--config", cfg, "--T", 1])
        assert spec.scenario == "scatter"  # INI beats the preset
        assert spec.T == 1.0  # flag beats INI
        assert spec.dealias is False
        sc = spec.resolve_scenario()
        assert (sc.name, sc.tau, sc.T, sc.N) == ("scatter", 0.2, 1.0, 2048)
        assert spec_for(["--preset", "example1"]).resolve_scenario().name == "breather"

    @pytest.mark.parametrize("command, bad", [
        (command, bad) for command in COMMAND_ARGS for bad in BAD_SETTINGS
        # only the flags of the settings the command reads
        if bad[0][2:].replace("-", "_") not in IGNORED[command]
    ], ids=lambda v: v if isinstance(v, str) else "=".join(map(str, v)))
    def test_bad_setting_is_config_error(self, tmp_path, capsys, command, bad):
        rc = run_cli([command, "--preset", "example2", "--T", 0.1,
                      *COMMAND_ARGS[command], *bad, "--out-dir", tmp_path / "o"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command, flag, value, name", NON_FINITE,
                             ids=[f"{c}{f}={v}" for c, f, v, _ in NON_FINITE])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys,
                                                command, flag, value, name):
        rc = run_cli([command, "--preset", "example2", "--T", 0.1,
                      *COMMAND_ARGS[command], flag, value, "--out-dir", tmp_path / "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{name} must be finite" in err

    @pytest.mark.parametrize("value, message", [
        ("-inf", "tau must be finite and nonzero, got -inf"),
        ("-nan", "tau must be finite and nonzero, got nan"),
        ("-1e-3", "tau must be positive, got -0.001")])
    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_negative_number_after_space(self, tmp_path, capsys, command,
                                         value, message):
        # argparse takes '-inf' or '-1e-3' for a flag unless it is read as a value
        flag = "--taus" if command == "converge" else "--tau"
        extra = [] if command == "converge" else COMMAND_ARGS[command]
        base = [command, "--preset", "example2", "--T", 0.1, *extra,
                "--out-dir", tmp_path / "o"]
        for words in ([flag, value], [f"{flag}={value}"]):
            assert run_cli([*base, *words]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_step_count_overflow_is_config_error(self, tmp_path, capsys, command):
        steps = (["--taus", "1e-300"] if command == "converge"
                 else [*COMMAND_ARGS[command], "--tau", "1e-300"])
        rc = run_cli([command, "--preset", "example2", "--N", 256, "--T", 1e10,
                      *steps, "--out-dir", tmp_path / "o"])
        assert rc == 2
        assert capsys.readouterr().err == ("config error: step count T/tau is not "
                                           "finite for T=10000000000.0 and tau=1e-300\n")

    @pytest.mark.parametrize("value", ["1e6", "10", "nan"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_c0_tol_not_below_target_is_config_error(self, tmp_path, capsys, command,
                                                     value):
        # a trigger at or above the target would shift C0 before every step;
        # NaN would switch the trigger off
        rc = run_cli([command, "--preset", "example1", "--T", 0.2, *COMMAND_ARGS[command],
                      "--c0-tol", value, "--out-dir", tmp_path / "o"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: c0_tol must be below the C0 target 10 of scenario "
            f"'breather', got {float(value)}\n")
        assert not (tmp_path / "o").exists()

    def test_c0_tol_minus_inf_switches_the_trigger_off(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["run", "--preset", "example1", "--T", 0.2, "--c0-tol", "-inf",
                        "--out-dir", out]) == 0
        assert json.loads((out / "summary.json").read_text())["c0_adjustments"] == 0

    def test_singular_step_is_not_config_error(self, tmp_path, capsys,
                                               monkeypatch):
        def advance(self):
            raise SingularStepError("scalar system singular")

        monkeypatch.setattr(SavIrkStepper, "advance", advance)
        out = tmp_path / "o"
        rc = run_cli(["run", "--preset", "example2", "--T", 0.2, "--out-dir", out])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"].startswith("step 1 (t=")
        capsys.readouterr()
        rc = run_cli(["converge", "--preset", "example2", "--T", 0.2,
                      "--scheme", "SAV-IRK4", "--taus", 0.1, "--out-dir", out])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "converge failed: step 1 (t=0.1): scalar system singular")


def test_console_entry_point(tmp_path):
    # the child finds gkdv in this checkout's src/, as the test process does
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gkdv.cli", "run", "--preset", "example2",
         "--T", "0", "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "summary.json").exists()
