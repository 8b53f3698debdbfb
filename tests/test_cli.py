import json
import subprocess
import sys

import numpy as np
import pytest

from gkdv.cli import main, read_snapshots


def run_cli(args):
    return main([str(a) for a in args])


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
        values = [float(c) for c in lines[-1].split(",")]
        rewritten = [float(f"{v:.17g}") for v in values]
        assert values == rewritten

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
    def test_two_schemes(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["compare", "--preset", "example2", "--T", 1,
                      "--schemes", "SAV-IRK2", "mETDRK4", "--out-dir", out])
        assert rc == 0
        assert (out / "invariants_SAV-IRK2.csv").exists()
        assert (out / "invariants_mETDRK4.csv").exists()
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header.startswith("t,SAV-IRK2_dI")
        status = json.loads((out / "summary_compare.json").read_text())["status"]
        assert status == {"SAV-IRK2": "ok", "mETDRK4": "ok"}

    def test_empty_scheme_list(self, tmp_path):
        rc = run_cli(["compare", "--preset", "example2",
                      "--out-dir", tmp_path / "o"])
        assert rc == 2

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
        assert rows[0] == "tau,error,rate"
        assert rows[1].endswith(",")  # no rate column value

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
                      "--rate-min", 100.0, "--out-dir", out])
        assert rc == 1


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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gkdv.cli", "run", "--preset", "example2",
         "--T", "0", "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "summary.json").exists()
