"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

Shortened forms of the three workloads must pass their checks, and every
check must reject a deliberately corrupted result.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _short(name, tmp_path=None, **attrs):
    wl = copy.copy(workloads.WORKLOADS[name])
    for k, v in attrs.items():
        setattr(wl, k, v)
    if tmp_path is not None:
        wl.out_dir = tmp_path / "compare_out"
    return wl


@pytest.fixture(scope="module")
def two_soliton():
    wl = _short("two_soliton_converge", T=2.0)
    out = wl.run()
    return wl, out, wl.evaluate(out)


@pytest.fixture(scope="module")
def breather():
    wl = _short("breather_track", T=0.2)
    out = wl.run()
    return wl, out, wl.evaluate(out)


@pytest.fixture(scope="module")
def scatter(tmp_path_factory):
    wl = _short("scatter_compare", tmp_path_factory.mktemp("scatter"), T=0.05)
    out = wl.run()
    return wl, out, wl.evaluate(out)


@pytest.mark.parametrize("fixture", ["two_soliton", "breather", "scatter"])
def test_shortened_workload_passes(fixture, request):
    wl, _, res = request.getfixturevalue(fixture)
    assert res.violations == []
    assert res.failed == 0 and res.ops == wl.ops
    assert res.steps > 0 and res.sweeps > 0


def _two_soliton_runs(wl, out):
    logs = {(log.scheme, log.tau): log for log in out["logs"]}
    return {s: [dict(workloads.series(logs[(s, r.tau)]), tau=r.tau, row_error=r.error)
                for r in rows] for s, rows in out["rows"].items()}


def test_two_soliton_closed_form_matches_solver(two_soliton):
    wl, out, _ = two_soliton
    sc = workloads.get_scenario("two_soliton")
    for t in (0.0, 2.0, 37.5):
        assert np.abs(checks.two_soliton_exact(out["x"], t) - sc.exact(out["x"], t)).max() < 1e-13


@pytest.mark.parametrize("corrupt", ["final_field", "modified_energy", "momentum", "row_error"])
def test_two_soliton_check_rejects(two_soliton, corrupt):
    wl, out, _ = two_soliton
    runs = _two_soliton_runs(wl, out)
    finest = min(runs["SAV-IRK4"], key=lambda r: r["tau"])
    if corrupt == "final_field":
        finest["final_u"] = finest["final_u"] + 1e-6
    elif corrupt == "modified_energy":
        finest["Em"] = finest["Em"] + np.r_[0.0, np.full(len(finest["Em"]) - 1, 1e-6)]
    elif corrupt == "momentum":
        finest["I"] = finest["I"] + 1e-6
    else:
        finest["row_error"] *= 1.01
    assert checks.check_two_soliton(out["x"], wl.T, _two_soliton_runs(wl, out)) == []
    assert checks.check_two_soliton(out["x"], wl.T, runs) != []


def test_two_soliton_check_rejects_wrong_order(two_soliton):
    wl, out, _ = two_soliton
    runs = _two_soliton_runs(wl, out)
    runs["SAV-IRK4"], runs["SAV-IRK2"] = runs["SAV-IRK2"], runs["SAV-IRK4"]
    assert checks.check_two_soliton(out["x"], wl.T, runs) != []


# each scheme's conserved columns, plus the mass behind beta^ and the attached gamma
@pytest.mark.parametrize("scheme,column", [
    ("SAV-IRK4", "I"), ("SAV-IRK4", "M"), ("SAV-IRK4", "Em"), ("SAV-IRK4", "gamma"),
    ("MCN", "I"), ("MCN", "M"), ("MCN", "E"), ("MCN", "gamma"),
])
def test_breather_check_rejects_shifted_column(breather, scheme, column):
    wl, out, _ = breather
    runs = {s: workloads.series(log, recs) for s, (log, recs) in out.items()}
    shift = np.full(len(runs[scheme]["t"]), 1e-6)
    shift[0] = 0.0
    runs[scheme][column] = runs[scheme][column] + shift
    assert checks.check_breather(runs, wl.T, wl.sample_dt) != []


def test_breather_check_rejects_lost_sample(breather):
    wl, out, _ = breather
    runs = {s: workloads.series(log, recs) for s, (log, recs) in out.items()}
    runs["MCN"] = {k: (v[:-1] if k != "final_u" else v) for k, v in runs["MCN"].items()}
    assert checks.check_breather(runs, wl.T, wl.sample_dt) != []


def _scatter_runs(wl, out):
    res = wl.evaluate(out)
    assert res.violations == []
    runs = {}
    for s in wl.schemes:
        cols = np.loadtxt(wl.out_dir / f"invariants_{s}.csv", delimiter=",", skiprows=1)
        runs[s] = dict(zip(("t", "I", "M", "E", "Em"), cols.T))
    return runs


@pytest.mark.parametrize("corrupt", ["exit_code", "status", "momentum", "modified_energy",
                                     "initial_mass", "sampling"])
def test_scatter_check_rejects(scatter, corrupt):
    wl, out, _ = scatter
    runs = _scatter_runs(wl, out)
    rc, status = out["rc"], {s: "ok" for s in wl.schemes}
    steps = round(wl.T / wl.tau)
    if corrupt == "exit_code":
        rc = 3
    elif corrupt == "status":
        del status["mETDRK4"]
    elif corrupt == "momentum":
        runs["mETDRK4"]["I"] = runs["mETDRK4"]["I"] + np.r_[0.0, np.full(steps, 1e-6)]
    elif corrupt == "modified_energy":
        runs["SAV-IRK4"]["Em"] = runs["SAV-IRK4"]["Em"] + np.r_[0.0, np.full(steps, 1e-6)]
    elif corrupt == "initial_mass":
        runs["SAV-IRK4"]["M"] = runs["SAV-IRK4"]["M"] + 1e-6
    else:
        runs["SAV-IRK4"] = {k: v[::2] for k, v in runs["SAV-IRK4"].items()}
    assert checks.check_scatter(rc, status, runs, wl.schemes, steps, wl.T) != []


def test_traced_job_reports_every_per_layer_metric(tmp_path):
    wl = _short("scatter_compare", tmp_path, T=0.01)
    tracer = tracing.Tracer()
    orig_rfft = np.fft.rfft
    tracer.install(workloads)
    try:
        assert wl.evaluate(wl.run()).violations == []
    finally:
        tracer.uninstall()
    assert np.fft.rfft is orig_rfft and workloads.evolve.__name__ == "evolve"
    probes = {"fft_pair_us.N1024": 1.0, "fft_pair_us.N2048": 1.0,
              "etdrk4_coefficients_ms": 1.0}
    metrics = tracing.layer_metrics(tracer.spans, 1, probes,
                                    {"trace.overhead_s": 0.0, "cli.output_bytes": 1})
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert metrics["integrators.sweeps_per_step.SAV-IRK4"][0] > 0
    assert metrics["cli.evolve_s_sum"][0] > 0
    assert metrics["spectral.transforms_per_step"][0] > 0


def test_covered_merges_overlapping_intervals():
    assert tracing._covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing._covered([]) == 0


@pytest.mark.parametrize("threads", sorted(reference.NOMINAL_S))
def test_reference_block_times_every_thread(threads):
    ref = reference.Reference(threads)
    try:
        assert 0 < ref.block() < 1
    finally:
        ref.close()
    assert all(w.threads in reference.NOMINAL_S for w in workloads.WORKLOADS.values())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", "run_s", "sweeps_per_step"]


def test_refuses_to_run_without_the_solver(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "breather_track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
