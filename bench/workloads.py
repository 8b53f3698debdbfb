"""The benchmark's three workloads, driven through the solver's public functions.

Each workload is one complete job a user of ``gkdv`` would run, from looking
up the scenario to the last diagnostic.  ``run`` is the timed job,
``first_steps`` is the same job cut to one step per time integration (what
the set-up probe measures), and ``evaluate`` turns a job's outputs into
counts and correctness violations, outside the timed region.

Every input is a closed-form initial state of the paper's experiments, so no
input depends on a seed.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses to run against any other copy of the solver.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"


def _use_checkout_solver():
    package = SRC / "gkdv"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"solver package not found at {package}")
    sys.path.insert(0, str(SRC))
    import gkdv

    if Path(gkdv.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported gkdv from {gkdv.__file__}, not from {package}")


_use_checkout_solver()

import gkdv.cli  # noqa: E402
import gkdv.diagnostics  # noqa: E402
from gkdv.cli import main as cli_main  # noqa: E402
from gkdv.diagnostics import attach_breather_columns, convergence_study  # noqa: E402
from gkdv.integrators import (  # noqa: E402
    FixedPointError,
    SingularStepError,
    StepperConfig,
    evolve,
)
from gkdv.sav import AdjustmentRequired, C0Policy, init_sav  # noqa: E402
from gkdv.scenarios import get_scenario  # noqa: E402
from gkdv.spectral import SingularModeError  # noqa: E402

import checks  # noqa: E402

# what a failed time integration raises; anything else is a fault of the benchmark
NUMERICAL_ERRORS = (FixedPointError, SingularModeError, SingularStepError,
                    AdjustmentRequired)


@dataclass
class JobResult:
    """Counts and check outcome of one job."""

    ops: int
    failed: int = 0
    steps: int = 0
    sweeps: int = 0
    violations: list[str] = field(default_factory=list)


class LogCapture:
    """Keeps the RunLog of every ``evolve`` call made through one module's binding."""

    def __init__(self, module):
        self.module = module
        self.logs = []

    def __enter__(self):
        self._orig = orig = self.module.evolve

        def evolve_capturing(*args, **kwargs):
            log = orig(*args, **kwargs)
            self.logs.append(log)
            return log

        self.module.evolve = evolve_capturing
        return self

    def __exit__(self, *exc):
        self.module.evolve = self._orig


def steps_taken(log) -> int:
    """Steps ``evolve`` takes to reach log.T: whole steps plus a partial one."""
    return math.ceil(log.T / log.tau - 1e-9)


def series(log, records=None) -> dict[str, np.ndarray]:
    """Sampled invariant columns of a run, plus its final field."""
    records = log.records if records is None else records
    cols = {
        "t": [r.t for r in records],
        "I": [r.momentum for r in records],
        "M": [r.mass for r in records],
        "E": [r.energy for r in records],
        "Em": [r.energy_mod for r in records],
    }
    if records and records[0].beta_num is not None:
        cols["beta"] = [r.beta_num for r in records]
        cols["gamma"] = [r.gamma_num for r in records]
    out = {k: np.array(v) for k, v in cols.items()}
    out["final_u"] = np.array(log.final_u)
    return out


def _counts(logs) -> tuple[int, int, int]:
    failed = sum(1 for log in logs if log.blowup_time is not None)
    return (failed, sum(steps_taken(log) for log in logs),
            sum(log.fp_iterations_total for log in logs))


class TwoSolitonConverge:
    """Convergence study of SAV-IRK2/4/6 on the KdV two-soliton (N=2048, p=2).

    Sampling is sparse (start and end of each run), so the collocation fixed
    point, the per-mode stage solve and the batched FFTs do nearly all the
    work.  The horizon is short of the paper's T=200 to keep a job near two
    seconds; the ladder includes the paper's tau=0.1.
    """

    name = "two_soliton_converge"
    schemes = ("SAV-IRK2", "SAV-IRK4", "SAV-IRK6")
    taus = (0.4, 0.2, 0.1)
    T = 12.0
    ops = len(schemes) * len(taus)
    threads = 1

    def run(self):
        with LogCapture(gkdv.diagnostics) as cap:
            sc = get_scenario("two_soliton")
            g = sc.make_grid()
            rows = {s: convergence_study(s, sc, list(self.taus), self.T, g=g)
                    for s in self.schemes}
        return {"x": g.x, "rows": rows, "logs": cap.logs}

    def first_steps(self):
        sc = get_scenario("two_soliton")
        g = sc.make_grid()
        for s in self.schemes:
            for tau in self.taus:
                convergence_study(s, sc, [tau], tau, g=g)

    def evaluate(self, out) -> JobResult:
        failed, steps, sweeps = _counts(out["logs"])
        logs = {(log.scheme, log.tau): log for log in out["logs"]}
        runs = {}
        for scheme, rows in out["rows"].items():
            runs[scheme] = [
                dict(series(logs[(scheme, r.tau)]), tau=r.tau, row_error=r.error)
                for r in rows if not r.blowup
            ]
        return JobResult(
            ops=self.ops, failed=failed, steps=steps, sweeps=sweeps,
            violations=checks.check_two_soliton(out["x"], self.T, runs),
        )


class BreatherTrack:
    """The paper's efficiency experiment on the mKdV breather (N=1024, p=3).

    SAV-IRK4 at tau=0.02 and MCN at tau=2e-3 run to a common horizon with the
    invariants sampled every 0.1 time units; the amplitude and speed
    estimates are then attached to the samples.
    """

    name = "breather_track"
    runs = (("SAV-IRK4", 0.02), ("MCN", 2e-3))
    T = 2.0
    sample_dt = 0.1
    ops = len(runs)
    threads = 1

    def run(self):
        sc = get_scenario("breather")
        g = sc.make_grid()
        policy = C0Policy(target=sc.c0_target)
        out = {}
        for scheme, tau in self.runs:
            state = init_sav(g, sc.initial(g.x), sc.p, policy)
            cfg = StepperConfig(tau=tau, fp_tol=sc.fp_tol)
            log = evolve(scheme, state, g, cfg, self.T,
                         sample_every=round(self.sample_dt / tau), policy=policy)
            out[scheme] = (log, attach_breather_columns(log))
        return out

    def first_steps(self):
        sc = get_scenario("breather")
        g = sc.make_grid()
        policy = C0Policy(target=sc.c0_target)
        for scheme, tau in self.runs:
            state = init_sav(g, sc.initial(g.x), sc.p, policy)
            evolve(scheme, state, g, StepperConfig(tau=tau, fp_tol=sc.fp_tol),
                   tau, policy=policy)

    def evaluate(self, out) -> JobResult:
        failed, steps, sweeps = _counts([log for log, _ in out.values()])
        runs = {s: series(log, recs) for s, (log, recs) in out.items()}
        return JobResult(
            ops=self.ops, failed=failed, steps=steps, sweeps=sweeps,
            violations=checks.check_breather(runs, self.T, self.sample_dt),
        )


class ScatterCompare:
    """``gkdv compare`` of mETDRK4 and SAV-IRK4 on sech^2 scattering (N=2048, p=2).

    tau=1/800 to the preset's T=1, invariants sampled at every step and
    written as CSV, with the worker pool at its default size.
    """

    name = "scatter_compare"
    schemes = ("mETDRK4", "SAV-IRK4")
    tau = 1.0 / 800.0
    T = 1.0
    ops = len(schemes)
    threads = max(1, min(len(schemes), os.cpu_count() or 1))  # compare's default pool
    out_dir = RESULTS / "compare_out"
    probe_dir = RESULTS / "compare_setup_probe"

    def _argv(self, out_dir, T):
        return ["compare", "--preset", "example3", "--schemes", *self.schemes,
                "--tau", repr(self.tau), "--T", repr(T), "--out-dir", str(out_dir)]

    def run(self):
        with LogCapture(gkdv.cli) as cap, contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(self._argv(self.out_dir, self.T))
        return {"rc": rc, "logs": cap.logs}

    def first_steps(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(self._argv(self.probe_dir, self.tau))

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.iterdir() if p.is_file())

    def evaluate(self, out) -> JobResult:
        _, steps, sweeps = _counts(out["logs"])
        summary = json.loads((self.out_dir / "summary_compare.json").read_text())
        status = summary.get("status", {})
        runs = {}
        for scheme in self.schemes:
            path = self.out_dir / f"invariants_{scheme}.csv"
            if status.get(scheme) == "ok" and path.is_file():
                cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                runs[scheme] = dict(zip(("t", "I", "M", "E", "Em"), cols.T))
        return JobResult(
            ops=self.ops, failed=self.ops - len(runs), steps=steps, sweeps=sweeps,
            violations=checks.check_scatter(
                out["rc"], status, runs, self.schemes,
                steps_per_run=round(self.T / self.tau), T=self.T,
            ),
        )


WORKLOADS = {w.name: w for w in (TwoSolitonConverge(), BreatherTrack(), ScatterCompare())}
