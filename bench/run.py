"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload two_soliton_converge --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s``
(median of several fresh-interpreter set-ups), ``run_s`` (median wall time
of one whole job) and ``sweeps_per_step``.  Every set-up and job time is
rescaled to a fixed reference speed of the machine, measured by reference
blocks timed before and after it (``reference.py``); the medians as
measured are printed beside the rescaled ones.  With ``--trace 1`` it alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, with the tracing overhead as traced minus untraced ``run_s``.

Jobs repeat until ``--seconds`` have passed.  Every metric is printed with
its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and spans
are also written under ``bench/results/``.  The inputs are closed-form
initial states: ``--seed`` is recorded and changes nothing.
"""

import os

# BLAS threads held to one; the compare pool keeps its default size.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GKDV_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
MIN_JOBS = 5  # timed jobs (and set-ups) per untraced run, whatever --seconds says
MIN_TRACED = 2  # traced jobs per traced run


def measure_setup(name: str) -> float:
    """Seconds from ``import gkdv`` to every time integration's first step,
    in a fresh interpreter."""
    res = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name],
                         cwd=BENCH.parent, capture_output=True, text=True,
                         timeout=120, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return float(res.stdout.split()[-1])


class Tally:
    """Operations attempted and failed, and the check outcome, over all jobs."""

    def __init__(self):
        self.attempted = self.failed = self.steps = self.sweeps = 0
        self.violations: list[str] = []

    def job(self, wl, tracer=None):
        """Run one job, traced if a tracer is given; return its wall time, or
        None when it raised."""
        import workloads

        if tracer is not None:
            tracer.install(workloads)
        try:
            t0 = time.perf_counter()
            out = wl.run()
            elapsed = time.perf_counter() - t0
        except workloads.NUMERICAL_ERRORS as err:
            print(f"job failed: {type(err).__name__}: {err}", file=sys.stderr)
            self.attempted += wl.ops
            self.failed += wl.ops
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        res = wl.evaluate(out)
        self.attempted += res.ops
        self.failed += res.failed
        self.steps += res.steps
        self.sweeps += res.sweeps
        self.violations += [v for v in res.violations if v not in self.violations]
        return elapsed


def untraced_run(wl, seconds: float, tally: Tally) -> dict:
    # A set-up, then a job, with a reference block timed before and after
    # each; every set-up and job time is rescaled by the mean of the two
    # blocks around it (see reference.py).  The first set-up and job are
    # untimed.
    import reference

    ref = reference.Reference(wl.threads)
    try:
        measure_setup(wl.name)
        tally.job(wl)
        setup, run, blocks = [], [], [ref.block()]
        start = time.perf_counter()
        while len(setup) < MIN_JOBS or time.perf_counter() - start < seconds:
            setup.append(measure_setup(wl.name))
            blocks.append(ref.block())
            run.append(tally.job(wl))
            blocks.append(ref.block())
    finally:
        ref.close()

    def rescaled(times, first_block):
        return [ref.nominal * t / statistics.mean(blocks[first_block + 2 * i:][:2])
                for i, t in enumerate(times) if t is not None]

    wall = {"setup_s": setup, "run_s": [t for t in run if t is not None]}
    timed = {"setup_s": rescaled(setup, 0), "run_s": rescaled(run, 1)}
    median = {k: statistics.median(v) if v else float("nan") for k, v in timed.items()}
    return {
        "metrics": {
            "setup_s": (median["setup_s"], "s"),
            "run_s": (median["run_s"], "s"),
            "sweeps_per_step": (tally.sweeps / max(tally.steps, 1), "count/step"),
        },
        "wall": {k: statistics.median(v) for k, v in wall.items() if v},
        "detail": dict(timed, wall=wall, reference_blocks_s=blocks,
                       reference_threads=ref.threads),
    }


def traced_run(wl, seconds: float, tally: Tally) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tally.job(wl)
    plain, traced = [], []
    extra = {}
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds:
        plain.append(tally.job(wl))
        traced.append(tally.job(wl, tracer))
        if hasattr(wl, "output_bytes"):
            extra["cli.output_bytes"] = wl.output_bytes()
    plain = [t for t in plain if t is not None]
    traced = [t for t in traced if t is not None]
    extra["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain)
        if plain and traced else float("nan"))
    metrics = tracing.layer_metrics(tracer.spans, len(traced), tracing.layer_probes(),
                                    extra)
    tracer.dump(workloads.RESULTS / f"trace_{wl.name}.jsonl")
    return {"metrics": metrics,
            "detail": {"run_s_untraced": plain, "run_s_traced": traced,
                       "spans": len(tracer.spans)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import workloads
    except ImportError as err:
        print(f"bench: cannot load the solver: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workloads.RESULTS.mkdir(parents=True, exist_ok=True)

    tally = Tally()
    run = traced_run if args.trace else untraced_run
    res = run(wl, args.seconds, tally)
    unmeasured = [k for k, (v, _) in res["metrics"].items() if not math.isfinite(v)]
    if unmeasured:
        print(f"bench: no job completed, so {', '.join(unmeasured)} could not be "
              "measured", file=sys.stderr)
        return 1

    for v in tally.violations:
        print(f"check failed: {v}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    for name, value in res.get("wall", {}).items():
        print(f"{wl.name} {name} as measured, before rescaling = {value:.6g} s")
    print(f"{wl.name}: {tally.attempted} operations attempted, {tally.failed} failed, "
          f"checks {'passed' if not tally.violations else 'FAILED'}")

    result = {
        "correct": not tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, detail=res["detail"], violations=tally.violations)
    (workloads.RESULTS / f"result_{wl.name}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
