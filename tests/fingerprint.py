"""Bit-identity fingerprint of the solver's runs, for comparing two checkouts.

    PYTHONPATH=src python3 tests/fingerprint.py > fingerprint.txt

Each run prints one line, ``<run> <sha256>``, hashing everything a step
computes: the final field, v and C0, the sweep total, the C0 shifts, the
blow-up time or error text and the time, momentum and mass columns of the
records.  A second line, ``<run> flux <sha256>``, hashes its
``flux_max_series``, so a change to the stage flux alone shows as that.
The energy and modified-energy columns follow, one line per record as hex
floats, so that ``diff`` of two checkouts' output shows exactly which runs
and which records moved.

The runs: every scheme at p = 2, p = 3 (dealiased) and p = 4 on a random
smooth field to T = 0.1 and to T = 0.113 (a partial final step); the SAV
schemes again with a C0 shift before every step; SAV-IRK4 at fp_tol 1e-4
(``LOOSE``), which also prints its largest modified-energy drift, relative
to E0, and momentum drift, as every sweep of it conserves both; SAV-IRK4 on
a rough p = 4 state (``RETRY``) whose extrapolated starts fail and are
retried from the solved start, which also prints how many steps fell back
and the most sweeps of one step; MCN on a rough p = 5 state of amplitude 3
(``MCN_RETRY``), whose quintic starts fail and are retried from the sweep
at w = u, printed the same way; the mKdV
breather runs of the ``breather_track`` benchmark; the nine two-soliton
convergence runs of ``two_soliton_converge``; SS on the two-soliton at
tau = 0.2, whose transport substeps need the damping, and IRK4 there at
tau = 0.2 to T = 2, so that a change to the collocation step rule shows on
a physical run; and the two scatter runs of ``scatter_compare``.

The ``gkdv`` commands in ``CLI_CASES`` follow, run in process: one line per
output file with the hash of its bytes, then one with the hash of the exit
code, stdout, stderr and the category and text of every warning.  The output
and temporary directories are masked in all of them.  The cases cover a
comparison, a step error with its partial log (``--fp-tol 1e-300``
stagnates, at step 14 for SAV-IRK4), a blow-up, a run set up by the INI
file ``RUN_INI`` (written into the temporary directory), an mETDRK4 run
that writes ten frames of ``snapshots.bin`` and five convergence studies:
one against the breather's exact solution, two against a computed
reference (one at T = 0), one whose only row blows up and one whose first
row diverges while the next is valid.

The file is not named ``test_*`` so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np

import gkdv.integrators as integrators
from gkdv.cli import main as cli_main
from gkdv.integrators import SCHEMES, STEP_ERRORS, StepperConfig, evolve
from gkdv.sav import C0Policy, init_sav
from gkdv.scenarios import get_scenario
from gkdv.spectral import make_grid

from conftest import random_smooth_field

SAV_SCHEMES = [s for s in SCHEMES if s.startswith("SAV-")]
LOOSE = "SAV-IRK4/p2/fp_tol1e-4"
RETRY = "SAV-IRK4/p4/tau0.02/retry"
MCN_RETRY = "MCN/p5/tau0.02/amp3/retry"


def _run(scheme, state, g, cfg, T, **kw):
    """evolve, returning (log, error text, the last stepper it built)."""
    steppers = []
    make_stepper = integrators.make_stepper

    def spy(*args):
        steppers.append(make_stepper(*args))
        return steppers[-1]

    integrators.make_stepper = spy
    try:
        return evolve(scheme, state, g, cfg, T, **kw), "", steppers[-1]
    except STEP_ERRORS as err:
        return err.partial_log, str(err), steppers[-1]
    finally:
        integrators.make_stepper = make_stepper


def _digest(log, error, stepper) -> str:
    h = hashlib.sha256()
    for part in (log.final_u, [[r.t, r.momentum, r.mass] for r in log.records]):
        h.update(np.asarray(part, dtype=np.float64).tobytes())
    h.update(repr((stepper.v, stepper.c0, log.fp_iterations_total,
                   log.c0_adjustments, log.blowup_time, error)).encode())
    return h.hexdigest()


def runs():
    """Yield (name, log, error text, last stepper) for every run."""
    cfg = StepperConfig(tau=0.01)
    shift = C0Policy(tol=np.inf)  # the radicand is always below inf
    for p in (2, 3, 4):
        g = make_grid(2.0 * np.pi, 128, dealias=p == 3)
        u = random_smooth_field(g, np.random.default_rng(p))
        for T in (0.1, 0.113):
            for scheme in SCHEMES:
                yield (f"{scheme}/p{p}/T{T}", *_run(scheme, init_sav(g, u, p), g, cfg, T))
            for scheme in SAV_SCHEMES:
                yield (f"{scheme}/p{p}/T{T}/shift", *_run(
                    scheme, init_sav(g, u, p), g, cfg, T, policy=shift))

    g = make_grid(2.0 * np.pi, 128)
    u = random_smooth_field(g, np.random.default_rng(0), kfrac=0.2)
    yield (LOOSE, *_run("SAV-IRK4", init_sav(g, u, 2), g,
                        StepperConfig(tau=0.01, fp_tol=1e-4), 0.5))
    u = random_smooth_field(g, np.random.default_rng(3), kfrac=0.3)
    yield (RETRY, *_run("SAV-IRK4", init_sav(g, u, 4), g, StepperConfig(tau=0.02), 0.2))
    u = random_smooth_field(g, np.random.default_rng(0), kfrac=0.3, amp=3.0)
    yield (MCN_RETRY, *_run("MCN", init_sav(g, u, 5), g, StepperConfig(tau=0.02), 0.2))

    sc = get_scenario("breather")
    g = sc.make_grid()
    policy = C0Policy(target=sc.c0_target)
    for scheme, tau in (("SAV-IRK4", 0.02), ("MCN", 2e-3)):
        yield (f"breather/{scheme}/{tau}", *_run(
            scheme, init_sav(g, sc.initial(g.x), sc.p, policy), g,
            StepperConfig(tau=tau, fp_tol=sc.fp_tol), 2.0,
            sample_every=round(0.1 / tau), policy=policy))

    sc = get_scenario("two_soliton")
    g = sc.make_grid()
    policy = C0Policy(target=sc.c0_target)
    for scheme in ("SAV-IRK2", "SAV-IRK4", "SAV-IRK6"):
        for tau in (0.4, 0.2, 0.1):
            yield (f"two_soliton/{scheme}/{tau}", *_run(
                scheme, init_sav(g, sc.initial(g.x), sc.p, policy), g,
                StepperConfig(tau=tau, fp_tol=sc.fp_tol), 12.0,
                sample_every=round(12.0 / tau), policy=policy))
    yield ("two_soliton/SS/0.2", *_run(
        "SS", init_sav(g, sc.initial(g.x), sc.p, policy), g,
        StepperConfig(tau=0.2, fp_tol=sc.fp_tol), 0.4, policy=policy))
    yield ("two_soliton/IRK4/0.2", *_run(
        "IRK4", init_sav(g, sc.initial(g.x), sc.p, policy), g,
        StepperConfig(tau=0.2, fp_tol=sc.fp_tol), 2.0, policy=policy))

    sc = get_scenario("scatter")
    g = sc.make_grid()
    policy = C0Policy(target=sc.c0_target)
    for scheme in ("mETDRK4", "SAV-IRK4"):
        yield (f"scatter/{scheme}", *_run(
            scheme, init_sav(g, sc.initial(g.x), sc.p, policy), g,
            StepperConfig(tau=1.0 / 800.0, fp_tol=sc.fp_tol), 1.0, policy=policy))


CLI_CASES = {
    "compare-scatter": ["compare", "--preset", "example3", "--schemes", "mETDRK4",
                        "SAV-IRK4", "--tau", "0.00125"],
    "run-stagnated": ["run", "--preset", "example2", "--tau", "0.2", "--T", "3",
                      "--fp-tol", "1e-300"],
    "compare-stagnated": ["compare", "--preset", "example2", "--tau", "0.2", "--T", "3",
                          "--fp-tol", "1e-300", "--schemes", "SAV-IRK4", "mETDRK4"],
    "run-leap-frog-blowup": ["run", "--preset", "example1", "--scheme", "SAV-LF",
                             "--N", "256", "--tau", "0.02", "--T", "5"],
    "converge-breather": ["converge", "--preset", "example1", "--T", "2",
                          "--taus", "0.01", "0.005"],
    "converge-scatter-T0": ["converge", "--preset", "example3", "--T", "0",
                            "--taus", "0.01", "0.005"],
    "converge-scatter": ["converge", "--preset", "example3", "--N", "256", "--T", "0.05",
                         "--tau-ref", "1e-4", "--taus", "0.01", "0.005"],
    "converge-leap-frog-blowup": ["converge", "--preset", "example1", "--scheme", "SAV-LF",
                                  "--N", "256", "--T", "5", "--taus", "0.02"],
    "converge-diverged-row": ["converge", "--preset", "example1", "--N", "128", "--T", "0.3",
                              "--taus", "0.3", "0.01"],
    "run-config": ["run", "--config", "{tmp}/run.ini"],
    "run-snapshots": ["run", "--preset", "example3", "--scheme", "mETDRK4",
                      "--tau", "0.00125", "--T", "0.05", "--snapshots", "4"],
}
# the breather at N = 256 with its beta/gamma columns and snapshots
RUN_INI = """\
[scenario]
name = breather
N = 256
[scheme]
name = SAV-IRK4
tau = 0.02
T = 0.1
fp_tol = 1e-11
[output]
sample_every = 2
snapshots = 2
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_runs():
    """Yield (name, hash) for each output file of each CLI case, then its streams."""
    for case, argv in CLI_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            (Path(tmp) / "run.ini").write_text(RUN_INI)
            argv = [a.replace("{tmp}", tmp) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                rc = cli_main([*argv, "--out-dir", str(out)])
            for path in sorted(out.iterdir()):
                data = (path.read_bytes().replace(str(out).encode(), b"<out>")
                        .replace(tmp.encode(), b"<tmp>"))
                yield f"cli/{case}/{path.name}", _sha(data)
            warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
            streams = f"exit {rc}\n{stdout.getvalue()}\n{stderr.getvalue()}{warned}"
            streams = streams.replace(str(out), "<out>").replace(tmp, "<tmp>")
            yield f"cli/{case}", _sha(streams.encode())


def main():
    energies = []
    for name, log, error, stepper in runs():
        print(name, _digest(log, error, stepper))
        print(name, "flux", _sha(np.asarray(log.flux_max_series, dtype=np.float64).tobytes()))
        if name == LOOSE:
            E = np.array([r.energy_mod for r in log.records])
            I = np.array([r.momentum for r in log.records])
            print(name, "drifts", f"E {np.abs(E - E[0]).max() / abs(E[0]):.2e}",
                  f"I {np.abs(I - I[0]).max():.2e}")
        if name in (RETRY, MCN_RETRY):
            print(name, "start_fallbacks", log.start_fallbacks,
                  "fp_iterations_max", log.fp_iterations_max)
        energies += [f"{name} {i} {r.energy.hex()} {r.energy_mod.hex()}"
                     for i, r in enumerate(log.records)]
    print("\n".join(energies))
    for name, digest in cli_runs():
        print(name, digest)


if __name__ == "__main__":
    main()
