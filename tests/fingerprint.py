"""Bit-identity fingerprint of the solver's runs, for comparing two checkouts.

    PYTHONPATH=src python3 tests/fingerprint.py > fingerprint.txt

Each run prints one line, ``<run> <sha256>``, hashing everything a step
computes: the final field, v and C0, the sweep total, the C0 shifts, the
blow-up time or error text, ``flux_max_series`` and the time, momentum and
mass columns of the records.  The energy and modified-energy columns follow,
one line per record as hex floats, so that ``diff`` of two checkouts' output
shows exactly which runs and which records moved.

The runs: every scheme at p = 2, p = 3 (dealiased) and p = 4 on a random
smooth field to T = 0.1 and to T = 0.113 (a partial final step); the SAV
schemes again with a C0 shift before every step; the mKdV breather runs of
the ``breather_track`` benchmark; the nine two-soliton convergence runs of
``two_soliton_converge``; and the two scatter runs of ``scatter_compare``.
The file is not named ``test_*`` so pytest does not collect it.
"""

from __future__ import annotations

import hashlib

import numpy as np

import gkdv.integrators as integrators
from gkdv.integrators import SCHEMES, STEP_ERRORS, StepperConfig, evolve
from gkdv.sav import C0Policy, init_sav
from gkdv.scenarios import get_scenario
from gkdv.spectral import make_grid

from conftest import random_smooth_field

SAV_SCHEMES = [s for s in SCHEMES if s.startswith("SAV-")]


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
    for part in (log.final_u, log.flux_max_series,
                 [[r.t, r.momentum, r.mass] for r in log.records]):
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

    sc = get_scenario("scatter")
    g = sc.make_grid()
    policy = C0Policy(target=sc.c0_target)
    for scheme in ("mETDRK4", "SAV-IRK4"):
        yield (f"scatter/{scheme}", *_run(
            scheme, init_sav(g, sc.initial(g.x), sc.p, policy), g,
            StepperConfig(tau=1.0 / 800.0, fp_tol=sc.fp_tol), 1.0, policy=policy))


def main():
    energies = []
    for name, log, error, stepper in runs():
        print(name, _digest(log, error, stepper))
        energies += [f"{name} {i} {r.energy.hex()} {r.energy_mod.hex()}"
                     for i, r in enumerate(log.records)]
    print("\n".join(energies))


if __name__ == "__main__":
    main()
