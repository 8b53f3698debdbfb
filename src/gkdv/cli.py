"""Command-line driver: run one evolution, compare schemes, or sweep step sizes.

Usage:

    gkdv run --preset example2 --T 20 --out-dir out
    gkdv compare --preset example1 --schemes MCN SS SAV-IRK4 --T 100 --out-dir out
    gkdv converge --preset example2 --taus 0.2 0.1 0.05 0.025 --out-dir out

Settings come from a preset, an optional INI config file and command-line
flags, in that order of increasing precedence; ``gkdv <cmd> --help`` lists
every flag with its INI ``[section] key``.  The INI sections are
``[scenario]``, ``[scheme]`` and ``[output]``; an unknown section or key,
such as a flag's spelling ``fp-tol`` for the key ``fp_tol``, is a config
error (exit 2), and so is a ``[DEFAULT]`` key that a section does not read.
Outputs are CSV/JSON files plus an optional binary snapshot stream; a CSV
float is printed in its shortest form that reads back as the same double, so
``--taus 0.005`` is written as 0.005 and files are byte-identical across
repeated runs.  ``compare`` runs its schemes one after another.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import re
import struct
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    ReferenceMismatch,
    attach_breather_columns,
    convergence_study,
    drift_series,
    linf_error,
    make_reference,
    max_drifts,
)
from .integrators import SCHEMES, STEP_ERRORS, RunLog, StepperConfig, evolve
from .sav import C0Policy, InvariantRecord, init_sav
from .scenarios import Scenario, get_scenario

make_grid = Scenario.make_grid  # bound for bench/tracing.py, which wraps it here
EXIT_OK = 0
EXIT_RATES_OUT_OF_BAND = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SNAPSHOT_HEADER = struct.Struct("<qdqd")  # N, L, p, t; then N little-endian f64


class ConfigError(ValueError):
    pass


def _setting(section: str, typ: type, default=None, key: str | None = None,
             cmds: str = "run compare converge", **flag):
    """A JobSpec field: its INI [section] key (default: the field name), value
    or element type, the commands that read it and so take its flag, and extra
    flag options; a flag with ``nargs`` takes a list."""
    meta = {"section": section, "key": key, "type": typ, "cmds": cmds.split(),
            "flag": flag}
    if "nargs" in flag:
        return field(default_factory=list, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class JobSpec:
    """Everything one evolution needs, resolved from preset/config/flags.

    The fields are the only declaration of a setting: the INI reader, the
    flags and their help text are all generated from them.  A command takes
    only the flags it reads; an INI file may set every field, whatever the
    command, and nothing else.
    """

    scenario: str = _setting("scenario", str, "two_soliton", key="name")
    scheme: str = _setting("scheme", str, "SAV-IRK4", key="name", cmds="run converge",
                           choices=list(SCHEMES))
    schemes: list[str] = _setting("scheme", str, cmds="compare", nargs="+",
                                  choices=list(SCHEMES))
    tau: float | None = _setting("scheme", float, cmds="run compare")
    taus: list[float] = _setting("scheme", float, cmds="converge", nargs="+")
    T: float | None = _setting("scheme", float)
    N: int | None = _setting("scenario", int)
    L: float | None = _setting("scenario", float)
    p: int | None = _setting("scenario", int)
    fp_tol: float | None = _setting("scheme", float)
    c0_tol: float = _setting("scheme", float, C0Policy.tol, cmds="run compare")
    out_dir: str = _setting("output", str, "out", key="dir")
    snapshots: int = _setting("output", int, 0, cmds="run",
                              help="write a solution snapshot every K steps (0 = off)")
    sample_every: int = _setting("output", int, 1, cmds="run compare")
    dealias: bool = _setting("scenario", bool, False,
                             help="2/3-filter u^p (MCN never filters its difference "
                                  "quotient, only the u^p of its sampled energy)")
    tau_ref: float = _setting("scheme", float, 1.0 / 25600.0, cmds="converge")
    rate_min: float | None = _setting("scheme", float, cmds="converge")
    rate_max: float | None = _setting("scheme", float, cmds="converge")

    def resolve_scenario(self) -> Scenario:
        """The named scenario with every field it shares with JobSpec overridden
        where set (N, L, p, tau, T, fp_tol).  A p other than the preset's is
        another equation, so it drops the preset's closed form and breather
        tracking."""
        base = get_scenario(self.scenario)
        over = {f.name: getattr(self, f.name) for f in fields(Scenario)
                if getattr(self, f.name, None) is not None}
        if over.get("p", base.p) != base.p:
            over.update(solution=None, track_breather=False)
        return replace(base, **over)


def _ini_key(f) -> tuple[str, str]:
    return f.metadata["section"], f.metadata["key"] or f.name


def _parse_config_file(path: str, spec: JobSpec) -> JobSpec:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file {path!r} not found")
    settings = {}  # (section, key as the parser spells it) -> its JobSpec field
    for f in fields(JobSpec):
        section, key = _ini_key(f)
        settings[section, parser.optionxform(key)] = f
    # a section's keys include those of [DEFAULT], which alone no section reads
    for section in parser.sections() or ([parser.default_section] if parser.defaults() else []):
        if section not in {known for known, _ in settings}:
            raise ConfigError(f"unknown section [{section}] in config file {path!r}")
        s = parser[section]
        for key in s:
            f = settings.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}] "
                                  f"of config file {path!r}")
            typ = f.metadata["type"]
            try:
                if typ is bool:
                    value = s.getboolean(key)
                elif "nargs" in f.metadata["flag"]:
                    value = [typ(v) for v in s.get(key).split()]
                else:
                    value = typ(s.get(key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"bad config value in {path!r}: {exc}") from exc
            setattr(spec, f.name, value)
    return spec


def _fmt(x: float) -> str:
    return repr(float(x))  # float(): numpy 2 scalars repr as np.float64(...)


def write_invariants_csv(path: Path, records: list[InvariantRecord]):
    """One row per record; the breather columns when the first record has them."""
    breather_cols = records and records[0].beta_num is not None
    header = "t,I,M,E,Etilde" + (",beta_num,gamma_num" if breather_cols else "")
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for r in records:
            cells = [r.t, r.momentum, r.mass, r.energy, r.energy_mod]
            if r.beta_num is not None:
                cells += [r.beta_num, r.gamma_num]
            fh.write(",".join(map(_fmt, cells)) + "\n")


def write_snapshot(fh, g, p: int, t: float, u: np.ndarray):
    fh.write(SNAPSHOT_HEADER.pack(g.N, g.L, p, t))
    fh.write(np.asarray(u, dtype="<f8").tobytes())


def _c0_policy(spec: JobSpec, sc: Scenario) -> C0Policy:
    """The run's C0 rule.  A tol at or above the target would shift C0 before
    every step, each shift restoring only the target, and a NaN tol would
    switch the trigger off: both are refused.  A tol of -inf switches it off."""
    if not spec.c0_tol < sc.c0_target:
        raise ConfigError(f"c0_tol must be below the C0 target {sc.c0_target:g} "
                          f"of scenario {sc.name!r}, got {spec.c0_tol}")
    return C0Policy(target=sc.c0_target, tol=spec.c0_tol)


def _execute(spec: JobSpec, sc: Scenario, g, policy: C0Policy, scheme: str,
             csv_path: Path, snapshot_fh=None):
    """One evolution on ``g`` and its invariants CSV; returns (log, error-or-None).

    A failed step's log is the error's ``partial_log``, which holds at least
    the t = 0 record."""
    state = init_sav(g, sc.initial(g.x), sc.p, policy)
    cfg = StepperConfig(tau=sc.tau, fp_tol=sc.fp_tol)

    on_step = None
    if snapshot_fh is not None:
        def on_step(m, t, u):
            if m % spec.snapshots == 0:
                write_snapshot(snapshot_fh, g, sc.p, t, u)

    err = None
    try:
        log = evolve(
            scheme, state, g, cfg, sc.T,
            sample_every=spec.sample_every, policy=policy, on_step=on_step,
        )
    except STEP_ERRORS as exc:
        log, err = exc.partial_log, exc
    records = log.records
    if sc.track_breather:
        records = attach_breather_columns(log)
    write_invariants_csv(csv_path, records)
    return log, err


def _failure(log: RunLog, err) -> str | None:
    """Why a run stopped short of T, or None if it did not."""
    if err is not None:
        return str(err)
    if log.blowup_time is not None:
        return f"blow-up at t={log.blowup_time}"
    return None


def _summary(sc: Scenario, g, log: RunLog, err) -> dict:
    out = {
        "scheme": log.scheme,
        "tau": sc.tau,
        "T": sc.T,
        "fp_iterations_total": log.fp_iterations_total,
        "fp_iterations_per_step": log.fp_iterations_total / max(log.steps, 1),
        "fp_iterations_max": log.fp_iterations_max,
        "start_fallbacks": log.start_fallbacks,
        "max_drifts": max_drifts(log),
        "c0_adjustments": log.c0_adjustments,
    }
    if log.blowup_time is not None:
        out["blowup_time"] = log.blowup_time
    elif err is None and sc.solution is not None:
        out["final_error"] = linf_error(log.final_u, sc.exact(g.x, log.records[-1].t))
    if err is not None:
        out["error"] = str(err)
    return out


def cmd_run(spec: JobSpec, sc: Scenario, g, out: Path) -> int:
    if spec.snapshots < 0:
        raise ConfigError(f"snapshots must be >= 0 (0 = off), got {spec.snapshots}")
    policy = _c0_policy(spec, sc)
    out.mkdir(parents=True, exist_ok=True)
    with (open(out / "snapshots.bin", "wb") if spec.snapshots > 0
          else contextlib.nullcontext()) as snap_fh:
        log, err = _execute(spec, sc, g, policy, spec.scheme, out / "invariants.csv",
                            snap_fh)
    summary = _summary(sc, g, log, err)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    failure = _failure(log, err)
    if failure is not None:
        print(f"run failed: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"run ok: {spec.scheme} {sc.name} tau={sc.tau} T={sc.T} -> {out}")
    return EXIT_OK


def cmd_compare(spec: JobSpec, sc: Scenario, g, out: Path) -> int:
    if not spec.schemes:
        raise ConfigError("compare needs at least one scheme (--schemes)")
    policy = _c0_policy(spec, sc)
    out.mkdir(parents=True, exist_ok=True)

    status = {}
    drifts = {}  # scheme -> (times, dI, dM, dE)
    for scheme in spec.schemes:
        log, err = _execute(spec, sc, g, policy, scheme, out / f"invariants_{scheme}.csv")
        failure = _failure(log, err)
        status[scheme] = "ok" if failure is None else f"failed: {failure}"
        drifts[scheme] = (log.times, *drift_series(log))

    times = min(drifts.values(), key=lambda d: len(d[0]))[0]  # shortest run
    with open(out / "comparison.csv", "w", newline="") as fh:
        fh.write("t," + ",".join(f"{s}_dI,{s}_dM,{s}_dE" for s in spec.schemes) + "\n")
        for i, t in enumerate(times):
            cells = [t, *(col[i] for s in spec.schemes for col in drifts[s][1:])]
            fh.write(",".join(map(_fmt, cells)) + "\n")

    with open(out / "summary_compare.json", "w") as fh:
        json.dump({"scenario": sc.name, "status": status}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")

    for s, msg in status.items():
        print(f"{s}: {msg}")
    return EXIT_OK if "ok" in status.values() else EXIT_NUMERICAL


def cmd_converge(spec: JobSpec, sc: Scenario, g, out: Path) -> int:
    if not spec.taus:
        raise ConfigError("converge needs --taus")
    order = SCHEMES[spec.scheme].order
    lo = spec.rate_min if spec.rate_min is not None else 2**order / 1.3
    hi = spec.rate_max if spec.rate_max is not None else 2**order * 1.3
    if not lo <= hi:  # a NaN bound too: no rate could be in the band
        raise ConfigError(f"rate band [{lo:.3g}, {hi:.3g}] is empty")
    out.mkdir(parents=True, exist_ok=True)

    reference = None
    if sc.solution is None:
        try:
            reference, gap = make_reference(sc, g, spec.tau_ref, sc.T)
        except (ReferenceMismatch, *STEP_ERRORS) as err:
            print(f"reference rejected: {err}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"reference computed at tau_ref={spec.tau_ref:g} "
              f"(cross-method gap {gap:.3e})")

    rows = convergence_study(spec.scheme, sc, spec.taus, sc.T, g=g, reference=reference)
    with open(out / "rates.csv", "w", newline="") as fh:
        fh.write("tau,error,rate,status\n")
        for r in rows:
            err = "" if r.error is None else _fmt(r.error)
            rate = "" if r.rate is None else _fmt(r.rate)
            fh.write(f"{_fmt(r.tau)},{err},{rate},{r.status}\n")

    print(f"{'tau':>12} {'error':>14} {'rate':>9}")
    for r in rows:
        error = f"{r.error:.6e}" if r.error is not None else "blow-up" if r.blowup else r.status
        print(f"{r.tau:>12.6g} {error:>14} "
              f"{(f'{r.rate:.3f}' if r.rate is not None else '-'):>9}")
        if r.detail:
            print(f"converge failed: {r.detail}", file=sys.stderr)

    rates = [r.rate for r in rows if r.rate is not None]
    if any(r.status != "ok" for r in rows) and not rates:
        return EXIT_NUMERICAL
    in_band = all(lo <= rate <= hi for rate in rates)
    if not in_band:
        print(f"rates outside configured band [{lo:.3g}, {hi:.3g}]",
              file=sys.stderr)
    return EXIT_OK if in_band else EXIT_RATES_OUT_OF_BAND


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "converge": cmd_converge}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkdv",
        description="Conservative pseudo-spectral solvers for generalized KdV",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", choices=["example1", "example2", "example3"])
        for f in fields(JobSpec):
            if name not in f.metadata["cmds"]:
                continue
            opts = dict(f.metadata["flag"])
            ini = "INI [%s] %s" % _ini_key(f)
            opts["help"] = f"{opts['help']}; {ini}" if "help" in opts else ini
            if f.metadata["type"] is bool:
                opts.update(action="store_true", default=None)
            elif f.metadata["type"] is not str:
                opts["type"] = f.metadata["type"]
            p.add_argument("--" + f.name.replace("_", "-"), **opts)
    return ap


def _spec_from_args(args) -> JobSpec:
    spec = JobSpec()
    if args.preset:
        spec.scenario = get_scenario(args.preset).name
    if args.config:
        spec = _parse_config_file(args.config, spec)
    for f in fields(JobSpec):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(spec, f.name, value)
    for s in [spec.scheme, *spec.schemes]:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}")
    return spec


# negative numbers argparse takes for flags (it knows -1 and -.5 as numbers)
_HIDDEN_NUMBER = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)e[-+]?\d+)", re.I)


def main(argv: list[str] | None = None) -> int:
    # a leading space makes argparse read such a number as a value; float() drops it
    argv = [" " + a if _HIDDEN_NUMBER.fullmatch(a) else a
            for a in (sys.argv[1:] if argv is None else argv)]
    try:
        args = build_parser().parse_args(argv)
        spec = _spec_from_args(args)
        sc = spec.resolve_scenario()
        g = sc.make_grid(dealias=spec.dealias)
        return COMMANDS[args.command](spec, sc, g, Path(spec.out_dir))
    except ValueError as err:  # ConfigError, or a set-up check of a setting
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else 0


if __name__ == "__main__":
    sys.exit(main())
