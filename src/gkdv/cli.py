"""Command-line driver: run one evolution, compare schemes, or sweep step sizes.

Usage:

    gkdv run --preset example2 --T 20 --out-dir out
    gkdv compare --preset example1 --schemes MCN SS SAV-IRK4 --T 100 --out-dir out
    gkdv converge --preset example2 --taus 0.2 0.1 0.05 0.025 --out-dir out

Settings come from a preset, an optional INI config file (sections
[scenario], [scheme], [output]) and command-line flags, in that order of
increasing precedence.  Outputs are CSV/JSON files plus an optional binary
snapshot stream; floats are printed with 17 significant digits so files are
byte-identical across repeated runs.  ``compare`` runs its schemes one after
another.
"""

from __future__ import annotations

import argparse
import configparser
import json
import struct
import sys
from dataclasses import dataclass, field
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
from .integrators import (
    SCHEMES,
    FixedPointError,
    RunLog,
    SingularStepError,
    StepperConfig,
    evolve,
)
from .sav import AdjustmentRequired, C0Policy, InvariantRecord, init_sav
from .scenarios import Scenario, get_scenario
from .spectral import SingularModeError, make_grid

EXIT_OK = 0
EXIT_RATES_OUT_OF_BAND = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SNAPSHOT_HEADER = struct.Struct("<qdqd")  # N, L, p, t; then N little-endian f64


class ConfigError(ValueError):
    pass


@dataclass
class JobSpec:
    """Everything one evolution needs, resolved from preset/config/flags."""

    scenario: str = "two_soliton"
    scheme: str = "SAV-IRK4"
    schemes: list[str] = field(default_factory=list)
    tau: float | None = None
    taus: list[float] = field(default_factory=list)
    T: float | None = None
    N: int | None = None
    L: float | None = None
    p: int | None = None
    fp_tol: float | None = None
    c0_tol: float = 5.0
    out_dir: str = "out"
    snapshots: int = 0
    sample_every: int = 1
    dealias: bool = False
    beta_from_energy: bool = False
    tau_ref: float = 1.0 / 25600.0
    rate_min: float | None = None
    rate_max: float | None = None

    def resolve_scenario(self) -> Scenario:
        sc = get_scenario(self.scenario)
        over = {}
        if self.N is not None:
            over["N"] = self.N
        if self.L is not None:
            over["L"] = self.L
        if self.p is not None:
            over["p"] = self.p
        if self.tau is not None:
            over["tau"] = self.tau
        if self.T is not None:
            over["T"] = self.T
        if self.fp_tol is not None:
            over["fp_tol"] = self.fp_tol
        return sc.with_overrides(**over) if over else sc


def _parse_config_file(path: str, spec: JobSpec) -> JobSpec:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    try:
        if parser.has_section("scenario"):
            s = parser["scenario"]
            spec.scenario = s.get("name", spec.scenario)
            spec.N = s.getint("N") if "n" in s else spec.N
            spec.L = s.getfloat("L") if "l" in s else spec.L
            spec.p = s.getint("p") if "p" in s else spec.p
            spec.dealias = s.getboolean("dealias", spec.dealias)
        if parser.has_section("scheme"):
            s = parser["scheme"]
            spec.scheme = s.get("name", spec.scheme)
            if "schemes" in s:
                spec.schemes = s.get("schemes").split()
            if "tau" in s:
                spec.tau = s.getfloat("tau")
            if "taus" in s:
                spec.taus = [float(v) for v in s.get("taus").split()]
            if "t" in s:
                spec.T = s.getfloat("T")
            if "fp_tol" in s:
                spec.fp_tol = s.getfloat("fp_tol")
            spec.c0_tol = s.getfloat("c0_tol", spec.c0_tol)
            if "tau_ref" in s:
                spec.tau_ref = s.getfloat("tau_ref")
            if "rate_min" in s:
                spec.rate_min = s.getfloat("rate_min")
            if "rate_max" in s:
                spec.rate_max = s.getfloat("rate_max")
        if parser.has_section("output"):
            s = parser["output"]
            spec.out_dir = s.get("dir", spec.out_dir)
            spec.snapshots = s.getint("snapshots", spec.snapshots)
            spec.sample_every = s.getint("sample_every", spec.sample_every)
            spec.beta_from_energy = s.getboolean(
                "beta_from_energy", spec.beta_from_energy
            )
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad config value in {path!r}: {exc}") from exc
    return spec


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_invariants_csv(path: Path, records: list[InvariantRecord]):
    breather_cols = records and records[0].beta_num is not None
    header = (
        InvariantRecord.CSV_HEADER_BREATHER if breather_cols
        else InvariantRecord.CSV_HEADER
    )
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for r in records:
            fh.write(r.to_csv_row() + "\n")


def write_snapshot(fh, g, p: int, t: float, u: np.ndarray):
    fh.write(SNAPSHOT_HEADER.pack(g.N, g.L, p, t))
    fh.write(np.asarray(u, dtype="<f8").tobytes())


def read_snapshots(path: Path) -> list[tuple[float, np.ndarray]]:
    """Parse a snapshot stream back into (t, field) pairs."""
    out = []
    raw = Path(path).read_bytes()
    off = 0
    while off < len(raw):
        n, _L, _p, t = SNAPSHOT_HEADER.unpack_from(raw, off)
        off += SNAPSHOT_HEADER.size
        u = np.frombuffer(raw, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        out.append((t, u))
    return out


def _execute(spec: JobSpec, scheme: str, snapshot_fh=None):
    """One evolution; returns (log, error-or-None)."""
    sc = spec.resolve_scenario()
    g = make_grid(sc.L, sc.N, dealias=spec.dealias)
    policy = C0Policy(target=sc.c0_target, tol=spec.c0_tol)
    state = init_sav(g, sc.initial(g.x), sc.p, policy)
    cfg = StepperConfig(tau=sc.tau, fp_tol=sc.fp_tol, scheme=scheme)

    on_step = None
    if snapshot_fh is not None and spec.snapshots > 0:
        cadence = spec.snapshots

        def on_step(m, t, u):
            if m % cadence == 0:
                write_snapshot(snapshot_fh, g, sc.p, t, u)

    try:
        log = evolve(
            scheme, state, g, cfg, sc.T,
            sample_every=spec.sample_every, policy=policy, on_step=on_step,
        )
        return log, None
    except (FixedPointError, SingularModeError, SingularStepError,
            AdjustmentRequired) as err:
        return getattr(err, "partial_log", None), err


def _summary(spec: JobSpec, sc: Scenario, log: RunLog | None, err) -> dict:
    out = {
        "scheme": log.scheme if log else spec.scheme,
        "tau": sc.tau,
        "T": sc.T,
        "fp_iterations_total": log.fp_iterations_total if log else 0,
    }
    if log and len(log.records) >= 1:
        out["max_drifts"] = max_drifts(log)
        if log.blowup_time is not None:
            out["blowup_time"] = log.blowup_time
        elif err is None and sc.exact is not None:
            t_final = log.records[-1].t
            out["final_error"] = linf_error(log.final_u, sc.exact(
                np.array(make_grid(sc.L, sc.N).x), t_final))
        out["c0_adjustments"] = log.c0_adjustments
    if err is not None:
        out["error"] = str(err)
    return out


def cmd_run(spec: JobSpec) -> int:
    sc = spec.resolve_scenario()
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    snap_fh = open(out / "snapshots.bin", "wb") if spec.snapshots > 0 else None
    try:
        log, err = _execute(spec, spec.scheme, snap_fh)
    finally:
        if snap_fh:
            snap_fh.close()

    if log is not None:
        records = log.records
        if sc.track_breather:
            records = attach_breather_columns(log, spec.beta_from_energy)
        write_invariants_csv(out / "invariants.csv", records)
    summary = _summary(spec, sc, log, err)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if err is not None or (log is not None and log.blowup_time is not None):
        print(f"run failed: {err or f'blow-up at t={log.blowup_time}'}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"run ok: {spec.scheme} {sc.name} tau={sc.tau} T={sc.T} -> {out}")
    return EXIT_OK


def cmd_compare(spec: JobSpec) -> int:
    if not spec.schemes:
        print("compare needs at least one scheme (--schemes)", file=sys.stderr)
        return EXIT_CONFIG
    sc = spec.resolve_scenario()
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    status = {}
    merged_cols = {}
    n_rows = None
    times = None
    for scheme in spec.schemes:
        log, err = _execute(spec, scheme)
        if log is None or not log.records:
            status[scheme] = f"failed: {err}"
            continue
        records = log.records
        if sc.track_breather:
            records = attach_breather_columns(log, spec.beta_from_energy)
        write_invariants_csv(out / f"invariants_{scheme}.csv", records)
        status[scheme] = ("ok" if err is None and log.blowup_time is None
                          else f"failed: {err or f'blow-up at t={log.blowup_time}'}")
        dI, dM, dE = drift_series(log)
        merged_cols[scheme] = (dI, dM, dE)
        if n_rows is None or len(dI) < n_rows:
            n_rows = len(dI)
            times = log.times

    if merged_cols:
        with open(out / "comparison.csv", "w", newline="") as fh:
            names = [s for s in spec.schemes if s in merged_cols]
            fh.write("t," + ",".join(
                f"{s}_dI,{s}_dM,{s}_dE" for s in names) + "\n")
            for i in range(n_rows):
                cells = [_fmt(times[i])]
                for s in names:
                    dI, dM, dE = merged_cols[s]
                    cells += [_fmt(dI[i]), _fmt(dM[i]), _fmt(dE[i])]
                fh.write(",".join(cells) + "\n")

    with open(out / "summary_compare.json", "w") as fh:
        json.dump({"scenario": sc.name, "status": status}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")

    ok = [s for s, msg in status.items() if msg == "ok"]
    for s, msg in status.items():
        print(f"{s}: {msg}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_converge(spec: JobSpec) -> int:
    if not spec.taus:
        print("converge needs --taus", file=sys.stderr)
        return EXIT_CONFIG
    sc = spec.resolve_scenario()
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = make_grid(sc.L, sc.N, dealias=spec.dealias)

    reference = None
    if sc.exact is None:
        try:
            reference, gap = make_reference(sc, g, spec.tau_ref, sc.T)
        except ReferenceMismatch as err:
            print(f"reference rejected: {err}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"reference computed at tau_ref={spec.tau_ref:g} "
              f"(cross-method gap {gap:.3e})")

    rows = convergence_study(spec.scheme, sc, spec.taus, sc.T, g=g,
                             reference=reference)

    with open(out / "rates.csv", "w", newline="") as fh:
        fh.write("tau,error,rate\n")
        for r in rows:
            err = "" if r.error is None else _fmt(r.error)
            rate = "" if r.rate is None else _fmt(r.rate)
            flag = ",blowup" if r.blowup else ""
            fh.write(f"{_fmt(r.tau)},{err},{rate}{flag}\n")

    order = SCHEMES[spec.scheme].order
    lo = spec.rate_min if spec.rate_min is not None else 2**order / 1.3
    hi = spec.rate_max if spec.rate_max is not None else 2**order * 1.3
    print(f"{'tau':>12} {'error':>14} {'rate':>9}")
    for r in rows:
        print(f"{r.tau:>12.6g} "
              f"{(f'{r.error:.6e}' if r.error is not None else 'blow-up'):>14} "
              f"{(f'{r.rate:.3f}' if r.rate is not None else '-'):>9}")

    rates = [r.rate for r in rows if r.rate is not None]
    if any(r.blowup for r in rows) and not rates:
        return EXIT_NUMERICAL
    in_band = all(lo <= rate <= hi for rate in rates)
    if not in_band:
        print(f"rates outside configured band [{lo:.3g}, {hi:.3g}]",
              file=sys.stderr)
    return EXIT_OK if in_band else EXIT_RATES_OUT_OF_BAND


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkdv",
        description="Conservative pseudo-spectral solvers for generalized KdV",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "converge"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", choices=["example1", "example2", "example3"])
        p.add_argument("--scenario")
        p.add_argument("--scheme", choices=list(SCHEMES))
        p.add_argument("--schemes", nargs="+", choices=list(SCHEMES))
        p.add_argument("--tau", type=float)
        p.add_argument("--taus", nargs="+", type=float)
        p.add_argument("--T", type=float)
        p.add_argument("--N", type=int)
        p.add_argument("--L", type=float)
        p.add_argument("--p", type=int)
        p.add_argument("--fp-tol", type=float)
        p.add_argument("--c0-tol", type=float)
        p.add_argument("--out-dir")
        p.add_argument("--snapshots", type=int,
                       help="write a solution snapshot every K steps (0 = off)")
        p.add_argument("--sample-every", type=int)
        p.add_argument("--dealias", action="store_true")
        p.add_argument("--beta-from-energy", action="store_true")
        p.add_argument("--tau-ref", type=float)
        p.add_argument("--rate-min", type=float)
        p.add_argument("--rate-max", type=float)
    return ap


def _spec_from_args(args) -> JobSpec:
    spec = JobSpec()
    if args.preset:
        sc = get_scenario(args.preset)
        spec.scenario = sc.name
    if args.config:
        spec = _parse_config_file(args.config, spec)
    for flag, attr in [
        ("scenario", "scenario"), ("scheme", "scheme"), ("schemes", "schemes"),
        ("tau", "tau"), ("taus", "taus"), ("T", "T"), ("N", "N"), ("L", "L"),
        ("p", "p"), ("fp_tol", "fp_tol"), ("c0_tol", "c0_tol"),
        ("out_dir", "out_dir"), ("snapshots", "snapshots"),
        ("sample_every", "sample_every"), ("tau_ref", "tau_ref"),
        ("rate_min", "rate_min"), ("rate_max", "rate_max"),
    ]:
        val = getattr(args, flag, None)
        if val is not None:
            setattr(spec, attr, val)
    if args.dealias:
        spec.dealias = True
    if args.beta_from_energy:
        spec.beta_from_energy = True
    get_scenario(spec.scenario)  # validate early
    if spec.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {spec.scheme!r}")
    for s in spec.schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}")
    return spec


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        spec = _spec_from_args(args)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else 0

    try:
        if args.command == "run":
            return cmd_run(spec)
        if args.command == "compare":
            return cmd_compare(spec)
        return cmd_converge(spec)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
