"""Correctness checks of the workloads' outputs.

Every check compares with a closed form or with a property the method must
have (a conservation law, an order of accuracy), never with a stored copy of
an earlier run.  The closed forms are written out here rather than taken
from the solver.  Each function returns a list of violations; an empty list
means the outputs pass.

Outputs arrive as plain arrays: per run a dict with the sampled columns
``t``, ``I`` (momentum), ``M`` (mass), ``E`` (physical energy), ``Em``
(modified energy), optionally ``beta``/``gamma`` (breather estimates), and
``final_u``.
"""

from __future__ import annotations

import math

import numpy as np

# Drift of an invariant a scheme conserves exactly, over a whole run.  The
# same 1e-10 the repository's conservation criterion uses; round-off and the
# 1e-12 stage tolerance leave drifts of 1e-15 to 1e-12 on these runs.
DRIFT_TOL = 1e-10
# Gap between a sampled initial invariant and its closed form: the grids
# resolve the initial states to round-off and truncate tails below 1e-11.
INITIAL_TOL = 1e-9

# --- KdV two-soliton (example 2): u_t + u u_x + u_xxx = 0 ---------------------
TWO_SOLITON_GAMMAS = (0.4, 0.6)
TWO_SOLITON_SHIFTS = (10.0, 25.0)
# momentum 12 [(log f)_x] from -inf to +inf = 12 (gamma1 + gamma2)
TWO_SOLITON_MOMENTUM = 12.0 * sum(TWO_SOLITON_GAMMAS)
SCHEME_ORDER = {"SAV-IRK2": 2, "SAV-IRK4": 4, "SAV-IRK6": 6}
# Errors below 10x the stage tolerance (1e-12) sit at the solver's floor and
# carry no rate; a ratio is checked only when the finer error is above it.
ERROR_FLOOR = 1e-11
# log2 of an error ratio may differ from order * log2(tau ratio) by this much
# (a factor sqrt(2)); at T=12 the measured ratios are within 0.04 of it.
RATE_LOG2_TOL = 0.5
# the solver's reported error against the error computed here
ROW_ERROR_TOL = 1e-12

# --- mKdV breather (example 1): alpha=3, beta=1 ----------------------------------
BREATHER_BETA = 1.0
BREATHER_GAMMA = 3.0 * 3.0**2 - BREATHER_BETA**2  # 3 alpha^2 - beta^2 = 26
Q_MASS, Q_ABS_ENERGY = 12.0, 2.0  # M[Q] and |E[Q]| of Q = sqrt(6) sech(x)
BREATHER_MASS = 2.0 * BREATHER_BETA * Q_MASS  # 24
BREATHER_ENERGY = 2.0 * BREATHER_BETA * BREATHER_GAMMA * Q_ABS_ENERGY  # 104
BREATHER_MOMENTUM = 0.0  # the breather is the x-derivative of a decaying field
# tracking bounds of the repository's breather-fidelity criterion
SAV_BETA_TOL = SAV_GAMMA_TOL = 1e-8
MCN_BETA_TOL, MCN_ENERGY_TOL = 1e-5, 1e-8
MCN_GAMMA_TOL = BREATHER_GAMMA * (MCN_BETA_TOL + MCN_ENERGY_TOL) / (1.0 - MCN_BETA_TOL)
ESTIMATE_TOL = 1e-12  # the solver's estimates against the ones computed here

# --- KdV scattering of u0 = -sech^2(x) (example 3) -------------------------------
# I = -int sech^2 = -2, M = int sech^4 = 4/3,
# E = (1/2) int u_x^2 - (1/6) int u^3 = 8/15 + 8/45 = 32/45
SCATTER_INVARIANTS = {"I": -2.0, "M": 4.0 / 3.0, "E": 32.0 / 45.0, "Em": 32.0 / 45.0}


def two_soliton_exact(x, t: float) -> np.ndarray:
    """u = 12 (log f)_xx, f = 1 + e^th1 + e^th2 + a^2 e^(th1+th2).

    With f a sum of exponentials e^phi_j whose x-slopes are k_j, (log f)_xx
    is the variance of k under the weights e^phi_j / f, evaluated here
    without overflow as a shifted softmax.
    """
    (g1, g2), (x1, x2) = TWO_SOLITON_GAMMAS, TWO_SOLITON_SHIFTS
    x = np.asarray(x, dtype=float)
    th1 = g1 * x - g1**3 * t + x1
    th2 = g2 * x - g2**3 * t + x2
    a2 = ((g1 - g2) / (g1 + g2)) ** 2
    phi = np.stack([np.zeros_like(x), th1, th2, th1 + th2 + math.log(a2)])
    k = np.array([0.0, g1, g2, g1 + g2])[:, None]
    w = np.exp(phi - phi.max(axis=0))
    w /= w.sum(axis=0)
    mean = (w * k).sum(axis=0)
    return 12.0 * (w * (k - mean) ** 2).sum(axis=0)


def _drift(col) -> float:
    col = np.asarray(col)
    return float(np.abs(col - col[0]).max())


def _horizon(label: str, t, T: float) -> list[str]:
    if len(t) == 0 or abs(t[-1] - T) > 1e-9 * max(1.0, T):
        return [f"{label}: run ends at t={t[-1] if len(t) else None}, not T={T}"]
    return []


def check_two_soliton(x, T: float, runs: dict[str, list[dict]]) -> list[str]:
    """Errors against the closed form, their rates, and the invariants.

    ``runs[scheme]`` holds one dict per step size with ``tau`` and the
    solver's reported ``row_error`` besides the run's columns.
    """
    out = []
    for scheme, order in SCHEME_ORDER.items():
        rs = sorted(runs.get(scheme, []), key=lambda r: -r["tau"])
        if len(rs) < 2:
            out.append(f"{scheme}: {len(rs)} completed step sizes, need 2")
            continue
        errors = []
        for r in rs:
            label = f"{scheme} tau={r['tau']:g}"
            out += _horizon(label, r["t"], T)
            err = float(np.abs(r["final_u"] - two_soliton_exact(x, r["t"][-1])).max())
            errors.append(err)
            if not abs(err - r["row_error"]) <= ROW_ERROR_TOL:
                out.append(f"{label}: reported error {r['row_error']:.3e} but the "
                           f"closed form gives {err:.3e}")
            if not abs(r["I"][0] - TWO_SOLITON_MOMENTUM) <= INITIAL_TOL:
                out.append(f"{label}: initial momentum {r['I'][0]!r} != "
                           f"{TWO_SOLITON_MOMENTUM:g}")
            for col in ("I", "Em"):
                if not _drift(r[col]) <= DRIFT_TOL:
                    out.append(f"{label}: {col} drift {_drift(r[col]):.2e} > {DRIFT_TOL:g}")
        rated = 0
        for (rc, ec), (rf, ef) in zip(zip(rs, errors), zip(rs[1:], errors[1:])):
            pair = f"{scheme} tau {rc['tau']:g}->{rf['tau']:g}"
            if ef < ERROR_FLOOR:
                if not ef <= ec:
                    out.append(f"{pair}: error grew from {ec:.2e} to {ef:.2e}")
                continue
            rated += 1
            expected = order * math.log2(rc["tau"] / rf["tau"])
            measured = math.log2(ec / ef) if ef > 0 else math.inf
            if not abs(measured - expected) <= RATE_LOG2_TOL:
                out.append(f"{pair}: error ratio {ec / ef:.3g}, expected "
                           f"{2**expected:.3g} within a factor {2**RATE_LOG2_TOL:.3g}")
        if rated == 0:
            out.append(f"{scheme}: no error above the floor {ERROR_FLOOR:g}, "
                       "so no rate was checked")
    return out


def check_breather(runs: dict[str, dict], T: float, sample_dt: float) -> list[str]:
    """Amplitude and speed tracking, initial invariants and conservation.

    The estimates are beta^ = M / (2 M[Q]) and gamma^ = E / (2 beta^ |E[Q]|)
    with the energy the scheme conserves: the modified one for SAV-IRK4,
    the physical one for MCN.
    """
    out = []
    for scheme in ("SAV-IRK4", "MCN"):
        r = runs.get(scheme)
        if r is None:
            out.append(f"{scheme}: no completed run")
            continue
        sav = scheme.startswith("SAV")
        energy = r["Em"] if sav else r["E"]
        out += _horizon(scheme, r["t"], T)
        if not np.allclose(np.diff(r["t"]), sample_dt, rtol=0, atol=1e-9):
            out.append(f"{scheme}: samples are not {sample_dt:g} apart")
        for col, exact in (("M", BREATHER_MASS), ("E", BREATHER_ENERGY),
                           ("Em", BREATHER_ENERGY)):
            if not abs(r[col][0] / exact - 1.0) <= INITIAL_TOL:
                out.append(f"{scheme}: initial {col} {r[col][0]!r} != {exact:g}")
        if not abs(r["I"][0] - BREATHER_MOMENTUM) <= INITIAL_TOL:
            out.append(f"{scheme}: initial momentum {r['I'][0]!r} != 0")
        if not _drift(r["I"]) <= DRIFT_TOL:
            out.append(f"{scheme}: momentum drift {_drift(r['I']):.2e} > {DRIFT_TOL:g}")
        if not _drift(energy) <= DRIFT_TOL * BREATHER_ENERGY:
            out.append(f"{scheme}: {'modified' if sav else 'physical'} energy drift "
                       f"{_drift(energy):.2e} > {DRIFT_TOL * BREATHER_ENERGY:.2g}")

        beta = r["M"] / (2.0 * Q_MASS)
        gamma = energy / (2.0 * beta * Q_ABS_ENERGY)
        if not (np.abs(beta - r["beta"]).max() <= ESTIMATE_TOL
                and np.abs(gamma - r["gamma"]).max() <= ESTIMATE_TOL * BREATHER_GAMMA):
            out.append(f"{scheme}: attached beta/gamma columns differ from M/24 and 6E/M")
        be = float(np.abs(beta - BREATHER_BETA).max())
        ge = float(np.abs(gamma - BREATHER_GAMMA).max())
        beta_tol, gamma_tol = ((SAV_BETA_TOL, SAV_GAMMA_TOL) if sav
                               else (MCN_BETA_TOL, MCN_GAMMA_TOL))
        if not be <= beta_tol:
            out.append(f"{scheme}: beta error {be:.2e} > {beta_tol:g}")
        if not ge <= gamma_tol:
            out.append(f"{scheme}: gamma error {ge:.2e} > {gamma_tol:.3g}")
        if not sav:
            gap = float(np.abs(r["E"] / BREATHER_ENERGY - 1.0).max())
            if not gap <= MCN_ENERGY_TOL:
                out.append(f"{scheme}: energy gap to E[B] {gap:.2e} > {MCN_ENERGY_TOL:g}")
    return out


def check_scatter(rc: int, status: dict, runs: dict[str, dict], schemes,
                  steps_per_run: int, T: float) -> list[str]:
    """Exit code, sampling, closed-form initial invariants and conservation.

    ``runs`` holds the schemes whose status is ok; a scheme that failed is
    counted as a failed operation, not checked here.
    """
    out = []
    expected_rc = 0 if runs else 3
    if rc != expected_rc:
        out.append(f"exit code {rc}, expected {expected_rc}")
    if set(status) != set(schemes):
        out.append(f"status covers {sorted(status)}, expected {sorted(schemes)}")
    for scheme, r in runs.items():
        if len(r["t"]) != steps_per_run + 1:
            out.append(f"{scheme}: {len(r['t'])} samples, expected one per step "
                       f"({steps_per_run + 1})")
        out += _horizon(scheme, r["t"], T)
        for col, exact in SCATTER_INVARIANTS.items():
            if not abs(r[col][0] - exact) <= INITIAL_TOL:
                out.append(f"{scheme}: initial {col} {r[col][0]!r} != {exact!r}")
        conserved = ("I", "Em") if scheme.startswith("SAV") else ("I",)
        for col in conserved:
            if not _drift(r[col]) <= DRIFT_TOL:
                out.append(f"{scheme}: {col} drift {_drift(r[col]):.2e} > {DRIFT_TOL:g}")
    return out
