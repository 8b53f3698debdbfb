"""Error metrics, invariant-drift tracking and convergence-rate studies."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .integrators import RunLog, StepperConfig, evolve
from .sav import C0Policy, InvariantRecord, init_sav
from .scenarios import Scenario, breather_diagnostics
from .spectral import SpectralGrid

__all__ = [
    "linf_error",
    "drift_series",
    "max_drifts",
    "attach_breather_columns",
    "ConvergenceRow",
    "convergence_study",
    "ReferenceMismatch",
    "make_reference",
]

REFERENCE_GAP_TOL = 1e-10


class ReferenceMismatch(RuntimeError):
    """The two independent reference computations disagree too much."""


def linf_error(u: np.ndarray, exact: np.ndarray) -> float:
    u = np.asarray(u)
    exact = np.asarray(exact)
    if u.shape != exact.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {exact.shape}")
    return float(np.abs(u - exact).max())


def drift_series(log: RunLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running maxima of |I - I0|, |M - M0| and |E - E0| along the run.

    E is the energy the scheme conserves, which ``evolve`` records as
    ``energy_mod``: the modified energy for schemes with an auxiliary
    variable and the physical one otherwise.
    """
    if not log.records:
        raise ValueError("empty run log")
    I = np.array([r.momentum for r in log.records])
    M = np.array([r.mass for r in log.records])
    E = np.array([r.energy_mod for r in log.records])
    return (
        np.maximum.accumulate(np.abs(I - I[0])),
        np.maximum.accumulate(np.abs(M - M[0])),
        np.maximum.accumulate(np.abs(E - E[0])),
    )


def max_drifts(log: RunLog) -> dict[str, float]:
    dI, dM, dE = drift_series(log)
    return {"I": float(dI[-1]), "M": float(dM[-1]), "E": float(dE[-1])}


def attach_breather_columns(
    log: RunLog, beta_from_energy: bool = False
) -> list[InvariantRecord]:
    """Records with the (beta, gamma) estimates filled in.

    Both estimates come from ``breather_diagnostics`` with the energy the
    scheme conserves, ``energy_mod`` (see ``drift_series``), which is
    how the published tracking stays meaningful over long runs.  The gamma
    estimate is proportional to that energy and divided by the beta
    estimate: gamma = E / (2 beta |E[Q]|).
    """
    out = []
    for r in log.records:
        b, gm = breather_diagnostics(r.mass, r.energy_mod, beta_from_energy)
        out.append(replace(r, beta_num=b, gamma_num=gm))
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    error: float | None
    rate: float | None
    blowup: bool = False


def _default_run(
    scenario: Scenario, g: SpectralGrid, scheme: str, tau: float, T: float,
    fp_tol: float,
) -> RunLog:
    cfg = StepperConfig(tau=tau, fp_tol=fp_tol)
    policy = C0Policy(target=scenario.c0_target)
    state = init_sav(g, scenario.initial(g.x), scenario.p, policy)
    n = T / tau  # round() raises on a non-finite T; evolve's check names it
    return evolve(
        scheme, state, g, cfg, T,
        sample_every=max(1, int(round(n))) if np.isfinite(n) else 1, policy=policy,
    )


def convergence_study(
    scheme: str,
    scenario: Scenario,
    tau_list: list[float],
    T: float,
    g: SpectralGrid | None = None,
    reference: np.ndarray | None = None,
    run_fn: Callable[..., RunLog] | None = None,
) -> list[ConvergenceRow]:
    """Final-time errors and error ratios over a step-size sweep.

    The error compares the run's final field against the scenario's exact
    solution at the snapped final time, or against ``reference`` when no
    closed form exists.  The rate in each row is the previous error divided
    by the current one; rows that blow up are flagged and break the chain.
    """
    g = g or scenario.make_grid()
    run_fn = run_fn or _default_run

    if reference is None and scenario.solution is None:
        raise ValueError(
            f"scenario {scenario.name!r} has no exact solution; pass reference="
        )

    rows: list[ConvergenceRow] = []
    prev_error: float | None = None
    for tau in sorted(tau_list, reverse=True):
        log = run_fn(scenario, g, scheme, tau, T, scenario.fp_tol)
        if log.blowup_time is not None:
            rows.append(ConvergenceRow(tau=tau, error=None, rate=None, blowup=True))
            prev_error = None
            continue
        t_final = log.records[-1].t
        target = reference if reference is not None else scenario.exact(g.x, t_final)
        err = linf_error(log.final_u, target)
        rate = None
        if prev_error is not None and err > 0:
            rate = prev_error / err
        rows.append(ConvergenceRow(tau=tau, error=err, rate=rate))
        prev_error = err
    return rows


def make_reference(
    scenario: Scenario,
    g: SpectralGrid,
    tau_ref: float,
    T: float,
) -> tuple[np.ndarray, float]:
    """Reference solution at time T computed twice, by unrelated integrators.

    Runs mETDRK4 and SAV-IRK4 at ``tau_ref`` and returns the SAV-IRK4 field
    together with the cross-method max difference; disagreement beyond
    ``REFERENCE_GAP_TOL`` rejects the reference.
    """
    u0 = scenario.initial(g.x)
    if T == 0:
        return u0, 0.0
    finals = {}
    for scheme in ("mETDRK4", "SAV-IRK4"):
        log = _default_run(scenario, g, scheme, tau_ref, T, scenario.fp_tol)
        if log.blowup_time is not None:
            raise ReferenceMismatch(f"{scheme} reference run blew up at t={log.blowup_time}")
        finals[scheme] = log.final_u
    gap = linf_error(finals["mETDRK4"], finals["SAV-IRK4"])
    if gap > REFERENCE_GAP_TOL:
        raise ReferenceMismatch(
            f"reference integrators disagree by {gap:.3e} (> {REFERENCE_GAP_TOL:g}) "
            f"at tau_ref={tau_ref!r}"
        )
    return finals["SAV-IRK4"], gap
