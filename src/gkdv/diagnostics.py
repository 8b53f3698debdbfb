"""Error metrics, invariant-drift tracking and convergence-rate studies."""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .integrators import STEP_ERRORS, RunLog, StepperConfig, evolve
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


def attach_breather_columns(log: RunLog) -> list[InvariantRecord]:
    """Records with the (beta, gamma) estimates filled in.

    ``breather_diagnostics`` reads beta = M / (2 M[Q]) from the mass and
    gamma = E / (2 beta |E[Q]|) from the energy the scheme conserves,
    ``energy_mod`` (see ``drift_series``), which is how the published
    tracking stays meaningful over long runs.
    """
    out = []
    for r in log.records:
        b, gm = breather_diagnostics(r.mass, r.energy_mod)
        out.append(replace(r, beta_num=b, gamma_num=gm))
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    """One step size of ``convergence_study``.

    ``status`` is ``ok``, ``blowup``, or, for a run that raised one of
    ``STEP_ERRORS``, the ``FixedPointError.kind`` or else the error's type
    name, with the error's text in ``detail``.  Only an ``ok`` row has an
    error.
    """

    tau: float
    error: float | None
    rate: float | None
    status: str = "ok"
    detail: str = ""

    @property
    def blowup(self) -> bool:
        return self.status == "blowup"


def _run(scenario: Scenario, g: SpectralGrid, scheme: str, tau: float, T: float) -> RunLog:
    """``scheme`` at step ``tau`` from the scenario's initial state to T, at
    its fp_tol and C0 target, sampled at t = 0 and at the end (at T = 0 only
    once, and ``final_u`` is the initial field)."""
    cfg = StepperConfig(tau=tau, fp_tol=scenario.fp_tol)
    policy = C0Policy(target=scenario.c0_target)
    state = init_sav(g, scenario.initial(g.x), scenario.p, policy)
    # a stride no run reaches: evolve samples t = 0 and its last step anyway
    return evolve(scheme, state, g, cfg, T, sample_every=sys.maxsize, policy=policy)


def convergence_study(
    scheme: str,
    scenario: Scenario,
    tau_list: list[float],
    T: float,
    g: SpectralGrid,
    reference: np.ndarray | None = None,
) -> list[ConvergenceRow]:
    """Final-time errors and error ratios over a step-size sweep on grid ``g``.

    Each step size is one ``_run`` and one row, from the largest tau down.
    The error compares the run's final field against the scenario's exact
    solution at the snapped final time, or against ``reference`` when no
    closed form exists.  The rate in each row is the previous error divided
    by the current one.  A run that blows up or raises one of
    ``STEP_ERRORS`` gives a row without error or rate (see
    ``ConvergenceRow``), which breaks the chain, and the study goes on.
    """
    if reference is None and scenario.solution is None:
        raise ValueError(
            f"scenario {scenario.name!r} has no exact solution; pass reference="
        )

    rows: list[ConvergenceRow] = []
    for tau in sorted(tau_list, reverse=True):
        try:
            log = _run(scenario, g, scheme, tau, T)
        except STEP_ERRORS as err:
            status = getattr(err, "kind", "") or type(err).__name__
            rows.append(ConvergenceRow(tau, None, None, status=status, detail=str(err)))
            continue
        if log.blowup_time is not None:
            rows.append(ConvergenceRow(tau, None, None, status="blowup"))
            continue
        t_final = log.records[-1].t
        target = reference if reference is not None else scenario.exact(g.x, t_final)
        err = linf_error(log.final_u, target)
        prev_error = rows[-1].error if rows else None
        rate = prev_error / err if prev_error is not None and err > 0 else None
        rows.append(ConvergenceRow(tau, err, rate))
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
    finals = {}
    for scheme in ("mETDRK4", "SAV-IRK4"):
        log = _run(scenario, g, scheme, tau_ref, T)
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
