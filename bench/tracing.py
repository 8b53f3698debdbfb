"""Span tracing of the solver's layers, and the per-layer metrics drawn from it.

The tracer replaces public functions at the site where their caller binds
them (``numpy.fft.rfft`` for every spectral transform, ``nonlinear_power``
in ``gkdv.integrators``, each stepper class's ``advance``, the ``evolve``
bound in ``gkdv.cli``, ...) with wrappers that record a span: name, start,
end, parent span and a tag.  Spans stay in memory until the run ends.  The
solver's code is not changed; ``uninstall`` puts every original back.

A layer's self time is its span's duration minus the part of it that its
child spans cover.  Spans opened in a worker thread with nothing open in
that thread take the main thread's innermost open span as their parent, so
the ``evolve`` calls of ``gkdv compare`` count as children of ``cli.main``.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, TAG, RESULT = range(6)

SCHEMES = ("SAV-IRK2", "SAV-IRK4", "SAV-IRK6", "MCN", "mETDRK4")
IMPLICIT = ("SAV-IRK2", "SAV-IRK4", "SAV-IRK6", "MCN")
P99_MIN_STEPS = 1000  # a 99th percentile needs ten steps beyond it


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._main_stack: list[list] = []
        self._tls = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        try:
            return self._tls.stack
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            self._tls.stack = self._main_stack if main else []
            return self._tls.stack

    def wrap(self, fn, name: str, tag=None, result=None):
        """``fn`` recording a span per call; ``tag(args, kwargs)`` and
        ``result(return value)`` fill the span's tag and result slots."""
        spans, stack_of, main_stack = self.spans, self._stack, self._main_stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [name, 0.0, 0.0, parent, tag(args, kwargs) if tag else None, None]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if result is not None:
                span[RESULT] = result(out)
            return out

        return functools.update_wrapper(traced, fn)

    def patch(self, owner, attr: str, name: str, **kw):
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, **kw))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def install(self, bench_workloads):
        """Wrap the solver's public functions and the benchmark's own bindings."""
        import gkdv.cli as cli
        import gkdv.diagnostics as diagnostics
        import gkdv.integrators as integrators
        import gkdv.sav as sav
        import gkdv.scenarios as scenarios

        for fname in ("rfft", "irfft"):
            self.patch(np.fft, fname, f"spectral.{fname}", tag=_transform_count)
        self.patch(sav, "nonlinear_power", "sav.nonlinear_power")
        for fname in ("nonlinear_power", "stage_flux", "invariants", "rhs_f", "adjust_c0"):
            self.patch(integrators, fname, f"sav.{fname}")
        self.patch(integrators, "etdrk4_coefficients", "integrators.etdrk4_coefficients")
        for cls in vars(integrators).values():
            if isinstance(cls, type) and "advance" in vars(cls):
                self.patch(cls, "advance", "integrators.advance",
                           tag=lambda a, k: a[0].cfg.scheme,
                           result=lambda stats: stats.iterations)
        self.patch(scenarios.Scenario, "make_grid", "scenarios.make_grid")
        for mod in (diagnostics, cli, bench_workloads):
            if hasattr(mod, "evolve"):
                self.patch(mod, "evolve", "integrators.evolve")
            if hasattr(mod, "init_sav"):
                self.patch(mod, "init_sav", "sav.init_sav")
        for mod in (cli, bench_workloads):
            orig = getattr(mod, "get_scenario")
            self._patched.append((mod, "get_scenario", orig))
            setattr(mod, "get_scenario", self.wrap(
                self._traced_scenario(orig), "scenarios.get_scenario"))
            if hasattr(mod, "attach_breather_columns"):
                self.patch(mod, "attach_breather_columns",
                           "diagnostics.attach_breather_columns")
        self.patch(cli, "make_grid", "scenarios.make_grid")
        self.patch(cli, "drift_series", "diagnostics.drift_series")
        self.patch(bench_workloads, "convergence_study", "diagnostics.convergence_study")
        self.patch(bench_workloads, "cli_main", "cli.main")

    def _traced_scenario(self, get_scenario):
        """get_scenario whose scenarios trace the evaluation of their initial state."""
        def get(name):
            sc = get_scenario(name)
            return replace(sc, initial=self.wrap(sc.initial, "scenarios.initial"))
        return get

    def dump(self, path):
        """Write the spans as JSON lines: id, parent id, name, start, end, tag, result."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s[PARENT])) if s[PARENT] is not None else None
                fh.write(json.dumps([i, parent, s[NAME], s[START], s[END],
                                     s[TAG], s[RESULT]]) + "\n")


def _transform_count(args, kwargs) -> int:
    """Number of 1-D transforms in one call: a batch over s rows counts s."""
    a = args[0]
    if a.ndim == 1:
        return 1
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    return a.size // a.shape[axis]


def _duration(s) -> float:
    return s[END] - s[START]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def layer_metrics(spans, rounds: int, probes: dict[str, float],
                  extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``rounds`` traced jobs.

    A scheme or layer that the workload does not run reports 0.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append(s)

    def self_time(s) -> float:
        return _duration(s) - _covered((c[START], c[END]) for c in children[id(s)])

    def under(s, name) -> bool:
        p = s[PARENT]
        while p is not None:
            if p[NAME] == name:
                return True
            p = p[PARENT]
        return False

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    advance = by_name["integrators.advance"]
    steps = max(len(advance), 1)
    per_step = 1e6 / steps
    per_round = 1.0 / max(rounds, 1)

    def total(name) -> float:
        return sum(_duration(s) for s in by_name[name])

    ffts = by_name["spectral.rfft"] + by_name["spectral.irfft"]
    m: dict[str, tuple[float, str]] = {
        "spectral.transforms_per_step": (sum(s[TAG] for s in ffts) / steps, "count/step"),
        "spectral.fft_us_per_step": (sum(map(_duration, ffts)) * per_step, "us/step"),
        "spectral.fft_pair_us.N1024": (probes["fft_pair_us.N1024"], "us"),
        "spectral.fft_pair_us.N2048": (probes["fft_pair_us.N2048"], "us"),
        "sav.nonlinear_power_us_per_step": (total("sav.nonlinear_power") * per_step, "us/step"),
        "sav.stage_flux_us_per_step": (total("sav.stage_flux") * per_step, "us/step"),
        "sav.invariants_us_per_sample": (
            1e6 * total("sav.invariants") / max(len(by_name["sav.invariants"]), 1),
            "us/sample"),
        "sav.c0_shifts": (len(by_name["sav.adjust_c0"]) * per_round, "count"),
    }

    steps_of = defaultdict(list)
    for s in advance:
        steps_of[s[TAG]].append(s)
    for scheme in SCHEMES:
        ss = steps_of.get(scheme, [])
        us = sorted(1e6 * _duration(s) for s in ss)
        m[f"integrators.step_us.{scheme}"] = (statistics.median(us) if us else 0.0, "us")
        p99 = statistics.quantiles(us, n=100)[98] if len(us) >= P99_MIN_STEPS else 0.0
        m[f"integrators.step_us_p99.{scheme}"] = (p99, "us")
        if scheme in IMPLICIT:
            sweeps = sum(s[RESULT] for s in ss)
            m[f"integrators.sweeps_per_step.{scheme}"] = (
                sweeps / len(ss) if ss else 0.0, "count/step")
            per_sweep = [
                1e6 * (_duration(s) - sum(_duration(c) for c in children[id(s)]
                                          if c[NAME] == "sav.stage_flux")) / s[RESULT]
                for s in ss if s[RESULT]
            ]
            m[f"integrators.sweep_us.{scheme}"] = (
                statistics.median(per_sweep) if per_sweep else 0.0, "us")
        m[f"integrators.self_us_per_step.{scheme}"] = (
            1e6 * sum(map(self_time, ss)) / len(ss) if ss else 0.0, "us/step")
    m["integrators.evolve_self_us_per_step"] = (
        sum(map(self_time, by_name["integrators.evolve"])) * per_step, "us/step")
    m["integrators.etdrk4_coefficients_ms"] = (probes["etdrk4_coefficients_ms"], "ms")

    diag = [s for name, ss in by_name.items() if name.startswith("diagnostics.") for s in ss]
    m["diagnostics.self_ms"] = (1e3 * sum(map(self_time, diag)) * per_round, "ms")
    scen = [s for name, ss in by_name.items() if name.startswith("scenarios.") for s in ss
            if s[PARENT] is None or not s[PARENT][NAME].startswith("scenarios.")]
    m["scenarios.setup_ms"] = (1e3 * sum(map(_duration, scen)) * per_round, "ms")

    cli_evolve = [s for s in by_name["integrators.evolve"] if under(s, "cli.main")]
    m["cli.evolve_s_sum"] = (sum(map(_duration, cli_evolve)) * per_round, "s")
    m["cli.self_ms"] = (1e3 * sum(map(self_time, by_name["cli.main"])) * per_round, "ms")
    m["cli.output_bytes"] = (extra.get("cli.output_bytes", 0), "bytes")
    m["trace.overhead_s"] = (extra["trace.overhead_s"], "s")
    return m


def layer_probes(repeats: int = 7) -> dict[str, float]:
    """Direct timings of single layer calls, each the median of ``repeats`` batches.

    One to_modes/from_modes pair at N=1024 and N=2048, and one build of the
    mETDRK4 coefficients on the scattering grid at tau=1/800.
    """
    from gkdv.integrators import etdrk4_coefficients
    from gkdv.spectral import make_grid

    out = {}
    for N, L in ((1024, 10 * np.pi), (2048, 30 * np.pi)):
        g = make_grid(L, N)
        u = np.exp(-g.x**2)
        batch = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(200):
                g.from_modes(g.to_modes(u))
            batch.append((perf_counter() - t0) / 200)
        out[f"fft_pair_us.N{N}"] = 1e6 * statistics.median(batch)
    g = make_grid(30 * np.pi, 2048)
    builds = []
    for _ in range(repeats):
        t0 = perf_counter()
        etdrk4_coefficients(g, 1.0 / 800.0)
        builds.append(perf_counter() - t0)
    out["etdrk4_coefficients_ms"] = 1e3 * statistics.median(builds)
    return out
