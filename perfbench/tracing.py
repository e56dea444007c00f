"""Traced replay of cfslv.bench.run_trial, one span per public call.

The replay performs run_trial's steps in run_trial's order, from this
file, so the program itself carries no tracing code.  Each trial gets a
parent span named "trial" and one child span per layer call:

    bench.draw     instance draw (trial_rng, n, power, channel)
    gram           build_gram_single / MimoChannel + build_gram_mimo
    solver_single  solve_single
    solver_dpk     solve_dpk
    rate           rate_from_objective
    oracle.radius  certification_radius
    oracle.search  brute_force_slv

What the trial span covers outside its children (budget kwargs, the
MIMO rate formula, the match check) is the bench layer's self time.
Spans live in memory and are written out once the run ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cfslv.bench import BenchConfig, TrialRecord, match_within_tolerance
from cfslv.errors import ConvergenceError, ResourceBudgetError
from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
from cfslv.oracle import ball_point_estimate, brute_force_slv, certification_radius
from cfslv.rate import rate_from_objective
from cfslv.solver_dpk import solve_dpk
from cfslv.solver_single import solve_single

from workloads import draw

# failures isolated per trial; anything else is a bug and propagates
TRIAL_ERRORS = (ResourceBudgetError, ConvergenceError, ValueError)
LAYERS = ("bench.draw", "gram", "solver_single", "solver_dpk", "rate",
          "oracle.radius", "oracle.search")


@dataclass
class Span:
    trial: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one instance per run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, trial: int, name: str, parent: Span | None = None):
        span = Span(trial, len(self.spans), None if parent is None else parent.span_id,
                    name, time.perf_counter())
        self.spans.append(span)
        try:
            yield span
        except TRIAL_ERRORS as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "trial": s.trial, "span": s.span_id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "error": s.error,
                }) + "\n")


@dataclass
class Replay:
    """Outputs and layer counts of one traced trial."""

    k: int
    f_alg: float | None = None
    f_oracle: float | None = None
    rate_bits: float | None = None
    error: str | None = None
    error_layer: str | None = None
    counts: dict[str, float] = field(default_factory=dict)

    def same_as(self, record: TrialRecord | None, error: str | None) -> bool:
        """Bit-for-bit agreement with an untraced run_trial outcome."""
        if record is None or self.error is not None:
            return record is None and self.error == error
        return (
            _same_float(self.f_alg, record.f_alg)
            and _same_float(self.f_oracle, record.f_oracle)
            and _same_float(self.rate_bits, record.rate_bits)
        )


def _same_float(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return float(a).hex() == float(b).hex()


def replay_trial(tracer: Tracer, uid: int, config: BenchConfig, trial_id: int) -> Replay:
    """Run run_trial's steps for one trial under spans."""
    out = Replay(k=config.k if config.mode == "mimo" else 1)
    try:
        with tracer.span(uid, "trial") as root:
            with tracer.span(uid, "bench.draw", root):
                n, power, h = draw(config, trial_id)
            kwargs = {} if config.budget is None else {"budget": config.budget}
            if config.mode == "single":
                with tracer.span(uid, "solver_single", root):
                    res = solve_single(h, power, **kwargs)
                out.counts["solver_single.candidates"] = res.candidates_evaluated
                out.counts["solver_single.breakpoints"] = res.breakpoint_count
                with tracer.span(uid, "gram", root):
                    gram = build_gram_single(h, power)
                with tracer.span(uid, "rate", root):
                    rate = rate_from_objective(res.f_star, h, power)
            else:
                with tracer.span(uid, "gram", root):
                    gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=power))
                with tracer.span(uid, "solver_dpk", root):
                    res = solve_dpk(gram, dec, **kwargs)
                out.counts["solver_dpk.candidates"] = res.candidates_evaluated
                out.counts["solver_dpk.vertices"] = res.breakpoint_count
                rate = max(0.0, -0.5 * math.log2(res.f_star))
            out.f_alg, out.rate_bits = res.f_star, rate
            if config.oracle:
                with tracer.span(uid, "oracle.radius", root):
                    radius = certification_radius(gram, res.f_star)
                with tracer.span(uid, "oracle.search", root):
                    ores = brute_force_slv(gram, radius, **kwargs)
                out.f_oracle = ores.f_star
                match_within_tolerance(res.f_star, ores.f_star)  # as run_trial does
    except TRIAL_ERRORS as exc:
        out.error = type(exc).__name__
        out.error_layer = next(
            (s.name for s in reversed(tracer.spans)
             if s.trial == uid and s.error and s.name != "trial"), "bench")
        return out
    if config.oracle:
        out.counts["oracle.points"] = ores.candidates_evaluated
        out.counts["oracle.estimate"] = ball_point_estimate(n, radius)
    return out


COUNT_METRICS = (
    "solver_single.candidates", "solver_single.breakpoints",
    "solver_dpk.candidates", "solver_dpk.vertices", "solver_dpk.budget_errors",
    "oracle.points", "oracle.budget_errors",
)


def layer_metrics(tracer: Tracer, replays: list[Replay], traced_s: float,
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    Seconds and counts are means per traced trial, so they do not grow
    with the number of rounds a timed run finishes: whole stratified
    rounds give every run the same mix of trials.
    """
    busy = {name: 0.0 for name in LAYERS}
    child_s: dict[int, float] = {}
    trial_s: dict[int, float] = {}
    gram_ms = []
    dpk_by_k = {1: 0.0, 2: 0.0}
    for s in tracer.spans:
        if s.name == "trial":
            trial_s[s.trial] = s.duration
            continue
        busy[s.name] += s.duration
        child_s[s.trial] = child_s.get(s.trial, 0.0) + s.duration
        if s.name == "gram":
            gram_ms.append(s.duration * 1e3)
        elif s.name == "solver_dpk":
            k = replays[s.trial].k
            dpk_by_k[k] = dpk_by_k.get(k, 0.0) + s.duration
    bench_self = sum(t - child_s.get(uid, 0.0) for uid, t in trial_s.items())

    totals = {name: 0.0 for name in COUNT_METRICS}
    estimate = 0.0
    for r in replays:
        for name, value in r.counts.items():
            if name == "oracle.estimate":
                estimate += value
            else:
                totals[name] += value
        if r.error == "ResourceBudgetError" and r.error_layer in ("solver_dpk", "oracle.search"):
            totals[f"{r.error_layer.split('.')[0]}.budget_errors"] += 1

    def per(seconds: float, count: float) -> float:
        return seconds * 1e9 / count if count else 0.0

    trials = len(replays)

    def secs(seconds: float) -> tuple[float, str]:
        return seconds / trials, "s/trial"

    def count(name: str) -> tuple[float, str]:
        return totals[name] / trials, "count/trial"

    return {
        "gram.s": secs(busy["gram"]),
        "gram.p50_ms": (float(np.median(gram_ms)) if gram_ms else 0.0, "ms"),
        "solver_single.s": secs(busy["solver_single"]),
        "solver_single.candidates": count("solver_single.candidates"),
        "solver_single.breakpoints": count("solver_single.breakpoints"),
        "solver_single.ns_per_candidate": (
            per(busy["solver_single"], totals["solver_single.candidates"]), "ns"),
        "solver_dpk.s": secs(busy["solver_dpk"]),
        "solver_dpk.k1.s": secs(dpk_by_k[1]),
        "solver_dpk.k2.s": secs(dpk_by_k[2]),
        "solver_dpk.candidates": count("solver_dpk.candidates"),
        "solver_dpk.vertices": count("solver_dpk.vertices"),
        "solver_dpk.ns_per_candidate": (
            per(busy["solver_dpk"], totals["solver_dpk.candidates"]), "ns"),
        "solver_dpk.budget_errors": count("solver_dpk.budget_errors"),
        "oracle.radius_s": secs(busy["oracle.radius"]),
        "oracle.search_s": secs(busy["oracle.search"]),
        "oracle.points": count("oracle.points"),
        "oracle.ns_per_point": (per(busy["oracle.search"], totals["oracle.points"]), "ns"),
        "oracle.budget_errors": count("oracle.budget_errors"),
        "oracle.points_per_estimate": (
            totals["oracle.points"] / estimate if estimate else 0.0, "ratio"),
        "rate.s": secs(busy["rate"]),
        "bench.draw_s": secs(busy["bench.draw"]),
        "bench.self_s": secs(bench_self),
        "trace.trial_s": secs(sum(trial_s.values())),
        "trace.overhead_share": (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio"),
    }
