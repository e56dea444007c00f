"""Deterministic benchmark campaigns with optional oracle certification.

Each trial draws an instance from a counter-based RNG keyed by
seed XOR trial_id, so any subset of trials can be reproduced in any
order and the report is identical regardless of how many worker
processes ran it.  Draw order within a trial: dimension n, then power
(log-uniform), then the channel entries (row-major for MIMO).
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import _check_budget
from .gram import MimoChannel, build_gram_mimo, build_gram_single
from .oracle import brute_force_slv, certification_radius
from .rate import rate_from_objective
from .solver_dpk import solve_dpk
from .solver_single import solve_single

MATCH_RTOL = 1e-9

CSV_FIELDS = (
    "trial_id", "n", "k", "power", "seed", "f_alg", "f_oracle",
    "rate_bits", "elapsed_alg_s", "elapsed_oracle_s", "match",
)
_TIMING_FIELDS = ("elapsed_alg_s", "elapsed_oracle_s")


@dataclass(frozen=True)
class TrialRecord:
    """One benchmark row; f_oracle and match are None without --oracle."""

    trial_id: int
    n: int
    k: int
    power: float
    seed: int
    f_alg: float
    f_oracle: float | None
    rate_bits: float
    elapsed_alg_s: float
    elapsed_oracle_s: float
    match: bool | None


@dataclass(frozen=True)
class BenchConfig:
    """Campaign parameters; ranges are inclusive on both ends."""

    mode: str
    trials: int
    n_range: tuple[int, int]
    power_range: tuple[float, float]
    seed: int
    k: int = 1
    oracle: bool = False
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("single", "mimo"):
            raise ValueError("mode must be 'single' or 'mimo'")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        n_lo, n_hi = self.n_range
        if not (1 <= n_lo <= n_hi):
            raise ValueError("n range must satisfy 1 <= lo <= hi")
        p_lo, p_hi = self.power_range
        if not (math.isfinite(p_lo) and math.isfinite(p_hi) and 0.0 < p_lo <= p_hi):
            raise ValueError("power range must satisfy 0 < lo <= hi")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.mode == "mimo" and not (1 <= self.k <= n_lo):
            raise ValueError("antenna count k must satisfy 1 <= k <= smallest n")
        _check_budget(self.budget)


@dataclass(frozen=True)
class BenchResult:
    records: list[TrialRecord]
    candidates: list[int]
    summary: dict


def trial_rng(seed: int, trial_id: int) -> np.random.Generator:
    """Independent substream for one trial, order-insensitive."""
    return np.random.Generator(np.random.Philox(key=seed ^ trial_id))


def match_within_tolerance(f_alg: float, f_oracle: float) -> bool:
    return abs(f_alg - f_oracle) <= MATCH_RTOL * max(1.0, f_oracle)


def run_trial(config: BenchConfig, trial_id: int) -> tuple[TrialRecord, int]:
    """Run one trial; returns the record and the candidate count."""
    rng = trial_rng(config.seed, trial_id)
    n_lo, n_hi = config.n_range
    n = int(rng.integers(n_lo, n_hi + 1))
    p_lo, p_hi = config.power_range
    power = float(np.exp(rng.uniform(math.log(p_lo), math.log(p_hi))))

    kwargs = {} if config.budget is None else {"budget": config.budget}
    if config.mode == "single":
        h = rng.standard_normal(n)
        res = solve_single(h, power, **kwargs)
        k = 1
        rate = rate_from_objective(res.f_star, h, power)
    else:
        h_matrix = rng.standard_normal((n, config.k))
        channel = MimoChannel(h_matrix=h_matrix, power=power)
        gram, dec = build_gram_mimo(channel)
        res = solve_dpk(gram, dec, **kwargs)
        k = config.k
        rate = max(0.0, -0.5 * math.log2(res.f_star))

    f_oracle = None
    match = None
    elapsed_oracle = 0.0
    if config.oracle:
        if config.mode == "single":
            # only the oracle reads the dense Gram matrix of a single-antenna trial
            gram = build_gram_single(h, power)
        radius = certification_radius(gram, res.f_star)
        ores = brute_force_slv(gram, radius, **kwargs)
        f_oracle = ores.f_star
        match = match_within_tolerance(res.f_star, f_oracle)
        elapsed_oracle = ores.elapsed_seconds

    record = TrialRecord(
        trial_id=trial_id,
        n=n,
        k=k,
        power=power,
        seed=config.seed ^ trial_id,
        f_alg=res.f_star,
        f_oracle=f_oracle,
        rate_bits=rate,
        elapsed_alg_s=res.elapsed_seconds,
        elapsed_oracle_s=elapsed_oracle,
        match=match,
    )
    return record, res.candidates_evaluated


def _trial_task(args: tuple[BenchConfig, int]) -> tuple[TrialRecord, int]:
    return run_trial(args[0], args[1])


def resolve_workers() -> int:
    """Worker count from CFSLV_THREADS, defaulting to the CPU count."""
    env = os.environ.get("CFSLV_THREADS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError as exc:
            raise ValueError("CFSLV_THREADS must be an integer") from exc
        if workers < 1:
            raise ValueError("CFSLV_THREADS must be at least 1")
        return workers
    return os.cpu_count() or 1


def run_bench(config: BenchConfig) -> BenchResult:
    """Run a campaign, in parallel when more than one worker is allowed.

    Records come back in trial order whatever the worker count, so
    reports are reproducible (timings aside).
    """
    # a fork-based pool starts all max_workers processes at the first submit
    workers = min(resolve_workers(), config.trials)
    tasks = [(config, i) for i in range(config.trials)]
    if workers == 1:
        outcomes = [_trial_task(t) for t in tasks]
    else:
        chunk = max(1, config.trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_task, tasks, chunksize=chunk))
    records = [rec for rec, _ in outcomes]
    candidates = [cand for _, cand in outcomes]
    return BenchResult(records=records, candidates=candidates, summary=summarize(records, candidates))


def summarize(records: list[TrialRecord], candidates: list[int]) -> dict:
    certified = [r for r in records if r.match is not None]
    matched = sum(1 for r in certified if r.match)
    mean = lambda xs: float(np.mean(xs)) if xs else 0.0
    return {
        "trials": len(records),
        "certified": len(certified),
        "matched": matched,
        "match_rate": (matched / len(certified)) if certified else None,
        "mean_candidates": mean(candidates),
        "mean_elapsed_alg_s": mean([r.elapsed_alg_s for r in records]),
        "mean_elapsed_oracle_s": mean([r.elapsed_oracle_s for r in records]),
    }


def summary_line(summary: dict, zero_timing: bool = False) -> str:
    """One-line campaign summary; zero_timing prints the mean times as 0."""
    rate = summary["match_rate"]
    rate_text = "n/a" if rate is None else format(rate, ".6f")
    alg_s, oracle_s = (0.0, 0.0) if zero_timing else (
        summary["mean_elapsed_alg_s"], summary["mean_elapsed_oracle_s"])
    return (
        f"trials={summary['trials']}"
        f" certified={summary['certified']}"
        f" matched={summary['matched']}"
        f" match_rate={rate_text}"
        f" mean_candidates={format(summary['mean_candidates'], '.6g')}"
        f" mean_elapsed_alg_s={format(alg_s, '.6g')}"
        f" mean_elapsed_oracle_s={format(oracle_s, '.6g')}"
    )


def any_mismatch(records: list[TrialRecord]) -> bool:
    return any(r.match is False for r in records)


def _field_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _record_values(record: TrialRecord, zero_timing: bool) -> list:
    values = []
    for field in CSV_FIELDS:
        value = getattr(record, field)
        if zero_timing and field in _TIMING_FIELDS:
            value = 0.0
        values.append(value)
    return values


def render_csv(records: list[TrialRecord], zero_timing: bool = False) -> str:
    """Report as CSV text; floats use 17 significant digits."""
    lines = [",".join(CSV_FIELDS)]
    for record in records:
        lines.append(",".join(_field_text(v) for v in _record_values(record, zero_timing)))
    return "\n".join(lines) + "\n"


def render_json(records: list[TrialRecord], zero_timing: bool = False) -> str:
    """Report as a JSON array of row objects, keys in CSV column order."""
    rows = []
    for record in records:
        values = _record_values(record, zero_timing)
        rows.append({field: value for field, value in zip(CSV_FIELDS, values)})
    return json.dumps(rows, indent=2) + "\n"

