"""Deterministic benchmark campaigns with optional oracle certification.

Each trial draws an instance from a counter-based RNG keyed by
seed XOR trial_id, so any subset of trials can be reproduced in any
order and the report is identical regardless of how many worker
processes ran it.  Draw order within a trial: dimension n, then power
(log-uniform), then the channel entries (row-major for MIMO).  A
one-value n range draws no n: integers(n, n + 1) would consume nothing
from the stream.  The power is exp(lo + (hi - lo) u) for lo, hi the
logs of the power range and u one random() draw, the formula
Generator.uniform(lo, hi) runs, with its bits.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .core import GramMatrix, SolverResult, _check_budget
from .gram import MimoChannel, build_gram_mimo
from .oracle import brute_force_slv, certification_radius
from .rate import _mimo_rate_bits, _rate_bits
from .solver_dpk import solve_dpk
from .solver_single import _solve_single

MATCH_RTOL = 1e-9
# Philox keys are 128-bit; seed ^ trial_id must fit.
_KEY_BOUND = 2**128


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


CSV_FIELDS = tuple(f.name for f in fields(TrialRecord))


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
        if self.seed >= _KEY_BOUND:
            raise ValueError("seed must be less than 2**128")
        if self.mode == "mimo" and not (1 <= self.k <= n_lo):
            raise ValueError("antenna count k must satisfy 1 <= k <= smallest n")
        if self.mode == "single" and self.k != 1:
            raise ValueError("single mode has one receive antenna: k must be 1")
        _check_budget(self.budget)


@dataclass(frozen=True)
class BenchResult:
    records: list[TrialRecord]
    candidates: list[int]
    summary: dict


def trial_rng(seed: int, trial_id: int) -> np.random.Generator:
    """Independent substream for one trial, order-insensitive."""
    return np.random.Generator(np.random.Philox(key=seed ^ trial_id))


_THREAD = threading.local()


def _trial_generator(key: int) -> np.random.Generator:
    """trial_rng's stream for key = seed ^ trial_id, from this thread's
    one generator, reset on every call.

    A Philox stream is its (key, counter) pair (Salmon et al., SC 2011),
    so the key, a zero counter and an empty buffer give the draws of a
    new Philox(key=key), without the OS-entropy SeedSequence that its
    constructor builds first.  The generator is made on first use, not
    at import, and one per thread, so threads never share a stream.  The
    next call on the same thread resets it, so a caller that must hold
    its stream takes trial_rng instead.
    """
    key = int(key)
    if not 0 <= key < _KEY_BOUND:
        raise ValueError("key must be positive and less than 2**128.")
    try:
        gen = _THREAD.generator
    except AttributeError:
        gen = _THREAD.generator = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & (2**64 - 1), key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def match_within_tolerance(f_alg: float, f_oracle: float) -> bool:
    return abs(f_alg - f_oracle) <= MATCH_RTOL * max(1.0, f_oracle)


def _budget_kwargs(budget: int | None) -> dict:
    """budget= for a solver or the oracle, left out when budget is None so
    that each keeps its own default."""
    return {} if budget is None else {"budget": budget}


def _solve_channel(mode: str, channel, power: float,
                   budget: int | None) -> tuple[SolverResult, GramMatrix, float]:
    """The solve of one channel in mode "single" (a gain vector h, by
    _solve_single) or "mimo" (an n x k matrix H, by solve_dpk on
    build_gram_mimo's pair): the result, the G it searched and the rate
    in bits, _rate_bits from the solve's 1 + P|h|^2 or _mimo_rate_bits.
    What a benchmark trial, cfslv solve and cfslv mimo each run."""
    if mode == "single":
        res, gram, scale = _solve_single(channel, power, **_budget_kwargs(budget))
        return res, gram, _rate_bits(scale, res.f_star)
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=channel, power=power))
    res = solve_dpk(gram, dec, **_budget_kwargs(budget))
    return res, gram, _mimo_rate_bits(res.f_star)


def run_trial(config: BenchConfig, trial_id: int) -> tuple[TrialRecord, int]:
    """Run one trial; returns the record and the candidate count."""
    rng = _trial_generator(config.seed ^ trial_id)
    n_lo, n_hi = config.n_range
    # integers(n, n + 1) consumes nothing from the stream: no call, same draws
    n = n_lo if n_lo == n_hi else int(rng.integers(n_lo, n_hi + 1))
    lo, hi = map(math.log, config.power_range)
    # lo + (hi - lo) u is what Generator.uniform(lo, hi) runs: the same bits
    power = float(np.exp(lo + (hi - lo) * rng.random()))

    h = rng.standard_normal(n if config.mode == "single" else (n, config.k))
    # the one G of the trial: searched by the solver, certified by the oracle
    res, gram, rate = _solve_channel(config.mode, h, power, config.budget)

    f_oracle = None
    match = None
    elapsed_oracle = 0.0
    if config.oracle:
        radius = certification_radius(gram, res.f_star)
        ores = brute_force_slv(gram, radius, **_budget_kwargs(config.budget))
        f_oracle = ores.f_star
        match = match_within_tolerance(res.f_star, f_oracle)
        elapsed_oracle = ores.elapsed_seconds

    record = TrialRecord(
        trial_id=trial_id,
        n=n,
        k=config.k,
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
    args = itertools.repeat(config), range(config.trials)
    if workers == 1:
        outcomes = list(map(run_trial, *args))
    else:
        # imported here: a serial run, and import cfslv, do without it
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, config.trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_trial, *args, chunksize=chunk))
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


def without_timing(result: BenchResult) -> BenchResult:
    """result with elapsed_alg_s and elapsed_oracle_s set to 0.0 in every
    record and the summary recomputed from those records, so its reports
    are byte-reproducible (what cfslv bench --no-timing writes).  The
    input is left unchanged."""
    records = [replace(r, elapsed_alg_s=0.0, elapsed_oracle_s=0.0) for r in result.records]
    return replace(result, records=records, summary=summarize(records, result.candidates))


def summary_line(summary: dict) -> str:
    """One-line campaign summary of a summarize() dict."""
    rate = summary["match_rate"]
    rate_text = "n/a" if rate is None else format(rate, ".6f")
    return (
        f"trials={summary['trials']}"
        f" certified={summary['certified']}"
        f" matched={summary['matched']}"
        f" match_rate={rate_text}"
        f" mean_candidates={format(summary['mean_candidates'], '.6g')}"
        f" mean_elapsed_alg_s={format(summary['mean_elapsed_alg_s'], '.6g')}"
        f" mean_elapsed_oracle_s={format(summary['mean_elapsed_oracle_s'], '.6g')}"
    )


def any_mismatch(records: list[TrialRecord]) -> bool:
    return any(r.match is False for r in records)


def field_text(value) -> str:
    """Text of one report value, for CSV cells and CLI documents alike:
    None is empty, a bool true/false, an integer its digits, a str
    itself, anything else a float with 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def render_csv(records: list[TrialRecord]) -> str:
    """Report as CSV text: a CSV_FIELDS header, then one field_text row
    per record."""
    lines = [",".join(CSV_FIELDS)]
    lines += [",".join(map(field_text, astuple(r))) for r in records]
    return "\n".join(lines) + "\n"


def render_json(records: list[TrialRecord]) -> str:
    """Report as a JSON array of row objects, keys in CSV column order."""
    return json.dumps([asdict(r) for r in records], indent=2) + "\n"
