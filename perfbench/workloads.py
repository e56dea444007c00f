"""Benchmark workloads: stratified streams of cfslv.bench trials.

A workload is a fixed list of cells.  Each cell is one BenchConfig with
one dimension n and one power band, a stratum of the workload's instance
distribution, so one round (one trial from every cell) is a stratified
sample of it.  Runs execute whole rounds, so every run, whatever its
seed, does the same mix of instance classes; only the channel draws
change with the seed.  That keeps the figures steady from seed to seed
without changing what the trials are drawn from.

Trial (cell i, round r) of workload seed s is run_trial(config_i, r)
where config_i.seed = (s << 32) | (i << 24).  cfslv.bench keys each
trial's generator by config.seed ^ trial_id, so distinct seeds and
cells never share an instance as long as r < 2**24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfslv.bench import BenchConfig, trial_rng

TRIAL_ID_SPACE = 1 << 24
MAX_CELLS = 1 << 8


@dataclass(frozen=True)
class Cell:
    """One stratum: a fixed dimension n and a band of transmit power."""

    mode: str
    n: int
    power_range: tuple[float, float]
    k: int = 1
    oracle: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    # fixed per workload so that a faster program, which finishes more
    # trials, does not move the tail metric to a deeper percentile
    tail_pct: float


def log_bins(lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    """count log-equal power bins covering [lo, hi] (log-uniform strata)."""
    edges = np.exp(np.linspace(math.log(lo), math.log(hi), count + 1))
    edges[0], edges[-1] = lo, hi
    return [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]


WORKLOADS = {w.name: w for w in (
    # n stops at 6 and P at 10.  At n = 7 the top power band alone took
    # a third of the run, with a cost CV of 2 (trials up to 0.45 s), and
    # moved trials_per_s by 10% from seed to seed; without n = 7 the seed
    # spread is about 1%.  Five bands: an odd cell count, so the median
    # trial sits inside one cell, not on the gap between two cells of
    # different cost.
    Workload(
        name="single-certified",
        cells=tuple(Cell("single", n, band)
                    for n in range(2, 7) for band in log_bins(0.1, 10.0, 5)),
        tail_pct=99.0,
    ),
    # k=2 stops at n=3: at default budgets k=2 trials raise
    # ResourceBudgetError from n=4 on (about 6% at n=4, 27% at n=5 with P
    # up to 5), and an n=4 trial that passes takes 0.2-2 s, too few per
    # run to be steady.  P stops at 1: with k=2, n=3 and P in 0.74-2 the
    # cost CV was 1.1 (trials up to 0.9 s, one ceil(psi) step higher) and
    # that one cell moved trials_per_s by 5% from seed to seed.  Seven
    # (n, k) groups of three power bands, an odd count as above.  The top
    # 1% mixes k=2, n=3 trials at two cost steps, so the tail is taken at
    # p95, inside the first step.
    Workload(
        name="mimo-certified",
        cells=tuple(Cell("mimo", n, band, k=k)
                    for n, k in ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2), (3, 2))
                    for band in log_bins(0.1, 1.0, 3)),
        tail_pct=95.0,
    ),
    # Seven evenly spaced dimensions span [64, 256]: an odd count, for the
    # same reason, and fixed n, since the Gram build costs about n**3 and
    # a band of n would let the median and tail move with the seed.
    Workload(
        name="single-wide",
        cells=tuple(Cell("single", n, (1.0, 100.0), oracle=False)
                    for n in range(64, 257, 32)),
        tail_pct=80.0,
    ),
)}


def configs(workload: Workload, seed: int) -> list[BenchConfig]:
    """One BenchConfig per cell; the program receives nothing else."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if len(workload.cells) > MAX_CELLS:
        raise ValueError("too many cells for the seed layout")
    return [
        BenchConfig(
            mode=c.mode,
            trials=TRIAL_ID_SPACE,
            n_range=(c.n, c.n),
            power_range=c.power_range,
            seed=(seed << 32) | (i << 24),
            k=c.k,
            oracle=c.oracle,
        )
        for i, c in enumerate(workload.cells)
    ]


def draw(config: BenchConfig, trial_id: int):
    """The instance run_trial draws: (n, power, h) in its draw order.

    h is the channel vector in single mode and the n-by-k matrix in MIMO
    mode.  Kept in step with cfslv.bench.run_trial; the traced replay
    checks that it reproduces run_trial's outputs bit for bit.
    """
    rng = trial_rng(config.seed, trial_id)
    n_lo, n_hi = config.n_range
    n = int(rng.integers(n_lo, n_hi + 1))
    p_lo, p_hi = config.power_range
    power = float(np.exp(rng.uniform(math.log(p_lo), math.log(p_hi))))
    if config.mode == "single":
        return n, power, rng.standard_normal(n)
    return n, power, rng.standard_normal((n, config.k))
