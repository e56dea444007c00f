"""Exact single-antenna coefficient search by one sweep over x > 0.

For G = (1 + P|h|^2) I - P h h^T every optimal coefficient vector is
either a signed unit vector or the coordinate-wise rounding of x*h for
some x > 0 (round(-x*h) = -round(x*h), and f(-a) = f(a)).  As x grows,
|round(x*h_j)| steps from c to c + 1 where x crosses (c + 1/2) / |h_j|;
that adds 2c + 1 to |a|^2 and |h_j| to h.a.  Sorting the crossings once
and taking prefix sums therefore scores every rounding pattern within
the norm bound psi = sqrt(1 + P|h|^2) in O(1) each, on integer states,
so no tolerance is involved.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import (
    SolverResult,
    as_channel_vector,
    _best_unit_vector,
    _check_budget,
    _solver_result,
)
from .errors import ResourceBudgetError
from .gram import _check_power

DEFAULT_BREAKPOINT_BUDGET = 10_000_000


def _crossing_sweep(mags: np.ndarray, cmax: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The x > 0 crossings of x -> |round(x r)| for |r| = mags, sorted.

    |round(x r_j)| steps from c to c + 1 where x crosses (c + 1/2) /
    |r_j|, c = 0..cmax; zero entries give no crossing.  Returns the
    finite crossings xs in ascending order (a stable sort, so equal
    crossings keep coordinate order), the coordinate j of each and its
    step 2c + 1 in a_j^2, and the indices i with xs[i] < xs[i+1]: the
    first i + 1 crossings give |round(x r)| on each such open interval.
    Both solve_single and the rank-one solve_dpk sweep these.
    """
    nz = np.flatnonzero(mags)
    c = np.arange(cmax + 1, dtype=float)
    with np.errstate(over="ignore"):
        xs = ((c + 0.5) / mags[nz, None]).ravel()
    # overflowing crossings sort last and lie beyond every x the sweep reaches
    order = np.argsort(xs, kind="stable")[: np.count_nonzero(np.isfinite(xs))]
    xs = xs[order]
    # crossing i is (c, nz[j]) for c = i % c.size, j = i // c.size
    coord = nz[order // c.size]
    step = 2.0 * (order % c.size) + 1.0
    return xs, coord, step, np.flatnonzero(xs[1:] > xs[:-1])


def solve_single(h, power: float, *, budget: int | None = DEFAULT_BREAKPOINT_BUDGET) -> SolverResult:
    """Exact minimizer of a^T G a over nonzero integer vectors.

    Initializes with the best signed unit vector, then scores the
    rounding of x*h on each open interval between consecutive distinct
    crossings (c + 1/2) / |h_j|, c = 0..ceil(psi), keeping the strictly
    best objective (ties resolve to the smallest x, and a unit vector
    wins any tie).  Raises ResourceBudgetError if the worst-case
    breakpoint count n * (2 ceil(psi) + 2) exceeds budget, and
    ValueError if budget is below 1 or 1 + P|h|^2 overflows a float.
    """
    t0 = time.perf_counter()
    _check_budget(budget)
    h = as_channel_vector(h)
    power = _check_power(power)
    hv = h.entries
    n = h.n
    with np.errstate(over="ignore"):
        scale = 1.0 + power * float(hv @ hv)
    if not math.isfinite(scale):
        raise ValueError("1 + P|h|^2 overflows a float; scale the channel or the power down")
    g_arr = scale * np.eye(n) - power * np.outer(hv, hv)

    best_f, best_a = _best_unit_vector(g_arr)
    best_x: np.ndarray | None = None

    psi = math.sqrt(scale)
    worst_case = n * (2 * math.ceil(psi) + 2)
    if budget is not None and worst_case > budget:
        raise ResourceBudgetError(
            f"breakpoint bound {worst_case} exceeds budget {budget}"
        )
    mags = np.abs(hv)
    xs, coord, step, scored = _crossing_sweep(mags, math.ceil(psi))
    norm2 = np.cumsum(step)
    dot = np.cumsum(mags[coord])
    f = scale * norm2[scored] - power * dot[scored] ** 2
    if f.size and f.min() < best_f:
        j = int(scored[np.argmin(f)])
        best_a = np.bincount(coord[: j + 1], minlength=n) * np.sign(hv).astype(np.int64)
        best_x = np.array([0.5 * (float(xs[j]) + float(xs[j + 1]))])
    return _solver_result(g_arr, best_a, best_x, t0, n + scored.size, int(xs.size))
