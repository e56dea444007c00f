"""Exact single-antenna coefficient search by one sweep over x > 0.

For G = (1 + P|h|^2) I - P h h^T every optimal coefficient vector is
either a signed unit vector or the coordinate-wise rounding of x*h for
some x > 0 (round(-x*h) = -round(x*h), and f(-a) = f(a)).  As x grows,
|round(x*h_j)| steps from c to c + 1 where x crosses (c + 1/2) / |h_j|;
that adds 2c + 1 to |a|^2 and |h_j| to |h.a|.  Sorting the crossings
once and taking prefix sums therefore scores every rounding pattern
within the norm bound psi = sqrt(min_j G_jj / lambda_min) in O(1)
each; the few near the minimum are scored again on G to pick the
winner.  Below psi = sqrt(2) only unit vectors fit, and nothing is
swept.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import (
    GramMatrix,
    SolverResult,
    as_channel_vector,
    quad_objective,
    _best_unit_vector,
    _check_budget,
    _solver_result,
    _unit_result,
)
from .errors import ResourceBudgetError
from .gram import _check_power, _gram_single, _radius_eigenvalue, _single_scale

DEFAULT_BREAKPOINT_BUDGET = 10_000_000
_TIE_RTOL = 1e-9
# (a winner or None, its value on G or None, its witness or None,
#  candidates scored, breakpoint_count)
_Found = tuple[np.ndarray | None, float | None, np.ndarray | None, int, int]


def _norm_ceiling(best_f: float, lam_min: float, n: int, k: int, budget: int | None) -> int:
    """Both solvers' cmax = max(1, ceil(psi (1 - 1e-9))), psi^2 = best_f /
    lam_min: a vector below best_f has |a| < psi, so its cell's vertices
    have |c| <= floor(psi) + 1/2 <= cmax + 1/2, and rounding that lifts
    psi just above an integer adds no ring.  Raises ResourceBudgetError
    if the vertex bound C(n, k) (2 cmax + 2)^k exceeds budget, also when
    _unit_vector_wins then skips the search, so refusals do not depend
    on it."""
    cmax = max(1, math.ceil(math.sqrt(best_f / lam_min) * (1.0 - 1e-9)))
    bound = math.comb(n, k) * (2 * cmax + 2) ** k
    if budget is not None and bound > budget:
        raise ResourceBudgetError(f"vertex bound {bound} exceeds budget {budget}")
    return cmax


def _unit_vector_wins(best_f: float, lam_min: float) -> bool:
    """Whether psi^2 = best_f / lam_min is below 2 (1 - 1e-9).  Every
    nonzero integer vector other than +-e_j has |a|^2 >= 2, so f(a) >=
    2 lam_min > best_f: the best unit vector is optimal and there is
    nothing to search.  The margin absorbs lam_min's rounding."""
    return best_f < 2.0 * lam_min * (1.0 - 1e-9)


def _vertex_checks_pass(n: int, k: int, cmax: int, budget: int | None) -> bool:
    """Whether neither budget check inside solve_dpk's rank-k vertex
    search can fire.  Of at most B = C(n, k) (2 cmax + 2)^k vertices
    (_norm_ceiling's bound), the vertex-group guard sees at most C(B, k
    + 1) groups, and the cell count at most B 2^n cells, since a vertex
    has at most n tight directions.  solve_dpk skips that search for the
    unit vector only when both fit, so its refusals do not depend on
    _unit_vector_wins.  This check goes when the guard is deleted."""
    if budget is None:
        return True
    bound = math.comb(n, k) * (2 * cmax + 2) ** k
    return math.comb(bound, k + 1) <= budget and bound << n <= budget


def _rank_one_search(g_arr: np.ndarray, r: np.ndarray, d: np.ndarray, v: np.ndarray,
                     cmax: int, best_f: float) -> _Found:
    """Best rounding a of x r, x > 0, that beats best_f on G = diag(d) -
    v v^T, for r a positive multiple of |v| / d.

    The finite crossings (c + 1/2) / r_j, c = 0..cmax, are sorted
    stably, and prefix sums of d_j (2c + 1) and |v_j| give f = sum d a^2
    - (v.a)^2 on each open interval.  Those within 1e-9 sum d a^2 of
    the minimum are scored on G with quad_objective, the function f_star
    comes from: the lowest wins, the earliest on an exact tie, if
    strictly below best_f.  Two steps only save time: the first
    interval, which holds a unit vector, is not scored, and nothing is
    scored on G when the minimum lies more than that margin above
    best_f.  Returns (a or None, quad_objective(G, a) or None, interval
    midpoint or None, open intervals, crossings).
    """
    half = np.arange(0.5, cmax + 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        xs = (half / r[:, None]).ravel()
    # method forms throughout: the same bits without numpy's function wrappers
    order = xs.argsort(kind="stable")
    xs = xs[order]
    # zero entries and overflow give infinite crossings, which sort last
    finite = int(xs.searchsorted(np.inf))
    order, xs = order[:finite], xs[:finite]
    # crossing i is (half[i % half.size], coordinate i // half.size)
    coord = order // half.size
    opened = (xs[1:] > xs[:-1]).nonzero()[0]
    counts = opened.size, xs.size
    # the first interval holds one unit vector, no better than best_f
    scored = opened[1:] if opened.size and opened[0] == 0 else opened
    if not scored.size:
        return None, None, None, *counts
    norm2 = (d[:, None] * (2.0 * half)).ravel()[order].cumsum()
    dot = np.abs(v)[coord].cumsum()
    f = (norm2 - dot * dot)[scored]
    m = int(f.argmin())
    tol = _TIE_RTOL * norm2[scored[m]]
    # G's values differ from these by rounding, far below tol
    if f[m] > best_f + tol:
        return None, None, None, *counts
    near = scored[f <= f[m] + tol]
    sign = np.sign(v).astype(np.int64)
    cand = [np.bincount(coord[: i + 1], minlength=d.size) * sign for i in near]
    f_g = [quad_objective(g_arr, a) for a in cand]
    j = f_g.index(min(f_g))
    if not f_g[j] < best_f:
        return None, None, None, *counts
    i = int(near[j])
    return cand[j], f_g[j], np.array([0.5 * (float(xs[i]) + float(xs[i + 1]))]), *counts


def solve_single(h, power: float, *, budget: int | None = DEFAULT_BREAKPOINT_BUDGET) -> SolverResult:
    """Exact minimizer of a^T G a over nonzero integer vectors.

    G is build_gram_single's.  Initializes with the best signed unit
    vector, then runs _rank_one_search on x*h over c = 0..cmax, cmax
    from _norm_ceiling: the winner must be strictly lower on G, and an
    exact tie goes to the smallest x.  When psi^2 < 2 (1 - 1e-9)
    (_unit_vector_wins) the unit vector is optimal and the sweep is
    skipped: candidates_evaluated = n, breakpoint_count = 0.  Raises ResourceBudgetError if the
    vertex bound n (2 cmax + 2) exceeds budget, and ValueError if budget
    is below 1, if 1 + P|h|^2 overflows a float, or if the rounded G is
    not positive definite or numerically singular.
    """
    return _solve_single(h, power, budget=budget)[0]


def _solve_single(h, power: float, *, budget: int | None = DEFAULT_BREAKPOINT_BUDGET
                  ) -> tuple[SolverResult, GramMatrix, float]:
    """solve_single's result, the G it searched and scale = 1 + P|h|^2,
    so a caller that needs G (an oracle, a printed psi) or the rate
    (rate._rate_bits) forms neither again.  scale comes from one
    _single_scale call, which reports an overflowing 1 + P|h|^2 as such,
    and G from it through _gram_single, with build_gram_single's bits.
    elapsed_seconds includes G's build."""
    t0 = time.perf_counter()
    _check_budget(budget)
    h = as_channel_vector(h)
    power = _check_power(power)
    hv = h.entries
    n = h.n
    scale = _single_scale(hv, power)
    gram = _gram_single(hv, power, scale)
    g_arr = gram.entries

    best_f, best_a = _best_unit_vector(g_arr)
    lam_min = _radius_eigenvalue(gram)
    cmax = _norm_ceiling(best_f, lam_min, n, 1, budget)
    if _unit_vector_wins(best_f, lam_min):
        return _unit_result(best_a, best_f, t0, n, 0), gram, scale
    a, f, x, scored, crossings = _rank_one_search(
        g_arr, np.abs(hv), np.full(n, scale), math.sqrt(power) * hv, cmax, best_f)
    if a is None:
        return _unit_result(best_a, best_f, t0, n + scored, crossings), gram, scale
    return _solver_result(a, f, x, t0, n + scored, crossings), gram, scale
