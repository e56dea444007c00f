"""Exact single-antenna coefficient search by one sweep over x > 0.

For G = (1 + P|h|^2) I - P h h^T every optimal coefficient vector is
either a signed unit vector or the coordinate-wise rounding of x*h for
some x > 0 (round(-x*h) = -round(x*h), and f(-a) = f(a)).  As x grows,
|round(x*h_j)| steps from c to c + 1 where x crosses (c + 1/2) / |h_j|;
that adds 2c + 1 to |a|^2 and |h_j| to |h.a|.  Sorting the crossings
once and taking prefix sums therefore scores every rounding pattern
within the norm bound psi = sqrt(min_j G_jj / lambda_min) in O(1)
each; the few near the minimum are scored again on G to pick the
winner.  Whether anything is swept at all is decided by _skip_or_search,
which both solvers run.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

import numpy as np

from .core import (
    GramMatrix,
    SolverResult,
    as_channel_vector,
    quad_objective,
    _best_unit,
    _check_budget,
    _lowest_by_tie_key,
    _solver_result,
)
from .errors import ResourceBudgetError
from .gram import _check_power, _gram_single, _radius_eigenvalue, _single_scale

DEFAULT_BREAKPOINT_BUDGET = 10_000_000
_TIE_RTOL = 1e-9
# (a winner or None, its value on G or None, its witness or None,
#  candidates scored, breakpoint_count); _lowest_on_g picks the winner
_Found = tuple[np.ndarray | None, float | None, np.ndarray | None, int, int]


def _near_set(f: np.ndarray, norm2: np.ndarray, best_f: float) -> np.ndarray | None:
    """A mask of the rows of f within 1e-9 norm2[m] of its minimum f[m],
    or None if f is empty or f[m] exceeds best_f by more than that
    margin.  A search's low-rank values f (norm2 = sum d a^2) differ from
    G's by rounding far below it, so these rows hold every candidate that
    could be lowest on G, and None means none can beat best_f."""
    if not f.size:
        return None
    m = int(f.argmin())
    tol = _TIE_RTOL * norm2[m]
    if f[m] > best_f + tol:
        return None
    return f <= f[m] + tol


def _lowest_on_g(g_arr: np.ndarray, cand: list[np.ndarray] | np.ndarray,
                 best_f: float) -> tuple[int, float] | None:
    """The solvers' pick rule: (j, quad_objective(G, cand[j])) for the
    row j first by core._tie_key, the lowest value on G (the function
    f_star comes from) and then the key's order on a, or None unless that
    value is strictly below best_f, the best unit vector's.  So the unit
    vector keeps every exact tie with a candidate, as the key gives it.
    The candidates are _near_set's."""
    f_g = [quad_objective(g_arr, a) for a in cand]
    j = _lowest_by_tie_key(f_g, cand)
    return (j, f_g[j]) if f_g[j] < best_f else None


def _norm_ceiling(best_f: float, lam_min: float, n: int, k: int,
                  budget: int | None) -> tuple[int, bool]:
    """Both solvers' cmax = max(1, ceil(psi (1 - 1e-9))), psi^2 = best_f /
    lam_min: a vector below best_f has |a| < psi, so its cell's vertices
    have |c| <= floor(psi) + 1/2 <= cmax + 1/2, and rounding that lifts
    psi just above an integer adds no ring.  Raises ResourceBudgetError
    if the vertex bound B = C(n, k) (2 cmax + 2)^k exceeds budget.  Also
    returns whether _skip_or_search may skip: always at k = 1 or without
    a budget; at k >= 2 only when C(B, k + 1) <= budget, so that the
    vertex-group guard in _vertex_search, which sees at most C(B, k + 1)
    groups, could not refuse the search."""
    cmax = max(1, math.ceil(math.sqrt(best_f / lam_min) * (1.0 - 1e-9)))
    if budget is None:
        return cmax, True
    bound = math.comb(n, k) * (2 * cmax + 2) ** k
    if bound > budget:
        raise ResourceBudgetError(f"vertex bound {bound} exceeds budget {budget}")
    return cmax, k == 1 or math.comb(bound, k + 1) <= budget


def _unit_vector_certified(g_arr: np.ndarray, best_f: float, lam_min: float) -> bool:
    """Whether the best unit vector, at best_f = min_j G_jj, is optimal
    without a search: below psi^2 = best_f / lam_min = 3 only units and
    +-e_i +-e_j fit.

    Every nonzero integer vector other than +-e_j has |a|^2 >= 2, so
    f(a) >= 2 lam_min: below psi^2 = 2 (1 - 1e-9) the unit vector wins
    outright.  The only vectors with |a|^2 = 2 are +-e_i +-e_j (i != j),
    and every other nonunit vector has |a|^2 >= 3, so f(a) >= 3 lam_min.
    So below psi^2 = 3 (1 - 1e-9) the unit vector wins when every pair
    value G_ii + G_jj - 2 |G_ij| <= f(+-e_i +-e_j) exceeds best_f by
    more than 1e-9 (G_ii + G_jj): then no pair is strictly lower on G,
    as _lowest_on_g's rule requires of a winner, since |G_ij| <= (G_ii +
    G_jj) / 2 keeps the rounding of that sum, and of quad_objective,
    about 1e6 times below the margin.  The O(n^2) pair values are formed
    only in that band; the margins on psi^2 absorb lam_min's rounding."""
    if best_f < 2.0 * lam_min * (1.0 - 1e-9):
        return True
    if not best_f < 3.0 * lam_min * (1.0 - 1e-9):
        return False
    diag = g_arr.diagonal()
    both = diag[:, None] + diag
    clear = both - 2.0 * np.abs(g_arr) - best_f > 1e-9 * both
    # i = j is no pair, and its entry, 0 - best_f, is never clear
    return int(np.count_nonzero(clear)) == diag.size * (diag.size - 1)


def _rank_one_search(g_arr: np.ndarray, r: np.ndarray, d: np.ndarray, v: np.ndarray,
                     cmax: int, best_f: float) -> _Found:
    """Best rounding a of x r, x > 0, that beats best_f on G = diag(d) -
    v v^T, for r a positive multiple of |v| / d.

    The finite crossings (c + 1/2) / r_j, c = 0..cmax, are sorted
    stably, and prefix sums of d_j (2c + 1) and |v_j| give f = sum d a^2
    - (v.a)^2 on each open interval.  _near_set keeps the intervals
    within rounding of the minimum, and _lowest_on_g picks among them
    (see there for the rule).  The first interval, which holds a unit
    vector, is not scored, since no unit vector is strictly below
    best_f.  Returns _Found: (a or None, quad_objective(G, a) or None,
    interval midpoint or None, open intervals, crossings).
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
    norm2 = (d[:, None] * (2.0 * half)).ravel()[order].cumsum()
    dot = np.abs(v)[coord].cumsum()
    near = _near_set((norm2 - dot * dot)[scored], norm2[scored], best_f)
    if near is None:
        return None, None, None, *counts
    near = scored[near]
    sign = np.sign(v).astype(np.int64)
    cand = [np.bincount(coord[: i + 1], minlength=d.size) * sign for i in near]
    won = _lowest_on_g(g_arr, cand, best_f)
    if won is None:
        return None, None, None, *counts
    j, f_star = won
    i = int(near[j])
    return cand[j], f_star, np.array([0.5 * (float(xs[i]) + float(xs[i + 1]))]), *counts


def _skip_or_search(gram: GramMatrix, k: int, budget: int | None, t0: float,
                    search: Callable[[np.ndarray, int, float], _Found]) -> SolverResult:
    """Both solvers' decision and result on G: the best unit vector e_j
    (smallest G_jj = best_f, first j on a tie) unless search(G's
    entries, cmax, best_f) finds a vector strictly lower on G
    (_lowest_on_g's rule).

    The skip rule, for every k: below psi^2 = min_j G_jj / lambda_min =
    3 only units and +-e_i +-e_j fit, so where _unit_vector_certified
    holds (psi^2 < 2 (1 - 1e-9), or psi^2 < 3 (1 - 1e-9) and every pair
    is clear of the best unit vector) that unit vector is optimal and
    nothing is searched: candidates_evaluated = n, breakpoint_count = 0,
    no witness.  The vertex bound of _norm_ceiling is checked first, and
    at k >= 2 the skip also waits until the vertex-group guard inside
    the search could not refuse (see _norm_ceiling); the search's other
    refusals apply only where it runs.  Otherwise search returns _Found,
    and the counts are n + its scored candidates and its breakpoint
    count.  elapsed_seconds runs from t0.  A unit winner, skipped or
    kept by the search, is reported as core._unit_vector's cached,
    immutable e_j.
    """
    g_arr = gram.entries
    n = g_arr.shape[0]
    best_f, best_a = _best_unit(g_arr)
    lam_min = _radius_eigenvalue(gram)
    cmax, may_skip = _norm_ceiling(best_f, lam_min, n, k, budget)
    if may_skip and _unit_vector_certified(g_arr, best_f, lam_min):
        return _solver_result(best_a, best_f, None, t0, n, 0)
    a, f, x, scored, count = search(g_arr, cmax, best_f)
    if a is None:
        a, f = best_a, best_f
    return _solver_result(a, f, x, t0, n + scored, count)


def solve_single(h, power: float, *, budget: int | None = DEFAULT_BREAKPOINT_BUDGET) -> SolverResult:
    """Exact minimizer of a^T G a over nonzero integer vectors.

    G is build_gram_single's.  Starts from the best signed unit vector
    and, unless _skip_or_search skips it, runs _rank_one_search on x*h
    over c = 0..cmax, which picks by _lowest_on_g's rule.  Raises
    ResourceBudgetError if the vertex bound n (2 cmax + 2) exceeds
    budget, and ValueError if budget is below 1, if 1 + P|h|^2
    overflows a float, or if the rounded G is not positive definite or
    numerically singular.
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
    scale = _single_scale(hv, power)
    gram = _gram_single(hv, power, scale)
    res = _skip_or_search(gram, 1, budget, t0, lambda g_arr, cmax, best_f: _rank_one_search(
        g_arr, np.abs(hv), np.full(h.n, scale), math.sqrt(power) * hv, cmax, best_f))
    return res, gram, scale
