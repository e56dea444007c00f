"""Exhaustive reference search over integer vectors in a norm ball.

Independent of the fast solvers: finds the exact minimum of a^T G a
over canonical-sign integer vectors with |a| <= radius.  A unit vector
lies in the ball, so only points with f(a) <= min_j G_jj can win; a
depth-first Fincke-Pohst search visits just those points of the ball,
and picks among the nearly lowest by quad_objective, the value f_star
reports.  A ball with radius^2 < 2 holds only the unit vectors, so no
search runs there.  Used to certify solver outputs and as the ground
truth in benchmark campaigns.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import (
    SolverResult,
    as_gram_matrix,
    quad_objective,
    _check_budget,
    _solver_result,
)
from .errors import ResourceBudgetError
from .gram import _radius_eigenvalue

DEFAULT_ORACLE_BUDGET = 1_000_000_000
# keeps boundary points in despite float rounding in the partial sums
_SLACK = 1e-9


def ball_point_estimate(n: int, radius: float) -> float:
    """Rough count of canonical-sign integer points in an n-ball.

    Half the continuous ball volume; used only as a budget guard before
    enumeration starts.
    """
    if n < 1 or not (math.isfinite(radius) and radius > 0.0):
        raise ValueError("need n >= 1 and a positive finite radius")
    log_vol = (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0) + n * math.log(radius)
    if log_vol > 700.0:
        return math.inf
    return 0.5 * math.exp(log_vol) + 1.0


def certification_radius(g, f_value: float) -> float:
    """Search radius that provably covers every a with f(a) <= f_value.

    f(a) >= lambda_min |a|^2 bounds |a|^2 by f_value / lambda_min in
    exact arithmetic, but f_value is a rounded sum: quad_objective's
    value of a is within gamma_2n |a|^T |G| |a| <= 2 n^2 u max|G_ij| |a|^2
    of a^T G a (u = 2^-53), and lambda_min, from eigvalsh or from a
    closed form on G's rounded entries, is off by about n u max|G_ij|.
    With delta = 4 n^2 u max|G_ij| for both, every a whose exact or
    rounded value is at most f_value, or below the exact value of the
    vector f_value was computed for, has |a|^2 <= f_value / (lambda_min -
    delta).  A 1e-9 relative margin absorbs the rounding of that bound,
    and the result is clamped to at least 1 so unit vectors stay inside.
    Raises ValueError if lambda_min <= 1e-12 or lambda_min <= delta.
    """
    g = as_gram_matrix(g)
    if not (math.isfinite(f_value) and f_value > 0.0):
        raise ValueError("objective bound must be finite and positive")
    lam_min = _radius_eigenvalue(g)
    # max|G_ij| is max_j G_jj, as G is positive definite
    delta = 4.0 * g.n * g.n * 2.0**-53 * max(g.entries.diagonal().tolist())
    if not lam_min > delta:
        raise ValueError(f"lambda_min = {lam_min:.3e} is within rounding ({delta:.3e}) of zero")
    return max(1.0, math.sqrt(f_value / (lam_min - delta)) * (1.0 + 1e-9))


def _is_unit(point: list[int]) -> bool:
    """Whether a canonical-sign point is a unit vector: n - 1 zeros and a 1."""
    return point.count(0) == len(point) - 1 and 1 in point


def _ellipsoid(g_arr: np.ndarray) -> tuple[float, list[float], list[list[float]]]:
    """The ellipsoid the search prunes with, as (limit, q, m).

    A unit vector is in the ball, so every minimiser has f(a) <= limit =
    min_j G_jj (1 + 1e-9).  G = R^T R with R upper triangular, q_d =
    R_dd^2 and m = R with unit diagonal: rows i < d of |R a|^2 depend on
    a_0..a_{d-1} only, so they bound f from below.  If G has no Cholesky
    factor, limit is inf, q all 1 and m 0, and only the ball prunes.
    """
    n = g_arr.shape[0]
    try:
        r = np.linalg.cholesky(g_arr[::-1, ::-1])[::-1, ::-1].T
    except np.linalg.LinAlgError:
        return math.inf, [1.0] * n, [[0.0] * n for _ in range(n)]
    r_dd = r.diagonal()
    limit = float(g_arr.diagonal().min()) * (1.0 + _SLACK)
    return limit, (r_dd * r_dd).tolist(), (r / r_dd[:, None]).tolist()


def _ellipsoid_point_bound(g_arr: np.ndarray) -> float:
    """An upper bound on the points _ellipsoid_search scores: level d
    admits the integers within sqrt((limit - lower) / q_d) (1 + 1e-9) <=
    sqrt(limit / q_d) (1 + 1e-9) of its centre, at most floor(2 sqrt(limit
    / q_d) (1 + 1e-9)) + 1 of them, and the points are paths through all
    levels.  inf where only the ball prunes."""
    limit, q, _ = _ellipsoid(g_arr)
    widths = np.sqrt(limit / np.array(q)) * (1.0 + _SLACK)
    with np.errstate(over="ignore"):
        return float(np.prod(np.floor(2.0 * widths) + 1.0))


def _ellipsoid_search(g_arr: np.ndarray,
                      radius: float) -> tuple[list[int], float, int]:
    """Minimiser over ball and ellipsoid, its value on G, and the number
    of points scored.

    Coordinates are fixed 0..n-1, values ascending, and each point is
    scored as partial + v (2 (G a)_d + G_dd v) from its prefix.  A level
    whose interval is {0} adds only its term to the lower bound, so it
    is passed without the cross term (G a)_d.  The points within 1e-9 of
    the lowest such score are ranked again with quad_objective, except
    the unit vectors, whose score is already G_jj bit for bit; the first
    in enumeration order wins an exact tie.  That is the solvers' rule
    (solver_single._lowest_on_g) without an incumbent, written out here
    so the oracle stays independent of them.  The value is the winner's
    from that ranking.
    """
    n = g_arr.shape[0]
    g = g_arr.tolist()
    r2 = radius * radius
    limit, q, m = _ellipsoid(g_arr)
    a, top = [0] * n, [0] * n
    cross = [0.0] * n  # (G a)_d over the prefix a_0..a_{d-1}
    centre = [0.0] * n  # -sum_{j<d} M_dj a_j, M = R with unit diagonal
    partial = [0.0] * n  # f of the prefix
    lower = [0.0] * n  # rows i < d of |R a|^2
    sq = [0] * n  # |prefix|^2
    nonzero: list[int] = []  # depths of the nonzero prefix entries
    # the leaves within 1e-9 of the running minimum, in enumeration order
    near: list[tuple[float, list[int]]] = []
    best_f, evaluated = math.inf, 0
    d = 0
    while True:
        c = 0.0
        for j in nonzero:
            c -= a[j] * m[d][j]
        rem = r2 - sq[d]
        ball = math.floor(math.sqrt(rem) + _SLACK) if rem > 0.0 else 0
        rem = limit - lower[d]
        width = math.sqrt(rem / q[d]) * (1.0 + _SLACK) if rem > 0.0 else 0.0
        # the first nonzero coordinate is forced positive (canonical sign)
        least = -ball if nonzero else 0
        lo = math.ceil(c - width) if c - width > least else least
        hi = ball if c + width > ball else math.floor(c + width)
        if lo == hi == 0 and d < n - 1:
            # a_d = 0 is the one value: lower gains q_d (0 - c)^2, which
            # is q_d c^2 bit for bit, partial and |prefix|^2 nothing
            a[d] = top[d] = 0
            lower[d + 1] = lower[d] + q[d] * c * c
            partial[d + 1], sq[d + 1] = partial[d], sq[d]
            d += 1
            continue
        s = 0.0
        for j in nonzero:
            s += a[j] * g[j][d]
        if d < n - 1:
            a[d], top[d], cross[d], centre[d] = lo - 1, hi, s, c
        else:
            for v in range(lo, hi + 1):
                if v or nonzero:
                    evaluated += 1
                    f = partial[d] + v * (2.0 * s + g[d][d] * v)
                    if f <= best_f + _SLACK * abs(best_f):
                        near.append((f, a[:d] + [v]))
                        best_f = min(best_f, f)
            d -= 1
        while d >= 0 and a[d] >= top[d]:
            d -= 1
        if d < 0:
            break
        while nonzero and nonzero[-1] >= d:
            nonzero.pop()
        v = a[d] = a[d] + 1
        x = v - centre[d]
        lower[d + 1] = lower[d] + q[d] * x * x
        partial[d + 1] = partial[d] + v * (2.0 * cross[d] + g[d][d] * v)
        sq[d + 1] = sq[d] + v * v
        if v:
            nonzero.append(d)
        d += 1
    # the running sums differ from quad_objective in the last bits, so
    # leaves near their minimum are ranked again by the value f_star
    # reports, which a unit vector's sum G_jj already is; the first in
    # enumeration order wins an exact tie
    cut = best_f + _SLACK * abs(best_f)
    leaves = [(f, point) for f, point in near if f <= cut]
    f_g = [f if _is_unit(point) else quad_objective(g_arr, point) for f, point in leaves]
    i = f_g.index(min(f_g))
    return leaves[i][1], f_g[i], evaluated


def _unit_vector_search(g_arr: np.ndarray) -> tuple[np.ndarray, float, int]:
    """_ellipsoid_search's result for a ball with radius^2 < 2 - 1e-8,
    as (e_j, G_jj, count), from one pass over G's diagonal.

    Every other nonzero integer vector has |a|^2 >= 2, and the search
    admits a second unit step only from radius^2 >= 2 - 2e-9, so only
    the unit vectors e_j are in the ball; each scores G_jj exactly.  The
    smallest G_jj wins, and an exact tie goes to the largest j, which the
    search enumerates first.  The count is the unit vectors in the
    ellipsoid f(a) <= min_j G_jj (1 + 1e-9).
    """
    diag = g_arr.diagonal().tolist()
    g_jj = min(diag)
    a = np.zeros(len(diag), dtype=np.int64)
    a[len(diag) - 1 - diag[::-1].index(g_jj)] = 1
    cut = g_jj * (1.0 + _SLACK)
    return a, g_jj, sum(x <= cut for x in diag)


def brute_force_slv(g, radius: float, *, budget: int | None = DEFAULT_ORACLE_BUDGET) -> SolverResult:
    """Exhaustive minimizer of a^T G a over 0 < |a| <= radius.

    Only canonical-sign representatives (first nonzero entry positive)
    are enumerated, which halves the work without losing any objective
    value, and only those in the ellipsoid f(a) <= min_j G_jj, which
    holds every minimiser; candidates_evaluated counts the points of
    ball and ellipsoid that were scored.  The winner is the lowest by
    quad_objective, the value f_star reports, and ties keep the first
    vector in lexicographic order, so the result is deterministic.
    When radius^2 < 2 - 1e-8 the ball holds only unit vectors:
    _unit_vector_search returns the same vector, and counts the unit
    vectors in the ellipsoid, without a Cholesky factor or a search.
    Either way the winner is reported through _solver_result with the
    value it was ranked by: G_jj for a unit vector e_j, the same bits as
    quad_objective, and quad_objective's value for any other.  Raises
    ResourceBudgetError when the ball's estimated point count and
    _ellipsoid_point_bound, formed only when that estimate exceeds
    budget, both exceed budget; and ValueError if budget is below 1.
    """
    t0 = time.perf_counter()
    _check_budget(budget)
    g = as_gram_matrix(g)
    radius = float(radius)
    # the search works on radius^2, which must not overflow
    if not (math.isfinite(radius * radius) and radius >= 1.0):
        raise ValueError("radius must be at least 1 and its square finite")
    estimate = ball_point_estimate(g.n, radius)
    g_arr = g.entries
    if budget is not None and estimate > budget and _ellipsoid_point_bound(g_arr) > budget:
        raise ResourceBudgetError(
            f"estimated {estimate:.3e} candidates exceeds budget {budget}"
        )
    if radius * radius < 2.0 - 1e-8:
        point, f, evaluated = _unit_vector_search(g_arr)
    else:
        point, f, evaluated = _ellipsoid_search(g_arr, radius)
    return _solver_result(np.asarray(point), f, None, t0, evaluated, 0)
