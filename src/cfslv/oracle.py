"""Exhaustive reference search over integer vectors in a norm ball.

Independent of the fast solvers: finds the exact minimum of a^T G a
over canonical-sign integer vectors with |a| <= radius.  A unit vector
lies in the ball, so only points with f(a) <= min_j G_jj can win; a
depth-first Fincke-Pohst search visits just those points of the ball,
and picks among the nearly lowest by quad_objective, the value f_star
reports, and on an exact tie by core._tie_key, the solvers' rule.
Small balls need no search: one with radius^2 < 2 - 1e-8 holds only
the unit vectors, one with radius^2 < 3 - 1e-8 only those and the pairs
e_i +- e_j, and both are scored from G's entries.  Used to certify
solver outputs and as the ground truth in benchmark campaigns.
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
    _lowest_by_tie_key,
    _solver_result,
    _unit_vector,
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


# (limit, q, m): the ellipsoid _ellipsoid_search prunes with
_Ellipsoid = tuple[float, list[float], list[list[float]]]


def _ellipsoid(g_arr: np.ndarray) -> _Ellipsoid:
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


def _ellipsoid_point_bound(ellipsoid: _Ellipsoid) -> float:
    """An upper bound on the points _ellipsoid_search scores in ellipsoid:
    level d admits the integers within sqrt((limit - lower) / q_d) (1 +
    1e-9) <= sqrt(limit / q_d) (1 + 1e-9) of its centre, at most
    floor(2 sqrt(limit / q_d) (1 + 1e-9)) + 1 of them, and the points are
    paths through all levels.  inf where only the ball prunes."""
    limit, q, _ = ellipsoid
    widths = np.sqrt(limit / np.array(q)) * (1.0 + _SLACK)
    with np.errstate(over="ignore"):
        return float(np.prod(np.floor(2.0 * widths) + 1.0))


def _ellipsoid_search(g_arr: np.ndarray, radius: float,
                      ellipsoid: _Ellipsoid | None = None) -> tuple[list[int], float, int]:
    """Minimiser over ball and ellipsoid, its value on G, and the number
    of points scored.

    Coordinates are fixed 0..n-1, values ascending, and each point is
    scored as partial + v (2 (G a)_d + G_dd v) from its prefix.  A level
    whose interval is {0} adds only its term to the lower bound, so it
    is passed without the cross term (G a)_d.  The points within 1e-9 of
    the lowest such score are ranked again with quad_objective, except
    the unit vectors, whose score is already G_jj bit for bit, and the
    lowest by core._tie_key wins: the solvers' rule, on a key of a alone,
    so no visiting order enters the result.  The value is the winner's
    from that ranking.  ellipsoid is _ellipsoid(g_arr), formed here when
    the caller has not formed it already.
    """
    n = g_arr.shape[0]
    g = g_arr.tolist()
    r2 = radius * radius
    limit, q, m = _ellipsoid(g_arr) if ellipsoid is None else ellipsoid
    a, top = [0] * n, [0] * n
    cross = [0.0] * n  # (G a)_d over the prefix a_0..a_{d-1}
    centre = [0.0] * n  # -sum_{j<d} M_dj a_j, M = R with unit diagonal
    partial = [0.0] * n  # f of the prefix
    lower = [0.0] * n  # rows i < d of |R a|^2
    sq = [0] * n  # |prefix|^2
    nonzero: list[int] = []  # depths of the nonzero prefix entries
    # the leaves within 1e-9 of the running minimum
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
    # reports, which a unit vector's sum G_jj already is
    cut = best_f + _SLACK * abs(best_f)
    leaves = [(f, point) for f, point in near if f <= cut]
    f_g = [f if _is_unit(point) else quad_objective(g_arr, point) for f, point in leaves]
    i = _lowest_by_tie_key(f_g, [point for _, point in leaves])
    return leaves[i][1], f_g[i], evaluated


def _small_ball_search(g_arr: np.ndarray, r2: float) -> tuple[list[int], float, int]:
    """_ellipsoid_search's result for a ball with radius^2 = r2 < 3 - 1e-8,
    as (point, value, count), from G's entries alone.

    Every nonzero integer vector but +-e_j and +-e_i +-e_j has |a|^2 >= 3,
    and the search admits a third unit step only from r2 >= 3 - 2e-9, so
    the ball holds the unit vectors e_j and, once the search admits a
    second unit step (floor(sqrt(r2 - 1) + 1e-9) >= 1, from r2 >= 2 -
    2e-9), the pairs e_i +- e_j, i < j, in canonical sign.  Each is scored
    by the search's running sum: G_jj for e_j, G_ii - (2 G_ij - G_jj) for
    e_i - e_j and G_ii + (2 G_ij + G_jj) for e_i + e_j.  A pair's value
    is at least G_ii + G_jj - 2|G_ij|, so only the pairs whose bound is
    within limit + 1e-9 (G_ii + G_jj), a margin above the rounding of
    either sum, are scored; usually none is.  The count is the points
    whose sum is at most limit = min_j G_jj (1 + 1e-9), the leaves of the
    search's ellipsoid; where G has no Cholesky factor the search scores
    every point of the ball instead, so its count can be larger there.
    The points within 1e-9 of the lowest sum are ranked as the search
    ranks them: by quad_objective, except a unit vector, whose sum is
    already G_jj, then by core._tie_key.
    """
    diag = g_arr.diagonal().tolist()
    n = len(diag)
    g_min = min(diag)
    limit = g_min * (1.0 + _SLACK)
    count = sum(f <= limit for f in diag)
    # of the unit vectors only the lowest can win, by the key the first
    unit = [0] * n
    unit[diag.index(g_min)] = 1
    # (f, point) of the pairs with f <= limit
    pairs = []
    if math.floor(math.sqrt(r2 - 1.0) + _SLACK):
        for i, row in enumerate(g_arr.tolist()):
            g_ii = row[i]
            for j in range(i + 1, n):
                g_ij, g_jj = row[j], diag[j]
                if (g_ii + g_jj) * (1.0 - _SLACK) - 2.0 * abs(g_ij) > limit:
                    continue
                for v, f in (-1, g_ii - (2.0 * g_ij - g_jj)), (1, g_ii + (2.0 * g_ij + g_jj)):
                    if f <= limit:
                        point = [0] * n
                        point[i], point[j] = 1, v
                        pairs.append((f, point))
    if not pairs:
        return unit, g_min, count
    low = min(g_min, min(f for f, _ in pairs))
    cut = low + _SLACK * abs(low)
    near = [unit] + [point for f, point in pairs if f <= cut]
    f_g = [g_min] + [quad_objective(g_arr, point) for point in near[1:]]
    i = _lowest_by_tie_key(f_g, near)
    return near[i], f_g[i], count + len(pairs)


def brute_force_slv(g, radius: float, *, budget: int | None = DEFAULT_ORACLE_BUDGET) -> SolverResult:
    """Exhaustive minimizer of a^T G a over 0 < |a| <= radius.

    Only canonical-sign representatives (first nonzero entry positive)
    are enumerated, which halves the work without losing any objective
    value, and only those in the ellipsoid f(a) <= min_j G_jj, which
    holds every minimiser; candidates_evaluated counts the points of
    ball and ellipsoid that were scored.  The winner is the lowest by
    quad_objective, the value f_star reports, and an exact tie goes by
    core._tie_key to the smallest |a|^2, then the lexicographically
    largest a, the solvers' rule, so the result is deterministic and
    the solvers' a_star.  Three paths give that result:
      - the unit ball, radius^2 < 2 - 1e-8: only the e_j fit;
      - the pair ball, 2 - 1e-8 <= radius^2 < 3 - 1e-8: only the e_j and
        the e_i +- e_j fit;
      - the Fincke-Pohst search (_ellipsoid_search) for any larger ball.
    _small_ball_search serves both balls from G's entries, without a
    Cholesky factor or a search, with the search's running sums and
    count: the points whose sum is at most min_j G_jj (1 +
    1e-9).  The one known exception is a G with no Cholesky factor,
    where the search counts every point of the ball and so reports a
    larger count than a small ball does.  Each path reports its winner
    through _solver_result with the value it was ranked by: G_jj for a
    unit vector e_j, the same bits as quad_objective, and
    quad_objective's value for any other.  A unit winner is reported as
    core._unit_vector's cached, immutable e_j, shared by every result it
    wins; any other gets an a_star of its own.  The ellipsoid is formed at
    most once a call.  Raises
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
    ellipsoid = None
    if budget is not None and estimate > budget:
        ellipsoid = _ellipsoid(g_arr)
        if _ellipsoid_point_bound(ellipsoid) > budget:
            raise ResourceBudgetError(
                f"estimated {estimate:.3e} candidates exceeds budget {budget}"
            )
    r2 = radius * radius
    if r2 < 3.0 - 1e-8:
        leaf, f, evaluated = _small_ball_search(g_arr, r2)
    else:
        leaf, f, evaluated = _ellipsoid_search(g_arr, radius, ellipsoid)
    point = _unit_vector(g.n, leaf.index(1)) if _is_unit(leaf) else np.asarray(leaf)
    return _solver_result(point, f, None, t0, evaluated, 0)
