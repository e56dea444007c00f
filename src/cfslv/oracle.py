"""Exhaustive reference search over integer vectors in a norm ball.

Independent of the fast solvers: finds the exact minimum of a^T G a
over canonical-sign integer vectors with |a| <= radius.  A unit vector
lies in the ball, so only points with f(a) <= min_j G_jj can win; a
depth-first Fincke-Pohst search visits just those points of the ball.
Used to certify solver outputs and as the ground truth in benchmark
campaigns.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import (
    CoefficientVector,
    SolverResult,
    as_gram_matrix,
    quad_objective,
    _check_budget,
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

    f(a) >= lambda_min |a|^2, so any such a has |a| <= sqrt(f_value /
    lambda_min).  A 1e-9 relative margin absorbs float rounding, and
    the result is clamped to at least 1 so unit vectors stay inside.
    """
    g = as_gram_matrix(g)
    if not (math.isfinite(f_value) and f_value > 0.0):
        raise ValueError("objective bound must be finite and positive")
    return max(1.0, math.sqrt(f_value / _radius_eigenvalue(g)) * (1.0 + 1e-9))


def _ellipsoid_search(g_arr: np.ndarray, radius: float) -> tuple[list[int] | None, int]:
    """First minimiser over ball and ellipsoid, and the number of points scored.

    Coordinates are fixed 0..n-1, values ascending, and each point is
    scored as partial + v (2 (G a)_d + G_dd v) from its prefix.
    """
    n = g_arr.shape[0]
    g = g_arr.tolist()
    r2 = radius * radius
    # a unit vector is in the ball, so every minimiser has f(a) <= min_j G_jj
    limit = float(g_arr.diagonal().min()) * (1.0 + _SLACK)
    try:
        # G = R^T R with R lower triangular: rows i < d of |R a|^2 depend
        # on a_0..a_{d-1} only, so they bound f from below
        r = np.linalg.cholesky(g_arr[::-1, ::-1])[::-1, ::-1].T
        r_dd = r.diagonal()
        q = (r_dd * r_dd).tolist()
        m = (r / r_dd[:, None]).tolist()
    except np.linalg.LinAlgError:
        limit, q, m = math.inf, [1.0] * n, [[0.0] * n for _ in range(n)]
    a, top = [0] * n, [0] * n
    cross = [0.0] * n  # (G a)_d over the prefix a_0..a_{d-1}
    centre = [0.0] * n  # -sum_{j<d} M_dj a_j, M = R with unit diagonal
    partial = [0.0] * n  # f of the prefix
    lower = [0.0] * n  # rows i < d of |R a|^2
    sq = [0] * n  # |prefix|^2
    nonzero: list[int] = []  # depths of the nonzero prefix entries
    best_f, best_a, evaluated = math.inf, None, 0
    d = 0
    while True:
        s = c = 0.0
        for j in nonzero:
            s += a[j] * g[j][d]
            c -= a[j] * m[d][j]
        rem = r2 - sq[d]
        ball = math.floor(math.sqrt(rem) + _SLACK) if rem > 0.0 else 0
        rem = limit - lower[d]
        width = math.sqrt(rem / q[d]) * (1.0 + _SLACK) if rem > 0.0 else 0.0
        # the first nonzero coordinate is forced positive (canonical sign)
        least = -ball if nonzero else 0
        lo = math.ceil(c - width) if c - width > least else least
        hi = ball if c + width > ball else math.floor(c + width)
        if d < n - 1:
            a[d], top[d], cross[d], centre[d] = lo - 1, hi, s, c
        else:
            for v in range(lo, hi + 1):
                if v or nonzero:
                    evaluated += 1
                    f = partial[d] + v * (2.0 * s + g[d][d] * v)
                    if f < best_f:
                        best_f, best_a = f, a[:d] + [v]
            d -= 1
        while d >= 0 and a[d] >= top[d]:
            d -= 1
        if d < 0:
            return best_a, evaluated
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


def brute_force_slv(g, radius: float, *, budget: int | None = DEFAULT_ORACLE_BUDGET) -> SolverResult:
    """Exhaustive minimizer of a^T G a over 0 < |a| <= radius.

    Only canonical-sign representatives (first nonzero entry positive)
    are enumerated, which halves the work without losing any objective
    value, and only those in the ellipsoid f(a) <= min_j G_jj, which
    holds every minimiser; candidates_evaluated counts the points of
    ball and ellipsoid that were scored.  Ties keep the first vector in
    lexicographic order, so the result is deterministic.  Raises
    ResourceBudgetError when the ball's estimated point count, an
    upper bound on that work, exceeds budget, and ValueError if budget
    is below 1.
    """
    t0 = time.perf_counter()
    _check_budget(budget)
    g = as_gram_matrix(g)
    radius = float(radius)
    # the search works on radius^2, which must not overflow
    if not (math.isfinite(radius * radius) and radius >= 1.0):
        raise ValueError("radius must be at least 1 and its square finite")
    estimate = ball_point_estimate(g.n, radius)
    if budget is not None and estimate > budget:
        raise ResourceBudgetError(
            f"estimated {estimate:.3e} candidates exceeds budget {budget}"
        )
    best_a, evaluated = _ellipsoid_search(g.entries, radius)
    if best_a is None:
        raise AssertionError("radius >= 1 guarantees at least one candidate")
    a = CoefficientVector(best_a)
    return SolverResult(
        a_star=a,
        f_star=quad_objective(g.entries, a.entries),
        candidates_evaluated=evaluated,
        breakpoint_count=0,
        elapsed_seconds=time.perf_counter() - t0,
        witness_point=None,
    )
