"""Exhaustive reference search over integer vectors in a norm ball.

Independent of the fast solvers: enumerates every canonical-sign
integer vector with |a| <= radius by depth-first extension, pruning
with the partial squared norm, and scores complete vectors with an
incrementally maintained quadratic form.  Used to certify solver
outputs and as the ground truth in benchmark campaigns.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import CoefficientVector, SolverResult, as_gram_matrix, quad_objective
from .errors import ResourceBudgetError

DEFAULT_ORACLE_BUDGET = 1_000_000_000
_CHUNK_ELEMENTS = 1 << 20
# keeps boundary points in despite float rounding in the partial norms
_RADIUS_SLACK = 1e-9


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
    lam_min = g.min_eigenvalue
    if lam_min <= 1e-12:
        raise ValueError(f"Gram matrix is numerically singular (lambda_min = {lam_min:.3e})")
    return max(1.0, math.sqrt(f_value / lam_min) * (1.0 + 1e-9))


class _BallSearch:
    """Depth-first enumeration state for one brute-force call."""

    def __init__(self, g_arr: np.ndarray, radius: float) -> None:
        self.g = g_arr
        self.n = g_arr.shape[0]
        self.r2 = radius * radius
        self.chunk_rows = max(1, _CHUNK_ELEMENTS // self.n)
        self.best_f = math.inf
        self.best_a: np.ndarray | None = None
        self.evaluated = 0

    def run(self) -> None:
        n = self.n
        self._grow(
            prefix=np.zeros((1, 0), dtype=np.int64),
            sq=np.zeros(1),
            zero=np.ones(1, dtype=bool),
            cross=np.zeros((1, n)),
            partial=np.zeros(1),
            depth=0,
        )

    def _grow(self, prefix, sq, zero, cross, partial, depth) -> None:
        # children of row i take values lo[i]..hi[i] in coordinate `depth`;
        # the first nonzero coordinate is forced positive (canonical sign)
        rem = np.maximum(self.r2 - sq, 0.0)
        hi = np.floor(np.sqrt(rem) + _RADIUS_SLACK).astype(np.int64)
        lo = np.where(zero, 0, -hi)
        counts = hi - lo + 1
        total = np.cumsum(counts)
        start = 0
        while start < counts.size:
            base = total[start - 1] if start > 0 else 0
            stop = int(np.searchsorted(total, base + self.chunk_rows, side="left")) + 1
            stop = min(stop, counts.size)
            self._expand_rows(
                prefix, sq, zero, cross, partial, depth,
                start, stop, lo, counts, total, base,
            )
            start = stop

    def _expand_rows(
        self, prefix, sq, zero, cross, partial, depth,
        start, stop, lo, counts, total, base,
    ) -> None:
        g = self.g
        counts_g = counts[start:stop]
        starts_g = total[start:stop] - counts_g - base
        rows = int(total[stop - 1] - base)
        idx = np.repeat(np.arange(start, stop), counts_g)
        vals = lo[idx] + (np.arange(rows) - np.repeat(starts_g, counts_g))
        t_col = cross[idx, depth]
        f_child = partial[idx] + vals * (2.0 * t_col + g[depth, depth] * vals)
        if depth == self.n - 1:
            live = ~(zero[idx] & (vals == 0))
            self.evaluated += int(np.count_nonzero(live))
            if not live.any():
                return
            live_idx = np.flatnonzero(live)
            j = live_idx[int(np.argmin(f_child[live_idx]))]
            if f_child[j] < self.best_f:
                self.best_f = float(f_child[j])
                self.best_a = np.append(prefix[idx[j]], vals[j])
            return
        child_prefix = np.concatenate([prefix[idx], vals[:, None]], axis=1)
        child_sq = sq[idx] + (vals * vals).astype(float)
        child_zero = zero[idx] & (vals == 0)
        child_cross = cross[idx] + vals[:, None] * g[depth][None, :]
        self._grow(child_prefix, child_sq, child_zero, child_cross, f_child, depth + 1)


def brute_force_slv(g, radius: float, *, budget: int | None = DEFAULT_ORACLE_BUDGET) -> SolverResult:
    """Exhaustive minimizer of a^T G a over 0 < |a| <= radius.

    Only canonical-sign representatives (first nonzero entry positive)
    are enumerated, which halves the work without losing any objective
    value.  Ties keep the first vector in enumeration order, so the
    result is deterministic.  Raises ResourceBudgetError when the
    estimated point count exceeds budget.
    """
    t0 = time.perf_counter()
    g = as_gram_matrix(g)
    radius = float(radius)
    if not (math.isfinite(radius) and radius >= 1.0):
        raise ValueError("radius must be finite and at least 1")
    estimate = ball_point_estimate(g.n, radius)
    if budget is not None and estimate > budget:
        raise ResourceBudgetError(
            f"estimated {estimate:.3e} candidates exceeds budget {budget}"
        )
    search = _BallSearch(g.entries, radius)
    search.run()
    if search.best_a is None:
        raise AssertionError("radius >= 1 guarantees at least one candidate")
    a = CoefficientVector(search.best_a)
    return SolverResult(
        a_star=a,
        f_star=quad_objective(g.entries, a.entries),
        candidates_evaluated=search.evaluated,
        breakpoint_count=0,
        elapsed_seconds=time.perf_counter() - t0,
        witness_point=None,
    )
