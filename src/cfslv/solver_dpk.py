"""Exact solver for diagonal-minus-rank-k Gram matrices.

When G = diag(d) - V V^T, every optimal integer vector is either a
signed unit vector or a coordinate-wise rounding of R x, R =
diag(d)^-1 V, for some x in R^k.  The rounding pattern of that map is
constant on the cells of the arrangement of hyperplanes r_i x = c,
c a half-integer.  The rows of R span R^k, so every cell is pointed and
touches a vertex, and the cell of an optimum within the norm bound psi
touches a vertex with |c| <= floor(psi) + 1/2.  The solver therefore
scores the rounded cells at each vertex.  Each vertex is solved from k
rows pi at right-hand side c and keeps that label (pi, c).  At a
generic vertex only the label rows pass through it, so its 2^k cells
follow from the label alone: row pi_j takes c_j - 1/2 or c_j + 1/2, and
every other row rounds to nearest.  At a degenerate vertex more rows
pass through it (commensurate or parallel rows); only those vertices
are merged, and their rows round down or up, one choice per direction.
Every candidate is scored in O(nk) from the low-rank form, and the few
near the minimum again on G with quad_objective.  For k = 1 the
vertices are the crossings of one line, and the solver runs
solve_single's search instead.  Whether either search runs at all is
decided by solver_single._skip_or_search, which both solvers run.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import NamedTuple

import numpy as np

from .core import (
    RANK_SV_RTOL,
    DpkDecomposition,
    SolverResult,
    as_gram_matrix,
    _check_budget,
    _freeze,
)
from .errors import ResourceBudgetError
from .gram import validate_dpk
from .solver_single import _Found, _lowest_on_g, _near_set, _rank_one_search, _skip_or_search

DEFAULT_COMBINATION_BUDGET = 20_000_000
VERTEX_DEDUP_TOL = 1e-9
TIGHT_RTOL = 1e-8
PARALLEL_TOL = 1e-9


@functools.lru_cache(maxsize=16)
def _label_grid(k: int, cmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides of the vertex labels, and the cells of each.

    c runs over the vectors of k half-integers in [-cmax - 1/2, cmax +
    1/2], first coordinate slowest.  In cell p of a generic vertex with
    right-hand side c[r], label row j takes w[r * 2^k + p, j] = c[r, j] -
    1/2 + bit j of p: floor or floor + 1 of r_j x = c_j.  Both are cached
    read-only, since building them costs a k = 2 solve at n <= 3 about a
    tenth of its time.
    """
    pos = np.arange(0.5, cmax + 1.0, 1.0)
    cs = np.concatenate([-pos[::-1], pos])
    c = np.stack(np.meshgrid(*([cs] * k), indexing="ij"), axis=-1).reshape(-1, k)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return _freeze(c), _freeze((c[:, None, :] - 0.5 + bits).reshape(-1, k))


class _Vertices(NamedTuple):
    """The arrangement vertices within the norm bound, by label.

    x[s, :, r] solves R_pi x = c[r] for the row subset pi = rows[s]; w
    holds the values of pi's rows in the cells of a generic vertex (see
    _label_grid).  y[s, :, r] = R x[s, :, r], and tight[s, i, r] holds
    when row i passes through that vertex: r_i x lies within 1e-8 (1 +
    |r_i| |x|) of a half-integer.  A vertex is generic when only the k
    rows of its label are tight, and then no other label solves to it.
    A degenerate vertex has one copy per label that solves to it;
    merged holds the flat (s, r) index of one copy of each.
    """

    rows: np.ndarray
    c: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    tight: np.ndarray
    generic: np.ndarray
    merged: np.ndarray

    @property
    def count(self) -> int:
        """The number of distinct vertices."""
        return int(np.count_nonzero(self.generic)) + self.merged.size

    def at(self, arr: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Rows arr[s, :, r] of x, y or tight for flat (s, r) indices."""
        count = self.c.shape[0]
        return arr.transpose(0, 2, 1)[flat // count, flat % count]


def _grid_order(pts: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the points pts on the 1e-9 grid,
    ties by their exact coordinates."""
    # the grid first, so rounding noise in one coordinate cannot
    # separate two copies of a vertex in this order
    return np.lexsort(np.vstack([pts.T[::-1], np.round(pts / VERTEX_DEDUP_TOL).T[::-1]]))


def _vertex_labels(dec: DpkDecomposition, cmax: int) -> _Vertices:
    """Arrangement vertices x solving (diag(d)^-1 V)_pi x = c.

    Every size-k row subset pi whose submatrix is nonsingular is paired
    with every vector c of half-integers bounded by cmax + 1/2, and
    all pairs are solved in one batched LAPACK call.  Singular subsets
    are skipped: those whose rows of diag(d)^-1/2 V have a singular
    value ratio at or below 1e-10, the test DpkDecomposition applies to
    all of it.  Only the copies of degenerate vertices are merged: in
    _grid_order's order, a copy closer than 1e-9 in Euclidean distance
    to its predecessor is merged into it.  solve_dpk checks the solve
    count C(n, k) (2 cmax + 2)^k against its budget first.
    """
    k = dec.k
    c, w = _label_grid(k, cmax)
    rows = np.array(list(itertools.combinations(range(dec.n), k)), dtype=np.intp)
    sv = np.linalg.svd((dec.v / np.sqrt(dec.d)[:, None])[rows], compute_uv=False)
    rows = rows[(sv[:, 0] != 0.0) & (sv[:, -1] > RANK_SV_RTOL * sv[:, 0])]
    ratios = dec.v / dec.d[:, None]
    x = np.linalg.solve(ratios[rows], c.T)
    y = ratios @ x
    # the norms as np.linalg.norm computes them, without its overhead
    scale = 1.0 + (np.sqrt(np.add.reduce(x * x, axis=1))[:, None, :]
                   * np.sqrt(np.add.reduce(ratios * ratios, axis=1))[:, None])
    tight = np.abs(y - np.floor(y) - 0.5) <= TIGHT_RTOL * scale
    generic = np.add.reduce(tight, axis=1, dtype=np.intp) == k
    verts = _Vertices(rows, c, w, x, y, tight, generic, np.flatnonzero(~generic))
    pts = verts.at(x, verts.merged)
    order = _grid_order(pts)
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = np.sqrt(np.sum(np.diff(pts[order], axis=0) ** 2, axis=1)) > VERTEX_DEDUP_TOL
    return verts._replace(merged=verts.merged[order[keep]])


def _directions(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction index of each row of ratios and whether it is reversed.

    Each unit row is signed so that its largest entry is positive (the
    row is reversed when that takes a sign change); rows whose signed
    unit vectors round to the same multiple of 1e-9 share an index.
    Zero rows share one index of their own.
    """
    norms = np.linalg.norm(ratios, axis=1, keepdims=True)
    unit = ratios / np.where(norms > 0.0, norms, 1.0)
    lead = np.take_along_axis(unit, np.argmax(np.abs(unit), axis=1)[:, None], axis=1)
    reversed_ = lead[:, 0] < 0.0
    key = np.round(np.where(lead < 0.0, -unit, unit) / PARALLEL_TOL)
    order = np.lexsort(key.T)
    key = key[order]
    direction = np.empty(key.shape[0], dtype=np.intp)
    direction[order] = np.cumsum(np.r_[True, np.any(key[1:] != key[:-1], axis=1)]) - 1
    return direction, reversed_


def _vertex_cells(verts: _Vertices, ratios: np.ndarray,
                  budget: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Roundings of R x over the cells incident to each degenerate vertex.

    A row is tight at x when it passes through x (see _Vertices); it
    takes floor(r_i x) or floor(r_i x) + 1.  Tight rows of one direction
    take one choice together (reversed rows the opposite one), so a
    vertex with t tight directions yields 2^t candidates, in merged
    order.  Every other row rounds to nearest.  Returns the candidates
    and the index in merged of the vertex of each.  Raises
    ResourceBudgetError, before any candidate is built, if these and the
    2^k cells of each generic vertex exceed budget.
    """
    total = int(np.count_nonzero(verts.generic)) << verts.rows.shape[1]
    y = verts.at(verts.y, verts.merged)
    tight = verts.at(verts.tight, verts.merged)
    direction, reversed_ = _directions(ratios)
    hit = tight @ (direction[:, None] == np.arange(direction.max() + 1))
    n_tight = hit.sum(axis=1)
    total += sum(int(c) << t for t, c in enumerate(np.bincount(n_tight)))
    if budget is not None and total > budget:
        raise ResourceBudgetError(f"{total} vertex cells exceed budget {budget}")
    bit_of_direction = np.cumsum(hit, axis=1) - 1
    per_vertex = np.left_shift(1, n_tight)
    owner = np.repeat(np.arange(y.shape[0]), per_vertex)
    pattern = np.arange(owner.size) - np.repeat(np.cumsum(per_vertex) - per_vertex, per_vertex)
    bit_of_row = np.maximum(bit_of_direction[:, direction], 0)[owner]
    up = ((pattern[:, None] >> bit_of_row) & 1).astype(bool) ^ reversed_
    base = np.where(tight, np.floor(y), np.floor(y + 0.5))[owner]
    return base + (up & tight[owner]), owner


def _vertex_search(g_arr: np.ndarray, dec: DpkDecomposition, cmax: int,
                   budget: int | None, best_f: float) -> _Found:
    """Best rounded cell at the arrangement vertices that beats best_f on
    G, for k >= 2.  Where _skip_or_search would skip it but for its
    budget checks, it refuses or finds no a.

    A generic vertex yields its 2^k cells straight from its label (see
    _label_grid), and every row outside the label rounds to nearest;
    degenerate vertices go through _vertex_cells.  Every candidate a is
    scored as sum d a^2 - |V^T a|^2, in O(nk), except cells with |a|_1 <=
    1: zero is no candidate, and a unit vector is never strictly below
    best_f.  _near_set keeps the candidates within rounding of the
    minimum.  They are sorted stably by vertex with _grid_order, so in
    candidate order within one vertex (by pattern number at a generic
    vertex, in _vertex_cells' order at a degenerate one), and the first
    copy of each vector up to sign goes to _lowest_on_g, which picks by
    the solvers' rule (see there): each vector is scored on G once, and
    an exact tie goes to the copy whose vertex comes first on the 1e-9
    grid.  Returns _Found: (a, its value on G, its vertex, candidates
    scored, vertices); the counts include the zero and unit cells.
    """
    verts = _vertex_labels(dec, cmax)
    # C(#vertices, k+1) no longer measures the work (the candidate
    # count in _vertex_cells does); it still refuses the instances
    # it refused when every (k+1)-subset of vertices was scored
    k = dec.k
    n_groups = math.comb(verts.count, k + 1)
    if budget is not None and n_groups > budget:
        raise ResourceBudgetError(
            f"{n_groups} vertex groups of size {k + 1} exceed budget {budget}"
        )
    d, v = dec.d, dec.v
    degenerate, owner = _vertex_cells(verts, v / d[:, None], budget)
    # generic cells (s, r, p): the label rows of vertex (s, r) take
    # w[r * 2^k + p], the other rows their part of base
    labels, count = verts.rows.shape[0], verts.c.shape[0]
    base = np.floor(verts.y + 0.5)
    base[np.arange(labels)[:, None], verts.rows] = 0.0
    norm2 = (d[verts.rows] @ verts.w.T ** 2).reshape(labels, count, 1 << k) + (d @ base ** 2)[:, :, None]
    proj = ((v[verts.rows].transpose(0, 2, 1) @ verts.w.T).reshape(labels, k, count, 1 << k)
            + (v.T @ base)[:, :, :, None])
    f = norm2 - np.sum(proj ** 2, axis=1)
    # a cell next to the origin rounds to zero, which is no candidate,
    # and a unit vector is never strictly below best_f: |a|_1 <= 1 drops both
    l1 = (np.abs(base).sum(axis=1)[:, :, None]
          + np.abs(verts.w).sum(axis=1).reshape(count, 1 << k))
    f[(l1 <= 1.0) | ~verts.generic[:, :, None]] = np.inf
    f, norm2 = f.ravel(), norm2.ravel()
    first_degenerate = f.size
    deg_norm2 = degenerate ** 2 @ d
    deg_f = deg_norm2 - np.sum((degenerate @ v) ** 2, axis=1)
    deg_f[np.abs(degenerate).sum(axis=1) <= 1.0] = np.inf
    f = np.concatenate([f, deg_f])
    norm2 = np.concatenate([norm2, deg_norm2])
    scored = (int(np.count_nonzero(verts.generic)) << k) + degenerate.shape[0]
    near = _near_set(f, norm2, best_f)
    if near is None:
        return None, None, None, scored, verts.count
    near = np.flatnonzero(near)
    split = int(np.searchsorted(near, first_degenerate))
    flat = near[:split] >> k
    cand = verts.at(base, flat)
    cand[np.arange(split)[:, None], verts.rows[flat // count]] = verts.w[near[:split] % (count << k)]
    xs = verts.at(verts.x, flat)
    i = near[split:] - first_degenerate
    cand = np.concatenate([cand, degenerate[i]])
    xs = np.concatenate([xs, verts.at(verts.x, verts.merged[owner[i]])])
    # an exact tie goes to the copy whose vertex comes first on the 1e-9
    # grid, then to the earlier cell (the sort is stable); a and -a are
    # one vector, scored once on G through its first copy in that order
    order = _grid_order(xs)
    cand, xs = cand[order].astype(np.int64), xs[order]
    keys = [tuple(a) if next(filter(None, a)) > 0 else tuple(-v for v in a) for a in cand.tolist()]
    first = sorted({key: i for i, key in reversed(list(enumerate(keys)))}.values())
    won = _lowest_on_g(g_arr, cand[first], best_f)
    if won is None:
        return None, None, None, scored, verts.count
    j, f_star = won
    return cand[first[j]], f_star, xs[first[j]], scored, verts.count


def solve_dpk(g, dec: DpkDecomposition | None, *,
              budget: int | None = DEFAULT_COMBINATION_BUDGET) -> SolverResult:
    """Exact minimizer of a^T G a using the low-rank structure of G.

    dec must reproduce g to a 1e-9 relative tolerance, checked by
    validate_dpk unless g and dec are the pair one build_gram_mimo call
    returned, which come from the same eigenpairs and are not compared
    again; any other g, dec or mix of the two is compared.  A None
    decomposition is accepted only for diagonal g, where psi^2 = 1 and
    _skip_or_search returns the best unit vector, without a budget and
    without a search.  Unless _skip_or_search skips it,
    for k = 1 solve_single's search, _rank_one_search, sweeps x v / d
    (ties to the smallest x), and breakpoint_count counts its
    crossings; for k >= 2 the candidates are the rounded cells at each
    arrangement vertex (see _vertex_search), and breakpoint_count counts
    the distinct vertices.  Either search picks by _lowest_on_g's rule.
    The witness is a point x of a_star's closed cell, |diag(d)^-1 V x -
    a_star| <= 1/2 entrywise: the interval midpoint for k = 1, the
    vertex that produced a_star for k >= 2.  Raises ResourceBudgetError
    if the vertex bound C(n, k) (2 cmax + 2)^k exceeds budget, and for
    k >= 2 if the number of vertex subsets C(#vertices, k+1) or of
    candidates does, both counted before any candidate is built; and
    ValueError if budget is below 1 or lambda_min(G) <= 1e-12.
    """
    t0 = time.perf_counter()
    _check_budget(budget)
    g = as_gram_matrix(g)
    if dec is None:
        g_arr = g.entries
        if np.any(g_arr - np.diag(np.diag(g_arr)) != 0.0):
            raise ValueError("a decomposition is required unless the Gram matrix is diagonal")
        return _skip_or_search(g, 1, None, t0, lambda g_arr, cmax, best_f: (None, None, None, 0, 0))
    built = isinstance(dec, DpkDecomposition) and dec._gram is g
    if not built and not validate_dpk(g, dec):
        raise ValueError("decomposition does not reproduce the Gram matrix")
    v = dec.v[:, 0]
    return _skip_or_search(g, dec.k, budget, t0, lambda g_arr, cmax, best_f: (
        _vertex_search(g_arr, dec, cmax, budget, best_f) if dec.k >= 2
        else _rank_one_search(g_arr, np.abs(v) / dec.d, dec.d, v, cmax, best_f)))
