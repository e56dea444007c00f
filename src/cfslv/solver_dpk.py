"""Exact solver for diagonal-minus-rank-k Gram matrices.

When G = diag(d) - V V^T, every optimal integer vector is either a
signed unit vector or a coordinate-wise rounding of R x, R =
diag(d)^-1 V, for some x in R^k.  The rounding pattern of that map is
constant on the cells of the arrangement of hyperplanes r_i x = c,
c a half-integer.  The rows of R span R^k, so every cell is pointed and
touches a vertex, and the cell of an optimum within the norm bound
touches a vertex with |c| <= ceil(psi) + 1/2.  The solver therefore
scores the rounded cells at each vertex: rows that pass through the
vertex round down or up, one choice per direction, and every other row
rounds to nearest.  For k = 1 the vertices are the crossings of one
line, and the solver runs solve_single's prefix-sum sweep instead.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .core import (
    RANK_SV_RTOL,
    DpkDecomposition,
    SolverResult,
    as_gram_matrix,
    _best_unit_vector,
    _freeze,
    _solver_result,
)
from .errors import ResourceBudgetError
from .gram import search_radius_psi, validate_dpk
from .solver_single import _crossing_sweep

DEFAULT_COMBINATION_BUDGET = 20_000_000
VERTEX_DEDUP_TOL = 1e-9
TIGHT_RTOL = 1e-8
PARALLEL_TOL = 1e-9
_SWEEP_TIE_RTOL = 1e-9


def _vertex_set(dec: DpkDecomposition, psi: float) -> np.ndarray:
    """Arrangement vertices x solving (diag(d)^-1 V)_pi x = c.

    Every size-k row subset pi whose submatrix is nonsingular is paired
    with every vector c of half-integers bounded by ceil(psi) + 1/2.
    Singular subsets are skipped: those whose rows of diag(d)^-1/2 V
    have a singular value ratio at or below 1e-10, the test
    DpkDecomposition applies to all of it.  Vertices are sorted
    lexicographically on their coordinates rounded to multiples of
    1e-9, ties by the exact coordinates, and a point closer than 1e-9
    in Euclidean distance to its predecessor in that order is merged
    into it.  Returns the sorted vertices as a read-only (m, k) array.
    solve_dpk checks the solve count C(n,k) * (2 ceil(psi) + 2)^k
    against its budget first.
    """
    n, k = dec.n, dec.k
    pos = np.arange(0.5, math.ceil(psi) + 1.0, 1.0)
    cs = np.concatenate([-pos[::-1], pos])
    rhs = np.stack(np.meshgrid(*([cs] * k), indexing="ij"), axis=-1).reshape(-1, k)
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    sv = np.linalg.svd((dec.v / np.sqrt(dec.d)[:, None])[subsets], compute_uv=False)
    subsets = subsets[(sv[:, 0] != 0.0) & (sv[:, -1] > RANK_SV_RTOL * sv[:, 0])]
    subs = (dec.v / dec.d[:, None])[subsets]
    if subs.shape[0] == 0:
        return _freeze(np.empty((0, k)))
    pts = np.linalg.solve(subs, rhs.T).swapaxes(1, 2).reshape(-1, k)
    # sort on the 1e-9 grid first, so rounding noise in one coordinate
    # cannot separate two copies of a vertex in the sorted order
    snapped = np.round(pts / VERTEX_DEDUP_TOL)
    pts = pts[np.lexsort(np.vstack([pts.T[::-1], snapped.T[::-1]]))]
    gaps = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    keep = np.concatenate([[True], gaps > VERTEX_DEDUP_TOL])
    return _freeze(pts[keep])


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


def _vertex_cells(verts: np.ndarray, ratios: np.ndarray,
                  budget: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Roundings of R x over the cells incident to each vertex x.

    A row is tight at x when r_i x lies within 1e-8 (1 + |r_i| |x|) of a
    half-integer; it takes floor(r_i x) or floor(r_i x) + 1.  Tight rows
    of one direction take one choice together (reversed rows the
    opposite one), so a vertex with t tight directions yields 2^t
    candidates, in vertex order.  Every other row rounds to nearest.
    Returns the candidates and the index of the vertex of each.  Raises
    ResourceBudgetError if more than budget candidates would be built.
    """
    y = verts @ ratios.T
    low = np.floor(y)
    scale = 1.0 + np.outer(np.linalg.norm(verts, axis=1), np.linalg.norm(ratios, axis=1))
    tight = np.abs(y - low - 0.5) <= TIGHT_RTOL * scale
    direction, reversed_ = _directions(ratios)
    hit = tight @ (direction[:, None] == np.arange(direction.max() + 1))
    bit_of_direction = np.cumsum(hit, axis=1) - 1
    n_tight = hit.sum(axis=1)
    total = sum(int(c) << t for t, c in enumerate(np.bincount(n_tight)))
    if budget is not None and total > budget:
        raise ResourceBudgetError(f"{total} vertex cells exceed budget {budget}")
    per_vertex = np.left_shift(1, n_tight)
    owner = np.repeat(np.arange(verts.shape[0]), per_vertex)
    pattern = np.arange(total) - np.repeat(np.cumsum(per_vertex) - per_vertex, per_vertex)
    bit_of_row = np.maximum(bit_of_direction[:, direction], 0)[owner]
    up = ((pattern[:, None] >> bit_of_row) & 1).astype(bool) ^ reversed_
    base = np.where(tight, low, np.floor(y + 0.5))[owner]
    return base + (up & tight[owner]), owner


# (f on G, a, witness, candidates scored, breakpoint_count) of a search
_Best = tuple[float, np.ndarray | None, np.ndarray | None, int, int]


def _rank_one_sweep(g_arr: np.ndarray, dec: DpkDecomposition, psi: float) -> _Best:
    """Best rounding of x r, r = v / d, over the open intervals at x > 0.

    Prefix sums of d_j a_j^2 and |v_j| |a_j| over the sorted crossings
    give f = sum d a^2 - (v^T a)^2 on each interval in O(1).  Those
    values differ from G's in the last bits, so the intervals within
    1e-9 sum d a^2 (taken at the sweep minimum) of the minimum are
    scored again on G with _vertex_search's einsum, latest first, so
    that a tie on G goes to the larger x.  Returns (f on G, a, interval midpoint, intervals
    swept, crossings); f is inf and a None when no interval is open.
    """
    mags = np.abs(dec.v[:, 0])
    xs, coord, step, scored = _crossing_sweep(mags / dec.d, math.ceil(psi))
    if scored.size == 0:
        return math.inf, None, None, 0, int(xs.size)
    norm2 = np.cumsum(dec.d[coord] * step)[scored]
    f = norm2 - np.cumsum(mags[coord])[scored] ** 2
    m = int(np.argmin(f))
    near = scored[f <= f[m] + _SWEEP_TIE_RTOL * norm2[m]][::-1]
    cand = np.array([np.bincount(coord[: i + 1], minlength=dec.n) for i in near])
    cand = cand * np.sign(dec.v[:, 0])
    f_g = np.einsum("ij,jk,ik->i", cand, g_arr, cand)
    j = int(np.argmin(f_g))
    i = int(near[j])
    return (float(f_g[j]), cand[j].astype(np.int64),
            np.array([0.5 * (float(xs[i]) + float(xs[i + 1]))]), int(scored.size), int(xs.size))


def _vertex_search(g_arr: np.ndarray, dec: DpkDecomposition, psi: float,
                   budget: int | None) -> _Best:
    """Best rounded cell at the arrangement vertices, for k >= 2.

    Returns (f on G, a, its vertex, candidates scored, vertices) as
    _rank_one_sweep does; the earliest candidate wins a tie.
    """
    verts = _vertex_set(dec, psi)
    # C(#vertices, k+1) no longer measures the work (the candidate
    # count in _vertex_cells does); it still refuses the instances
    # it refused when every (k+1)-subset of vertices was scored
    k = dec.k
    n_groups = math.comb(verts.shape[0], k + 1)
    if budget is not None and n_groups > budget:
        raise ResourceBudgetError(
            f"{n_groups} vertex groups of size {k + 1} exceed budget {budget}"
        )
    cand, owner = _vertex_cells(verts, dec.v / dec.d[:, None], budget)
    f = np.einsum("ij,jk,ik->i", cand, g_arr, cand)
    # a cell next to the origin rounds to zero, which is no candidate
    f[~cand.any(axis=1)] = np.inf
    if not f.size:
        return math.inf, None, None, 0, verts.shape[0]
    j = int(np.argmin(f))
    return (float(f[j]), cand[j].astype(np.int64), verts[owner[j]], cand.shape[0],
            verts.shape[0])


def solve_dpk(g, dec: DpkDecomposition | None, *,
              budget: int | None = DEFAULT_COMBINATION_BUDGET) -> SolverResult:
    """Exact minimizer of a^T G a using the low-rank structure of G.

    dec must reproduce g to a 1e-9 relative tolerance (checked).  A
    None decomposition is accepted only for diagonal g, where the best
    unit vector is already optimal.  For k = 1 the candidates are the
    roundings of x v / d on the open intervals between the x > 0
    crossings, swept as in solve_single (see _rank_one_sweep), and
    breakpoint_count counts those crossings; for k >= 2 they are the
    rounded cells at each arrangement vertex (see _vertex_cells), and
    breakpoint_count counts the vertices.  The best unit vector is kept
    unless a candidate scores strictly lower on G: for k = 1 the lowest
    on G of the intervals near the sweep minimum (the latest on a tie),
    for k >= 2 the earliest lowest on G.  The witness is a point x of
    a_star's closed cell, |diag(d)^-1 V x - a_star| <= 1/2 entrywise:
    the interval midpoint for k = 1, the vertex that produced a_star
    for k >= 2.  Raises ResourceBudgetError if the vertex bound C(n, k)
    (2 ceil(psi) + 2)^k exceeds budget, checked once before either
    search, and for k >= 2 if the number of vertex subsets
    C(#vertices, k+1) or of candidates does.
    """
    t0 = time.perf_counter()
    g = as_gram_matrix(g)
    g_arr = g.entries

    best_f, best_a = _best_unit_vector(g_arr)
    best_x: np.ndarray | None = None
    candidates = g.n
    vertex_count = 0

    if dec is None:
        off = g_arr - np.diag(np.diag(g_arr))
        if np.any(off != 0.0):
            raise ValueError("a decomposition is required unless the Gram matrix is diagonal")
    else:
        if not validate_dpk(g, dec):
            raise ValueError("decomposition does not reproduce the Gram matrix")
        # the bound is >= 1 mathematically; rounding in the eigensolve
        # must not be allowed to truncate the half-integer range
        psi = max(1.0, search_radius_psi(g))
        worst_case = math.comb(dec.n, dec.k) * (2 * math.ceil(psi) + 2) ** dec.k
        if budget is not None and worst_case > budget:
            raise ResourceBudgetError(f"vertex bound {worst_case} exceeds budget {budget}")
        if dec.k == 1:
            f, a, x, scored, vertex_count = _rank_one_sweep(g_arr, dec, psi)
        else:
            f, a, x, scored, vertex_count = _vertex_search(g_arr, dec, psi, budget)
        candidates += scored
        if f < best_f:
            best_a, best_x = a, x
    return _solver_result(g_arr, best_a, best_x, t0, candidates, vertex_count)
