"""Exact solver for diagonal-minus-rank-k Gram matrices.

When G = diag(d) - V V^T, every optimal integer vector is either a
signed unit vector or a coordinate-wise rounding of R x, R =
diag(d)^-1 V, for some x in R^k.  The rounding pattern of that map is
constant on the cells of the arrangement of hyperplanes r_i x = c,
c a half-integer, and an optimum a rounds R x strictly at x = V^T a
(were a row at a tie there, stepping a across it would keep f and move
V^T a), so its cell is open.  The rows of R span R^k, so every cell is
bounded and has vertices, and those of an optimum's cell within the
norm bound psi have |c| <= floor(psi) + 1/2.  The solver scores the
rounded cells at each vertex, solved from k rows pi at right-hand
side c; (pi, c) is the vertex's label.

Where more than k rows pass through a vertex (commensurate or parallel
rows), its cells are not the 2^k of one label.  The solver removes that
case by simulation of simplicity (Edelsbrunner & Muecke, ACM TOG 9(1),
1990): the hyperplanes of row i move to r_i x = c + eps t_i, eps > 0
infinitesimal and t_i the square root of the i-th prime.  Label (pi, c)
becomes the vertex x + eps u, R_pi u = t_pi, of the moved arrangement,
and a row i outside pi through x now lies on one side of it: above
where r_i u > t_i.  Equality would make t_i a combination of t_pi with
the coefficients r_i R_pi^-1, which are rational for an integer or
half-integer channel, while square roots of distinct primes are
linearly independent over the rationals.  So every label is a simple
vertex of the moved arrangement, and its 2^k cells follow from the
label: row pi_j takes c_j - 1/2 or c_j + 1/2, a row i through x
floor(r_i x) + 1 if r_i u > t_i and floor(r_i x) otherwise, and every
other row rounds to nearest.  Why that is exact: every open cell of the
arrangement survives an infinitesimal move, with its rounding; every
cell of the moved arrangement is bounded and so touches one of its
vertices, each a label; so the labels' cells cover every open cell,
and the optimum's at |c| <= floor(psi) + 1/2.  The move also makes
sliver cells that are no open cell of the arrangement; they are integer
vectors, scored exactly like the rest.

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
TIGHT_RTOL = 1e-8
# the spacing of _grid_order's grid
_GRID_STEP = 1e-9


@functools.lru_cache(maxsize=16)
def _label_grid(k: int, cmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides of the vertex labels, and the cells of each.

    c runs over the vectors of k half-integers in [-cmax - 1/2, cmax +
    1/2], first coordinate slowest.  In cell p of the vertex with
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


@functools.lru_cache(maxsize=16)
def _perturbation(n: int) -> np.ndarray:
    """t, the square roots of the first n primes: row i's hyperplanes move
    by eps t_i (see the module docstring)."""
    primes: list[int] = []
    p = 2
    while len(primes) < n:
        if all(p % q for q in primes if q * q <= p):
            primes.append(p)
        p += 1
    return _freeze(np.sqrt(np.array(primes, dtype=float)))


class _Vertices(NamedTuple):
    """The arrangement vertices within the norm bound, by label.

    x[s, :, r] solves R_pi x = c[r] for the row subset pi = rows[s]; w
    holds the values of pi's rows in its cells (see _label_grid).
    base[s, :, r] holds the values of the other rows, which all its cells
    share: a row through x, whose r_i x lies within 1e-8 (1 + |r_i| |x|)
    of a half-integer, takes the side of its moved hyperplane (see the
    module docstring), every other row the nearest integer to r_i x; the
    label rows hold 0.  simple counts the labels through whose vertex no
    other row passes.
    """

    rows: np.ndarray
    c: np.ndarray
    w: np.ndarray
    x: np.ndarray
    base: np.ndarray
    simple: int

    @property
    def count(self) -> int:
        """The number of labels solved."""
        return self.rows.shape[0] * self.c.shape[0]

    def at(self, arr: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Rows arr[s, :, r] of x or base for flat (s, r) indices."""
        count = self.c.shape[0]
        return arr.transpose(0, 2, 1)[flat // count, flat % count]


def _grid_order(pts: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the points pts on the 1e-9 grid,
    ties by their exact coordinates."""
    # the grid first, so rounding noise in one coordinate cannot
    # separate two labels of one vertex in this order
    return np.lexsort(np.vstack([pts.T[::-1], np.round(pts / _GRID_STEP).T[::-1]]))


def _vertex_labels(dec: DpkDecomposition, cmax: int, budget: int | None) -> _Vertices:
    """Arrangement vertices x solving (diag(d)^-1 V)_pi x = c.

    Every size-k row subset pi whose submatrix is nonsingular is paired
    with every vector c of half-integers bounded by cmax + 1/2, and
    all pairs are solved in one batched LAPACK call.  Singular subsets
    are skipped: those whose rows of diag(d)^-1/2 V have a singular
    value ratio at or below 1e-10, the test DpkDecomposition applies to
    all of it.  Each subset also solves R_pi u = t_pi once, which fixes
    the side of every row through any of its vertices.  Raises
    ResourceBudgetError, before anything is solved, if the 2^k cells of
    each label exceed budget; _vertex_search checks the size of these
    arrays first.
    """
    k = dec.k
    c, w = _label_grid(k, cmax)
    rows = np.array(list(itertools.combinations(range(dec.n), k)), dtype=np.intp)
    sv = np.linalg.svd((dec.v / np.sqrt(dec.d)[:, None])[rows], compute_uv=False)
    rows = rows[(sv[:, 0] != 0.0) & (sv[:, -1] > RANK_SV_RTOL * sv[:, 0])]
    cells = rows.shape[0] * c.shape[0] << k
    if budget is not None and cells > budget:
        raise ResourceBudgetError(f"{cells} vertex cells exceed budget {budget}")
    ratios = dec.v / dec.d[:, None]
    x = np.linalg.solve(ratios[rows], c.T)
    y = ratios @ x
    # the norms as np.linalg.norm computes them, without its overhead
    scale = 1.0 + (np.sqrt(np.add.reduce(x * x, axis=1))[:, None, :]
                   * np.sqrt(np.add.reduce(ratios * ratios, axis=1))[:, None])
    tight = np.abs(y - np.floor(y) - 0.5) <= TIGHT_RTOL * scale
    label = np.arange(rows.shape[0])[:, None], rows
    tight[label] = False
    t = _perturbation(dec.n)
    above = ratios @ np.linalg.solve(ratios[rows], t[rows][:, :, None]) > t[:, None]
    # floor(y) + 1 or floor(y) on the rows through x, floor(y + 1/2) on the others
    base = np.floor(y + np.where(tight, above, 0.5))
    base[label] = 0.0
    return _Vertices(rows, c, w, x, base, int(np.count_nonzero(~tight.any(axis=1))))


def _vertex_search(g_arr: np.ndarray, dec: DpkDecomposition, cmax: int,
                   budget: int | None, best_f: float) -> _Found:
    """Best rounded cell at the arrangement vertices that beats best_f on
    G, for k >= 2.  Raises ResourceBudgetError, in this order and before
    the arrays each counts are built, when the C(n, k) (2 cmax + 2)^k x n
    entries of _vertex_labels' arrays, the 2^k cells of each label or
    the C(#simple labels, k + 1) vertex groups exceed budget.

    Each label yields its 2^k cells (see _Vertices and _label_grid), and
    every candidate a is scored as sum d a^2 - |V^T a|^2, in O(nk),
    except cells with |a|_1 <= 1: zero is no candidate, and a unit
    vector is never strictly below best_f.  _near_set keeps the
    candidates within rounding of the minimum.  They are sorted stably
    by vertex with _grid_order, so by label and then pattern number
    within one vertex, and the first copy of each vector up to sign goes
    to _lowest_on_g, which picks by the solvers' rule (see there): each
    vector is scored on G once, and an exact tie goes to the copy whose
    vertex comes first on the 1e-9 grid.  Returns _Found: (a, its value
    on G, its vertex, candidates scored, labels); the counts include the
    zero and unit cells.
    """
    k = dec.k
    entries = math.comb(dec.n, k) * (2 * cmax + 2) ** k * dec.n
    if budget is not None and entries > budget:
        raise ResourceBudgetError(f"{entries} vertex label entries exceed budget {budget}")
    verts = _vertex_labels(dec, cmax, budget)
    # C(#simple labels, k+1) no longer measures the work (the cell
    # count does); it stays at or below the C(#distinct vertices, k+1)
    # groups it counted when every (k+1)-subset of vertices was scored
    n_groups = math.comb(verts.simple, k + 1)
    if budget is not None and n_groups > budget:
        raise ResourceBudgetError(
            f"{n_groups} vertex groups of size {k + 1} exceed budget {budget}"
        )
    d, v = dec.d, dec.v
    # cells (s, r, p): the label rows of vertex (s, r) take w[r * 2^k + p],
    # the other rows their part of base
    subsets, count, base = verts.rows.shape[0], verts.c.shape[0], verts.base
    norm2 = (d[verts.rows] @ verts.w.T ** 2).reshape(subsets, count, 1 << k) + (d @ base ** 2)[:, :, None]
    proj = ((v[verts.rows].transpose(0, 2, 1) @ verts.w.T).reshape(subsets, k, count, 1 << k)
            + (v.T @ base)[:, :, :, None])
    f = norm2 - np.sum(proj ** 2, axis=1)
    # a cell next to the origin rounds to zero, which is no candidate,
    # and a unit vector is never strictly below best_f: |a|_1 <= 1 drops both
    l1 = (np.abs(base).sum(axis=1)[:, :, None]
          + np.abs(verts.w).sum(axis=1).reshape(count, 1 << k))
    f[l1 <= 1.0] = np.inf
    scored = verts.count << k
    near = _near_set(f.ravel(), norm2.ravel(), best_f)
    if near is None:
        return None, None, None, scored, verts.count
    near = np.flatnonzero(near)
    flat = near >> k
    cand = verts.at(base, flat)
    cand[np.arange(near.size)[:, None], verts.rows[flat // count]] = verts.w[near % (count << k)]
    xs = verts.at(verts.x, flat)
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
    crossings; for k >= 2 the candidates are the 2^k rounded cells at
    each vertex label (see _vertex_search), candidates_evaluated = n +
    2^k breakpoint_count, and breakpoint_count counts the labels
    solved.  Either search picks by _lowest_on_g's rule.  The witness
    is a point x of a_star's closed cell, |diag(d)^-1 V x - a_star| <=
    1/2 entrywise: the interval midpoint for k = 1, the vertex that
    produced a_star for k >= 2.  Raises ResourceBudgetError if the
    vertex bound C(n, k) (2 cmax + 2)^k exceeds budget, and for k >= 2,
    where the search runs, if n times that bound, the cells or the
    vertex groups C(#simple labels, k+1) do, each checked before the
    arrays it counts are built; and ValueError if budget is below 1 or
    lambda_min(G) <= 1e-12.
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
