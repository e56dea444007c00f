"""Exact solver for diagonal-minus-rank-k Gram matrices.

When G = diag(d) - V V^T, every optimal integer vector is either a
signed unit vector or the coordinate-wise rounding of diag(d)^-1 V x
for some x in R^k.  The rounding pattern of that map is constant on the
cells of a hyperplane arrangement, and every cell within the norm bound
contains the average of some k+1 of the arrangement's vertices, so
enumerating those averages visits every pattern that can matter.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .core import (
    RANK_SV_RTOL,
    CoefficientVector,
    DpkDecomposition,
    SolverResult,
    as_gram_matrix,
    canonical_sign,
    quad_objective,
)
from .errors import ResourceBudgetError
from .gram import search_radius_psi, validate_dpk

DEFAULT_COMBINATION_BUDGET = 20_000_000
VERTEX_DEDUP_TOL = 1e-9
_CHUNK_ROWS = 1 << 20


class VertexSet:
    """Deduplicated vertices of the rounding-cell arrangement."""

    __slots__ = ("points",)

    def __init__(self, points: np.ndarray) -> None:
        points = np.array(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("vertices must form a two-dimensional array")
        points.setflags(write=False)
        self.points = points

    def __len__(self) -> int:
        return self.points.shape[0]


def vertex_set(dec: DpkDecomposition, psi: float, *,
               budget: int | None = DEFAULT_COMBINATION_BUDGET) -> VertexSet:
    """Arrangement vertices x solving (diag(d)^-1 V)_pi x = c.

    Every size-k row subset pi whose submatrix is nonsingular is paired
    with every vector c of half-integers bounded by ceil(psi) + 1/2.
    Singular subsets (singular value ratio at or below 1e-10) are
    skipped.  Points closer than 1e-9 in Euclidean distance to their
    sorted predecessor are merged.  Raises ResourceBudgetError if the
    solve count C(n,k) * (2 ceil(psi) + 2)^k exceeds budget.
    """
    if not isinstance(dec, DpkDecomposition):
        raise ValueError("expected a DpkDecomposition")
    psi = float(psi)
    if not (math.isfinite(psi) and psi >= 1.0):
        raise ValueError("search radius must be finite and at least 1")
    n, k = dec.n, dec.k
    cmax = math.ceil(psi)
    pos = np.arange(0.5, cmax + 1.0, 1.0)
    cs = np.concatenate([-pos[::-1], pos])
    per_subset = cs.size ** k
    n_subsets = math.comb(n, k)
    if budget is not None and n_subsets * per_subset > budget:
        raise ResourceBudgetError(
            f"vertex bound {n_subsets * per_subset} exceeds budget {budget}"
        )
    rhs = np.stack(np.meshgrid(*([cs] * k), indexing="ij"), axis=-1).reshape(-1, k)
    ratios = dec.v / dec.d[:, None]
    found = []
    for rows in itertools.combinations(range(n), k):
        sub = ratios[list(rows), :]
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= RANK_SV_RTOL * sv[0]:
            continue
        found.append(np.linalg.solve(sub, rhs.T).T)
    if not found:
        return VertexSet(np.empty((0, k)))
    pts = np.vstack(found)
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    gaps = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    keep = np.concatenate([[True], gaps > VERTEX_DEDUP_TOL])
    return VertexSet(pts[keep])


def _mean_chunks(pts: np.ndarray, size: int):
    """Yield row chunks of the averages of all sorted index subsets.

    Subsets are visited in lexicographic order of their index tuples,
    so concatenating the chunks is a fixed, deterministic sequence.
    """
    m = pts.shape[0]
    if m < size:
        return
    if size == 2:
        for i in range(m - 1):
            block = 0.5 * (pts[i] + pts[i + 1 :])
            for s in range(0, block.shape[0], _CHUNK_ROWS):
                yield block[s : s + _CHUNK_ROWS]
    elif size == 3:
        j, l = np.triu_indices(m, 1)
        first = np.searchsorted(j, np.arange(m), side="left")
        for i in range(m - 2):
            s0 = first[i + 1]
            block = (pts[i] + pts[j[s0:]] + pts[l[s0:]]) / 3.0
            for s in range(0, block.shape[0], _CHUNK_ROWS):
                yield block[s : s + _CHUNK_ROWS]
    else:
        for head in itertools.combinations(range(m), size - 1):
            tail = np.arange(head[-1] + 1, m)
            if tail.size == 0:
                continue
            block = (pts[list(head)].sum(axis=0) + pts[tail]) / float(size)
            yield block


def solve_dpk(g, dec: DpkDecomposition | None, *,
              budget: int | None = DEFAULT_COMBINATION_BUDGET) -> SolverResult:
    """Exact minimizer of a^T G a using the low-rank structure of G.

    dec must reproduce g to a 1e-9 relative tolerance (checked).  A
    None decomposition is accepted only for diagonal g, where the best
    unit vector is already optimal.  Candidates are the roundings of
    diag(d)^-1 V x over all (k+1)-vertex averages x; ties keep the
    earliest candidate, so the unit-vector initializer wins ties.
    Raises ResourceBudgetError if the number of vertex subsets
    C(#vertices, k+1) exceeds budget.
    """
    t0 = time.perf_counter()
    g = as_gram_matrix(g)
    g_arr = g.entries
    n = g.n

    diag = np.diag(g_arr)
    unit_index = int(np.argmin(diag))
    best_f = float(diag[unit_index])
    best_a = np.zeros(n, dtype=np.int64)
    best_a[unit_index] = 1
    best_x: np.ndarray | None = None
    candidates = n
    vertex_count = 0

    if dec is None:
        off = g_arr - np.diag(diag)
        if np.any(off != 0.0):
            raise ValueError("a decomposition is required unless the Gram matrix is diagonal")
    else:
        if dec.n != n:
            raise ValueError(f"dimension mismatch: matrix is {n}, decomposition is {dec.n}")
        if not validate_dpk(g, dec):
            raise ValueError("decomposition does not reproduce the Gram matrix")
        # the bound is >= 1 mathematically; rounding in the eigensolve
        # must not be allowed to truncate the half-integer range
        psi = max(1.0, search_radius_psi(g))
        verts = vertex_set(dec, psi, budget=budget)
        vertex_count = len(verts)
        k = dec.k
        n_groups = math.comb(vertex_count, k + 1)
        if budget is not None and n_groups > budget:
            raise ResourceBudgetError(
                f"{n_groups} vertex groups of size {k + 1} exceed budget {budget}"
            )
        ratios = dec.v / dec.d[:, None]
        for block in _mean_chunks(verts.points, k + 1):
            cand = np.floor(block @ ratios.T + 0.5)
            nonzero = np.any(cand != 0.0, axis=1)
            if not nonzero.all():
                cand = cand[nonzero]
                block = block[nonzero]
            if cand.shape[0] == 0:
                continue
            candidates += cand.shape[0]
            f = np.einsum("ij,jk,ik->i", cand, g_arr, cand)
            j = int(np.argmin(f))
            if f[j] < best_f:
                best_f = float(f[j])
                best_a = cand[j].astype(np.int64)
                best_x = block[j].copy()

    result = canonical_sign(CoefficientVector(best_a))
    if best_x is not None and not np.array_equal(result.entries, best_a):
        best_x = -best_x
    return SolverResult(
        a_star=result,
        f_star=quad_objective(g_arr, result.entries),
        candidates_evaluated=candidates,
        breakpoint_count=vertex_count,
        elapsed_seconds=time.perf_counter() - t0,
        witness_point=best_x,
    )
