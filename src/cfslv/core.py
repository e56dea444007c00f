"""Core lattice types and the integer quadratic objective.

Everything downstream works with a positive definite Gram matrix G and
scores integer vectors by f(a) = a^T G a.  The types here validate
their invariants once at construction so the solvers can stay lean.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_RTOL = 1e-12
RANK_SV_RTOL = 1e-10
# _unit_vector's cache: every e_j of every n <= 15 fits
UNIT_CACHE_SIZE = 128


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given.

    Runs neither __init__ nor __post_init__, so none of cls's checks:
    only for values cfslv has built and decided itself, and every field
    of cls must be passed.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class ChannelVector:
    """Real vector of channel gains, any length >= 1."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 1 or entries.size < 1:
            raise ValueError("channel must be a one-dimensional vector of length >= 1")
        if not np.isfinite(entries).all():
            raise ValueError("channel gains must be finite")
        object.__setattr__(self, "entries", _freeze(entries))

    @property
    def n(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class CoefficientVector:
    """Nonzero integer coefficient vector."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.entries)
        if raw.dtype.kind == "u":
            # the cast below would wrap 2**63 and above to negative values
            if (raw > np.iinfo(np.int64).max).any():
                raise ValueError("coefficients must be integers in [-2**63, 2**63)")
        elif raw.dtype.kind != "i":
            values = np.asarray(raw, dtype=float)
            # nan, inf and values outside [-2**63, 2**63) fail before the cast
            if not ((values >= -2.0**63) & (values < 2.0**63) & (values == np.round(values))).all():
                raise ValueError("coefficients must be integers in [-2**63, 2**63)")
        entries = np.array(raw, dtype=np.int64)
        if entries.ndim != 1 or entries.size < 1:
            raise ValueError("coefficients must form a one-dimensional vector")
        if not np.count_nonzero(entries):
            raise ValueError("coefficient vector must be nonzero")
        object.__setattr__(self, "entries", _freeze(entries))

    @property
    def n(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive definite matrix defining the lattice norm.

    Construction enforces symmetry to a 1e-12 relative tolerance (then
    symmetrizes exactly) and positive definiteness via one LAPACK
    eigenvalue solve.  Entries are stored read-only; the smallest
    eigenvalue from that solve is kept as min_eigenvalue, so search
    radii never eigensolve the matrix again.  These checks run on every
    matrix a caller passes in.  build_gram_single and build_gram_mimo
    skip them for a G they built finite and symmetric, and take
    min_eigenvalue from its closed-form spectrum (build_gram_single runs
    them when rounding could make its G indefinite).
    """

    entries: np.ndarray
    min_eigenvalue: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        g = np.array(self.entries, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
            raise ValueError("Gram matrix must be square")
        if not np.all(np.isfinite(g)):
            raise ValueError("Gram matrix entries must be finite")
        gap = np.abs(g - g.T)
        if np.any(gap > SYMMETRY_RTOL * np.maximum(1.0, np.abs(g))):
            raise ValueError("Gram matrix is not symmetric within 1e-12 relative tolerance")
        g = 0.5 * (g + g.T)
        lam_min = float(np.linalg.eigvalsh(g)[0])
        if not lam_min > 0.0:
            raise ValueError(
                f"Gram matrix is not positive definite (smallest eigenvalue {lam_min:.3e})"
            )
        object.__setattr__(self, "entries", _freeze(g))
        object.__setattr__(self, "min_eigenvalue", lam_min)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _check_dpk_spectrum(sv: np.ndarray | list[float]) -> None:
    """DpkDecomposition's rank and definiteness tests on the singular
    values sv of W = diag(d)^-1/2 V, largest first."""
    if sv[0] == 0.0 or sv[-1] <= RANK_SV_RTOL * sv[0]:
        raise ValueError("V must have full column rank")
    if not sv[0] < 1.0:
        raise ValueError("diag(d) - V V^T is not positive definite")


@dataclass(frozen=True)
class DpkDecomposition:
    """Diagonal-minus-low-rank form G = diag(d) - V V^T.

    d must be strictly positive, V must have full column rank, and the
    difference must remain positive definite.  One SVD of W =
    diag(d)^-1/2 V decides both conditions without forming the n-by-n
    difference: V has full column rank when W's smallest singular value
    exceeds 1e-10 times its largest, and diag(d) - V V^T =
    diag(d)^1/2 (I - W W^T) diag(d)^1/2 is positive definite exactly
    when W's largest singular value is below 1.  These checks run on
    every decomposition a caller passes in.  build_gram_mimo decides the
    same two tests on the singular values its eigensolve already gives
    and skips them here; it also sets _gram to the GramMatrix it built
    from the same eigenpairs, so solve_dpk need not compare that pair.
    """

    d: np.ndarray
    v: np.ndarray
    _gram: GramMatrix | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        d = np.array(self.d, dtype=float)
        v = np.array(self.v, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("d must be a one-dimensional vector")
        if v.ndim != 2 or v.shape[0] != d.size:
            raise ValueError("V must be an n-by-k matrix matching d")
        if not (v.shape[1] >= 1 and v.shape[1] <= d.size):
            raise ValueError("rank k must satisfy 1 <= k <= n")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(v))):
            raise ValueError("decomposition entries must be finite")
        if not np.all(d > 0.0):
            raise ValueError("diagonal entries must be strictly positive")
        _check_dpk_spectrum(np.linalg.svd(v / np.sqrt(d)[:, None], compute_uv=False))
        object.__setattr__(self, "d", _freeze(d))
        object.__setattr__(self, "v", _freeze(v))

    @property
    def n(self) -> int:
        return self.d.size

    @property
    def k(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one exact search.

    f_star is quad_objective(G, a_star), so it is reproducible
    independent of any incremental arithmetic used during the search:
    the value the winner scored on G when it was picked (the same bits
    in either sign), G_jj for a unit vector e_j; _solver_result builds
    every result.  Both solvers and the oracle break every exact tie by
    _tie_key: a candidate wins only if it is strictly lower on G than
    the best unit vector, and among candidates tied on G the smallest
    |a|^2, then the lexicographically largest canonical a, wins.
    witness_point is a point x of a_star's closed cell (None when a
    unit vector won): for solve_single an interval midpoint with
    round(x h) = a_star; for solve_dpk |diag(d)^-1 V x - a_star| <= 1/2
    entrywise, x the interval midpoint for k = 1 and a vertex whose
    cells hold a_star for k >= 2.  A solve that searches nothing, by
    solver_single._skip_or_search's rule, reports
    candidates_evaluated = n and breakpoint_count = 0; a search counts
    its crossings for k = 1, and for k >= 2 the vertex labels it solved,
    each scoring 2^k cells: candidates_evaluated = n + 2^k
    breakpoint_count.  A unit winner's
    a_star is shared: every result won by e_j of length n holds the one
    CoefficientVector _unit_vector caches for (n, j), whose entries no
    caller can make writeable.  Any other a_star is a fresh array of its
    own result.
    """

    a_star: CoefficientVector
    f_star: float
    candidates_evaluated: int
    breakpoint_count: int
    elapsed_seconds: float
    witness_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_star) and self.f_star > 0.0):
            raise ValueError("objective value must be finite and positive")
        if self.candidates_evaluated < 1:
            raise ValueError("at least one candidate must have been evaluated")
        if self.breakpoint_count < 0 or self.elapsed_seconds < 0.0:
            raise ValueError("counts and timings must be nonnegative")
        if self.witness_point is not None:
            w = np.array(self.witness_point, dtype=float)
            object.__setattr__(self, "witness_point", _freeze(w))


def _check_budget(budget: int | None) -> None:
    """Raise ValueError unless budget is None (no limit) or at least 1."""
    if budget is not None and budget < 1:
        raise ValueError("budget must be positive")


def as_channel_vector(h) -> ChannelVector:
    return h if isinstance(h, ChannelVector) else ChannelVector(h)


def as_coefficient_vector(a) -> CoefficientVector:
    return a if isinstance(a, CoefficientVector) else CoefficientVector(a)


def as_gram_matrix(g) -> GramMatrix:
    return g if isinstance(g, GramMatrix) else GramMatrix(g)


def quad_objective(g_entries: np.ndarray, a_entries: np.ndarray) -> float:
    """a^T G a on raw arrays; no validation, for internal hot paths."""
    v = np.asarray(a_entries, dtype=float)
    return float(v @ g_entries @ v)


def quadratic_form(g, a) -> float:
    """Evaluate f(a) = a^T G a for a validated pair."""
    g = as_gram_matrix(g)
    a = as_coefficient_vector(a)
    if a.n != g.n:
        raise ValueError(f"dimension mismatch: matrix is {g.n}, vector is {a.n}")
    return quad_objective(g.entries, a.entries)


def canonical_sign(a) -> CoefficientVector:
    """Flip a to -a if its first nonzero entry is negative.

    f(a) = f(-a), so solvers report the representative whose leading
    nonzero entry is positive.  The flipped vector is built unchecked:
    the negation of a valid vector is valid.
    """
    a = as_coefficient_vector(a)
    first = next(filter(None, a.entries.tolist()))
    return a if first > 0 else _unchecked(CoefficientVector, entries=_freeze(-a.entries))


def _tie_key(f: float, a: Sequence[int]) -> tuple[float, int, list[int]]:
    """The order of cfslv's one tie rule, lowest first, for a nonzero a
    with f = quad_objective(G, a): the lowest f, then the smallest
    |a|^2, then the lexicographically largest a in canonical sign.

    So e_0 comes before e_1, and a unit vector before any other vector
    it ties.  Both solvers and the oracle pick by it, so they return the
    same a_star for one G.
    """
    # negate the canonical a, so that the smallest key is the largest a
    s = -1 if next(filter(None, a)) > 0 else 1
    return f, sum(x * x for x in a), [s * x for x in a]


def _lowest_by_tie_key(f: list[float], a: Sequence[Sequence[int]]) -> int:
    """The index i of the lowest (f[i], a[i]) by _tie_key, for values f
    and nonzero integer vectors a.  The key is formed only among the
    entries whose value equals the minimum exactly, and not at all when
    one entry does, so an untied minimum costs one comparison pass."""
    f_min = min(f)
    tied = [i for i, v in enumerate(f) if v == f_min]
    return tied[0] if len(tied) == 1 else min(tied, key=lambda i: _tie_key(f_min, a[i]))


@functools.lru_cache(maxsize=UNIT_CACHE_SIZE)
def _unit_vector(n: int, j: int) -> CoefficientVector:
    """The unit vector e_j of length n, built and checked by
    CoefficientVector once, and cached.

    Every unit winner reports this one object as its a_star, so its
    entries are re-backed by an immutable bytes buffer: setflags(write=
    True) raises on them, on every view of them and through .base, and
    no holder can change what another holds.  e_j is in canonical sign.
    """
    a = CoefficientVector(np.eye(1, n, j, dtype=np.int64)[0])
    object.__setattr__(a, "entries", np.frombuffer(a.entries.tobytes(), dtype=np.int64))
    return a


def _best_unit(g_entries: np.ndarray) -> tuple[float, CoefficientVector]:
    """The unit vector e_j with the smallest G_jj, as (G_jj,
    _unit_vector(n, j)).

    Both solvers start from it; the first j wins a tie, as _tie_key
    orders the unit vectors.
    """
    diag = g_entries.diagonal()
    j = int(diag.argmin())
    return float(diag[j]), _unit_vector(diag.size, j)


def _solver_result(best_a: np.ndarray | CoefficientVector, f_star: float,
                   witness: np.ndarray | None, t0: float, candidates_evaluated: int,
                   breakpoint_count: int) -> SolverResult:
    """The SolverResult of every winner best_a, with elapsed time since
    t0 and f_star the value best_a scored on G when picked.

    A unit vector winner is passed as _unit_vector's cached e_j, already
    checked and in canonical sign, and becomes a_star as it is: no
    allocation, copy or sign pass, and its f_star is G_jj, read from the
    diagonal, quad_objective(G, e_j) bit for bit.  Any other winner, a
    search's pick (_lowest_on_g's rule), is passed as an array and goes
    through CoefficientVector and canonical_sign into a fresh a_star,
    the witness negated with it; f_star is that of a_star too, as
    negating a vector negates v G and v exactly."""
    if isinstance(best_a, CoefficientVector):
        a_star = best_a
    else:
        a = CoefficientVector(best_a)
        a_star = canonical_sign(a)
        if witness is not None and a_star is not a:
            witness = -witness
    return SolverResult(
        a_star=a_star,
        f_star=f_star,
        candidates_evaluated=candidates_evaluated,
        breakpoint_count=breakpoint_count,
        elapsed_seconds=time.perf_counter() - t0,
        witness_point=witness,
    )
