"""Core lattice types and the integer quadratic objective.

Everything downstream works with a positive definite Gram matrix G and
scores integer vectors by f(a) = a^T G a.  The types here validate
their invariants once at construction so the solvers can stay lean.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_RTOL = 1e-12
RANK_SV_RTOL = 1e-10


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
        if raw.dtype.kind not in "iu":
            values = np.asarray(raw, dtype=float)
            # nan, inf and values outside [-2**63, 2**63) fail before the cast
            if not ((values >= -2.0**63) & (values < 2.0**63) & (values == np.round(values))).all():
                raise ValueError("coefficients must be integers in [-2**63, 2**63)")
        entries = np.array(raw, dtype=np.int64)
        if entries.ndim != 1 or entries.size < 1:
            raise ValueError("coefficients must form a one-dimensional vector")
        if not entries.any():
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


def _check_dpk_spectrum(sv: np.ndarray) -> None:
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

    f_star is the objective recomputed from scratch at a_star, so it is
    reproducible independent of any incremental arithmetic used during
    the search.  Every solver picks a_star by quad_objective on G, the
    function f_star comes from: the lowest candidate wins if it is
    strictly below the best unit vector, and an exact tie between
    candidates goes to the smallest x for k = 1 and to the first vertex
    on the 1e-9 grid for k >= 2.  witness_point is a point x of a_star's
    closed cell (None when a unit vector won): for solve_single an
    interval midpoint with round(x h) = a_star; for solve_dpk
    |diag(d)^-1 V x - a_star| <= 1/2 entrywise, x the interval midpoint
    for k = 1 and the vertex of that tie rule for k >= 2.
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
    first = a.entries[a.entries.nonzero()[0][0]]
    return a if first > 0 else _unchecked(CoefficientVector, entries=_freeze(-a.entries))


def _best_unit_vector(g_entries: np.ndarray) -> tuple[float, np.ndarray]:
    """The unit vector e_j with the smallest G_jj, as (G_jj, e_j).

    Both solvers start from it; the first j wins a tie.
    """
    diag = g_entries.diagonal()
    j = int(diag.argmin())
    a = np.zeros(diag.size, dtype=np.int64)
    a[j] = 1
    return float(diag[j]), a


def _solver_result(g_entries: np.ndarray, best_a: np.ndarray, witness: np.ndarray | None,
                   t0: float, candidates_evaluated: int, breakpoint_count: int) -> SolverResult:
    """A solver's SolverResult: best_a in canonical sign, the witness
    negated with it, f_star recomputed on G, elapsed time since t0."""
    a = CoefficientVector(best_a)
    a_star = canonical_sign(a)
    if witness is not None and a_star is not a:
        witness = -witness
    return SolverResult(
        a_star=a_star,
        f_star=quad_objective(g_entries, a_star.entries),
        candidates_evaluated=candidates_evaluated,
        breakpoint_count=breakpoint_count,
        elapsed_seconds=time.perf_counter() - t0,
        witness_point=witness,
    )
