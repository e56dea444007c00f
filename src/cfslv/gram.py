"""Gram-matrix construction for single-antenna and multi-antenna channels.

The decode error of an integer combination a is governed by
f(a) = a^T G a where G is built from the channel and transmit power.
For a single receive antenna G = (1 + P|h|^2) I - P h h^T, which is a
diagonal-minus-rank-one form.  With k receive antennas the MMSE-reduced
matrix is G = I - sum_i (P g_i^2 / (1 + P g_i^2)) w_i w_i^T over the
nonzero eigenpairs (g_i^2, w_i) of H H^T, a diagonal-minus-rank-k form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    ChannelVector,
    DpkDecomposition,
    GramMatrix,
    as_channel_vector,
    as_gram_matrix,
    _check_dpk_spectrum,
    _freeze,
    _unchecked,
)

DPK_RESIDUAL_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-12
# _ones's cache: one d for every n a campaign draws
ONES_CACHE_SIZE = 64
_EPS = float(np.finfo(float).eps)
# the LAPACK gufunc numpy's eigh(a) runs for a float64 matrix (syevd on
# its lower triangle), on numpy 1.x and 2.x alike; called directly it skips
# eigh's wrapper and its second errstate
_eigh_lower = _umath_linalg.eigh_lo


def _radius_eigenvalue(g: GramMatrix) -> float:
    """lambda_min(G) for a search radius; raises ValueError if it is at
    or below 1e-12 (numerically singular)."""
    lam_min = g.min_eigenvalue
    if lam_min <= EIGENVALUE_FLOOR:
        raise ValueError(f"Gram matrix is numerically singular (lambda_min = {lam_min:.3e})")
    return lam_min


def _check_power(power: float) -> float:
    power = float(power)
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError("transmit power must be finite and positive")
    return power


def _single_scale(hv: np.ndarray, power: float) -> float:
    """1 + P|h|^2, or ValueError if it overflows a float."""
    with np.errstate(over="ignore"):
        # hv.dot(hv) has the bits of hv @ hv without the ufunc overhead
        scale = 1.0 + power * float(hv.dot(hv))
    if not math.isfinite(scale):
        raise ValueError("1 + P|h|^2 overflows a float; scale the channel or the power down")
    return scale


@dataclass(frozen=True)
class MimoChannel:
    """Channel matrix between n transmitters and k receive antennas.

    h_matrix has shape (n, k): column j holds the gains seen by receive
    antenna j.  Requires 1 <= k <= n.
    """

    h_matrix: np.ndarray
    power: float

    def __post_init__(self) -> None:
        h = np.array(self.h_matrix, dtype=float)
        if h.ndim != 2 or h.shape[0] < 1:
            raise ValueError("channel matrix must be two-dimensional")
        if not (1 <= h.shape[1] <= h.shape[0]):
            raise ValueError("antenna count k must satisfy 1 <= k <= n")
        if not np.isfinite(h).all():
            raise ValueError("channel gains must be finite")
        _check_power(self.power)
        object.__setattr__(self, "h_matrix", _freeze(h))
        object.__setattr__(self, "power", float(self.power))

    @property
    def n(self) -> int:
        return self.h_matrix.shape[0]

    @property
    def k(self) -> int:
        return self.h_matrix.shape[1]


def build_gram_single(h, power: float) -> GramMatrix:
    """G = (1 + P|h|^2) I - P h h^T for a single receive antenna.

    G's eigenvalues are 1 (along h) and 1 + P|h|^2, so min_eigenvalue
    is 1 and no eigensolve runs, unless rounding G's entries, about
    n eps (1 + P|h|^2), can reach a quarter of that eigenvalue 1: then
    G is checked as GramMatrix checks any matrix, and a rounded G that
    is not positive definite raises ValueError.  A 1 + P|h|^2 that
    overflows a float raises ValueError from _single_scale, with the
    message solve_single, dpk_from_single and the rates give.  G comes
    from _gram_single, as solve_single's does.
    """
    h = as_channel_vector(h)
    power = _check_power(power)
    hv = h.entries
    return _gram_single(hv, power, _single_scale(hv, power))


def _gram_single(hv: np.ndarray, power: float, scale: float) -> GramMatrix:
    """build_gram_single's G for channel entries hv, from scale = 1 +
    P|h|^2 as _single_scale forms it.

    G = 0 - P h h^T, then scale added on the diagonal: the bits of
    scale I - P h h^T (scale - x is scale + (0 - x), and 0 - x turns a
    -0 product into +0, as scale * 0 - x does) without the identity or
    a second temporary.
    """
    n = hv.size
    # hv[:, None] * hv is the multiply np.outer runs, without its wrapper
    g = hv[:, None] * hv
    g *= power
    np.subtract(0.0, g, out=g)
    g.ravel()[:: n + 1] += scale
    if n * _EPS * scale >= 0.25:
        return GramMatrix(g)
    # g is finite and exactly symmetric, as outer(h, h) is, so
    # GramMatrix's finiteness check and symmetrization would change no bit
    return _unchecked(GramMatrix, entries=_freeze(g), min_eigenvalue=1.0)


def dpk_from_single(h, power: float) -> DpkDecomposition:
    """Rank-one decomposition d = (1 + P|h|^2) 1, V = sqrt(P) h.

    The zero channel (V must have full column rank) and a channel whose
    1 + P|h|^2 overflows a float raise ValueError.
    """
    h = as_channel_vector(h)
    power = _check_power(power)
    hv = h.entries
    if not hv.any():
        raise ValueError("zero channel vector admits no rank-one decomposition")
    d = np.full(h.n, _single_scale(hv, power))
    v = (math.sqrt(power) * hv)[:, None]
    return DpkDecomposition(d=d, v=v)


def build_gram_mimo(channel: MimoChannel) -> tuple[GramMatrix, DpkDecomposition | None]:
    """Gram matrix and its diagonal-minus-rank-k form for a MIMO channel.

    Eigenpairs of H H^T with eigenvalue below 1e-12 contribute nothing
    and are dropped; if all are dropped (zero channel) the Gram matrix
    is the identity and the decomposition is None.  numpy forms h @ h.T
    with syrk, so H H^T is exactly symmetric and is eigensolved as it is,
    by the LAPACK gufunc numpy.linalg.eigh runs on it (eigh_lo, the lower
    triangle), called once inside the errstate the product already
    holds: eigh's bits without its wrapper.  A LAPACK failure, which
    fills the outputs with NaN, raises numpy.linalg.LinAlgError
    ("Eigenvalues did not converge"), as eigh does; an entry of H H^T at
    or above 2**1023 (where H H^T + (H H^T)^T would overflow) or an
    eigenvalue that overflows raises ValueError.  That
    one eigensolve decides every invariant, and neither GramMatrix's nor
    DpkDecomposition's checks run again: G = I - W diag(s) W^T, s_i = P
    g_i^2 / (1 + P g_i^2) formed on Python floats, has eigenvalues 1 -
    s_i and 1, so min_eigenvalue is 1 - s_max; G is finite unless P
    g_max^2 overflows, which raises GramMatrix's ValueError; V = W
    diag(s)^1/2 with d = 1 has singular values sqrt(s_i), on which
    DpkDecomposition's rank and definiteness tests run with the same
    thresholds and messages.  G is formed in place, as _gram_single's
    is: 0 - W diag(s) W^T, then 1 added on the diagonal, the bits of
    I - W diag(s) W^T without the identity; then it is symmetrized
    exactly, as GramMatrix does.  d is _ones(n), one shared immutable
    ones(n) per n.  The decomposition keeps a private reference to G, so
    solve_dpk does not compare the pair again.
    """
    if not isinstance(channel, MimoChannel):
        raise ValueError("expected a MimoChannel")
    h = channel.h_matrix
    power = channel.power
    n, k = channel.n, channel.k
    # numpy's eigh ignores these too; invalid marks a LAPACK failure, read from the NaNs below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        outer = h @ h.T
        # |(H H^T)_ij| <= max_i (H H^T)_ii (1 + 3 k eps): below 2**1022 there, no entry reaches 2**1023
        if not (max(outer.diagonal().tolist()) < 2.0**1022 or abs(outer).max() < 2.0**1023):
            raise ValueError("H H^T overflows a float; scale the channel down")
        values, vectors = _eigh_lower(outer, signature="d->dd")
    values = values.tolist()
    if not all(map(math.isfinite, values)):
        # on a LAPACK failure numpy fills both outputs with NaN
        if any(map(math.isnan, values)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        raise ValueError("H H^T overflows a float; scale the channel down")
    # eigh sorts ascending: the top k eigenvalues, largest first, above the floor
    gains2 = [x for x in values[:-k - 1:-1] if x > EIGENVALUE_FLOOR]
    m = len(gains2)
    if m == 0:
        return _unchecked(GramMatrix, entries=_freeze(np.eye(n)), min_eigenvalue=1.0), None
    shrink = [power * x / (1.0 + power * x) for x in gains2]
    if math.isnan(shrink[0]):  # P g_max^2 overflows, and G with it
        raise ValueError("Gram matrix entries must be finite")
    # their eigenvectors, largest first, copied column-major: BLAS rounds on one fixed layout
    w = vectors[:, :-m - 1:-1].copy(order="F")
    # 0 - x, then 1 on the diagonal: eye(n) - x bit for bit, as in _gram_single
    g = (w * shrink) @ w.T
    np.subtract(0.0, g, out=g)
    g.ravel()[:: n + 1] += 1.0
    g += g.T
    g *= 0.5
    # 1 - s_max, not 1 / (1 + P g_max^2): the same value, but rounded as
    # G's own entries are, so a diagonal G keeps min G_jj / lambda_min = 1
    g = _unchecked(GramMatrix, entries=_freeze(g), min_eigenvalue=1.0 - shrink[0])
    sv = [math.sqrt(x) for x in shrink]  # V's singular values, largest first
    _check_dpk_spectrum(sv)
    dec = _unchecked(DpkDecomposition, d=_ones(n), v=_freeze(w * sv), _gram=g)
    return g, dec


@functools.lru_cache(maxsize=ONES_CACHE_SIZE)
def _ones(n: int) -> np.ndarray:
    """ones(n), the d of every build_gram_mimo decomposition of size n,
    built once and cached.

    Every such decomposition holds this one array, so it is backed by an
    immutable bytes buffer, as core._unit_vector's entries are:
    setflags(write=True) raises on it, on every view of it and through
    .base, and no holder can change what another holds.
    """
    return np.frombuffer(np.ones(n).tobytes(), dtype=float)


def validate_dpk(g, dec: DpkDecomposition) -> bool:
    """Check that diag(d) - V V^T reproduces G entrywise.

    The difference is formed densely and its largest entrywise
    deviation from G must be at most 1e-9 times max(1, largest |G|
    entry); returns False otherwise.  A dec that is not a
    DpkDecomposition, or whose n differs from G's, raises ValueError.
    solve_dpk calls it on every pair except the one build_gram_mimo
    returned together, which both come from the same eigenpairs.
    """
    g = as_gram_matrix(g)
    if not isinstance(dec, DpkDecomposition):
        raise ValueError("expected a DpkDecomposition")
    if dec.n != g.n:
        raise ValueError(f"dimension mismatch: matrix is {g.n}, decomposition is {dec.n}")
    recon = np.diag(dec.d) - dec.v @ dec.v.T
    scale = max(1.0, float(np.max(np.abs(g.entries))))
    resid = float(np.max(np.abs(recon - g.entries)))
    return resid <= DPK_RESIDUAL_TOL * scale


def search_radius_psi(g) -> float:
    """Norm bound sqrt(min diag(G) / lambda_min(G)) on any optimum.

    Any a with |a| above this value satisfies f(a) >= lambda_min |a|^2 >
    min_j G_jj = f(e_j), so it cannot beat the best unit vector.  Raises
    if the smallest eigenvalue is at or below 1e-12 (numerically
    singular).
    """
    g = as_gram_matrix(g)
    return float(math.sqrt(float(np.min(np.diag(g.entries))) / _radius_eigenvalue(g)))
