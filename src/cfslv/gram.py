"""Gram-matrix construction for single-antenna and multi-antenna channels.

The decode error of an integer combination a is governed by
f(a) = a^T G a where G is built from the channel and transmit power.
For a single receive antenna G = (1 + P|h|^2) I - P h h^T, which is a
diagonal-minus-rank-one form.  With k receive antennas the MMSE-reduced
matrix is G = I - sum_i (P g_i^2 / (1 + P g_i^2)) w_i w_i^T over the
nonzero eigenpairs (g_i^2, w_i) of H H^T, a diagonal-minus-rank-k form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    RANK_SV_RTOL,
    ChannelVector,
    DpkDecomposition,
    GramMatrix,
    as_channel_vector,
    as_gram_matrix,
    _freeze,
    _unchecked,
)

DPK_RESIDUAL_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-12


def _radius_eigenvalue(g: GramMatrix) -> float:
    """lambda_min(G) for a search radius; raises ValueError if it is at
    or below 1e-12 (numerically singular)."""
    lam_min = g.min_eigenvalue
    if lam_min <= EIGENVALUE_FLOOR:
        raise ValueError(f"Gram matrix is numerically singular (lambda_min = {lam_min:.3e})")
    return lam_min


def _built_gram(g: np.ndarray, lam_min: float) -> GramMatrix:
    """GramMatrix of a G built in this module, whose smallest eigenvalue
    lam_min is known in closed form.

    Runs GramMatrix's finiteness check and exact symmetrization, so G's
    bits and that error are unchanged, but not its symmetry test (G is
    symmetric up to gemm rounding) or its eigensolve.
    """
    if not np.all(np.isfinite(g)):
        raise ValueError("Gram matrix entries must be finite")
    return _unchecked(GramMatrix, entries=_freeze(0.5 * (g + g.T)), min_eigenvalue=lam_min)


def _check_power(power: float) -> float:
    power = float(power)
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError("transmit power must be finite and positive")
    return power


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
        if not np.all(np.isfinite(h)):
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
    is 1 and no eigensolve runs; entries that overflow a float raise
    ValueError, as GramMatrix's own check does.
    """
    h = as_channel_vector(h)
    power = _check_power(power)
    hv = h.entries
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 1.0 + power * float(hv @ hv)
        g = scale * np.eye(h.n) - power * np.outer(hv, hv)
    return _built_gram(g, 1.0)


def dpk_from_single(h, power: float) -> DpkDecomposition:
    """Rank-one decomposition d = (1 + P|h|^2) 1, V = sqrt(P) h.

    The zero channel has no rank-one part; it is rejected because the
    decomposition type requires V to have full column rank.
    """
    h = as_channel_vector(h)
    power = _check_power(power)
    hv = h.entries
    if not hv.any():
        raise ValueError("zero channel vector admits no rank-one decomposition")
    scale = 1.0 + power * float(hv @ hv)
    d = np.full(h.n, scale)
    v = (math.sqrt(power) * hv)[:, None]
    return DpkDecomposition(d=d, v=v)


def build_gram_mimo(channel: MimoChannel) -> tuple[GramMatrix, DpkDecomposition | None]:
    """Gram matrix and its diagonal-minus-rank-k form for a MIMO channel.

    Eigenpairs of H H^T with eigenvalue below 1e-12 contribute nothing
    and are dropped; if all are dropped (zero channel) the Gram matrix
    is the identity and the decomposition is None.  The one eigensolve
    of H H^T decides every invariant, and neither GramMatrix's nor
    DpkDecomposition's checks run again: G = I - W diag(s) W^T, s_i = P
    g_i^2 / (1 + P g_i^2), has eigenvalues 1 - s_i = 1 / (1 + P g_i^2)
    and 1, so min_eigenvalue is 1 - s_max; V = W diag(s)^1/2
    with d = 1 has singular values sqrt(s_i), on which the rank and
    definiteness tests of DpkDecomposition run with the same
    thresholds and messages.  Entries that overflow a float raise
    ValueError as GramMatrix does.  The returned decomposition keeps a
    private reference to the returned G, so solve_dpk does not compare
    the pair again.
    """
    if not isinstance(channel, MimoChannel):
        raise ValueError("expected a MimoChannel")
    h = channel.h_matrix
    power = channel.power
    n, k = channel.n, channel.k
    outer = h @ h.T
    values, vectors = np.linalg.eigh(0.5 * (outer + outer.T))
    # eigh sorts ascending; take the top k pairs, largest first
    gains2 = values[::-1][:k]
    keep = gains2 > EIGENVALUE_FLOOR
    w = vectors[:, ::-1][:, :k][:, keep]
    gains2 = gains2[keep]
    if gains2.size == 0:
        return _built_gram(np.eye(n), 1.0), None
    with np.errstate(over="ignore", invalid="ignore"):
        shrink = power * gains2 / (1.0 + power * gains2)
    # 1 - s_max, not 1 / (1 + P g_max^2): the same value, but rounded as
    # G's own entries are, so a diagonal G keeps min G_jj / lambda_min = 1
    g = _built_gram(np.eye(n) - (w * shrink) @ w.T, float(1.0 - shrink[0]))
    sv = np.sqrt(shrink)
    # V's singular values, largest first: DpkDecomposition's two tests
    if sv[0] == 0.0 or sv[-1] <= RANK_SV_RTOL * sv[0]:
        raise ValueError("V must have full column rank")
    if not sv[0] < 1.0:
        raise ValueError("diag(d) - V V^T is not positive definite")
    dec = _unchecked(DpkDecomposition, d=_freeze(np.ones(n)), v=_freeze(w * sv), _gram=g)
    return g, dec


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
