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
    ChannelVector,
    DpkDecomposition,
    GramMatrix,
    as_channel_vector,
    as_gram_matrix,
    _freeze,
)

DPK_RESIDUAL_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-12


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
    """G = (1 + P|h|^2) I - P h h^T for a single receive antenna."""
    h = as_channel_vector(h)
    power = _check_power(power)
    hv = h.entries
    scale = 1.0 + power * float(hv @ hv)
    g = scale * np.eye(h.n) - power * np.outer(hv, hv)
    return GramMatrix(g)


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
    is the identity and the decomposition is None.
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
        return GramMatrix(np.eye(n)), None
    shrink = power * gains2 / (1.0 + power * gains2)
    g = np.eye(n) - (w * shrink) @ w.T
    v = w * np.sqrt(shrink)
    return GramMatrix(g), DpkDecomposition(d=np.ones(n), v=v)


def validate_dpk(g, dec: DpkDecomposition, tol: float = DPK_RESIDUAL_TOL) -> bool:
    """Check that diag(d) - V V^T reproduces G entrywise within tol.

    The tolerance is relative to max(1, largest |G| entry).  Returns
    False on a residual failure; shape mismatches raise.
    """
    g = as_gram_matrix(g)
    if not isinstance(dec, DpkDecomposition):
        raise ValueError("expected a DpkDecomposition")
    if dec.n != g.n:
        raise ValueError(f"dimension mismatch: matrix is {g.n}, decomposition is {dec.n}")
    if not (tol > 0.0):
        raise ValueError("tolerance must be positive")
    recon = np.diag(dec.d) - dec.v @ dec.v.T
    scale = max(1.0, float(np.max(np.abs(g.entries))))
    resid = float(np.max(np.abs(recon - g.entries)))
    return resid <= tol * scale


def search_radius_psi(g) -> float:
    """Norm bound sqrt(min diag(G) / lambda_min(G)) on any optimum.

    Any a with |a| above this value satisfies f(a) >= lambda_min |a|^2 >
    min_j G_jj = f(e_j), so it cannot beat the best unit vector.  Raises
    if the smallest eigenvalue is at or below 1e-12 (numerically
    singular).
    """
    g = as_gram_matrix(g)
    lam_min = g.min_eigenvalue
    if lam_min <= EIGENVALUE_FLOOR:
        raise ValueError(f"Gram matrix is numerically singular (lambda_min = {lam_min:.3e})")
    return float(math.sqrt(float(np.min(np.diag(g.entries))) / lam_min))
