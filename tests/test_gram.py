"""Gram construction, decompositions, and the search-radius bound."""

import numpy as np
import pytest

from cfslv.core import DpkDecomposition, GramMatrix
from cfslv.gram import (
    MimoChannel,
    build_gram_mimo,
    build_gram_single,
    dpk_from_single,
    search_radius_psi,
    validate_dpk,
)
from cfslv.oracle import certification_radius


def test_single_axis_channel():
    g = build_gram_single([1.0, 0.0], 3.0)
    assert g.entries.tolist() == [[1.0, 0.0], [0.0, 4.0]]


def test_single_hand_computed():
    g = build_gram_single([1.0, 1.0], 2.0)
    assert g.entries.tolist() == [[3.0, -2.0], [-2.0, 3.0]]


def test_single_zero_channel_gives_identity():
    g = build_gram_single([0.0, 0.0, 0.0], 5.0)
    assert np.array_equal(g.entries, np.eye(3))


def test_single_rejects_bad_power():
    for power in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            build_gram_single([1.0], power)


def test_single_min_eigenvalue_is_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.05, 50.0))
        g = build_gram_single(h, power)
        lam_min = np.linalg.eigvalsh(g.entries)[0]
        assert abs(lam_min - 1.0) <= 1e-9


def test_dpk_from_single_values():
    dec = dpk_from_single([1.0, 1.0], 2.0)
    assert dec.d.tolist() == [5.0, 5.0]
    assert np.allclose(dec.v, np.full((2, 1), np.sqrt(2.0)))


def test_dpk_from_single_axis():
    dec = dpk_from_single([1.0, 0.0], 3.0)
    assert dec.d.tolist() == [4.0, 4.0]
    assert np.allclose(dec.v[:, 0], [np.sqrt(3.0), 0.0])


def test_dpk_from_single_rejects_zero_channel():
    with pytest.raises(ValueError):
        dpk_from_single([0.0, 0.0], 1.0)


def test_dpk_reproduces_gram():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        h = rng.standard_normal(n)
        if not h.any():
            continue
        power = float(rng.uniform(0.05, 20.0))
        assert validate_dpk(build_gram_single(h, power), dpk_from_single(h, power), 1e-9)


def test_validate_dpk_frozen_examples():
    g = GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]]))
    dec = DpkDecomposition(d=np.array([5.0, 5.0]), v=np.full((2, 1), np.sqrt(2.0)))
    assert validate_dpk(g, dec, 1e-9)

    near = DpkDecomposition(d=np.array([1.0, 1.0]), v=np.full((2, 1), 0.1))
    assert not validate_dpk(GramMatrix(np.eye(2)), near, 1e-9)

    g2 = GramMatrix(np.array([[1.0, 0.0], [0.0, 4.0]]))
    dec2 = DpkDecomposition(d=np.array([4.0, 4.0]), v=np.array([[np.sqrt(3.0)], [0.0]]))
    assert validate_dpk(g2, dec2, 1e-9)


def test_validate_dpk_rejects_shape_mismatch():
    g = GramMatrix(np.eye(3))
    dec = DpkDecomposition(d=np.array([5.0, 5.0]), v=np.full((2, 1), np.sqrt(2.0)))
    with pytest.raises(ValueError):
        validate_dpk(g, dec, 1e-9)


def test_mimo_rank_one_channel():
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array([[1.0], [1.0]]), power=2.0))
    assert np.allclose(gram.entries, [[0.6, -0.4], [-0.4, 0.6]], atol=1e-12)
    assert dec is not None and dec.k == 1
    assert validate_dpk(gram, dec, 1e-9)


def test_mimo_zero_channel_is_identity_with_no_decomposition():
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.zeros((2, 1)), power=4.0))
    assert np.array_equal(gram.entries, np.eye(2))
    assert dec is None


def test_mimo_axis_channel():
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array([[1.0], [0.0]]), power=3.0))
    assert np.allclose(gram.entries, np.diag([0.25, 1.0]), atol=1e-12)
    assert dec is not None


def test_mimo_rank_deficient_columns_shrink_k():
    # two identical receive antennas carry rank-one information
    h = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=2.0))
    assert dec is not None and dec.k == 1
    assert validate_dpk(gram, dec, 1e-9)


def test_mimo_self_consistency_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        channel = MimoChannel(h_matrix=rng.standard_normal((n, k)),
                              power=float(rng.uniform(0.05, 10.0)))
        gram, dec = build_gram_mimo(channel)
        assert dec is not None
        assert validate_dpk(gram, dec, 1e-9)
        lam = np.linalg.eigvalsh(gram.entries)
        assert lam[-1] <= 1.0 + 1e-12 and lam[0] > 0.0


def test_mimo_channel_validation():
    with pytest.raises(ValueError):
        MimoChannel(h_matrix=np.ones((2, 3)), power=1.0)  # k > n
    with pytest.raises(ValueError):
        MimoChannel(h_matrix=np.ones((2, 1)), power=0.0)
    with pytest.raises(ValueError):
        MimoChannel(h_matrix=np.array([[np.nan], [1.0]]), power=1.0)


def test_search_radius_identity():
    assert search_radius_psi(GramMatrix(np.eye(3))) == 1.0


def test_near_singular_gram_is_accepted_but_has_no_radius():
    # positive definite, so construction succeeds, but below the 1e-12
    # floor both search radii refuse to divide by lambda_min
    g = GramMatrix(np.diag([1.0, 1e-13]))
    assert g.min_eigenvalue == 1e-13
    with pytest.raises(ValueError, match="singular"):
        search_radius_psi(g)
    with pytest.raises(ValueError, match="singular"):
        certification_radius(g, 1.0)


def test_min_eigenvalue_matches_lapack_at_large_scale():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    spectrum = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 5.0]) * 1e8
    g = GramMatrix((q * spectrum) @ q.T)
    assert np.max(np.abs(g.entries)) > 1e8
    ref = float(np.linalg.eigvalsh(g.entries)[0])
    assert abs(g.min_eigenvalue - ref) <= 1e-9 * ref
    assert abs(g.min_eigenvalue - 1e8) <= 1e-9 * 1e8


def test_search_radius_mimo_example():
    g = GramMatrix(np.array([[0.6, -0.4], [-0.4, 0.6]]))
    assert abs(search_radius_psi(g) - np.sqrt(3.0)) <= 1e-12


def test_search_radius_single_example():
    g = GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]]))
    assert abs(search_radius_psi(g) - np.sqrt(3.0)) <= 1e-12


def test_search_radius_dominated_by_eq3_bound():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.05, 30.0))
        g = build_gram_single(h, power)
        psi = search_radius_psi(g)
        assert psi <= np.sqrt(1.0 + power * float(h @ h)) + 1e-9
