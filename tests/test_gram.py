"""Gram construction, decompositions, and the search-radius bound."""

import math
import re
import warnings

import numpy as np
import pytest

from cfslv import gram as gram_module
from cfslv.core import DpkDecomposition, GramMatrix
from cfslv.gram import (
    EIGENVALUE_FLOOR,
    ONES_CACHE_SIZE,
    MimoChannel,
    _ones,
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
        assert g.min_eigenvalue == 1.0
        assert np.array_equal(GramMatrix(g.entries).entries, g.entries)


def test_single_overflow_is_rejected():
    # the message solve_single, dpk_from_single and the rates give
    with pytest.raises(ValueError, match=r"^1 \+ P\|h\|\^2 overflows a float"):
        build_gram_single([1e200, 1.0], 1.0)


@pytest.mark.parametrize("h, power, lam_min", [
    ([1.0, 2.0, 3.0], 1e15, "-1.250e-01"),
    ([1e8, 3e7, 1.0], 1.0, "-7.500e-01"),
])
def test_single_rounded_indefinite_is_rejected(h, power, lam_min):
    # n eps (1 + P|h|^2) exceeds 1: rounding G's entries loses the eigenvalue 1
    message = f"Gram matrix is not positive definite (smallest eigenvalue {lam_min})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_gram_single(h, power)


def test_dpk_from_single_values():
    dec = dpk_from_single([1.0, 1.0], 2.0)
    assert dec.d.tolist() == [5.0, 5.0]
    assert np.allclose(dec.v, np.full((2, 1), np.sqrt(2.0)))


def test_dpk_from_single_overflow_is_rejected():
    with pytest.raises(ValueError, match=r"^1 \+ P\|h\|\^2 overflows a float"):
        dpk_from_single([1e200, 1.0], 1.0)


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
        assert validate_dpk(build_gram_single(h, power), dpk_from_single(h, power))


def test_validate_dpk_frozen_examples():
    g = GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]]))
    dec = DpkDecomposition(d=np.array([5.0, 5.0]), v=np.full((2, 1), np.sqrt(2.0)))
    assert validate_dpk(g, dec)

    near = DpkDecomposition(d=np.array([1.0, 1.0]), v=np.full((2, 1), 0.1))
    assert not validate_dpk(GramMatrix(np.eye(2)), near)

    g2 = GramMatrix(np.array([[1.0, 0.0], [0.0, 4.0]]))
    dec2 = DpkDecomposition(d=np.array([4.0, 4.0]), v=np.array([[np.sqrt(3.0)], [0.0]]))
    assert validate_dpk(g2, dec2)


def test_validate_dpk_rejects_shape_mismatch():
    g = GramMatrix(np.eye(3))
    dec = DpkDecomposition(d=np.array([5.0, 5.0]), v=np.full((2, 1), np.sqrt(2.0)))
    with pytest.raises(ValueError):
        validate_dpk(g, dec)


def test_mimo_rank_one_channel():
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array([[1.0], [1.0]]), power=2.0))
    assert np.allclose(gram.entries, [[0.6, -0.4], [-0.4, 0.6]], atol=1e-12)
    assert dec is not None and dec.k == 1
    assert validate_dpk(gram, dec)


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
    assert validate_dpk(gram, dec)


def test_mimo_self_consistency_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        channel = MimoChannel(h_matrix=rng.standard_normal((n, k)),
                              power=float(rng.uniform(0.05, 10.0)))
        gram, dec = build_gram_mimo(channel)
        assert dec is not None
        assert validate_dpk(gram, dec)
        lam = np.linalg.eigvalsh(gram.entries)
        assert lam[-1] <= 1.0 + 1e-12 and lam[0] > 0.0


def _public_build(channel):
    """build_gram_mimo through the public constructors, the reference
    for its own checks: the same eigenpairs of H H^T, then GramMatrix
    and DpkDecomposition.  Returns (G, dec) or the ValueError message."""
    h, power, k = channel.h_matrix, channel.power, channel.k
    outer = h @ h.T
    values, vectors = np.linalg.eigh(0.5 * (outer + outer.T))
    gains2 = values[::-1][:k]
    keep = gains2 > EIGENVALUE_FLOOR
    w = vectors[:, ::-1][:, :k][:, keep]
    gains2 = gains2[keep]
    try:
        if gains2.size == 0:
            return GramMatrix(np.eye(channel.n)), None
        shrink = power * gains2 / (1.0 + power * gains2)
        g = GramMatrix(np.eye(channel.n) - (w * shrink) @ w.T)
        return g, DpkDecomposition(d=np.ones(channel.n), v=w * np.sqrt(shrink))
    except ValueError as exc:
        return str(exc)


# the largest float whose square stays below 2**1023, and the next one
BELOW_OVERFLOW = 9.480751908109176e153
ABOVE_OVERFLOW = 9.480751908109177e153


def _agreement_channels():
    rng = np.random.default_rng(41)
    for kind in ("gaussian", "rank-deficient", "zero-column", "wide-range", "high-power",
                 "integer", "half-integer", "k=3"):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, min(n, 3) + 1))
            h = rng.standard_normal((n, k))
            power = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
            if kind == "rank-deficient":
                h = rng.standard_normal((n, 1)) @ rng.standard_normal((1, k))
            elif kind == "zero-column":
                h[:, rng.integers(k)] = 0.0
            elif kind == "wide-range":
                h *= 10.0 ** rng.uniform(-6.0, 6.0, (n, k))
                power = float(10.0 ** rng.uniform(-10.0, 2.0))
            elif kind == "high-power":
                power = float(10.0 ** rng.uniform(2.0, 9.0))
            elif kind == "integer":
                h = rng.integers(-2, 3, (n, k)).astype(float)
            elif kind == "half-integer":
                h = rng.integers(-4, 5, (n, k)) / 2.0
            elif kind == "k=3":
                n = int(rng.integers(3, 9))
                h = rng.standard_normal((n, 3))
            yield MimoChannel(h_matrix=h, power=power)
    # V's singular values 0.995 and 3.2e-11: rank deficient by the 1e-10 ratio test
    yield MimoChannel(h_matrix=np.array([[1e6, 0.0], [0.0, 3.2e-6], [0.0, 0.0]]), power=1e-10)
    # H H^T on either side of 2**1023, where the symmetrized sum overflows
    for gain in (BELOW_OVERFLOW, ABOVE_OVERFLOW, 1.1e154):
        for power in (1e-300, 1.0):
            if not (gain == BELOW_OVERFLOW and power == 1.0):  # G rounds to singular there
                yield MimoChannel(h_matrix=np.array([[gain], [1.0]]), power=power)


def _symmetrized_overflows(channel):
    """True when 0.5 (H H^T + (H H^T)^T), the matrix _public_build
    eigensolves, or an eigenvalue of it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        outer = channel.h_matrix @ channel.h_matrix.T
        sym = 0.5 * (outer + outer.T)
    return not (np.isfinite(sym).all() and np.isfinite(np.linalg.eigvalsh(sym)).all())


def test_built_pair_agrees_with_the_public_checks():
    outcomes = {"accepted": 0, "rejected": 0}
    for channel in _agreement_channels():
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow channels
            reference = _public_build(channel)
        try:
            g, dec = build_gram_mimo(channel)
        except ValueError as exc:
            if str(exc).startswith("H H^T overflows"):
                assert _symmetrized_overflows(channel)
            else:
                assert str(exc) == reference
            outcomes["rejected"] += 1
            continue
        assert not _symmetrized_overflows(channel)
        outcomes["accepted"] += 1
        ref_g, ref_dec = reference
        assert np.array_equal(GramMatrix(g.entries).entries, g.entries)
        assert g.entries.tobytes() == ref_g.entries.tobytes()
        if dec is None:
            assert ref_dec is None and g.min_eigenvalue == 1.0
            continue
        public = DpkDecomposition(d=dec.d, v=dec.v)
        for ours, theirs in ((dec.d, public.d), (dec.v, public.v), (dec.v, ref_dec.v)):
            assert ours.tobytes() == theirs.tobytes()
        assert validate_dpk(g, dec)
        # min_eigenvalue and LAPACK's value both lie within a few n eps
        # max(1, |G|) of the smallest eigenvalue of the G built: it is formed
        # as I - W S W^T, so its rounding is relative to |I| = 1 even when G
        # itself is small
        tol = 10 * g.n * np.finfo(float).eps * max(1.0, np.linalg.norm(g.entries))
        assert abs(g.min_eigenvalue - np.linalg.eigvalsh(g.entries)[0]) <= tol
    assert outcomes["rejected"] >= 5 and outcomes["accepted"] >= 250


def _eye_minus_reference(channel):
    """build_gram_mimo's (G, V) formed as np.eye(n) - (w * s) @ w.T, the
    identity subtracted from, from the same eigenpairs and shrink factors;
    None for the zero channel."""
    h, power, k = channel.h_matrix, channel.power, channel.k
    values, vectors = np.linalg.eigh(h @ h.T)
    gains2 = [x for x in values.tolist()[::-1][:k] if x > EIGENVALUE_FLOOR]
    if not gains2:
        return None
    shrink = [power * x / (1.0 + power * x) for x in gains2]
    w = vectors[:, ::-1][:, :len(gains2)].copy(order="F")
    g = np.eye(channel.n) - (w * shrink) @ w.T
    g = 0.5 * (g + g.T)
    return g, w * [math.sqrt(x) for x in shrink]


def _sizing_channels(rng, count):
    """Gaussian, integer, half-integer and zero-row channels, n 1-8,
    k 1-n, P log-uniform in e^-5..e^12."""
    for i in range(count):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        kind = i % 4
        if kind == 1:
            h = rng.integers(-2, 3, (n, k)).astype(float)
        elif kind == 2:
            h = rng.integers(-3, 4, (n, k)) / 2.0
        else:
            h = rng.standard_normal((n, k))
            if kind == 3:
                h[rng.integers(n)] = 0.0
        yield MimoChannel(h_matrix=h, power=float(np.exp(rng.uniform(-5.0, 12.0))))


def test_gram_formed_in_place_has_the_bits_of_eye_minus():
    built = 0
    for channel in _sizing_channels(np.random.default_rng(30), 2000):
        try:
            g, dec = build_gram_mimo(channel)
        except ValueError:
            continue  # G rounds to singular at the high powers
        reference = _eye_minus_reference(channel)
        if reference is None:
            assert dec is None and np.array_equal(g.entries, np.eye(channel.n))
            continue
        ref_g, ref_v = reference
        assert g.entries.tobytes() == ref_g.tobytes()
        assert dec.v.tobytes() == ref_v.tobytes()
        # 0 - x keeps +0 where eye - x does: no entry is -0
        assert not np.signbit(g.entries[g.entries == 0.0]).any()
        built += 1
    assert built >= 1500


def test_decompositions_of_one_n_share_one_immutable_d():
    rng = np.random.default_rng(31)
    _, dec = build_gram_mimo(MimoChannel(h_matrix=rng.standard_normal((5, 2)), power=0.7))
    _, other = build_gram_mimo(MimoChannel(h_matrix=rng.integers(-2, 3, (5, 1)) + 0.5, power=3.0))
    assert dec.d is other.d
    assert dec.d.tolist() == [1.0] * 5 and dec.d.dtype == np.float64
    # the entries rest on an immutable buffer, which no view can write through
    assert isinstance(dec.d.base, bytes)
    for d in dec.d, dec.d[1:], dec.d.view():
        with pytest.raises(ValueError, match="WRITEABLE"):
            d.setflags(write=True)
    _, small = build_gram_mimo(MimoChannel(h_matrix=rng.standard_normal((3, 2)), power=0.7))
    assert small.d is not dec.d and small.d.tolist() == [1.0] * 3
    assert _ones.cache_info().maxsize == ONES_CACHE_SIZE


def test_rank_deficient_decomposition_message():
    channel = MimoChannel(h_matrix=np.array([[1e6, 0.0], [0.0, 3.2e-6], [0.0, 0.0]]), power=1e-10)
    with pytest.raises(ValueError, match="^V must have full column rank$"):
        build_gram_mimo(channel)


# P g_max^2 = 3 P for this channel; LAPACK puts G's smallest eigenvalue
# at -8e-18 for P >= 1e16, where P g^2 / (1 + P g^2) rounds to 1
EXTREME_H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("power, message", [
    (1e15, "Gram matrix is numerically singular"),
    (1e17, "diag(d) - V V^T is not positive definite"),
])
def test_extreme_power_still_fails(power, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        gram, _ = build_gram_mimo(MimoChannel(h_matrix=EXTREME_H, power=power))
        search_radius_psi(gram)


@pytest.mark.parametrize("h, power", [
    pytest.param([[1e200], [1e200]], 1.0, id="1e+200"),
    pytest.param([[1e154], [1e154]], 1.0, id="1e+154"),
    # an infinite H H^T is rejected before LAPACK, which may not converge on it
    pytest.param([[1e200], [1e200], [1e200]], 1.0, id="1e+200-n3"),
    pytest.param([[1.1e154], [1.0]], 1e-300, id="1.1e+154-P1e-300"),
    pytest.param([[1.1e154], [1.0]], 1.0, id="1.1e+154-P1"),
    pytest.param([[ABOVE_OVERFLOW], [0.0]], 1e-300, id="2**1023-P1e-300"),
    # every entry below 2**1022, but the top eigenvalue 6 * 2**1021.9 is inf
    pytest.param([[2.0**510.95]] * 6, 1.0, id="eigenvalue-inf-n6"),
])
def test_mimo_overflow_is_rejected(h, power):
    # H H^T overflows at 1e200; from 2**1023 on, H H^T + (H H^T)^T does,
    # even where P g^2 and G would be finite; NaN eigenvalues must not be
    # dropped as zero gains
    with pytest.raises(ValueError, match=r"^H H\^T overflows a float"):
        build_gram_mimo(MimoChannel(h_matrix=np.array(h), power=power))


def _eigh_as_built(outer):
    """The eigensolve build_gram_mimo runs on H H^T: the LAPACK gufunc
    np.linalg.eigh wraps, called directly."""
    return gram_module._eigh_lower(outer, signature="d->dd")


def test_eigensolve_has_the_bits_of_numpy_eigh():
    # build_gram_mimo calls the gufunc that np.linalg.eigh runs; a numpy
    # whose eigh stops running it, or runs it differently, fails here
    rng = np.random.default_rng(58)
    for channel in _sizing_channels(rng, 2000):
        h = channel.h_matrix
        outer = h @ h.T
        values, vectors = _eigh_as_built(outer)
        ref_values, ref_vectors = np.linalg.eigh(outer)
        assert values.tobytes() == ref_values.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()


def test_hht_is_exactly_symmetric_and_eigh_reads_one_triangle():
    # build_gram_mimo eigensolves h @ h.T unsymmetrized: numpy must form it
    # with syrk, exactly symmetric, and the eigensolve build_gram_mimo
    # makes, like np.linalg.eigh, must read only its lower triangle
    rng = np.random.default_rng(57)
    for kind in ("gaussian", "integer", "wide-range"):
        for _ in range(700):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, min(n, 3) + 1))
            if kind == "gaussian":
                h = rng.standard_normal((n, k))
            elif kind == "integer":
                h = rng.integers(-2, 3, (n, k)).astype(float)
            else:
                h = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, k))
            h = MimoChannel(h_matrix=h, power=1.0).h_matrix
            outer = h @ h.T
            assert np.array_equal(outer, outer.T)
            values, vectors = _eigh_as_built(outer)
            for other_values, other_vectors in (_eigh_as_built(np.tril(outer)),
                                                np.linalg.eigh(outer)):
                assert values.tobytes() == other_values.tobytes()
                assert vectors.tobytes() == other_vectors.tobytes()


def _failed_eigh(calls):
    """A stand-in for the eigensolve that returns what the gufunc returns
    when LAPACK reports failure: NaN in both outputs, with the invalid flag
    raised.  Appends each matrix it is called on to calls."""
    def eigh(outer, signature):
        calls.append(outer)
        n = outer.shape[0]
        nan = np.sqrt(np.full(n + n * n, -1.0))  # NaN, and raises invalid
        return nan[:n], nan[n:].reshape(n, n)
    return eigh


def test_lapack_failure_raises_linalgerror(monkeypatch):
    calls = []
    monkeypatch.setattr(gram_module, "_eigh_lower", _failed_eigh(calls))
    for h in ([[1.0], [2.0]], [[0.5, -1.0], [2.0, 0.0], [1.0, 1.0]]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                build_gram_mimo(MimoChannel(h_matrix=np.array(h), power=1.0))
        # the invalid flag stays inside build_gram_mimo's errstate
        assert caught == []
    assert len(calls) == 2
    # a LinAlgError is a ValueError, as np.linalg.eigh's is
    assert issubclass(np.linalg.LinAlgError, ValueError)
    # channels whose H H^T overflows are still refused before the eigensolve
    for gain in (ABOVE_OVERFLOW, 1.1e154):
        for power in (1e-300, 1.0):
            with pytest.raises(ValueError, match=r"^H H\^T overflows a float; scale the channel down$"):
                build_gram_mimo(MimoChannel(h_matrix=np.array([[gain], [1.0]]), power=power))
    assert len(calls) == 2


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
