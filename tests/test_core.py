"""Core types, the quadratic objective, and sign conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfslv.core import (
    ChannelVector,
    CoefficientVector,
    DpkDecomposition,
    GramMatrix,
    SolverResult,
    canonical_sign,
    quadratic_form,
)
from cfslv.errors import ConvergenceError

nonzero_int_vectors = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=1, max_size=8
).filter(lambda v: any(v))


def test_quadratic_form_diagonal():
    assert quadratic_form(GramMatrix(np.diag([1.0, 4.0])), [0, 1]) == 4.0


def test_quadratic_form_hand_expansion():
    g = GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]]))
    assert quadratic_form(g, [1, 1]) == 2.0


def test_quadratic_form_identity():
    assert quadratic_form(GramMatrix(np.eye(3)), [1, -1, 1]) == 3.0


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(ValueError):
        quadratic_form(GramMatrix(np.eye(2)), [1, 0, 0])


def test_canonical_sign_flips():
    assert canonical_sign([-1, 2]).entries.tolist() == [1, -2]


def test_canonical_sign_keeps_canonical():
    assert canonical_sign([0, 3, -1]).entries.tolist() == [0, 3, -1]


def test_canonical_sign_skips_leading_zeros():
    assert canonical_sign([0, -1, 0]).entries.tolist() == [0, 1, 0]


@given(nonzero_int_vectors)
def test_canonical_sign_idempotent(vec):
    once = canonical_sign(vec)
    twice = canonical_sign(once)
    assert np.array_equal(once.entries, twice.entries)
    assert once.entries[np.flatnonzero(once.entries)[0]] > 0


@settings(max_examples=60)
@given(nonzero_int_vectors, st.integers(0, 2**31 - 1))
def test_objective_sign_symmetric_and_positive(vec, seed):
    n = len(vec)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    g = GramMatrix(m @ m.T + np.eye(n))
    a = CoefficientVector(np.array(vec))
    neg = CoefficientVector(-a.entries)
    forward = quadratic_form(g, a)
    assert forward > 0.0
    assert forward == quadratic_form(g, neg)


def test_gram_matrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        GramMatrix(np.array([[1.0, 0.5], [0.49, 1.0]]))


def test_gram_matrix_rejects_indefinite():
    with pytest.raises(ValueError):
        GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        GramMatrix(np.zeros((2, 2)))


def test_gram_matrix_symmetrizes_roundoff():
    eps = 1e-14
    g = GramMatrix(np.array([[1.0, 0.5 + eps], [0.5 - eps, 1.0]]))
    assert g.entries[0, 1] == g.entries[1, 0]


def test_gram_matrix_entries_read_only():
    g = GramMatrix(np.eye(2))
    with pytest.raises(ValueError):
        g.entries[0, 0] = 5.0


def test_coefficient_vector_rejects_zero():
    with pytest.raises(ValueError):
        CoefficientVector([0, 0, 0])


def test_coefficient_vector_rejects_fractions():
    with pytest.raises(ValueError):
        CoefficientVector(np.array([1.5, 2.0]))


def test_coefficient_vector_accepts_integral_floats():
    assert CoefficientVector(np.array([1.0, -2.0])).entries.tolist() == [1, -2]


@pytest.mark.parametrize("raw, expected", [
    (np.array([True, False, True]), [1, 0, 1]),
    (np.array([3, 0, 255], dtype=np.uint8), [3, 0, 255]),
    (np.array([-128, 0, 127], dtype=np.int8), [-128, 0, 127]),
    (np.array([2, -5, 0], dtype=object), [2, -5, 0]),
    (np.array([4.0, -0.0, -3.0]), [4, 0, -3]),
    (np.array([-2.0**63, 1.0]), [-2**63, 1]),
])
def test_coefficient_vector_accepts_integer_valued_input(raw, expected):
    a = CoefficientVector(raw)
    assert a.entries.dtype == np.int64 and a.entries.tolist() == expected
    assert not a.entries.flags.writeable


@pytest.mark.parametrize("raw", [[1.5, 0], np.array([[1, 0], [0, 1]])])
def test_coefficient_vector_rejects_fractional_or_matrix_input(raw):
    with pytest.raises(ValueError):
        CoefficientVector(raw)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300, 2.0**63, -2.0**63 - 2048])
def test_coefficient_vector_rejects_values_outside_int64_before_the_cast(value):
    # the cast alone would warn and wrap (filterwarnings turns a warning
    # into a failure here)
    with pytest.raises(ValueError, match="integers in"):
        CoefficientVector([value, 1.0])


def test_canonical_sign_of_negative_leading_vector_is_read_only_int64():
    a = canonical_sign(np.array([0, -2, 1], dtype=np.int8))
    assert a.entries.dtype == np.int64 and a.entries.tolist() == [0, 2, -1]
    assert not a.entries.flags.writeable
    with pytest.raises(ValueError):
        a.entries[0] = 1


def test_channel_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        ChannelVector(np.array([1.0, np.inf]))


def test_channel_vector_rejects_empty_and_matrix():
    with pytest.raises(ValueError):
        ChannelVector(np.array([]))
    with pytest.raises(ValueError):
        ChannelVector(np.eye(2))


def test_dpk_decomposition_validation():
    with pytest.raises(ValueError):  # nonpositive diagonal
        DpkDecomposition(d=np.array([0.0, 1.0]), v=np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):  # rank-deficient V
        DpkDecomposition(d=np.array([5.0, 5.0]), v=np.zeros((2, 1)))
    with pytest.raises(ValueError):  # difference not positive definite
        DpkDecomposition(d=np.array([1.0, 1.0]), v=np.array([[1.0], [1.0]]))
    dec = DpkDecomposition(d=np.array([5.0, 5.0]), v=np.full((2, 1), np.sqrt(2.0)))
    assert dec.n == 2 and dec.k == 1


def test_dpk_decomposition_rejects_marginally_indefinite():
    # diag(d) - V V^T has smallest eigenvalue -2e-6 (rank 1) and -1e-6
    # (rank 2): just below zero, but still rejected
    with pytest.raises(ValueError, match="positive definite"):
        DpkDecomposition(d=np.array([2.0, 2.0]), v=np.full((2, 1), np.sqrt(1.0 + 1e-6)))
    with pytest.raises(ValueError, match="positive definite"):
        DpkDecomposition(d=np.ones(3),
                         v=np.array([[np.sqrt(1.0 + 1e-6), 0.0], [0.0, 0.5], [0.0, 0.0]]))


def test_dpk_decomposition_definiteness_with_spread_diagonal():
    # W = diag(d)^-1/2 V has largest singular value sigma; diag(d) - V V^T
    # is positive definite exactly when sigma < 1, whatever the spread of d
    d = np.logspace(-3.0, 3.0, 5)
    u, _, wt = np.linalg.svd(np.random.default_rng(5).standard_normal((5, 2)),
                             full_matrices=False)
    for sigma in (1.0 - 1e-6, 1.0 + 1e-6):
        v = np.sqrt(d)[:, None] * (u * [sigma, 0.3]) @ wt
        if sigma < 1.0:
            assert DpkDecomposition(d=d, v=v).k == 2
        else:
            with pytest.raises(ValueError, match="positive definite"):
                DpkDecomposition(d=d, v=v)


def test_solver_result_validation():
    a = CoefficientVector([1, 0])
    with pytest.raises(ValueError):
        SolverResult(a_star=a, f_star=0.0, candidates_evaluated=1,
                     breakpoint_count=0, elapsed_seconds=0.0)
    with pytest.raises(ValueError):
        SolverResult(a_star=a, f_star=1.0, candidates_evaluated=0,
                     breakpoint_count=0, elapsed_seconds=0.0)


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)
