"""Core types, the quadratic objective, and sign conventions."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
    quad_objective,
    quadratic_form,
    UNIT_CACHE_SIZE,
    _solver_result,
    _tie_key,
    _unit_vector,
)
import cfslv.bench
from cfslv.bench import BenchConfig, run_trial
from cfslv.errors import ConvergenceError
from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
from cfslv.oracle import brute_force_slv
from cfslv.solver_dpk import solve_dpk
from cfslv.solver_single import _solve_single

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


def test_tie_key_orders_by_value_then_norm_then_largest_canonical_a():
    order = [[1, 0, 0], [0, 1, 0], [0, 0, -1], [1, 1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1],
             [0, -1, 1], [1, 1, 1], [2, 0, 0], [0, 2, -1]]
    assert sorted(order[::-1], key=lambda a: _tie_key(2.0, a)) == order
    # a lower value wins before |a|^2 or a are looked at
    assert _tie_key(1.0, [2, 1, 1]) < _tie_key(2.0, [1, 0, 0])


@given(nonzero_int_vectors)
def test_tie_key_is_one_key_for_a_and_minus_a(vec):
    key = _tie_key(1.0, vec)
    assert key == _tie_key(1.0, [-x for x in vec])
    assert key == _tie_key(1.0, canonical_sign(vec).entries.tolist())


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


@pytest.mark.parametrize("raw", [[2**64 - 1, 1], [2**63, 0]])
def test_coefficient_vector_rejects_unsigned_values_outside_int64(raw):
    # the cast alone would wrap these silently to (-1, 1) and (-2**63, 0)
    with pytest.raises(ValueError, match=r"^coefficients must be integers in \[-2\*\*63, 2\*\*63\)$"):
        CoefficientVector(np.array(raw, dtype=np.uint64))


def test_coefficient_vector_accepts_the_largest_unsigned_int64_value():
    a = CoefficientVector(np.array([2**63 - 1, 0], dtype=np.uint64))
    assert a.entries.dtype == np.int64 and a.entries.tolist() == [2**63 - 1, 0]


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


def _unit_value_grams():
    rng = np.random.default_rng(20)
    grams = [build_gram_single(rng.standard_normal(n), power)
             for n in (1, 3, 6) for power in (0.05, 1.0, 40.0)]
    grams.append(build_gram_single([1e150, 1.0, -3e-7], 1e-290))
    grams += [build_gram_mimo(MimoChannel(h_matrix=rng.standard_normal((n, k)), power=power))[0]
              for k in (1, 2, 3) for n in (k, k + 2) for power in (0.1, 3.0)]
    grams.append(GramMatrix(np.array([[5.0, -2.0, 1.0], [-2.0, 6.0, 3.0], [1.0, 3.0, 7.0]])))
    wide = np.full((4, 4), -0.0)
    np.fill_diagonal(wide, [1e-300, 3e-7, 1.0, 2.5e150])
    grams.append(GramMatrix(wide))
    wide[0, 2] = wide[2, 0] = 1e-300
    wide[1, 3] = wide[3, 1] = -2e-310
    grams.append(GramMatrix(wide))
    return grams


def test_unit_vector_value_is_the_diagonal():
    # a unit winner e_j reports G_jj, read from the diagonal, as f_star: every
    # other term of e_j^T G e_j is +-0, so quad_objective gives G_jj bit for bit
    for gram in _unit_value_grams():
        g = gram.entries
        for j in range(gram.n):
            e_j = np.zeros(gram.n, dtype=np.int64)
            e_j[j] = 1
            assert quad_objective(g, e_j).hex() == float(g[j, j]).hex()


def _dpk(h, power):
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array(h), power=power))
    return solve_dpk(gram, dec), gram


def _diagonal_dpk():
    gram = GramMatrix(np.diag([2.0, 1.0, 1.0]))
    return solve_dpk(gram, None), gram


def _oracle(gram, radius):
    return brute_force_slv(gram, radius), gram


# every path that reports a unit vector winner, with the index of the
# winner (the first smallest G_jj, by core._tie_key, on every path) and
# whether the path searched (for the oracle, radius^2 >= 2)
UNIT_WINNER_PATHS = {
    "solve_single skip": (lambda: _solve_single([1.0, 0.5], 0.1)[:2], 0, False),
    # psi^2 = 3.5 here and 3.36 in "solve_dpk found nothing k=2": at or
    # above 3 the search runs, and it keeps the unit vector
    "solve_single found nothing": (lambda: _solve_single([2.0, 1.0, 0.5], 2.0)[:2], 0, True),
    # (1, 0, -1, 0, 0) ties e_0 at f = 7 exactly; the unit vector stays
    "solve_single exact tie": (lambda: _solve_single([3.0, -1.0, -2.0, 1.0, 0.0], 1.0)[:2], 0, True),
    "solve_dpk skip k=1": (lambda: _dpk([[1.0], [0.5]], 0.1), 0, False),
    "solve_dpk skip k=2": (lambda: _dpk([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 0.1), 2, False),
    "solve_dpk dec=None": (_diagonal_dpk, 1, False),
    "solve_dpk found nothing k=1": (lambda: _dpk([[3.0], [1.0]], 2.0), 0, True),
    "solve_dpk found nothing k=2": (lambda: _dpk([[1.0, 0.5], [0.5, 1.0], [0.0, 2.0]], 3.0), 2, True),
    "oracle unit ball": (lambda: _oracle(GramMatrix(np.diag([2.0, 1.0, 1.0])), 1.2), 1, False),
    # radius^2 = 2.5: e_0 - e_1 ties both unit vectors at f = 1 exactly; e_0 wins
    "oracle pair ball": (lambda: _oracle(GramMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])), 2.5**0.5),
                         0, False),
    "oracle unit leaf": (lambda: _oracle(GramMatrix(np.diag([2.0, 1.0, 1.0])), 1.5), 1, True),
    "oracle unit leaf, dense G": (lambda: _oracle(build_gram_single([2.0, 1.0, 0.5], 1.0), 2.0), 0, True),
}


@pytest.mark.parametrize("path", list(UNIT_WINNER_PATHS))
def test_unit_winner_matches_solver_result(path):
    # a unit winner, reported with G_jj from the diagonal, is the result
    # _solver_result gives e_j at quad_objective(G, e_j): the same a_star,
    # f_star bits and counts, and no witness
    run, j, searched = UNIT_WINNER_PATHS[path]
    res, gram = run()
    e_j = np.zeros(gram.n, dtype=np.int64)
    e_j[j] = 1
    ref = _solver_result(e_j, quad_objective(gram.entries, e_j), None, 0.0,
                         res.candidates_evaluated, res.breakpoint_count)
    assert res.a_star.entries.tolist() == ref.a_star.entries.tolist() == e_j.tolist()
    assert res.a_star.entries.dtype == np.int64 and not res.a_star.entries.flags.writeable
    assert res.f_star.hex() == ref.f_star.hex() == float(gram.entries[j, j]).hex()
    assert res.witness_point is None
    if path.startswith("oracle"):
        # the oracle counts the points it scored, as many with or without a search
        assert res.breakpoint_count == 0 and res.candidates_evaluated >= 1
    else:
        assert (res.breakpoint_count > 0) == searched
        assert res.candidates_evaluated >= gram.n
    # the unit a_star is the one cached, immutable vector
    again = run()[0]
    assert again.a_star is res.a_star is _unit_vector(gram.n, j)
    for entries in res.a_star.entries, res.a_star.entries[:], res.a_star.entries.view():
        with pytest.raises(ValueError, match="WRITEABLE"):
            entries.setflags(write=True)


def test_unit_vector_cache_is_bounded_and_checked():
    e = _unit_vector(4, 2)
    assert e.entries.tolist() == [0, 0, 1, 0] and e.entries.dtype == np.int64
    # the entries rest on an immutable buffer, which no view can write through
    assert isinstance(e.entries.base, bytes)
    with pytest.raises(ValueError, match="WRITEABLE"):
        e.entries[1:].setflags(write=True)
    # every cached vector is built through CoefficientVector's checks
    with pytest.raises(ValueError, match="^coefficient vector must be nonzero$"):
        _unit_vector(3, 3)
    with pytest.raises(ValueError, match="^coefficients must form a one-dimensional vector$"):
        _unit_vector(0, 0)
    for n in range(1, 20):
        for j in range(n):
            assert _unit_vector(n, j).entries.tolist() == np.eye(n, dtype=np.int64)[j].tolist()
    info = _unit_vector.cache_info()
    assert info.maxsize == UNIT_CACHE_SIZE
    assert info.currsize == UNIT_CACHE_SIZE < 19 * 20 // 2


# solves whose winner is not a unit vector
SEARCH_WINNER_PATHS = {
    "solve_single": lambda: _solve_single([1.0, 1.0], 2.0)[0],
    "solve_dpk k=1": lambda: _dpk([[1.0], [1.0]], 2.0)[0],
    "solve_dpk k=2": lambda: _dpk([[1.0, 0.5], [1.0, 0.5], [0.5, 1.0]], 3.0)[0],
}


@pytest.mark.parametrize("path", list(SEARCH_WINNER_PATHS))
def test_search_winner_owns_its_a_star(path):
    # a search's pick goes through CoefficientVector and canonical_sign
    # into an array of its result's own
    res, again = SEARCH_WINNER_PATHS[path](), SEARCH_WINNER_PATHS[path]()
    assert np.count_nonzero(res.a_star.entries) > 1
    assert res.a_star.entries.tolist() == again.a_star.entries.tolist()
    assert again.a_star is not res.a_star
    assert not np.shares_memory(again.a_star.entries, res.a_star.entries)


def test_threads_report_equal_immutable_unit_vectors(monkeypatch):
    # run_trial in several threads at once: every solve and oracle call
    # reports the a_star of a serial run, and a unit a_star stays immutable
    seen = {}

    def recording(fn, pick):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.setdefault(threading.get_ident(), []).append(pick(out).a_star)
            return out
        return wrapper

    monkeypatch.setattr(cfslv.bench, "_solve_channel",
                        recording(cfslv.bench._solve_channel, lambda out: out[0]))
    monkeypatch.setattr(cfslv.bench, "brute_force_slv",
                        recording(cfslv.bench.brute_force_slv, lambda out: out))
    configs = [BenchConfig(mode="single", trials=40, n_range=(2, 6), power_range=(0.1, 10.0),
                           seed=7, oracle=True),
               BenchConfig(mode="mimo", trials=40, n_range=(2, 6), power_range=(0.1, 1.0),
                           seed=7, oracle=True)]

    def run_all():
        for config in configs:
            for i in range(config.trials):
                run_trial(config, i)
        return seen[threading.get_ident()]

    start = threading.Barrier(4)

    def run_together(_):
        start.wait(timeout=60)
        return run_all()

    # switch threads often, so that trials of different threads interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(run_together, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    serial = [a.entries.tolist() for a in run_all()]
    units = 0
    for run in runs:
        assert [a.entries.tolist() for a in run] == serial
        for a in run:
            if np.count_nonzero(a.entries) == 1:
                units += 1
                with pytest.raises(ValueError, match="WRITEABLE"):
                    a.entries.setflags(write=True)
    assert units >= 4 * len(serial) // 2


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)
