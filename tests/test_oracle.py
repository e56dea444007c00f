"""Brute-force oracle checks against frozen values and a naive enumerator."""

import numpy as np
import pytest

import cfslv.oracle
from cfslv.core import GramMatrix, quad_objective
from cfslv.errors import ResourceBudgetError
from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
from cfslv.oracle import (
    DEFAULT_ORACLE_BUDGET,
    _ellipsoid_search,
    ball_point_estimate,
    brute_force_slv,
    certification_radius,
)
from cfslv.solver_single import _solve_single


def test_identity_gram():
    res = brute_force_slv(GramMatrix(np.eye(3)), 1.5)
    assert res.f_star == 1.0
    assert np.abs(res.a_star.entries).sum() == 1


def test_hand_computed_instance():
    g = GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]]))
    res = brute_force_slv(g, np.sqrt(5.0))
    assert res.f_star == 2.0
    assert res.a_star.entries.tolist() == [1, 1]


def test_mimo_instance():
    g = GramMatrix(np.array([[0.6, -0.4], [-0.4, 0.6]]))
    res = brute_force_slv(g, np.sqrt(3.0))
    assert abs(res.f_star - 0.4) <= 1e-15
    assert np.abs(res.a_star.entries).tolist() == [1, 1]


def test_objective_never_exceeds_min_diagonal():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = rng.standard_normal((n, n))
        g = GramMatrix(m @ m.T + np.eye(n))
        res = brute_force_slv(g, 1.0 + float(rng.uniform(0.0, 2.0)))
        assert res.f_star <= float(np.min(np.diag(g.entries))) + 1e-12


def test_matches_naive_ball_enumeration(box_minimum):
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = rng.standard_normal((n, n))
        g = GramMatrix(m @ m.T + 0.5 * np.eye(n))
        radius = float(rng.uniform(1.0, 3.5))
        res = brute_force_slv(g, radius)
        naive_f, _ = box_minimum(g.entries, int(np.floor(radius + 1e-9)), radius=radius)
        assert naive_f is not None
        assert abs(res.f_star - naive_f) <= 1e-12 * max(1.0, naive_f)
        assert float(res.a_star.entries @ res.a_star.entries) <= radius * radius + 1e-9


def test_result_is_canonical_and_deterministic():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((4, 4))
    g = GramMatrix(m @ m.T + np.eye(4))
    first = brute_force_slv(g, 2.5)
    second = brute_force_slv(g, 2.5)
    assert first.f_star == second.f_star
    assert np.array_equal(first.a_star.entries, second.a_star.entries)
    assert first.candidates_evaluated == second.candidates_evaluated
    lead = first.a_star.entries[np.flatnonzero(first.a_star.entries)[0]]
    assert lead > 0


def test_candidate_count_small_identity():
    # of the canonical vectors with norm <= sqrt(2), only (0,1) and (1,0)
    # have f(a) <= min_j G_jj = 1; (1,-1) and (1,1) are pruned
    res = brute_force_slv(GramMatrix(np.eye(2)), np.sqrt(2.0))
    assert res.candidates_evaluated == 2


def test_ball_binds_inside_the_ellipsoid():
    # (1,1) has f = 2 < 3 but lies outside the ball of radius 1.2; of
    # the tied unit vectors e_0 wins
    res = brute_force_slv(GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]])), 1.2)
    assert res.a_star.entries.tolist() == [1, 0]
    assert res.f_star == 3.0
    assert res.candidates_evaluated == 2


def test_ball_binds_past_the_unit_vectors():
    # (1,1,1) has f = 1.8 < 3 but |a|^2 = 3 lies outside the ball of
    # radius 1.6, which holds the pairs (f >= 3.6) as well as the unit vectors
    g = GramMatrix(np.array([[3.0, -1.2, -1.2], [-1.2, 3.0, -1.2], [-1.2, -1.2, 3.0]]))
    res = brute_force_slv(g, 1.6)
    assert res.a_star.entries.tolist() == [1, 0, 0]
    assert res.f_star == 3.0
    assert res.candidates_evaluated == 3
    assert brute_force_slv(g, 1.8).a_star.entries.tolist() == [1, 1, 1]


def test_unit_ball_matches_naive_enumeration(box_minimum, gram_factory):
    # below radius^2 = 2 the ball holds only the unit vectors
    rng = np.random.default_rng(41)
    for _ in range(30):
        g = GramMatrix(gram_factory(rng, int(rng.integers(1, 5))))
        radius = float(rng.uniform(1.0, np.sqrt(2.0 - 1e-8)))
        res = brute_force_slv(g, radius)
        naive_f, naive_a = box_minimum(g.entries, 1, radius=radius)
        assert res.f_star == naive_f
        assert res.a_star.entries.tolist() == list(naive_a)
        assert res.candidates_evaluated == _ellipsoid_search(g.entries, radius)[2]


@pytest.mark.parametrize("g", [np.eye(4), np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 3.0]])],
                         ids=["identity", "tied-diagonal"])
def test_unit_ball_tie_goes_to_the_first_unit_vector(g):
    # the search enumerates e_{n-1} first and e_0 last, but the tie key
    # keeps e_0 over e_1; the ball below radius^2 = 2 gives the same
    # vector and count
    ball = brute_force_slv(GramMatrix(g), np.sqrt(2.0 - 2e-8))
    searched, _, count = _ellipsoid_search(g, np.sqrt(2.0 - 2e-8))
    assert ball.a_star.entries.tolist() == searched == np.eye(g.shape[0], dtype=int)[0].tolist()
    assert ball.f_star == g[0, 0]
    assert ball.candidates_evaluated == count


def _small_ball_grams():
    """Seeded Gaussian, single-antenna, MIMO and integer-channel Grams; at
    radius^2 = 2.5 a pair wins on 35 of them, and 23 tie unit vectors
    exactly."""
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        power = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        m = rng.standard_normal((n, n))
        yield m @ m.T + 0.1 * np.eye(n)
        yield build_gram_single(rng.standard_normal(n), power).entries
        h = rng.standard_normal((n, int(rng.integers(1, 3))))
        yield build_gram_mimo(MimoChannel(h_matrix=h, power=min(power, 1.0)))[0].entries
        h = rng.integers(-2, 3, n).astype(float)
        if h.any():
            yield build_gram_single(h, power).entries


@pytest.mark.parametrize("r2", [2.0 - 1e-8, 2.5, 3.0 - 1.01e-8])
def test_pair_ball_matches_the_search(r2):
    radius = float(np.sqrt(r2))
    for g in _small_ball_grams():
        res = brute_force_slv(GramMatrix(g), radius)
        point, f, count = _ellipsoid_search(g, radius)
        assert res.a_star.entries.tolist() == point
        assert res.f_star.hex() == f.hex()
        assert res.candidates_evaluated == count


@pytest.mark.parametrize("g, winner", [
    # all three e_i - e_j score 2 < 3; the lexicographically largest wins
    ([[3.0, 2.0, 2.0], [2.0, 3.0, 2.0], [2.0, 2.0, 3.0]], [1, 0, -1]),
    # e_0 - e_1 and e_0 - e_2 score 2
    ([[3.0, 2.0, 2.0], [2.0, 3.0, 0.0], [2.0, 0.0, 3.0]], [1, 0, -1]),
    # e_0 + e_1 and e_0 + e_2 score 2
    ([[3.0, -2.0, -2.0], [-2.0, 3.0, 0.0], [-2.0, 0.0, 3.0]], [1, 1, 0]),
    # e_0 + e_1 and e_0 - e_2 score 2
    ([[3.0, -2.0, 2.0], [-2.0, 3.0, 0.0], [2.0, 0.0, 3.0]], [1, 1, 0]),
], ids=["all-minus", "two-minus", "two-plus", "plus-and-minus"])
def test_pair_ball_tie_goes_to_the_largest_pair(g, winner):
    g = np.array(g)
    res = brute_force_slv(GramMatrix(g), np.sqrt(2.5))
    point, f, count = _ellipsoid_search(g, np.sqrt(2.5))
    assert res.a_star.entries.tolist() == point == winner
    assert res.f_star == f == 2.0
    assert res.candidates_evaluated == count


@pytest.fixture
def factorisations(monkeypatch):
    """The shapes np.linalg.cholesky is called on during the test."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


def test_small_balls_run_no_cholesky_up_to_the_pair_edge(factorisations):
    # the last radius with radius^2 < 3 - 1e-8 takes the pair ball, the
    # next float the search, and every radius gives the search's result
    below = float(np.sqrt(3.0 - 1e-8))
    while below * below >= 3.0 - 1e-8:
        below = float(np.nextafter(below, 0.0))
    while float(np.nextafter(below, 4.0)) ** 2 < 3.0 - 1e-8:
        below = float(np.nextafter(below, 4.0))
    at = float(np.nextafter(below, 4.0))
    g = build_gram_single(np.array([1.0, -0.8, 0.6, 0.3]), 4.0)
    for radius, calls in ((1.0, 0), (np.sqrt(2.0 - 1e-8), 0), (1.5, 0), (below, 0), (at, 1)):
        point, f, count = _ellipsoid_search(g.entries, radius)
        factorisations.clear()
        res = brute_force_slv(g, radius)
        assert len(factorisations) == calls
        assert res.a_star.entries.tolist() == point
        assert (res.f_star, res.candidates_evaluated) == (f, count)


def test_only_tied_leaves_past_the_unit_vectors_are_rescored(monkeypatch):
    rescored = []

    def counting(g_arr, a):
        rescored.append(list(a))
        return quad_objective(g_arr, a)

    monkeypatch.setattr(cfslv.oracle, "quad_objective", counting)
    # (0, 1, -1) ties e_1 and e_0 at f = 2 exactly and is rescored; the
    # tie key keeps e_0
    g = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 1.5], [0.0, 1.5, 3.0]])
    assert _ellipsoid_search(g, 2.0)[0] == [1, 0, 0]
    assert rescored == [[0, 1, -1]]
    # the pair ball, radius^2 = 2.5, scores the same three points
    rescored.clear()
    res = brute_force_slv(GramMatrix(g), np.sqrt(2.5))
    assert res.a_star.entries.tolist() == [1, 0, 0]
    assert (res.f_star, res.candidates_evaluated) == (2.0, 3)
    assert rescored == [[0, 1, -1]]
    # a unit vector's running sum is already G_jj, bit for bit
    rescored.clear()
    assert _ellipsoid_search(np.eye(4), 1.5)[0] == [1, 0, 0, 0]
    assert rescored == []


@pytest.mark.parametrize("radius", [1.5, 2.0], ids=["pair-ball", "search"])
def test_pair_winner_owns_its_a_star(radius):
    # [1, 1] scores 2 < G_jj = 3: a non-unit winner gets an array of its
    # result's own, where a unit winner shares core._unit_vector's
    g = GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]]))
    res, again = brute_force_slv(g, radius), brute_force_slv(g, radius)
    assert res.a_star.entries.tolist() == again.a_star.entries.tolist() == [1, 1]
    assert again.a_star is not res.a_star
    assert not np.shares_memory(again.a_star.entries, res.a_star.entries)


def test_tiny_diagonal_entry():
    res = brute_force_slv(GramMatrix(np.diag([1.0, 1e-13])), 3.0)
    assert res.a_star.entries.tolist() == [0, 1]
    assert res.f_star == 1e-13


def test_ball_only_when_cholesky_fails():
    # eigvalsh finds lambda_min > 0, but LAPACK's Cholesky of the reversed
    # matrix breaks down, so every canonical point of the ball is scored
    g = GramMatrix(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(g.entries[::-1, ::-1])
    res = brute_force_slv(g, 2.0)
    assert res.a_star.entries.tolist() == [1, -1]
    assert res.f_star == 2.0**-52
    assert res.candidates_evaluated == 6
    # the pair ball finds the same point, but counts only the 3 points
    # with f <= min_j G_jj (1 + 1e-9), where the search scores all 4
    small = brute_force_slv(g, 1.5)
    assert small.a_star.entries.tolist() == [1, -1]
    assert small.f_star == 2.0**-52
    assert small.candidates_evaluated == 3
    assert _ellipsoid_search(g.entries, 1.5)[2] == 4


def test_deep_search_needs_no_recursion():
    n = 1500
    res = brute_force_slv(GramMatrix(np.eye(n)), 1.0)
    assert res.a_star.entries.tolist() == [1] + [0] * (n - 1)
    assert res.candidates_evaluated == n


def test_deep_search_past_the_unit_vectors():
    # radius^2 = 2.25 is in the pair ball; the search itself goes 1500
    # levels deep to the same point and count
    n = 1500
    res = brute_force_slv(GramMatrix(np.eye(n)), 1.5)
    assert res.a_star.entries.tolist() == [1] + [0] * (n - 1)
    assert res.candidates_evaluated == n
    point, _, count = _ellipsoid_search(np.eye(n), 1.5)
    assert point == [1] + [0] * (n - 1)
    assert count == n


def _adversarial_grams():
    rng = np.random.default_rng(37)
    for h, power in [
        ((1.0, 0.5), 1e3), ((0.3, -0.2, 0.9), 1e3),    # high power
        ((3.0, -3.0), 2.0), ((1.0, 1.0, 2.0), 5.0),    # commensurate gains
        ((0.5, 1.0, 1.5), 7.0), ((2.0, -4.0, 6.0), 0.5),
        ((1.0, 1.0 + 1e-10), 20.0), ((0.7, -0.7 * (1 + 1e-12), 0.7), 9.0),  # near-equal
        ((0.0, 1.5), 4.0), ((0.0, 1.2, -0.8), 6.0), ((0.0, 0.0, 1.0), 3.0),  # zero entries
        ((1e-4, 1e2), 1e-3), ((1e-4, 0.3, 1e2), 1.0), ((1e2, -1e-2, 1.0), 0.05),  # 1e-4..1e2
    ]:
        yield build_gram_single(np.array(h), power)
    for n, power in [(2, 3.0), (3, 10.0), (3, 0.5)]:
        # rank-deficient MIMO: two equal columns of H
        col = rng.standard_normal(n)
        yield build_gram_mimo(MimoChannel(h_matrix=np.column_stack([col, col]), power=power))[0]


def test_adversarial_instances_match_naive_ball_enumeration(box_minimum):
    for g in _adversarial_grams():
        f0 = float(np.min(np.diag(g.entries)))
        # at least 3, so that the ellipsoid and not the ball prunes the small cases
        radius = min(max(certification_radius(g, f0), 3.0), 12.0)
        res = brute_force_slv(g, radius)
        naive_f, _ = box_minimum(g.entries, int(np.floor(radius + 1e-9)), radius=radius)
        assert abs(res.f_star - naive_f) <= 1e-12 * max(1.0, naive_f)
        a = res.a_star.entries
        assert float(a @ a) <= radius * radius + 1e-9
        assert a[np.flatnonzero(a)[0]] > 0


def test_rejects_small_radius():
    with pytest.raises(ValueError):
        brute_force_slv(GramMatrix(np.eye(2)), 0.5)


def test_rejects_radius_whose_square_overflows():
    with pytest.raises(ValueError, match="square finite"):
        brute_force_slv(GramMatrix(np.eye(2)), 1e200, budget=None)


def test_budget_error_on_huge_search_space():
    # the ellipsoid allows 3 values a level, 3^16 points, past the budget
    g = build_gram_single(np.ones(16), 1.0)
    with pytest.raises(ResourceBudgetError):
        brute_force_slv(g, 200.0, budget=10**6)


def test_budget_allows_a_huge_ball_with_a_small_ellipsoid():
    # the ball of radius 200 is estimated at 5.2e18 points, but the
    # ellipsoid f(a) <= min_j G_jj allows 3 values a level, 3^8 points
    g = build_gram_single(np.ones(8), 1.0)
    assert ball_point_estimate(8, 200.0) > DEFAULT_ORACLE_BUDGET
    res = brute_force_slv(g, 200.0)
    ref = brute_force_slv(g, 200.0, budget=None)
    assert res.a_star.entries.tolist() == ref.a_star.entries.tolist()
    assert (res.f_star, res.candidates_evaluated) == (ref.f_star, ref.candidates_evaluated)
    assert brute_force_slv(g, 200.0, budget=3**8).f_star == ref.f_star
    with pytest.raises(ResourceBudgetError, match="^estimated 5.195e[+]18 candidates exceeds budget 6560$"):
        brute_force_slv(g, 200.0, budget=3**8 - 1)


@pytest.mark.parametrize("radius", [200.0, 3.5])
def test_one_factorisation_per_call(factorisations, radius):
    # past the ball estimate the budget check forms the ellipsoid, and
    # the search reuses it; below the estimate only the search forms it
    brute_force_slv(build_gram_single(np.ones(8), 1.0), radius)
    assert factorisations == [(8, 8)]


@pytest.mark.parametrize("budget", [0, -3])
def test_nonpositive_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="^budget must be positive$"):
        brute_force_slv(GramMatrix(np.eye(2)), 2.0, budget=budget)


def test_ball_estimate_monotone_in_radius():
    lo = ball_point_estimate(4, 2.0)
    hi = ball_point_estimate(4, 4.0)
    assert 0.0 < lo < hi


def test_certification_radius_covers_bound():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.2, 10.0))
        g = build_gram_single(h, power)
        f_cap = float(np.min(np.diag(g.entries)))
        radius = certification_radius(g, f_cap)
        lam_min = float(np.linalg.eigvalsh(g.entries)[0])
        # any a with f(a) <= f_cap satisfies |a| <= sqrt(f_cap / lam_min)
        assert radius >= 1.0
        assert radius >= np.sqrt(f_cap / lam_min)


def test_certification_radius_covers_the_rounding_of_f_star():
    # the solver is right, a* = h with exact value |h|^2 = 71, but its
    # f_star rounds below 71; a radius from f_star / lambda_min alone had
    # r^2 < 71, left h out, and the oracle returned a far worse vector
    h = np.array([4.0, -4.0, -1.0, -2.0, -4.0, 3.0, 3.0])
    res, g, _ = _solve_single(h, 946973.2412592551)
    assert res.a_star.entries.tolist() == h.tolist()
    assert res.f_star < 71.0
    radius = certification_radius(g, res.f_star)
    assert radius * radius >= 71.0
    oracle = brute_force_slv(g, radius)
    assert oracle.a_star.entries.tolist() == h.tolist()
    assert oracle.f_star == res.f_star


def test_high_power_commensurate_channels_are_certified():
    # integer channels at high power: the optimum is often +-h itself, on
    # the edge of the ball, with f_star rounded by about 1e-9 relative
    rng = np.random.default_rng(2501)
    for _ in range(200):
        h = rng.integers(-4, 5, size=int(rng.integers(2, 8))).astype(float)
        if not h.any():
            continue
        res, g, _ = _solve_single(h, float(10.0 ** rng.uniform(4.0, 7.0)), budget=None)
        oracle = brute_force_slv(g, certification_radius(g, res.f_star), budget=None)
        assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star), h.tolist()


def test_certification_radius_rejects_lambda_within_rounding():
    # delta = 4 n^2 2^-53 max|G_ij| is about 1.8e-3 here, above lambda_min
    with pytest.raises(ValueError, match="within rounding"):
        certification_radius(GramMatrix(np.diag([1e-6, 1e12])), 1e-6)
