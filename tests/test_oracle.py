"""Brute-force oracle checks against frozen values and a naive enumerator."""

import numpy as np
import pytest

from cfslv.core import GramMatrix
from cfslv.errors import ResourceBudgetError
from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
from cfslv.oracle import ball_point_estimate, brute_force_slv, certification_radius


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
    # (1,1) has f = 2 < 3 but lies outside the ball of radius 1.2
    res = brute_force_slv(GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]])), 1.2)
    assert res.a_star.entries.tolist() == [0, 1]
    assert res.f_star == 3.0
    assert res.candidates_evaluated == 2


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


def test_deep_search_needs_no_recursion():
    n = 1500
    res = brute_force_slv(GramMatrix(np.eye(n)), 1.0)
    assert res.a_star.entries.tolist() == [0] * (n - 1) + [1]
    assert res.candidates_evaluated == n


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
    g = build_gram_single(np.ones(8), 1.0)
    with pytest.raises(ResourceBudgetError):
        brute_force_slv(g, 200.0, budget=10**6)


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
