"""The single-antenna exact solver: crossing sweep, counts and witness."""

import math

import numpy as np
import pytest

from cfslv.core import quad_objective, quadratic_form
from cfslv.errors import ResourceBudgetError
from cfslv.gram import build_gram_single, dpk_from_single, search_radius_psi
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.solver_single import _lowest_on_g, _near_set, solve_single


def test_solve_hand_computed():
    res = solve_single([1.0, 1.0], 2.0)
    assert res.f_star == 2.0
    assert res.a_star.entries.tolist() == [1, 1]
    # psi = sqrt(3), so crossings 0.5, 1.5, 2.5 for each coordinate; the
    # two open intervals between them are scored after the two unit vectors
    assert res.breakpoint_count == 6
    assert res.candidates_evaluated == 4
    assert res.witness_point.tolist() == [1.0]


def test_solve_unit_optimum():
    res = solve_single([1.0, 0.0, 0.0], 7.0)
    assert res.f_star == 1.0
    assert res.a_star.entries.tolist() == [1, 0, 0]
    # unit-vector initialization wins the tie against rounded candidates
    assert res.witness_point is None


def test_solve_zero_channel():
    res = solve_single([0.0, 0.0], 5.0)
    assert res.f_star == 1.0
    assert res.a_star.entries.tolist() == [1, 0]
    assert res.breakpoint_count == 0


def test_solve_rejects_bad_power():
    with pytest.raises(ValueError):
        solve_single([1.0], -2.0)


def test_objective_is_recomputed_exactly():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.1, 15.0))
        res = solve_single(h, power)
        assert res.f_star == quadratic_form(build_gram_single(h, power), res.a_star)


def test_matches_oracle_randomized():
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        h = rng.standard_normal(n)
        power = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
        res = solve_single(h, power)
        gram = build_gram_single(h, power)
        oracle = brute_force_slv(gram, certification_radius(gram, res.f_star))
        assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)


def test_norm_bound_holds():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.1, 25.0))
        res = solve_single(h, power)
        norm = math.sqrt(float(res.a_star.entries @ res.a_star.entries))
        assert norm <= search_radius_psi(build_gram_single(h, power)) + 1e-9


def test_candidate_count_bound():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.1, 25.0))
        res = solve_single(h, power)
        psi = search_radius_psi(build_gram_single(h, power))
        cap = n * (2 * math.ceil(psi) + 2)
        assert res.breakpoint_count <= cap
        assert res.candidates_evaluated <= cap + n


def test_non_unit_optimum_has_generating_interval():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.5, 20.0))
        res = solve_single(h, power)
        a = res.a_star.entries
        if np.abs(a).sum() == 1:
            continue
        lo, hi = -math.inf, math.inf
        for hj, aj in zip(h, a.astype(float)):
            if hj == 0.0:
                continue
            left, right = (aj - 0.5) / hj, (aj + 0.5) / hj
            if hj < 0.0:
                left, right = right, left
            lo, hi = max(lo, left), min(hi, right)
        assert lo < hi, f"empty interval for a*={a.tolist()}, h={h.tolist()}"
        checked += 1
    assert checked >= 20


ADVERSARIAL = [
    # commensurate gains: crossings of different coordinates coincide
    ((3.0, -3.0), 1.0),
    ((3.0, -3.0), 10.0),
    ((1.0, 1.0, 2.0), 2.0),
    ((1.0, 1.0, 2.0), 20.0),
    ((0.5, 1.0, 1.5), 3.0),
    ((0.5, 1.0, 1.5), 30.0),
    # zero entries contribute no crossings
    ((0.0, 1.5, 0.0, -2.0), 5.0),
    # wide dynamic range and a gain whose crossings are near the float limit
    ((1e-6, 1e3, 2.0), 5.0),
    ((1e-300, 1.0), 7.0),
    # high power
    ((1.0, 0.7), 1e3),
    ((1.0, -1.0), 1e3),
    ((0.3, -1.1, 0.5), 1e3),
]


@pytest.mark.parametrize("h, power", ADVERSARIAL)
def test_adversarial_channels_match_oracle(h, power, box_minimum):
    h = np.array(h)
    res = solve_single(h, power)
    gram = build_gram_single(h, power)
    radius = certification_radius(gram, res.f_star)
    oracle = brute_force_slv(gram, radius)
    assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
    if h.size <= 3:
        box_f, _ = box_minimum(gram.entries, math.ceil(radius), radius)
        assert abs(res.f_star - box_f) <= 1e-9 * max(1.0, box_f)


def test_witness_rounds_to_optimum():
    rng = np.random.default_rng(67)
    checked = 0
    channels = [rng.standard_normal(int(rng.integers(2, 7))) for _ in range(200)]
    for h in channels + [np.array(h) for h, _ in ADVERSARIAL]:
        power = float(rng.uniform(0.5, 20.0))
        res = solve_single(h, power)
        a = res.a_star.entries
        if np.abs(a).sum() == 1:
            assert res.witness_point is None
            continue
        assert np.array_equal(np.floor(res.witness_point[0] * h + 0.5), a)
        checked += 1
    assert checked >= 20


def test_negating_channel_preserves_objective():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        h = rng.standard_normal(n)
        power = float(rng.uniform(0.1, 10.0))
        assert solve_single(h, power).f_star == solve_single(-h, power).f_star


def test_tie_prefers_unit_vector():
    # h=(1,0,0), P=7: many candidates tie f=1 but a unit vector is returned
    res = solve_single([1.0, 0.0, 0.0], 7.0)
    assert np.abs(res.a_star.entries).sum() == 1


@pytest.mark.parametrize("h, power, a_star", [
    ((2.0, -2.0, -1.0, -1.0), 2.0, [1, -1, 0, 0]),
    ((-3.0, 1.0, 0.0, -3.0, 0.0, 2.0), 4.0, [1, 0, 0, 1, 0, -1]),
    ((0.0, 1.0, 2.0, -1.0, -2.0, 0.0), 2.0, [0, 0, 1, 0, -1, 0]),
    ((-3.0, 1.0, 2.0, 0.0), 4.0, [1, 0, -1, 0]),
])
def test_exact_interval_tie_goes_to_the_smallest_x(h, power, a_star):
    # two roundings of x h tie exactly on G below every unit vector; on
    # these channels the one on the earlier interval is also first by
    # the tie key, which picks it
    res = solve_single(h, power)
    assert res.a_star.entries.tolist() == a_star
    assert np.array_equal(np.floor(res.witness_point[0] * np.array(h) + 0.5), a_star)


def test_near_set_keeps_a_row_exactly_at_the_margin():
    tol = 1e-9 * 4.0
    edge = 1.0 + tol
    f = np.array([1.0, edge, np.nextafter(edge, np.inf), 2.0])
    norm2 = np.array([4.0, 9.0, 9.0, 9.0])
    assert _near_set(f, norm2, 1.0).tolist() == [True, True, False, False]
    # the minimum may lie up to the same margin above best_f, not beyond
    above = np.array([edge, 2.0])
    assert _near_set(above, norm2[:2], 1.0).tolist() == [True, False]
    above[0] = np.nextafter(edge, np.inf)
    assert _near_set(above, norm2[:2], 1.0) is None
    assert _near_set(np.array([]), np.array([]), 1.0) is None


def test_lowest_on_g_needs_a_value_strictly_below_best_f():
    g = build_gram_single([1.0, 1.0, 0.5], 2.0).entries
    a = np.array([1, 1, 0])
    f = quad_objective(g, a)
    # a candidate that only ties the best unit vector loses to it
    assert _lowest_on_g(g, [a], f) is None
    assert _lowest_on_g(g, [a], np.nextafter(f, np.inf)) == (0, f)


def test_lowest_on_g_breaks_an_exact_tie_by_the_tie_key():
    # on G = I the value is |a|^2: among equal values the lexicographically
    # largest canonical a wins, in either sign and in any row order
    g = np.diag([1.0, 1.0, 1.0])
    larger, smaller, lower = np.array([0, -1, -1]), np.array([0, -1, 1]), np.array([1, 0, 0])
    assert _lowest_on_g(g, [larger, smaller], 3.0) == (0, 2.0)
    assert _lowest_on_g(g, [smaller, larger], 3.0) == (1, 2.0)
    assert _lowest_on_g(g, [smaller, larger, lower], 3.0) == (2, 1.0)
    # a lower value wins over a smaller |a|^2
    g = np.array([[3.0, -2.0, 0.0], [-2.0, 3.0, 0.0], [0.0, 0.0, 10.0]])
    assert _lowest_on_g(g, [np.array([0, 0, 1]), np.array([2, 2, 0])], 100.0) == (1, 8.0)


def test_sweep_overflow_keeps_the_unit_vector():
    # 1 + P|h|^2 is finite, but P (|h|.|a|)^2 overflowed in the old sweep
    # and a wrong vector won
    res = solve_single([1e150, 1.0], 1e-290)
    assert res.a_star.entries.tolist() == [1, 0]
    assert res.f_star == 1.0


def test_budget_error_for_huge_psi():
    # psi = sqrt(1 + 1e14), so cmax = 1e7 and the vertex bound is 2 (2e7 + 2)
    with pytest.raises(ResourceBudgetError, match="^vertex bound 40000004 exceeds budget 10000000$"):
        solve_single([1.0, 1.0], 1e14, budget=10_000_000)


def test_rounding_singular_gram_is_input_error():
    # 1 + P|h|^2 rounds to P, so G rounds to [[0]]; build_gram_single
    # refuses it, and so does solve_single, which builds the same G
    message = r"^Gram matrix is not positive definite \(smallest eigenvalue 0.000e\+00\)$"
    with pytest.raises(ValueError, match=message):
        build_gram_single([1.0], 1e16)
    with pytest.raises(ValueError, match=message):
        solve_single([1.0], 1e16)


def test_budget_none_disables_guard():
    res = solve_single([1.0], 25.0, budget=None)
    assert res.f_star == 1.0


@pytest.mark.parametrize("budget", [0, -3])
def test_nonpositive_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="^budget must be positive$"):
        solve_single([1.0, 2.0], 1.0, budget=budget)
