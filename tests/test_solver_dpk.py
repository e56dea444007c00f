"""Vertex enumeration and the diagonal-minus-low-rank exact solver."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import cfslv.solver_dpk
from cfslv.core import DpkDecomposition, GramMatrix, quadratic_form
from cfslv.errors import ResourceBudgetError
from cfslv.gram import (
    MimoChannel,
    build_gram_mimo,
    build_gram_single,
    dpk_from_single,
    search_radius_psi,
    validate_dpk,
)
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.solver_dpk import _vertex_cells, _vertex_labels, solve_dpk
from cfslv.solver_single import _norm_ceiling, solve_single


def rank_one_dec():
    return DpkDecomposition(d=np.array([5.0, 5.0]), v=np.full((2, 1), np.sqrt(2.0)))


def cmax_of(gram, dec):
    """The ceiling solve_dpk searches on this pair, without a budget."""
    return _norm_ceiling(float(np.min(np.diag(gram.entries))), gram.min_eigenvalue,
                         dec.n, dec.k, None)


def vertex_set(dec, cmax):
    """The distinct vertices _vertex_labels finds: every generic vertex in
    label order, then one copy of each degenerate vertex in merged order."""
    verts = _vertex_labels(dec, cmax)
    generic = verts.x.transpose(0, 2, 1)[verts.generic]
    return np.vstack([generic, verts.at(verts.x, verts.merged)])


def test_vertex_set_rank_one():
    verts = vertex_set(rank_one_dec(), 2)
    # both coordinate subsets give the same line positions c * 5 / sqrt(2)
    expected = sorted(c * 5.0 / np.sqrt(2.0) for c in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5))
    assert verts.shape[0] == 6
    assert np.allclose(verts[:, 0], expected)


def test_vertex_set_skips_zero_rows():
    dec = DpkDecomposition(d=np.array([4.0, 4.0]), v=np.array([[np.sqrt(3.0)], [0.0]]))
    verts = vertex_set(dec, 1)
    # only the first coordinate contributes: c * 4 / sqrt(3), c in {+-.5, +-1.5}
    assert verts.shape[0] == 4


def test_vertex_set_square_case():
    dec = DpkDecomposition(d=np.array([2.0]), v=np.array([[1.0]]))
    verts = vertex_set(dec, 1)
    assert sorted(verts[:, 0].tolist()) == [-3.0, -1.0, 1.0, 3.0]


@pytest.mark.parametrize("k, bound", [(1, 4 * (2 * 2 + 2)), (2, 6 * (2 * 2 + 2) ** 2)])
def test_vertex_bound_is_checked_once_for_every_rank(k, bound):
    # ceil(psi) = 2, so the bound is C(4, k) 6^k
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.eye(4, k) + 0.5, power=1.0))
    assert math.ceil(search_radius_psi(gram)) == 2
    with pytest.raises(ResourceBudgetError, match=f"^vertex bound {bound} exceeds budget {bound - 1}$"):
        solve_dpk(gram, dec, budget=bound - 1)


def test_vertex_set_matches_per_subset_solves():
    rng = np.random.default_rng(61)
    for n, k, rows in [(6, 1, None), (5, 2, None), (4, 3, None), (4, 2, (0, 1))]:
        h = rng.standard_normal((n, k))
        if rows is not None:
            h[rows[1]] = h[rows[0]]
        gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=1.5))
        cmax = cmax_of(gram, dec)
        verts = vertex_set(dec, cmax)
        cs = np.arange(-cmax - 0.5, cmax + 1.0)
        rhs = np.array(list(itertools.product(cs, repeat=k))).T
        ratios = dec.v / dec.d[:, None]
        solved = []
        for subset in itertools.combinations(range(n), k):
            sub = ratios[list(subset)]
            sv = np.linalg.svd(sub, compute_uv=False)
            if sv[-1] > 1e-10 * sv[0]:
                solved.append(np.linalg.solve(sub, rhs).T)
        solved = np.vstack(solved)
        # every vertex is one of the solutions, bit for bit, and every
        # solution lies within the 1e-9 merge distance of a vertex
        assert {p.tobytes() for p in verts} <= {p.tobytes() for p in solved}
        gaps = np.linalg.norm(solved[:, None, :] - verts[None, :, :], axis=2).min(axis=1)
        assert gaps.max() <= 1e-9


def test_solve_matches_single_antenna_solution():
    g = GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]]))
    res = solve_dpk(g, rank_one_dec())
    assert res.f_star == 2.0


def test_solve_mimo_example():
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array([[1.0], [1.0]]), power=2.0))
    res = solve_dpk(gram, dec)
    assert abs(res.f_star - 0.4) <= 1e-12
    assert np.abs(res.a_star.entries).tolist() == [1, 1]


def test_solve_diagonal_gram_with_decomposition():
    g = GramMatrix(np.diag([0.25, 1.0]))
    dec = DpkDecomposition(d=np.array([1.0, 1.0]), v=np.array([[np.sqrt(3.0) / 2.0], [0.0]]))
    res = solve_dpk(g, dec)
    assert res.f_star == 0.25
    assert np.abs(res.a_star.entries).tolist() == [1, 0]


def test_solve_none_decomposition_requires_diagonal():
    res = solve_dpk(GramMatrix(np.diag([2.0, 0.5])), None)
    assert res.f_star == 0.5
    with pytest.raises(ValueError):
        solve_dpk(GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]])), None)


def test_solve_rejects_wrong_decomposition():
    g = GramMatrix(np.eye(2))
    with pytest.raises(ValueError):
        solve_dpk(g, rank_one_dec())


def test_solve_rejects_non_decomposition():
    with pytest.raises(ValueError, match="expected a DpkDecomposition"):
        solve_dpk(GramMatrix(np.eye(2)), 5)


def test_built_decomposition_with_another_gram_is_compared():
    rng = np.random.default_rng(83)
    _, dec = build_gram_mimo(MimoChannel(h_matrix=rng.standard_normal((4, 2)), power=1.0))
    other, _ = build_gram_mimo(MimoChannel(h_matrix=rng.standard_normal((4, 2)), power=1.0))
    with pytest.raises(ValueError, match="^decomposition does not reproduce the Gram matrix$"):
        solve_dpk(other, dec)


@pytest.fixture
def validate_calls(monkeypatch):
    calls = []

    def counting(g, dec):
        calls.append(dec)
        return validate_dpk(g, dec)

    monkeypatch.setattr(cfslv.solver_dpk, "validate_dpk", counting)
    return calls


@pytest.mark.parametrize("k", [1, 2])
def test_only_the_built_pair_skips_validation(k, validate_calls):
    h = np.random.default_rng(89 + k).standard_normal((3, k))
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=0.7))
    built = solve_dpk(gram, dec)
    assert validate_calls == []
    for g, d in ((GramMatrix(gram.entries), dec), (gram, DpkDecomposition(d=dec.d, v=dec.v))):
        res = solve_dpk(g, d)
        assert len(validate_calls) == 1
        validate_calls.clear()
        assert np.array_equal(res.a_star.entries, built.a_star.entries)
        assert res.f_star.hex() == built.f_star.hex()


@pytest.mark.parametrize("budget", [0, -3])
def test_nonpositive_budget_is_rejected(budget):
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array([[1.0], [1.0]]), power=2.0))
    with pytest.raises(ValueError, match="^budget must be positive$"):
        solve_dpk(gram, dec, budget=budget)


def test_solve_zero_mimo_channel_falls_back_to_unit():
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.zeros((3, 2)), power=2.0))
    res = solve_dpk(gram, dec)
    assert res.f_star == 1.0
    assert np.abs(res.a_star.entries).sum() == 1


def test_matches_oracle_randomized():
    rng = np.random.default_rng(67)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        channel = MimoChannel(h_matrix=rng.standard_normal((n, k)),
                              power=float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))))
        gram, dec = build_gram_mimo(channel)
        res = solve_dpk(gram, dec, budget=10**10)
        oracle = brute_force_slv(gram, certification_radius(gram, res.f_star))
        assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)


@pytest.mark.parametrize("draw", ["gaussian", "integer", "half-integer", "rational-power"])
def test_agrees_with_single_antenna_solver(draw):
    # integer and half-integer channels at rational powers tie exactly
    # between intervals; both solvers give the tie to the earliest one
    rational = draw == "rational-power"
    rng = np.random.default_rng(71)
    # both sweep to psi = sqrt(min G_jj / lambda_min): 675 crossings at
    # h = (1, 2, 3), P = 1e4, where sqrt(1 + P|h|^2) would give 1128
    draws = [(np.array([2.0, -2.0, -1.0, -1.0]), 2.0)] if rational else [
        (np.array([1.0, 2.0, 3.0]), 1e4)]
    for trial in range(600 if rational else 30):
        n = int(rng.integers(2, 7))
        if draw == "gaussian":
            h = rng.standard_normal(n)
        elif draw == "integer" or rational and trial % 2:
            h = rng.integers(-3, 4, n).astype(float)
        else:
            h = rng.integers(-3, 4, n) / 2.0
        if rational:
            power = float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0]))
        else:
            power = float(rng.uniform(0.1, 10.0))
        draws.append((h, power))
    for h, power in draws:
        if not h.any():
            continue
        fast = solve_single(h, power)
        slow = solve_dpk(build_gram_single(h, power), dpk_from_single(h, power))
        assert slow.a_star.entries.tolist() == fast.a_star.entries.tolist()
        assert slow.f_star == fast.f_star
        assert slow.breakpoint_count == fast.breakpoint_count


def test_ceiling_does_not_hang_on_the_last_bit_of_lambda_min():
    # min G_jj / lambda_min is 49 here; the closed-form lambda_min and
    # LAPACK's differ in the last bits and put psi on either side of 7,
    # so ceil(psi) is 8 or 7, but cmax is 7 for both
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array([[-2.0], [-2.0], [3.0], [-2.0], [0.0]]),
                                            power=4.0))
    again = GramMatrix(gram.entries)
    assert again.min_eigenvalue != gram.min_eigenvalue
    built, checked = solve_dpk(gram, dec), solve_dpk(again, dec)
    assert (built.breakpoint_count, built.candidates_evaluated) == (32, 26)
    assert (checked.breakpoint_count, checked.candidates_evaluated) == (32, 26)
    assert checked.a_star.entries.tolist() == built.a_star.entries.tolist() == [1, 1, -1, 1, 0]


def test_norm_bound_and_vertex_count():
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        channel = MimoChannel(h_matrix=rng.standard_normal((n, k)),
                              power=float(rng.uniform(0.1, 5.0)))
        gram, dec = build_gram_mimo(channel)
        res = solve_dpk(gram, dec, budget=10**10)
        psi = search_radius_psi(gram)
        norm = math.sqrt(float(res.a_star.entries @ res.a_star.entries))
        assert norm <= psi + 1e-9
        cap = math.comb(n, dec.k) * (2 * math.ceil(max(1.0, psi)) + 2) ** dec.k
        assert res.breakpoint_count <= cap


def test_witness_point_rounds_to_result():
    rng = np.random.default_rng(79)
    seen = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        channel = MimoChannel(h_matrix=rng.standard_normal((n, k)),
                              power=float(rng.uniform(0.3, 5.0)))
        gram, dec = build_gram_mimo(channel)
        res = solve_dpk(gram, dec, budget=10**10)
        if res.witness_point is None:
            continue
        ratios = dec.v / dec.d[:, None]
        image = ratios @ res.witness_point
        # the optimum lies in the closed half-unit box around its generator
        assert np.all(np.abs(image - res.a_star.entries) <= 0.5 + 1e-9)
        seen += 1
    assert seen >= 5


def test_objective_recomputed_exactly():
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array([[1.2], [-0.7], [0.4]]),
                                            power=3.0))
    res = solve_dpk(gram, dec)
    assert res.f_star == quadratic_form(gram, res.a_star)


def test_combination_budget_error():
    rng = np.random.default_rng(83)
    channel = MimoChannel(h_matrix=rng.standard_normal((4, 2)), power=4.0)
    gram, dec = build_gram_mimo(channel)
    with pytest.raises(ResourceBudgetError):
        solve_dpk(gram, dec, budget=5)


def ratio_dec(ratios, d=None, top=0.8):
    """A pair with diag(d)^-1 V = ratios, scaled so that W = diag(d)^-1/2
    V has largest singular value sqrt(top) and G is definite."""
    ratios = np.asarray(ratios, dtype=float)
    d = np.ones(ratios.shape[0]) if d is None else np.asarray(d, dtype=float)
    # W = (scale d)^1/2 ratios
    scale = top / np.linalg.norm(np.sqrt(d)[:, None] * ratios, 2) ** 2
    return DpkDecomposition(d=scale * d, v=(scale * d)[:, None] * ratios)


def test_candidate_budget_counts_before_building():
    # three lines of different directions meet at (1/2, 1/2); the fourth
    # row, opposite to the first, passes through it too
    dec = ratio_dec([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.0]])
    ratios = dec.v / dec.d[:, None]
    verts = _vertex_labels(dec, 1)
    cand, owner = _vertex_cells(verts, ratios, budget=None)
    point = [i for i, x in enumerate(verts.at(verts.x, verts.merged)) if np.allclose(x, 0.5)]
    assert len(point) == 1
    mine = cand[owner == point[0]]
    assert mine.shape[0] == 8
    # rows 0 and 3 are antiparallel: one takes its upper neighbour when
    # the other takes its lower one
    assert set(map(tuple, mine[:, [0, 3]].tolist())) == {(0.0, 0.0), (1.0, -1.0)}
    # the budget covers these cells and 2^k = 4 at each generic vertex
    total = cand.shape[0] + 4 * np.count_nonzero(verts.generic)
    assert _vertex_cells(verts, ratios, budget=total)[0].shape == cand.shape
    with pytest.raises(ResourceBudgetError, match=f"^{total} vertex cells exceed budget {total - 1}$"):
        _vertex_cells(verts, ratios, budget=total - 1)


@pytest.mark.parametrize("k", [2, 3])
def test_generic_vertices_score_two_to_the_k_cells(k):
    rng = np.random.default_rng(127 + k)
    for _ in range(15):
        n = int(rng.integers(k + 1, 7 if k == 2 else 6))
        channel = MimoChannel(h_matrix=rng.standard_normal((n, k)),
                              power=float(np.exp(rng.uniform(np.log(0.1), np.log(3.0)))))
        gram, dec = build_gram_mimo(channel)
        res = solve_dpk(gram, dec, budget=None)
        # Gaussian rows put no third hyperplane through a vertex
        assert res.candidates_evaluated == n + 2 ** k * res.breakpoint_count


DEGENERATE_RATIOS = {
    # three lines of different directions through (1/2, 1/2)
    "three-lines-one-point": ([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [1.0, 2.0, 0.5]),
    # and a fourth, opposite to the first
    "and-its-opposite": ([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.0]], None),
    # coincident hyperplanes of opposite rows
    "antiparallel": ([[1.0, 0.5], [-1.0, -0.5], [0.3, 2.0]], [1.0, 1.0, 3.0]),
    "zero-row": ([[1.0, 0.5], [0.0, 0.0], [0.3, -1.2]], [2.0, 1.0, 1.0]),
    # four planes through (1/2, 1/2, 1/2)
    "four-planes-one-point": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                               [1.0, 1.0, 1.0]], None),
}


@pytest.mark.parametrize("top", [0.5, 0.95])
@pytest.mark.parametrize("name", sorted(DEGENERATE_RATIOS))
def test_degenerate_vertices_match_oracle(name, top, box_minimum):
    ratios, d = DEGENERATE_RATIOS[name]
    dec = ratio_dec(ratios, d, top)
    gram = GramMatrix(np.diag(dec.d) - dec.v @ dec.v.T)
    res = solve_dpk(gram, dec, budget=None)
    verts = _vertex_labels(dec, cmax_of(gram, dec))
    assert res.breakpoint_count == verts.count
    if name != "zero-row":
        assert verts.merged.size > 0
    radius = certification_radius(gram, res.f_star)
    oracle = brute_force_slv(gram, radius, budget=None)
    assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
    box_f, _ = box_minimum(gram.entries, math.ceil(radius), radius)
    assert abs(res.f_star - box_f) <= 1e-9 * max(1.0, box_f)
    if res.witness_point is not None:
        image = (dec.v / dec.d[:, None]) @ res.witness_point
        assert np.all(np.abs(image - res.a_star.entries) <= 0.5 + 1e-9)


THIRD = 1.0 / 3.0


@pytest.mark.parametrize("h, power, a_star, f_hex, rival", [
    (((-2 * THIRD, 2 * THIRD), (0.0, 1.0), (-2 * THIRD, -2 * THIRD)), "0x1.cb83449737327p+1",
     [0, 1, -1], "0x1.59d0c9cc759fcp-2", [1, 1, 0]),
    (((-1.0, -1.0), (1.0, -1.0), (-2.0, 2.0), (2.0, 2.0)), "0x1.0f74e8f670bf4p+2",
     [1, 0, 0, -2], "0x1.d7b9a738e9678p-4", [0, 1, -2, 0]),
], ids=["thirds", "integer-n4"])
def test_exact_ties_go_to_the_first_vertex_on_the_grid(h, power, a_star, f_hex, rival):
    # a_star and rival (not negations of each other) tie exactly on
    # quad_objective, the value f_star reports; the one at the vertex
    # that comes first on the 1e-9 grid wins, as it did when every
    # vertex was sorted
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array(h), power=float.fromhex(power)))
    res = solve_dpk(gram, dec, budget=None)
    assert res.a_star.entries.tolist() == a_star
    assert res.f_star == float.fromhex(f_hex) == quadratic_form(gram, rival)


@pytest.mark.parametrize("h, power, a_star, f_hex, rival", [
    # rival ties e_2 exactly on G, so e_2 keeps the tie; an einsum
    # ranked rival lower
    (((1.0, -2.0), (1.0, 2.0), (-1.0, 2.0), (0.0, 1.0), (-1.0, 0.0), (-2.0, 1.0)), 1.0,
     [0, 1, 0, 0, 0, 0], "0x1.bf7651bf7651ap-2", [1, 0, -1, 0, 0, -1]),
    # an einsum ties the two at 0x1.e00c78031e018p-3; G puts a_star one
    # ulp below rival
    (((-1.0, 2.0), (2.0, -2.0), (0.0, -1.0), (1.0, 0.0), (2.0, -1.0)), 4.0,
     [2, -2, -1, 0, -1], "0x1.e00c78031e020p-3", [1, -2, 0, -1, -2]),
    # an einsum ties the two; on G rival scores 0x1.204ac8e6bc333p-2
    (((-1.0, 0.0), (-1.0, 0.0), (-2.0, -2.0), (0.0, -2.0), (0.0, 1.0), (2.0, -1.0), (2.0, 2.0),
      (2.0, 2.0)), float.fromhex("0x1.bc6fa042211e4p+1"),
     [1, 1, 2, 0, 0, -2, -2, -2], "0x1.204ac8e6bc324p-2", [0, 0, 2, 2, -1, 1, -2, -2]),
], ids=["einsum-ties-unit-vector", "einsum-tie-one-ulp", "integer-n8"])
def test_the_rank_k_winner_is_the_lowest_on_g(h, power, a_star, f_hex, rival):
    # the winner is chosen by quad_objective on G, the function f_star
    # comes from, and must beat the best unit vector strictly
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array(h), power=power))
    res = solve_dpk(gram, dec, budget=None)
    assert res.a_star.entries.tolist() == a_star
    assert res.f_star == float.fromhex(f_hex)
    if sum(map(abs, a_star)) == 1:
        assert res.witness_point is None
        assert res.f_star == np.min(np.diag(gram.entries)) == quadratic_form(gram, rival)
    else:
        assert res.f_star < quadratic_form(gram, rival)


def crowded_dec():
    """Eight lines of eight directions through every point of the
    half-integer grid: each of those vertices has 2^8 cells."""
    rows = [[1, 0], [0, 1], [1, 2], [2, 1], [1, -2], [-2, 1], [3, 2], [2, 3]]
    return ratio_dec(rows, top=0.9)


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_refusals_come_before_the_candidates_are_built():
    dec = crowded_dec()
    gram = GramMatrix(np.diag(dec.d) - dec.v @ dec.v.T)
    assert cmax_of(gram, dec) == 3
    full = solve_dpk(gram, dec, budget=None)
    verts = _vertex_labels(dec, 3)
    cells = full.candidates_evaluated - dec.n
    assert np.count_nonzero(verts.generic) * 4 < cells // 2
    # the candidate matrix alone takes this much
    matrix = cells * dec.n * 8
    assert peak_bytes(lambda: solve_dpk(gram, dec, budget=None)) > matrix

    def refused(budget, message):
        with pytest.raises(ResourceBudgetError, match=message):
            solve_dpk(gram, dec, budget=budget)

    # the vertex bound C(8, 2) 8^2 = 1792 fits, the vertex groups do not
    groups = math.comb(full.breakpoint_count, 3)
    assert peak_bytes(lambda: refused(1792, f"^{groups} vertex groups of size 3 exceed")) < matrix / 2
    ratios = dec.v / dec.d[:, None]
    assert peak_bytes(lambda: pytest.raises(ResourceBudgetError, _vertex_cells, verts, ratios,
                                            cells - 1)) < matrix / 4


def test_deterministic():
    rng = np.random.default_rng(89)
    channel = MimoChannel(h_matrix=rng.standard_normal((4, 2)), power=2.0)
    gram, dec = build_gram_mimo(channel)
    first = solve_dpk(gram, dec)
    second = solve_dpk(gram, dec)
    assert first.f_star == second.f_star
    assert np.array_equal(first.a_star.entries, second.a_star.entries)
    assert first.candidates_evaluated == second.candidates_evaluated


def flip_column(dec, j):
    v = dec.v.copy()
    v[:, j] = -v[:, j]
    return DpkDecomposition(d=dec.d, v=v)


def outcome(res):
    return (res.a_star.entries.tolist(), res.f_star, res.breakpoint_count,
            res.candidates_evaluated)


@pytest.mark.parametrize("draw", ["gaussian", "half-integer"])
def test_column_signs_do_not_change_the_result(draw):
    rng = np.random.default_rng(97)
    checked = 0
    for trial in range(60):
        k = 1 + trial % 2
        n = int(rng.integers(k + 1, 6))
        if draw == "gaussian":
            h = rng.standard_normal((n, k))
        else:
            h = rng.integers(-3, 4, size=(n, k)) / 2.0
        gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=float(rng.uniform(0.1, 3.0))))
        if dec is None:
            continue
        base = outcome(solve_dpk(gram, dec, budget=None))
        for j in range(dec.k):
            assert outcome(solve_dpk(gram, flip_column(dec, j), budget=None)) == base
            checked += 1
    assert checked >= 60


def test_equal_gains_stay_within_budget():
    h = np.ones(24)
    gram, dec = build_gram_single(h, 2.0), dpk_from_single(h, 2.0)
    res = solve_dpk(gram, dec)
    # a_star = 1 scores n = 24; a unit vector scores 1 + 23 P = 47
    assert res.a_star.entries.tolist() == [1] * 24
    assert res.candidates_evaluated <= 24 + 2 * res.breakpoint_count
    oracle = brute_force_slv(gram, certification_radius(gram, res.f_star), budget=None)
    assert abs(res.f_star - oracle.f_star) <= 1e-9 * oracle.f_star


ADVERSARIAL_H = [
    # rank-deficient: two equal rows of H
    ((1.0, 0.5), (1.0, 0.5), (-0.3, 2.0)),
    ((2.0,), (2.0,), (1.0,)),
    ((0.7, -1.2), (0.7, -1.2), (0.7, -1.2), (1.5, 0.4)),
    # opposite rows: their hyperplanes coincide and must round oppositely
    ((1.0, 0.5), (-1.0, -0.5), (0.3, 2.0)),
    ((2.0,), (-2.0,), (1.0,)),
    # half-integer entries: many hyperplanes share a vertex
    ((0.5, 1.0), (-1.5, 0.5), (1.0, 1.0)),
    ((0.5, 0.5), (0.5, -0.5), (1.5, 0.0)),
    ((1.5, -0.5), (0.5, 0.5), (-1.0, 1.5), (0.5, 2.0)),
    ((1.0, 0.5, 0.0), (0.5, -1.0, 0.5), (0.0, 0.5, 1.5), (1.5, 0.0, -0.5)),
]


@pytest.mark.parametrize("power", [0.5, 4.0])
@pytest.mark.parametrize("rows", ADVERSARIAL_H)
def test_adversarial_channels_match_oracle(rows, power, box_minimum):
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array(rows), power=power))
    res = solve_dpk(gram, dec, budget=None)
    radius = certification_radius(gram, res.f_star)
    oracle = brute_force_slv(gram, radius, budget=None)
    assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
    if gram.n <= 3:
        box_f, _ = box_minimum(gram.entries, math.ceil(radius), radius)
        assert abs(res.f_star - box_f) <= 1e-9 * max(1.0, box_f)


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 2), (4, 3)])
def test_higher_rank_matches_oracle(n, k):
    rng = np.random.default_rng(101 + 10 * n + k)
    for _ in range(20):
        channel = MimoChannel(h_matrix=rng.standard_normal((n, k)),
                              power=float(np.exp(rng.uniform(np.log(0.1), np.log(5.0)))))
        gram, dec = build_gram_mimo(channel)
        res = solve_dpk(gram, dec, budget=None)
        oracle = brute_force_slv(gram, certification_radius(gram, res.f_star), budget=None)
        assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)


def test_rank_one_sweep_counts():
    rng = np.random.default_rng(103)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        h = rng.standard_normal(n) if rng.uniform() < 0.5 else rng.integers(-2, 3, n) / 2.0
        if not h.any():
            continue
        power = float(rng.uniform(0.1, 20.0))
        gram = build_gram_single(h, power)
        dec = dpk_from_single(h, power)
        res = solve_dpk(gram, dec)
        psi = max(1.0, search_radius_psi(gram))
        # breakpoint_count counts the x > 0 crossings, c = 0..cmax, on
        # each nonzero coordinate
        assert res.breakpoint_count == np.count_nonzero(h) * (cmax_of(gram, dec) + 1)
        assert res.breakpoint_count <= n * (math.ceil(psi) + 1)
        # n unit vectors, then at most one open interval per crossing
        assert n < res.candidates_evaluated <= n + res.breakpoint_count
        # criterion 5's bound
        assert res.breakpoint_count <= math.comb(n, 1) * (2 * math.ceil(psi) + 2)


def rank_one_draws(rng, count):
    """User-supplied rank-one pairs: d over 1e-2..1e2, v with zero
    entries and equal or opposite gains, scaled so that G stays
    positive definite."""
    for trial in range(count):
        n = int(rng.integers(1, 7))
        d = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
        kind = trial % 4
        if kind == 0:
            w = rng.standard_normal(n)
        elif kind == 1:
            w = rng.choice([-1.0, 1.0], n)  # equal or opposite gains
        elif kind == 2:
            w = rng.integers(-2, 3, n) / 2.0  # zero and commensurate entries
        else:
            w = np.round(rng.standard_normal(n), 1)
        if not w.any():
            continue
        if kind == 1:
            d = np.full(n, d[0])
        # W = diag(d)^-1/2 v with |W| = s < 1 keeps diag(d) - v v^T definite
        s = float(rng.uniform(0.3, 0.99))
        v = np.sqrt(d) * w * (s / np.linalg.norm(w))
        dec = DpkDecomposition(d=d, v=v[:, None])
        yield GramMatrix(np.diag(d) - np.outer(v, v)), dec


def test_rank_one_user_decompositions_match_oracle(box_minimum):
    rng = np.random.default_rng(107)
    checked = 0
    for gram, dec in rank_one_draws(rng, 240):
        res = solve_dpk(gram, dec, budget=None)
        radius = certification_radius(gram, res.f_star)
        oracle = brute_force_slv(gram, radius, budget=None)
        assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
        if res.witness_point is not None:
            image = (dec.v[:, 0] / dec.d) * res.witness_point[0]
            assert np.all(np.abs(image - res.a_star.entries) <= 0.5 + 1e-9)
        if gram.n <= 3:
            box_f, _ = box_minimum(gram.entries, math.ceil(radius), radius)
            assert abs(res.f_star - box_f) <= 1e-9 * max(1.0, box_f)
        checked += 1
    assert checked >= 200


@pytest.mark.parametrize("power", [0.2, 0.6])
def test_rank_one_equal_gains_keep_the_first_unit_vector(power):
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.ones((4, 1)), power=power))
    res = solve_dpk(gram, dec)
    # below P = 1 every unit vector beats (1,1,1,1); G's diagonal entries
    # are equal in these two cases, and the first unit vector wins the tie
    assert np.all(np.diag(gram.entries) == gram.entries[0, 0])
    assert res.a_star.entries.tolist() == [1, 0, 0, 0]
    assert res.witness_point is None
    assert res.f_star == gram.entries[0, 0]


@pytest.mark.parametrize("h, power, a_star, f_hex", [
    # G[3, 3] is below G[0, 0] in the last bit, and (1, 0, 0, 1) ties it
    ((2.0, -1.0, -1.0, 2.0), 0.5, [0, 0, 0, 1], None),
    ((-1.0, 0.0, -1.0, -1.0), 1.0, [1, 0, 1, 1], "0x1.7fffffffffffdp-1"),
    # (1, -1, 0, 0) and (2, -2, -1, -1) tie exactly; the swept f ranks the
    # second lower, but it scores higher on G
    ((2.0, -2.0, -1.0, -1.0), 2.0, [1, -1, 0, 0], "0x1.e79e79e79e79ep-2"),
    # (0, 0, 0, 1, 1, -1) ties e_4 on G; an einsum ranks it lower
    ((1.0, 0.0, -1.0, -3.0, -2.0, 2.0), 1.0, [0, 0, 0, 1, 0, 0], None),
    # an einsum ranks h itself first, 2 ulps above this vector on G
    ((3.0, -3.0, 0.0, 1.0, -2.0, 3.0, 0.0), 4.0, [1, -1, 0, 0, -1, 1, 0], "0x1.fc07f01fc07f0p-3"),
    # (1, 1, 0) ties e_2 exactly; the swept f puts it above G[1, 1], but
    # it is 4 ulps below on G
    ((-1.0, -1.5, -0.5), 2.0, [1, 1, 0], "0x1.bfffffffffff8p-2"),
], ids=["last-bit-unit-vector", "unit-interval-first", "swept-order-misleads",
        "einsum-ties-unit-vector", "einsum-order-misleads", "swept-above-unit-vector"])
def test_rank_one_ties_break_on_g(h, power, a_star, f_hex):
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array(h)[:, None], power=power))
    res = solve_dpk(gram, dec)
    # the winner is chosen by the value f_star reports, quad_objective on
    # G, and must beat the best unit vector strictly
    assert res.a_star.entries.tolist() == a_star
    if f_hex is None:
        assert res.witness_point is None
        assert res.f_star == gram.entries[3, 3] == np.min(np.diag(gram.entries))
    else:
        assert res.f_star == float.fromhex(f_hex)


def test_rank_one_large_single_antenna_instance():
    # its 8 448 arrangement vertices give C(8448, 2) > 2e7 vertex groups;
    # at rank one only the vertex bound is checked against the budget
    rng = np.random.default_rng(109)
    h = rng.standard_normal(128)
    res = solve_dpk(build_gram_single(h, 10.0), dpk_from_single(h, 10.0))
    assert res.f_star == solve_single(h, 10.0).f_star


def vertex_set_draws(rng, count):
    """n = k = 2 pairs whose W = diag(d)^-1/2 V is nearly rank-deficient
    and close to the definiteness limit, with d spread over 1e-2..1e2."""
    for _ in range(count):
        d = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 2))
        top = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0)
        ratio = 10.0 ** rng.uniform(-10.5, -9.0)
        left, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        right, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        w = left @ np.diag([top, top * ratio]) @ right.T
        try:
            dec = DpkDecomposition(d=d, v=np.sqrt(d)[:, None] * w)
        except ValueError:
            continue  # W's singular value ratio is at or below 1e-10
        yield GramMatrix(np.diag(d) - dec.v @ dec.v.T), dec


def test_vertex_set_keeps_subsets_the_decomposition_accepts():
    rng = np.random.default_rng(113)
    solved = 0
    for gram, dec in vertex_set_draws(rng, 400):
        try:
            res = solve_dpk(gram, dec)
        except ResourceBudgetError:
            continue
        # the one 2-row subset is W itself, which DpkDecomposition accepted
        assert res.breakpoint_count > 0
        oracle = brute_force_slv(gram, certification_radius(gram, res.f_star), budget=None)
        assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
        solved += 1
    assert solved >= 50
