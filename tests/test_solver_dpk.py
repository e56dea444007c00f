"""Vertex enumeration and the diagonal-minus-low-rank exact solver."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import cfslv.solver_dpk
import cfslv.solver_single
from cfslv.core import (
    DpkDecomposition,
    GramMatrix,
    canonical_sign,
    quad_objective,
    quadratic_form,
    _best_unit,
)
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
from cfslv.solver_dpk import _vertex_labels, _vertex_search, solve_dpk
from cfslv.solver_single import (
    _norm_ceiling,
    _rank_one_search,
    _unit_vector_certified,
    solve_single,
)


def rank_one_dec():
    return DpkDecomposition(d=np.array([5.0, 5.0]), v=np.full((2, 1), np.sqrt(2.0)))


def cmax_of(gram, dec):
    """The ceiling solve_dpk searches on this pair, without a budget."""
    return _norm_ceiling(float(np.min(np.diag(gram.entries))), gram.min_eigenvalue,
                         dec.n, dec.k, None)[0]


def vertex_set(dec, cmax):
    """The vertex of every label _vertex_labels solves, in label order."""
    return _vertex_labels(dec, cmax, None).x.transpose(0, 2, 1).reshape(-1, dec.k)


def label_cells(verts, flat):
    """The 2^k cells of label flat = (s, r), as _vertex_search builds them."""
    k = verts.rows.shape[1]
    s, r = divmod(flat, verts.c.shape[0])
    cells = np.repeat(verts.at(verts.base, np.array([flat])), 1 << k, axis=0)
    cells[:, verts.rows[s]] = verts.w[r << k:(r + 1) << k]
    return cells


def test_vertex_set_rank_one():
    verts = vertex_set(rank_one_dec(), 2)
    # both coordinate subsets give the same line positions c * 5 / sqrt(2),
    # and each keeps its own label there
    expected = sorted(c * 5.0 / np.sqrt(2.0) for c in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5))
    assert verts.shape[0] == 12
    assert np.allclose(verts[:, 0], expected * 2)


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
        # every label keeps its own vertex: the subset's solution, bit
        # for bit, in label order
        assert np.array_equal(verts, solved)


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
    # the skip rule's result: the best unit vector, nothing searched
    assert res.a_star.entries.tolist() == [0, 1]
    assert (res.candidates_evaluated, res.breakpoint_count, res.witness_point) == (2, 0, None)
    # a tie goes to the first j
    assert solve_dpk(GramMatrix(np.diag([0.5, 0.5, 2.0])), None).a_star.entries.tolist() == [1, 0, 0]
    with pytest.raises(ValueError):
        solve_dpk(GramMatrix(np.array([[3.0, -2.0], [-2.0, 3.0]])), None)


def test_solve_none_decomposition_rejects_a_singular_diagonal():
    # lambda_min <= 1e-12 raises on the diagonal path too, as for any G
    with pytest.raises(ValueError, match="numerically singular"):
        solve_dpk(GramMatrix(np.diag([1.0, 1e-13])), None)


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
    verts = _vertex_labels(dec, 1, None)
    # rows 0 and 3 are parallel, so 5 of the 6 row pairs are solved, at
    # 4^2 right-hand sides each, and all 5 have a label at that point
    assert verts.count == 5 * 16
    point = [i for i, x in enumerate(vertex_set(dec, 1)) if np.allclose(x, 0.5)]
    assert len(point) == 5
    # a line of row 0 or 3 lies on one of the other, and row 0 passes
    # through every vertex of rows 1 and 2: no label is simple
    assert verts.simple == 0
    mine = np.vstack([label_cells(verts, i) for i in point])
    # rows 0 and 3 are antiparallel: one takes its upper neighbour when
    # the other takes its lower one, and both take their lower one in the
    # sliver between their moved hyperplanes x_1 = 1/2 + eps sqrt(2) and
    # x_1 = 1/2 - eps sqrt(7)
    assert set(map(tuple, mine[:, [0, 3]].tolist())) == {(0.0, 0.0), (1.0, -1.0), (0.0, -1.0)}
    # the budget covers 2^k = 4 cells at each label, counted before any is solved
    total = 4 * verts.count
    assert _vertex_labels(dec, 1, total).count == verts.count
    with pytest.raises(ResourceBudgetError, match=f"^{total} vertex cells exceed budget {total - 1}$"):
        _vertex_labels(dec, 1, total - 1)


def channel_matrix(rng, kind, n, k):
    """An n x k channel: Gaussian, integer (-2..2), half-integer
    (-3/2..3/2), or Gaussian with one row set to minus another."""
    if kind == "integer":
        return rng.integers(-2, 3, (n, k)).astype(float)
    if kind == "half-integer":
        return rng.integers(-3, 4, (n, k)) / 2.0
    h = rng.standard_normal((n, k))
    if kind == "negated-row":
        i, j = rng.choice(n, 2, replace=False)
        h[j] = -h[i]
    return h


@pytest.mark.parametrize("k", [2, 3])
def test_generic_vertices_score_two_to_the_k_cells(k):
    # integer, half-integer and negated rows put more than k hyperplanes
    # through many vertices, most of them in the half-integer k = 2,
    # n 12-16 family; each label still scores its own 2^k cells
    families = [(kind, k + 1, 6 if k == 2 else 5, 0.3, 5.0, 15)
                for kind in ("gaussian", "integer", "half-integer", "negated-row")]
    if k == 2:
        families.append(("half-integer", 12, 16, 0.1, 1.0, 40))
    rng = np.random.default_rng(127 + k)
    searched = 0
    for kind, n_lo, n_hi, p_lo, p_hi, count in families:
        for _ in range(count):
            n = int(rng.integers(n_lo, n_hi + 1))
            channel = MimoChannel(h_matrix=channel_matrix(rng, kind, n, k),
                                  power=float(np.exp(rng.uniform(np.log(p_lo), np.log(p_hi)))))
            gram, dec = build_gram_mimo(channel)
            if dec is None:
                continue
            res = solve_dpk(gram, dec, budget=None)
            # a skipped solve reads (n, 0), which satisfies this too
            assert res.candidates_evaluated == n + 2 ** k * res.breakpoint_count
            searched += res.breakpoint_count > 0
            oracle = brute_force_slv(gram, certification_radius(gram, res.f_star), budget=None)
            assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
            if res.witness_point is not None:
                image = (dec.v / dec.d[:, None]) @ res.witness_point
                assert np.all(np.abs(image - res.a_star.entries) <= 0.5 + 1e-9)
    assert searched >= (60 if k == 2 else 30)


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
    cmax = cmax_of(gram, dec)
    verts = _vertex_labels(dec, cmax, None)
    best_f, best_a = _best_unit(gram.entries)
    # the search itself, which solve_dpk skips when the unit vector is certified
    a, _, x, scored, count = _vertex_search(gram.entries, dec, cmax, None, best_f)
    assert (scored, count) == (verts.count << dec.k, verts.count)
    # every label but the zero row's has other rows through its vertex
    assert (verts.simple < verts.count) == (name != "zero-row")
    if _unit_vector_certified(gram.entries, best_f, gram.min_eigenvalue):
        # psi^2 < 2 at top 0.5; these three lie in 2 <= psi^2 < 3 at top
        # 0.95, with every pair clear of the best unit vector
        assert top == 0.5 or name in {"antiparallel", "three-lines-one-point", "zero-row"}
        assert (res.candidates_evaluated, res.breakpoint_count) == (dec.n, 0)
        assert a is None
    else:
        assert res.breakpoint_count == verts.count
    searched = quadratic_form(gram, best_a if a is None else a)
    radius = certification_radius(gram, res.f_star)
    oracle = brute_force_slv(gram, radius, budget=None)
    box_f, _ = box_minimum(gram.entries, math.ceil(radius), radius)
    for f in res.f_star, searched:
        assert abs(f - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
        assert abs(f - box_f) <= 1e-9 * max(1.0, box_f)
    for witness, found in (res.witness_point, res.a_star.entries), (x, a):
        if witness is not None:
            image = (dec.v / dec.d[:, None]) @ witness
            assert np.all(np.abs(image - found) <= 0.5 + 1e-9)


def test_copies_of_a_degenerate_vertex_take_their_own_cells():
    # rows 0 and 1 are negations of each other, and rounding puts two
    # copies of one degenerate vertex 1.33e-9 apart; each copy is a label
    # of its own and scores its own 2^k cells
    h = [[-0.46918811417037287, -0.1128931533640909], [0.46918811417037287, 0.1128931533640909],
         [0.6854763797414173, 0.5927592341265248], [-0.05801835598190251, -0.6797469926467432],
         [-0.6576755830182472, -1.0755466705458019], [0.8398458749078057, 0.2027321791304967]]
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array(h), power=0.16333752389939873))
    assert cmax_of(gram, dec) == 2
    verts = _vertex_labels(dec, 2, None)
    # 14 row pairs solved at 6^2 right-hand sides: 216 labels of simple
    # vertices, and 288 at 144 vertices that rows 0 and 1 both pass through
    assert (verts.count, verts.simple) == (14 * 36, 216)
    res = solve_dpk(gram, dec)
    assert (res.candidates_evaluated, res.breakpoint_count) == (6 + 4 * 504, 504)
    assert res.a_star.entries.tolist() == [0, 0, 0, 0, 1, 0]
    assert res.f_star.hex() == "0x1.a92dcc109442ap-1"


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
    verts = _vertex_labels(dec, 3, None)
    # every label scores its own 2^k cells; 1298 of the C(8, 2) 8^2 labels
    # have other lines through their vertex
    assert (full.candidates_evaluated, full.breakpoint_count) == (8 + 4 * 1792, 1792)
    assert verts.count - verts.simple == 1298
    # one (row subsets x n x right-hand sides) array of the labels takes this much
    array = verts.base.nbytes
    assert peak_bytes(lambda: solve_dpk(gram, dec, budget=None)) > 4 * array

    def refused(budget, message):
        with pytest.raises(ResourceBudgetError, match=message):
            solve_dpk(gram, dec, budget=budget)

    # the vertex bound C(8, 2) 8^2 = 1792 fits, its 1792 x 8 label
    # entries do not, and nothing is solved
    assert peak_bytes(lambda: refused(1792, "^14336 vertex label entries exceed")) < array / 4
    # the 4 cells of each label are counted before any label is solved
    assert peak_bytes(lambda: pytest.raises(ResourceBudgetError, _vertex_labels, dec, 3,
                                            4 * 1792 - 1)) < array / 4
    # the vertex groups of the simple labels, once they are solved
    groups = math.comb(verts.simple, 3)
    refused(14336, f"^{groups} vertex groups of size 3 exceed budget 14336$")
    refused(groups - 1, f"^{groups} vertex groups of size 3 exceed")
    assert solve_dpk(gram, dec, budget=groups).a_star.entries.tolist() == full.a_star.entries.tolist()


def test_label_entries_are_refused_before_any_label_is_solved():
    # a wide-range k = 3, n = 7 channel: its C(7, 3) 68^3 labels pass
    # the vertex bound at the default budget, but not their 7 entries
    # each, which took seconds and gigabytes to build before the
    # vertex-group guard refused them
    h = [[3.0357964718803519e3, 9.5882526092331194e-2, 1.1599957028229340e-3],
         [1.7706232442663467e-2, -2.6286761521305762e3, 9.8937230797327791e-1],
         [-3.0493960901416517e2, 1.6851029839911391e3, 3.7801424135518784e5],
         [1.3988974379003743e4, -2.2399169333897637e-6, -9.3794879981196788e-5],
         [1.3702139115283854e-1, 3.0791062471769897e-3, 2.6323404940728546e5],
         [3.2276271686195646e3, 4.5281046252472285e-7, 2.8754981804489319e1],
         [2.2840299336622046e-5, -1.2570668590740415e3, -1.2620225241289596e-3]]
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=np.array(h), power=1.9026314485068136e-8))
    assert cmax_of(gram, dec) == 33
    entries = math.comb(7, 3) * 68 ** 3 * 7
    assert entries // 7 <= cfslv.solver_dpk.DEFAULT_COMBINATION_BUDGET < entries
    t0 = time.perf_counter()
    peak = peak_bytes(lambda: pytest.raises(
        ResourceBudgetError, solve_dpk, gram, dec).match(f"^{entries} vertex label entries exceed"))
    assert time.perf_counter() - t0 < 0.1
    assert peak < 2**20


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
        best_f = float(np.min(np.diag(gram.entries)))
        if _unit_vector_certified(gram.entries, best_f, gram.min_eigenvalue):
            # only units and pairs have |a| < sqrt(3), and no pair is below
            # the best unit vector: nothing is swept, and the sweep finds nothing
            assert (res.breakpoint_count, res.candidates_evaluated) == (0, n)
            v = dec.v[:, 0]
            assert _rank_one_search(gram.entries, np.abs(v) / dec.d, dec.d, v,
                                    cmax_of(gram, dec), best_f)[0] is None
            continue
        # breakpoint_count counts the x > 0 crossings, c = 0..cmax, on
        # each nonzero coordinate
        assert res.breakpoint_count == np.count_nonzero(h) * (cmax_of(gram, dec) + 1)
        assert res.breakpoint_count <= n * (math.ceil(psi) + 1)
        # n unit vectors, then at most one open interval per crossing
        assert n < res.candidates_evaluated <= n + res.breakpoint_count
        # criterion 5's bound
        assert res.breakpoint_count <= math.comb(n, 1) * (2 * math.ceil(psi) + 2)


def test_rank_one_sweep_with_only_the_unit_interval_scores_nothing():
    # h = (1, 0), P = 1: d = 2, v = (1, 0), so r = (0.5, 0) crosses only
    # at x = 1 and 3 (cmax = 1); the one open interval between them holds
    # the unit vector e_0, which is never scored, so nothing is
    d, v = np.full(2, 2.0), np.array([1.0, 0.0])
    gram = GramMatrix(np.diag(d) - np.outer(v, v))
    found = _rank_one_search(gram.entries, np.abs(v) / d, d, v, 1, 1.0)
    assert found == (None, None, None, 1, 2)


def sweep_matches_the_solvers(h, power):
    """Check solve_single and solve_dpk on h at power against
    _rank_one_search run directly; returns whether they skipped it."""
    gram, dec = build_gram_single(h, power), dpk_from_single(h, power)
    best_f = float(np.min(np.diag(gram.entries)))
    skipped = _unit_vector_certified(gram.entries, best_f, gram.min_eigenvalue)
    v = dec.v[:, 0]
    a, _, x, _, _ = _rank_one_search(gram.entries, np.abs(v) / dec.d, dec.d, v,
                                     cmax_of(gram, dec), best_f)
    if a is None:
        a = np.eye(h.size, dtype=np.int64)[int(np.argmin(np.diag(gram.entries)))]
    expected = quadratic_form(gram, a)
    for res in solve_single(h, power), solve_dpk(gram, dec):
        assert res.a_star.entries.tolist() == canonical_sign(a).entries.tolist()
        assert res.f_star == expected
        assert (res.breakpoint_count == 0) == skipped
        assert (res.candidates_evaluated == h.size) == skipped
        assert (res.witness_point is None) == (x is None)
    return skipped


SWEEP_H = [(1.0, 0.6, -0.3), (0.5, -0.5, 0.5, 0.25), (1.0, 1.0)]


@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 - 1e-10, 1.0 + 1e-6])
@pytest.mark.parametrize("h", SWEEP_H)
def test_unit_vector_bound_matches_the_sweep(h, scale):
    # psi^2 = min G_jj / lambda_min = 1 + P (|h|^2 - max h_j^2) here, so
    # this P puts psi^2 at 1 + scale: below 2 (1 - 1e-9) the unit vector
    # wins outright; at or above it the solvers skip the sweep when every
    # pair is clear of the unit vector, as for all but h = (1, 1), whose
    # pair (1, 1) scores 2, within the margin of G_00 = 1 + P or below it
    h_arr = np.array(h)
    power = scale / (h_arr @ h_arr - np.max(h_arr * h_arr))
    gram = build_gram_single(h_arr, power)
    best_f = float(np.min(np.diag(gram.entries)))
    assert (best_f / gram.min_eigenvalue < 2.0 * (1.0 - 1e-9)) == (scale == 1.0 - 1e-6)
    assert sweep_matches_the_solvers(h_arr, power) == (scale == 1.0 - 1e-6 or h != (1.0, 1.0))


@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 + 1e-6])
@pytest.mark.parametrize("h", SWEEP_H)
def test_pair_bound_matches_the_sweep(h, scale):
    # this P puts psi^2 at 3 scale: just below 3 (1 - 1e-9) the solvers
    # skip the sweep when every pair is clear of the best unit vector, as
    # for all but h = (1, 1), whose pair (1, 1) scores 2 < G_00 = 3 scale;
    # above it they sweep
    h_arr = np.array(h)
    power = (3.0 * scale - 1.0) / (h_arr @ h_arr - np.max(h_arr * h_arr))
    assert sweep_matches_the_solvers(h_arr, power) == (scale < 1.0 and h != (1.0, 1.0))


def psi2_dec(v, psi2):
    """The pair G = c I - V V^T whose psi^2 = (c - max_j |v_j|^2) / (c -
    s^2), s the largest singular value of V, equals psi2."""
    v = np.array(v)
    top, s2 = np.max(np.sum(v * v, axis=1)), np.linalg.norm(v, 2) ** 2
    dec = DpkDecomposition(d=np.full(v.shape[0], (psi2 * s2 - top) / (psi2 - 1.0)), v=v)
    return GramMatrix(np.diag(dec.d) - v @ v.T), dec


def vertex_search_matches_solve_dpk(gram, dec):
    """Check solve_dpk on the pair at budgets None and the default against
    _vertex_search run directly; returns whether it may skip the search
    (it does wherever the vertex-group guard could not fire)."""
    best_f, best_a = _best_unit(gram.entries)
    skipped = _unit_vector_certified(gram.entries, best_f, gram.min_eigenvalue)
    for budget in None, cfslv.solver_dpk.DEFAULT_COMBINATION_BUDGET:
        try:
            a, _, x, scored, count = _vertex_search(gram.entries, dec, cmax_of(gram, dec),
                                                    budget, best_f)
        except ResourceBudgetError:
            # the k = 3 vertex groups exceed the default budget
            assert dec.k == 3 and budget is not None
            with pytest.raises(ResourceBudgetError):
                solve_dpk(gram, dec, budget=budget)
            continue
        a = best_a if a is None else a
        res = solve_dpk(gram, dec, budget=budget)
        assert res.a_star.entries.tolist() == canonical_sign(a).entries.tolist()
        assert res.f_star == quadratic_form(gram, a)
        if skipped:
            assert (res.candidates_evaluated, res.breakpoint_count) == (dec.n, 0)
        else:
            assert (res.candidates_evaluated, res.breakpoint_count) == (dec.n + scored, count)
        assert (res.witness_point is None) == (x is None)
    return skipped


PSI2_V = [
    ((1.0, 0.2), (0.3, -0.8), (-0.5, 0.6)),
    ((0.5, -0.5), (0.5, 0.5), (1.0, 0.0), (0.0, 0.5)),
    ((1.0, 0.2, 0.0), (0.3, -0.8, 0.4), (-0.5, 0.6, 0.1), (0.2, 0.1, -0.9)),
]


@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 - 1e-10, 1.0 + 1e-6])
@pytest.mark.parametrize("v", PSI2_V)
def test_rank_k_unit_vector_bound_matches_the_vertex_search(v, scale):
    # below psi^2 = 2 (1 - 1e-9) the best unit vector wins outright; at or
    # above it every pair of these v is clear of it, so solve_dpk skips
    # the vertex search there too
    gram, dec = psi2_dec(v, 2.0 * scale)
    best_f = _best_unit(gram.entries)[0]
    assert (best_f / gram.min_eigenvalue < 2.0 * (1.0 - 1e-9)) == (scale == 1.0 - 1e-6)
    assert vertex_search_matches_solve_dpk(gram, dec)


@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 + 1e-6])
@pytest.mark.parametrize("v", PSI2_V)
def test_rank_k_pair_bound_matches_the_vertex_search(v, scale):
    # just below psi^2 = 3 (1 - 1e-9) every pair of these v is clear of
    # the best unit vector, and solve_dpk skips the search; above it, it searches
    gram, dec = psi2_dec(v, 3.0 * scale)
    assert vertex_search_matches_solve_dpk(gram, dec) == (scale < 1.0)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("eps, clear", [(2e-9, True), (0.5e-9, False), (0.0, False)],
                         ids=["outside", "inside", "exact-tie"])
def test_pairs_inside_the_margin_are_searched(eps, clear, k):
    # G = 3 I - V V^T, V's first column (1, 1 - eps, 1/2): the best unit
    # value is G_00 = 2, and the pair e_0 + e_1 scores 2 + 4 eps - eps^2,
    # against the margin 1e-9 (G_00 + G_11) = 4e-9 (1 + eps / 2)
    v = np.array([[1.0, 0.0], [1.0 - eps, 0.0], [0.5, 0.5]])[:, :k]
    dec = DpkDecomposition(d=np.full(3, 3.0), v=v)
    gram = GramMatrix(np.diag(dec.d) - v @ v.T)
    best_f, best_a = _best_unit(gram.entries)
    assert best_f == 2.0 and best_a.entries.tolist() == [1, 0, 0]
    assert 2.0 < best_f / gram.min_eigenvalue < 3.0
    assert _unit_vector_certified(gram.entries, best_f, gram.min_eigenvalue) == clear
    if eps == 0.0:
        assert quad_objective(gram.entries, np.array([1, 1, 0])) == best_f
    cmax = cmax_of(gram, dec)
    if k == 1:
        found = _rank_one_search(gram.entries, np.abs(v[:, 0]) / dec.d, dec.d, v[:, 0], cmax, best_f)
    else:
        found = _vertex_search(gram.entries, dec, cmax, None, best_f)
    # the search keeps the unit vector in every case, the exact tie too
    assert found[0] is None
    res = solve_dpk(gram, dec, budget=None)
    assert res.a_star.entries.tolist() == [1, 0, 0] and res.f_star == 2.0
    assert res.witness_point is None
    if clear:
        assert (res.candidates_evaluated, res.breakpoint_count) == (3, 0)
    else:
        assert (res.candidates_evaluated, res.breakpoint_count) == (3 + found[3], found[4])


def test_pair_check_certifies_the_naive_minimum(box_minimum):
    # random positive definite G with 2 <= psi^2 < 3: whenever the pair
    # check holds, the exhaustive minimum over |a_i| <= 2 is a unit vector
    rng = np.random.default_rng(127)
    certified = searched = 0
    for _ in range(400):
        n = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        gram = GramMatrix((q * np.r_[1.0, rng.uniform(1.0, 6.0, n - 1)]) @ q.T)
        best_f = _best_unit(gram.entries)[0]
        if not 2.0 <= best_f / gram.min_eigenvalue < 3.0:
            continue
        if _unit_vector_certified(gram.entries, best_f, gram.min_eigenvalue):
            _, a = box_minimum(gram.entries, 2)
            assert sum(map(abs, a)) == 1
            certified += 1
        else:
            searched += 1
    assert certified >= 40 and searched >= 10


@pytest.mark.parametrize("v", [((1.0, 0.2), (0.3, -0.8)), ((1.0, 0.2), (0.3, -0.8), (-0.5, 0.6))])
def test_pair_skip_keeps_the_vertex_group_refusals(v):
    # in the band cmax = 2, so the C(n, 2) 36 labels make C(36, 3) or
    # C(108, 3) vertex groups, past a budget of 2000: the search still
    # runs there and refuses, though the pair check certifies the unit vector
    gram, dec = psi2_dec(v, 2.5)
    best_f = _best_unit(gram.entries)[0]
    assert not best_f / gram.min_eigenvalue < 2.0 * (1.0 - 1e-9)
    assert _unit_vector_certified(gram.entries, best_f, gram.min_eigenvalue)
    assert cmax_of(gram, dec) == 2
    count = _vertex_labels(dec, 2, None).count
    assert count == math.comb(dec.n, 2) * 36
    groups = math.comb(count, 3)
    with pytest.raises(ResourceBudgetError,
                       match=f"^{groups} vertex groups of size 3 exceed budget 2000$"):
        solve_dpk(gram, dec, budget=2000)
    res = solve_dpk(gram, dec, budget=None)
    assert (res.candidates_evaluated, res.breakpoint_count) == (dec.n, 0)


def test_rank_k_skip_keeps_the_refusals():
    # psi^2 < 2, so the best unit vector is optimal, but the vertex-group
    # guard refuses the search at a small budget: the skip must not hide that
    gram, dec = psi2_dec(((1.0, 0.2), (0.3, -0.8), (-0.5, 0.6)), 1.9)
    assert _best_unit(gram.entries)[0] / gram.min_eigenvalue < 2.0 * (1.0 - 1e-9)
    cmax = cmax_of(gram, dec)
    bound = math.comb(3, 2) * (2 * cmax + 2) ** 2
    # every label solves to a vertex of its own
    assert _vertex_labels(dec, cmax, None).count == bound
    groups = math.comb(bound, 3)
    assert bound * 3 < 2000 < groups
    for budget in 2000, groups - 1:
        with pytest.raises(ResourceBudgetError,
                           match=f"^{groups} vertex groups of size 3 exceed budget {budget}$"):
            solve_dpk(gram, dec, budget=budget)
    # from C(bound, 3) on the guard cannot fire, and nothing is searched
    res = solve_dpk(gram, dec, budget=groups)
    assert (res.candidates_evaluated, res.breakpoint_count) == (3, 0)
    assert res.a_star.entries.tolist() == _best_unit(gram.entries)[1].entries.tolist()


def test_rank_k_skip_waits_only_on_the_vertex_groups():
    # psi^2 < 2 again: at n = 28 every budget from C(B, 3) on skips the
    # search, though the B 2^28 bound on the cell count is larger
    gram, dec = psi2_dec(0.1 * np.random.default_rng(3).standard_normal((28, 2)), 1.9)
    best_f, best_a = _best_unit(gram.entries)
    assert best_f / gram.min_eigenvalue < 2.0 * (1.0 - 1e-9)
    assert cmax_of(gram, dec) == 2
    bound = math.comb(28, 2) * (2 * 2 + 2) ** 2
    assert bound == 13_608 and math.comb(bound, 3) < bound << 28
    for budget in math.comb(bound, 3), (bound << 28) - 1, bound << 28:
        res = solve_dpk(gram, dec, budget=budget)
        assert (res.candidates_evaluated, res.breakpoint_count) == (28, 0)
        assert res.a_star.entries.tolist() == best_a.entries.tolist()


def test_rank_k_search_on_concurrent_lines_keeps_the_skipped_unit_vector():
    # 40 rows (1, gamma_i): the lines r_i x = c of one c all meet on the
    # x_1 axis, at 6 vertices that all 40 rows pass through; each of
    # their C(40, 2) labels scores its own 2^2 cells, so the search that
    # the skip spares fits the budget and finds the unit vector the skip
    # returns
    gamma = np.random.default_rng(5).uniform(-1.0, 1.0, 40)
    gram, dec = psi2_dec(np.column_stack([np.ones(40), gamma]), 1.9)
    best_f, best_a = _best_unit(gram.entries)
    assert best_f / gram.min_eigenvalue < 2.0 * (1.0 - 1e-9)
    assert cmax_of(gram, dec) == 2
    labels = math.comb(40, 2) * (2 * 2 + 2) ** 2
    budget = math.comb(labels, 3)
    assert _vertex_search(gram.entries, dec, 2, budget, best_f) == (None, None, None, 4 * labels, labels)
    res = solve_dpk(gram, dec, budget=budget)
    assert (res.candidates_evaluated, res.breakpoint_count) == (40, 0)
    assert res.a_star.entries.tolist() == best_a.entries.tolist()


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
    solved = skipped = 0
    for gram, dec in vertex_set_draws(rng, 400):
        try:
            res = solve_dpk(gram, dec)
        except ResourceBudgetError:
            continue
        # the one 2-row subset is W itself, which DpkDecomposition accepted;
        # where the unit vector is certified solve_dpk skips the vertices,
        # so look at them directly
        if _unit_vector_certified(gram.entries, _best_unit(gram.entries)[0],
                                  gram.min_eigenvalue):
            assert res.breakpoint_count == 0
            assert _vertex_labels(dec, cmax_of(gram, dec), None).rows.tolist() == [[0, 1]]
            skipped += 1
        else:
            assert res.breakpoint_count > 0
        oracle = brute_force_slv(gram, certification_radius(gram, res.f_star), budget=None)
        assert abs(res.f_star - oracle.f_star) <= 1e-9 * max(1.0, oracle.f_star)
        solved += 1
    assert solved >= 50
    assert 0 < skipped < solved


def test_vertex_search_scores_each_vector_on_g_once(monkeypatch):
    # integer rows make many vertices degenerate: the 24 cells within
    # rounding of the minimum hold two vectors up to sign, each at
    # several vertices, and each is scored on G once
    scored = []

    def counting(g, a):
        scored.append(canonical_sign(np.asarray(a)).entries.tolist())
        return quad_objective(g, a)

    monkeypatch.setattr(cfslv.solver_single, "quad_objective", counting)
    h = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=3.0))
    res = solve_dpk(gram, dec)
    assert sorted(scored) == [[0, 1, -1], [1, 1, 0]]
    assert res.a_star.entries.tolist() == [0, 1, -1]
