"""Solver and oracle outputs pinned in tests/data/golden_a_star.json.

The file was written by tests/data/make_golden_a_star.py; a solver
or oracle rewrite must return the same canonical a_star on every
instance.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single, dpk_from_single
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.solver_dpk import solve_dpk
from cfslv.solver_single import solve_single

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_a_star.json").read_text())["instances"]

# exact ties with the best unit vector: the solver keeps the unit vector,
# the oracle the first vector in its enumeration order
ORACLE_TIES = {
    ("single-commensurate", 2000): [0, 1],
    ("single-commensurate", 2035): [0, 1],
    ("single-integer", 8006): [0, 0, 0, 1, 0],
    ("single-integer", 8016): [0, 1, 0, 0],
    ("single-integer", 8030): [0, 0, 1],
    ("single-integer", 8032): [0, 0, 0, 0, 0, 1],
    ("single-integer", 8035): [1, 0, -1, 0, 0],
    ("single-integer", 8044): [0, 0, 0, 1],
    ("single-integer", 8048): [0, 0, 1, 0, 0],
    ("single-integer", 8050): [0, 1, 0],
    ("single-integer", 8056): [1, 0, 0, -1],
    ("single-integer", 8058): [0, 1],
    ("mimo-k2-halfint", 5022): [0, 0, 1],
    ("mimo-k2-parallel", 6013): [0, 1, 0],
}


def _floats(value):
    if isinstance(value, list):
        return [_floats(v) for v in value]
    return float.fromhex(value)


def _mismatches(result_for, ties, value):
    """Rows whose result differs from the stored a_star (or the tie's
    vector) or whose f_star is off the stored value by more than 1e-12
    relative; bit equality would not carry across BLAS builds."""
    mismatches = []
    for row in GOLDEN:
        h = np.array(_floats(row["h"]))
        f_star = float.fromhex(row["f_star"])
        res = result_for(h, float.fromhex(row["power"]), f_star)
        expected = ties.get((row["kind"], row["seed"]), row["a_star"])
        f_expected = float.fromhex(row[value])
        if (res.a_star.entries.tolist() != expected
                or abs(res.f_star - f_expected) > 1e-12 * abs(f_expected)):
            mismatches.append((row["kind"], row["seed"], res.a_star.entries.tolist(), expected))
    return mismatches


def _solver(h, power, _f_star):
    if h.ndim == 1:
        return solve_single(h, power)
    return solve_dpk(*build_gram_mimo(MimoChannel(h_matrix=h, power=power)), budget=None)


def _oracle(h, power, f_star):
    if h.ndim == 1:
        gram = build_gram_single(h, power)
    else:
        gram = build_gram_mimo(MimoChannel(h_matrix=h, power=power))[0]
    return brute_force_slv(gram, certification_radius(gram, f_star))


def test_golden_a_star():
    assert len(GOLDEN) == 370
    assert not _mismatches(_solver, {}, "f_star")


def test_golden_oracle():
    assert not _mismatches(_oracle, ORACLE_TIES, "f_oracle")


def _campaign():
    """(h, power) draws near the benchmark workloads': single-antenna n
    2-6 with P in [0.1, 10], and k = 1 (n 2-6) and k = 2 (n 2-3) MIMO
    channels with P in [0.1, 5], where more searches find a winner;
    Gaussian gains, P log-uniform."""
    rng = np.random.default_rng(2121)
    for _ in range(150):
        yield rng.standard_normal(int(rng.integers(2, 7))), float(np.exp(rng.uniform(-2.3, 2.3)))
    for k, n_hi in (1, 6), (2, 3):
        for _ in range(150):
            h = rng.standard_normal((int(rng.integers(k + 1, n_hi + 1)), k))
            yield h, float(np.exp(rng.uniform(-2.3, 1.6)))


def _golden():
    for row in GOLDEN:
        yield np.array(_floats(row["h"])), float.fromhex(row["power"])


def _results(h, power):
    """Every solver's and the oracle's result on the draw, with its G."""
    if h.ndim == 1:
        gram = build_gram_single(h, power)
        res = solve_single(h, power)
        yield "solve_single", res, gram
        yield "solve_dpk", solve_dpk(gram, dpk_from_single(h, power), budget=None), gram
    else:
        gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=power))
        res = solve_dpk(gram, dec, budget=None)
        yield "solve_dpk", res, gram
    yield "oracle", brute_force_slv(gram, certification_radius(gram, res.f_star)), gram


@pytest.mark.parametrize("draws", [_campaign, _golden], ids=["campaign", "golden"])
def test_search_winners_report_their_value_on_g(draws):
    # f_star is the value the search scored its winner with on G, in
    # the winner's sign; it must be a_star^T G a_star bit for bit
    winners = dict.fromkeys(["solve_single", "solve_dpk", "oracle"], 0)
    for h, power in draws():
        for name, res, gram in _results(h, power):
            a = res.a_star.entries
            if np.count_nonzero(a) < 2 and abs(a).max() == 1:
                continue  # a unit vector winner, reported as G_jj
            winners[name] += 1
            v = a.astype(float)
            assert res.f_star.hex() == float(v @ gram.entries @ v).hex(), (name, h, power)
    assert all(count > 0 for count in winners.values()), winners
