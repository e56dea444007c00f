"""Solver and oracle outputs pinned in tests/data/golden_a_star.json.

The file was written by tests/data/make_golden_a_star.py; a solver
or oracle rewrite must return the same canonical a_star on every
instance.
"""

import json
from pathlib import Path

import numpy as np

from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
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
    # not a tie on G: the solver's (1, -1, -1, 1) is 2 ulps below e_2 by
    # quad_objective, but the oracle ranks by its own running sums
    ("mimo-k2-integer", 9000): [0, 1, 0, 0],
}


def _floats(value):
    if isinstance(value, list):
        return [_floats(v) for v in value]
    return float.fromhex(value)


def _mismatches(result_for, ties):
    mismatches = []
    for row in GOLDEN:
        h = np.array(_floats(row["h"]))
        f_star = float.fromhex(row["f_star"])
        res = result_for(h, float.fromhex(row["power"]), f_star)
        expected = ties.get((row["kind"], row["seed"]), row["a_star"])
        if (res.a_star.entries.tolist() != expected
                or abs(res.f_star - f_star) > 1e-12 * abs(f_star)):
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
    assert not _mismatches(_solver, {})


def test_golden_oracle():
    assert not _mismatches(_oracle, ORACLE_TIES)
