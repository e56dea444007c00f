"""Solver outputs pinned in tests/data/golden_a_star.json.

The file was written by tests/data/make_golden_a_star.py; a solver
rewrite must return the same canonical a_star on every instance.
"""

import json
from pathlib import Path

import numpy as np

from cfslv.gram import MimoChannel, build_gram_mimo
from cfslv.solver_dpk import solve_dpk
from cfslv.solver_single import solve_single

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_a_star.json").read_text())["instances"]


def _floats(value):
    if isinstance(value, list):
        return [_floats(v) for v in value]
    return float.fromhex(value)


def test_golden_a_star():
    mismatches = []
    for row in GOLDEN:
        h = np.array(_floats(row["h"]))
        power = float.fromhex(row["power"])
        if h.ndim == 1:
            res = solve_single(h, power)
        else:
            res = solve_dpk(*build_gram_mimo(MimoChannel(h_matrix=h, power=power)))
        f_star = float.fromhex(row["f_star"])
        if (res.a_star.entries.tolist() != row["a_star"]
                or abs(res.f_star - f_star) > 1e-12 * abs(f_star)):
            mismatches.append((row["kind"], row["seed"], res.a_star.entries.tolist(), row["a_star"]))
    assert len(GOLDEN) == 160
    assert not mismatches
