"""Print every output of a fixed seeded corpus of rank-k solves and oracle calls, one JSON line each.

Usage, from the repository root of each checkout to compare:

    PYTHONPATH=src python tests/data/equivalence_corpus.py > corpus.jsonl

Running it on two checkouts and comparing the two files with `diff`
lists every solve or oracle call whose output moved.  Draw `seed`
(0..2999) comes from cfslv.bench.trial_rng(seed, 0): k = 2 or 3, n =
k..k + 3, P log-uniform in 0.1..5, and by seed % 4 a Gaussian, integer
(-2..2), half-integer (-3/2..3/2) or negated-row channel (a Gaussian H
with one row set to minus another).  Each draw is solved by
build_gram_mimo and solve_dpk at budgets None, 2 000 and the default
2e7.  A line holds the draw and the budget, then a_star, f_star as
float.hex, both counts and the witness as float.hex, or the type and
message of the exception the solve raised.  Where the solve at budget
None returns, two more lines certify its G with brute_force_slv at the
default oracle budget: one at certification_radius(G, f_star) of that
solve, and one at radius sqrt(2.5), inside the oracle's pair ball.  Each
holds the draw and which radius, then the radius, a_star and f_star as
float.hex and candidates_evaluated, or the exception raised.  The 15 000
lines take about 9 s on one core of a shared Intel Xeon.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cfslv.bench import trial_rng
from cfslv.gram import MimoChannel, build_gram_mimo
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.solver_dpk import DEFAULT_COMBINATION_BUDGET, solve_dpk

DRAWS = 3000
KINDS = ("gaussian", "integer", "half-integer", "negated-row")
BUDGETS = (None, 2000, DEFAULT_COMBINATION_BUDGET)


def draw(seed: int) -> tuple[str, np.ndarray, float]:
    """The channel kind, H and P of draw seed."""
    rng = trial_rng(seed, 0)
    kind = KINDS[seed % len(KINDS)]
    k = int(rng.integers(2, 4))
    n = int(rng.integers(k, k + 4))
    if kind == "integer":
        h = rng.integers(-2, 3, (n, k)).astype(float)
    elif kind == "half-integer":
        h = rng.integers(-3, 4, (n, k)) / 2.0
    else:
        h = rng.standard_normal((n, k))
    if kind == "negated-row":
        i, j = rng.choice(n, 2, replace=False)
        h[j] = -h[i]
    power = float(math.exp(rng.uniform(math.log(0.1), math.log(5.0))))
    return kind, h, power


def outputs(h: np.ndarray, power: float, budget: int | None) -> tuple[dict, object]:
    """solve_dpk's outputs on H at P, or the exception it raised, and its
    G and result (None where it raised)."""
    try:
        gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=power))
        res = solve_dpk(gram, dec, budget=budget)
    except Exception as exc:  # an output to compare, like a result
        return {"error": type(exc).__name__, "message": str(exc)}, None
    witness = res.witness_point
    return {
        "a_star": res.a_star.entries.tolist(),
        "f_star": res.f_star.hex(),
        "candidates": res.candidates_evaluated,
        "breakpoints": res.breakpoint_count,
        "witness": None if witness is None else [float(x).hex() for x in witness],
    }, (gram, res)


def oracle_outputs(gram, f_star: float | None) -> dict:
    """brute_force_slv's outputs on G at certification_radius(G, f_star),
    or at radius sqrt(2.5) when f_star is None, or the exception raised."""
    try:
        radius = math.sqrt(2.5) if f_star is None else certification_radius(gram, f_star)
        res = brute_force_slv(gram, radius)
    except Exception as exc:  # an output to compare, like a result
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "radius": radius.hex(),
        "a_star": res.a_star.entries.tolist(),
        "f_star": res.f_star.hex(),
        "candidates": res.candidates_evaluated,
    }


def main() -> None:
    for seed in range(DRAWS):
        kind, h, power = draw(seed)
        head = {"seed": seed, "kind": kind, "n": h.shape[0], "k": h.shape[1]}
        solved = None
        for budget in BUDGETS:
            line, result = outputs(h, power, budget)
            if budget is None:
                solved = result
            print(json.dumps({**head, "budget": budget, **line}), flush=True)
        if solved is None:
            continue
        gram, res = solved
        for oracle, f_star in (("certification", res.f_star), ("sqrt2.5", None)):
            line = {**head, "oracle": oracle, **oracle_outputs(gram, f_star)}
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
