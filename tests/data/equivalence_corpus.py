"""Print every output of a fixed seeded corpus of solves and oracle calls, one JSON line each.

Usage, from the repository root of each checkout to compare:

    PYTHONPATH=src python tests/data/equivalence_corpus.py > corpus.jsonl

Running it on two checkouts and comparing the two files with `diff`
lists every solve or oracle call whose output moved.  Three sections
of 3000 draws each, `seed` 0..2999, run in this order:

  - rank k: trial_rng(seed, 0) draws k = 2 or 3, n = k..k + 3 and P
    log-uniform in 0.1..5, and build_gram_mimo and solve_dpk solve H;
  - single: trial_rng(seed, 1 << 16) draws n = 2..6 and P log-uniform
    in 0.1..10, and solve_single solves h (a line's head says
    "solver": "solve_single");
  - rank one: trial_rng(seed, 2 << 16) draws k = 1, n = 2..6 and P
    log-uniform in 0.1..5, and build_gram_mimo and solve_dpk solve H.

By seed % 4 the channel is Gaussian, integer (-2..2), half-integer
(-3/2..3/2) or negated-row (Gaussian, with one row, or one entry of h,
set to minus another).  Each draw is solved at budgets None, 2 000 and
the solver's default (2e7 for solve_dpk, 1e7 for solve_single).  A line
holds the draw and the budget, then a_star, f_star as float.hex, both
counts and the witness as float.hex, or the type and message of the
exception the solve raised.  Where the solve at budget None returns, two
more lines certify its G (build_gram_single's for solve_single) with
brute_force_slv at the default oracle budget: one at
certification_radius(G, f_star) of that solve, and one at radius
sqrt(2.5), inside the oracle's pair ball.  Each holds the draw and which
radius, then the radius, a_star and f_star as float.hex and
candidates_evaluated, or the exception raised.  The 45 000 lines take
about 12 s on one core of a shared Intel Xeon.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cfslv.bench import trial_rng
from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.solver_dpk import DEFAULT_COMBINATION_BUDGET, solve_dpk
from cfslv.solver_single import DEFAULT_BREAKPOINT_BUDGET, solve_single

DRAWS = 3000
KINDS = ("gaussian", "integer", "half-integer", "negated-row")
# per section: the trial_rng stream, the range of k (None for a vector
# h) and the largest P
SECTIONS = {
    "rank-k": (0, (2, 3), 5.0),
    "single": (1 << 16, None, 10.0),
    "rank-one": (2 << 16, (1, 1), 5.0),
}


def draw(seed: int, section: str = "rank-k") -> tuple[str, np.ndarray, float]:
    """The channel kind, H (h for "single") and P of draw seed."""
    stream, ks, p_max = SECTIONS[section]
    rng = trial_rng(seed, stream)
    kind = KINDS[seed % len(KINDS)]
    if ks is None:
        n = int(rng.integers(2, 7))
        shape = (n,)
    else:
        k = int(rng.integers(ks[0], ks[1] + 1))
        n = int(rng.integers(k, k + 4)) if k > 1 else int(rng.integers(2, 7))
        shape = (n, k)
    if kind == "integer":
        h = rng.integers(-2, 3, shape).astype(float)
    elif kind == "half-integer":
        h = rng.integers(-3, 4, shape) / 2.0
    else:
        h = rng.standard_normal(shape)
    if kind == "negated-row":
        i, j = rng.choice(n, 2, replace=False)
        h[j] = -h[i]
    power = float(math.exp(rng.uniform(math.log(0.1), math.log(p_max))))
    return kind, h, power


def outputs(h: np.ndarray, power: float, budget: int | None) -> tuple[dict, object]:
    """The solve's outputs on H (by build_gram_mimo and solve_dpk) or h
    (by solve_single) at P, or the exception it raised, and its G and
    result (None where it raised)."""
    try:
        if h.ndim == 1:
            res = solve_single(h, power, budget=budget)
            gram = build_gram_single(h, power)
        else:
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
    for section in SECTIONS:
        single = section == "single"
        default = DEFAULT_BREAKPOINT_BUDGET if single else DEFAULT_COMBINATION_BUDGET
        for seed in range(DRAWS):
            kind, h, power = draw(seed, section)
            if single:
                head = {"solver": "solve_single", "seed": seed, "kind": kind, "n": h.size}
            else:
                head = {"seed": seed, "kind": kind, "n": h.shape[0], "k": h.shape[1]}
            solved = None
            for budget in (None, 2000, default):
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
