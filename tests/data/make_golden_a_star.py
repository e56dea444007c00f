"""Write golden_a_star.json: solver outputs pinned for later solver swaps.

Usage, from the repository root:

    PYTHONPATH=src python tests/data/make_golden_a_star.py > tests/data/golden_a_star.json

Each instance is drawn from cfslv.bench.trial_rng(seed, 0) and solved by
solve_single (single antenna) or build_gram_mimo + solve_dpk (MIMO, with
no budget, so that no rank-k instance is refused); the oracle certifies
every result.  The rank-k families mimo-k2-halfint, mimo-k2-parallel
and mimo-k3 pin degenerate arrangements: half-integer channels put
three or more hyperplanes through one vertex, and a repeated or negated
row of H makes two hyperplanes coincide.  single-integer pins
solve_single's exact ties: integer (odd seeds) and half-integer (even
seeds) channels at rational powers, where two roundings often share one
objective value.  mimo-k2-integer pins the rank-k winner rule on
integer channels (entries -2..2, P in 0.25..5), where two candidates
often tie on G or differ in its last bits.  Floats are stored as
float.hex so the file is exact.  tests/test_golden.py re-solves the
stored instances and checks that a_star is unchanged and f_star is
within 1e-12 relative.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from cfslv.bench import match_within_tolerance, trial_rng
from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.solver_dpk import solve_dpk
from cfslv.solver_single import solve_single

# (kind, first seed, count)
FAMILIES = (
    ("single-random", 1000, 60),
    ("single-commensurate", 2000, 40),
    ("mimo-k1", 3000, 30),
    ("mimo-k2", 4000, 30),
    ("mimo-k2-halfint", 5000, 40),
    ("mimo-k2-parallel", 6000, 30),
    ("mimo-k3", 7000, 40),
    ("single-integer", 8000, 60),
    ("mimo-k2-integer", 9000, 40),
)

# rational powers at which integer channels tie exactly
INTEGER_POWERS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0)


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw(kind: str, seed: int):
    """Channel (vector or (n, k) matrix) and power for one instance."""
    rng = trial_rng(seed, 0)
    if kind == "single-random":
        n = int(rng.integers(2, 8))
        return rng.standard_normal(n), log_uniform(rng, 2.0, 50.0)
    if kind == "single-commensurate":
        n = int(rng.integers(2, 6))
        h = rng.integers(-4, 5, n) / float(rng.integers(1, 4))
        return h, log_uniform(rng, 0.5, 20.0)
    if kind == "single-integer":
        n = int(rng.integers(2, 7))
        h = rng.integers(-3, 4, n) / (1.0 if seed % 2 else 2.0)
        return h, float(rng.choice(INTEGER_POWERS))
    if kind == "mimo-k1":
        n = int(rng.integers(2, 7))
        return rng.standard_normal((n, 1)), log_uniform(rng, 1.0, 20.0)
    if kind == "mimo-k2":
        n = int(rng.integers(2, 4))
        return rng.standard_normal((n, 2)), log_uniform(rng, 0.5, 4.0)
    if kind == "mimo-k2-halfint":
        n = int(rng.integers(2, 6))
        h = full_rank(rng, lambda: rng.integers(-3, 4, (n, 2)) / 2.0)
        return h, log_uniform(rng, 1.0, 8.0)
    if kind == "mimo-k2-integer":
        n = int(rng.integers(3, 7))
        h = full_rank(rng, lambda: rng.integers(-2, 3, (n, 2)).astype(float))
        return h, float(rng.choice(INTEGER_POWERS[:-1]))
    if kind == "mimo-k2-parallel":
        n = int(rng.integers(3, 6))
        h = full_rank(rng, lambda: gaussian_or_halfint(rng, seed, n, 2), parallel=True)
        return h, log_uniform(rng, 0.5, 4.0)
    n = int(rng.integers(3, 6))
    h = full_rank(rng, lambda: gaussian_or_halfint(rng, seed, n, 3))
    return h, log_uniform(rng, 0.5, 3.0)


def gaussian_or_halfint(rng, seed: int, n: int, k: int):
    """Gaussian entries for odd seeds, half-integers in -3/2..3/2 for even."""
    return rng.standard_normal((n, k)) if seed % 2 else rng.integers(-3, 4, (n, k)) / 2.0


def full_rank(rng, draw_h, parallel: bool = False):
    """The first draw_h() of full column rank; with parallel, one row is
    first set to another row or its negation."""
    while True:
        h = draw_h()
        if parallel:
            i, j = rng.choice(h.shape[0], 2, replace=False)
            h[j] = h[i] if rng.uniform() < 0.5 else -h[i]
        if np.linalg.matrix_rank(h) == h.shape[1]:
            return h


def solve(kind: str, h, power: float):
    if kind.startswith("single"):
        return build_gram_single(h, power), solve_single(h, power)
    gram, dec = build_gram_mimo(MimoChannel(h_matrix=h, power=power))
    return gram, solve_dpk(gram, dec, budget=None)


def main() -> None:
    rows = []
    for kind, first, count in FAMILIES:
        for seed in range(first, first + count):
            h, power = draw(kind, seed)
            gram, res = solve(kind, h, power)
            oracle = brute_force_slv(gram, certification_radius(gram, res.f_star))
            if not match_within_tolerance(res.f_star, oracle.f_star):
                raise SystemExit(f"{kind} seed {seed}: solver and oracle disagree")
            rows.append({
                "kind": kind,
                "seed": seed,
                "power": power.hex(),
                "h": [[float(x).hex() for x in row] for row in h] if h.ndim == 2
                     else [float(x).hex() for x in h],
                "a_star": res.a_star.entries.tolist(),
                "f_star": res.f_star.hex(),
                "f_oracle": oracle.f_star.hex(),
            })
    # one instance per line keeps the file diffable
    lines = ",\n".join(json.dumps(row) for row in rows)
    sys.stdout.write(f'{{"instances": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
