"""Correctness gate for benchmark trials.

Certified trials must match their oracle.  Trials without an oracle
(single-wide) are checked against an exact reference computed here,
independent of cfslv's solver code, and against the f_alg values
recorded from the baseline program in reference_single_wide.json.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from cfslv.bench import BenchConfig, TrialRecord, match_within_tolerance

from workloads import draw

RECORDED_PATH = Path(__file__).with_name("reference_single_wide.json")


def reference_single_f(h: np.ndarray, power: float) -> float:
    """min a^T G a over nonzero integer a, G = (1 + P|h|^2) I - P h h^T.

    Every optimum is a signed unit vector or round(x h) for some x with
    |round(x h)| <= psi = sqrt(1 + P|h|^2) (up to sign, x > 0).  As x
    grows past (c + 1/2) / |h_j|, |a_j| steps from c to c + 1, which
    adds 2c + 1 to |a|^2 and |h_j| to h.a (a_j takes the sign of h_j).
    Each prefix of the sorted crossings is an integer vector, so the
    minimum over all prefixes and unit vectors is exact.
    """
    h = np.asarray(h, dtype=float)
    scale = 1.0 + power * float(h @ h)
    best = scale - power * float(np.max(h * h))
    mags = np.abs(h)
    nz = np.flatnonzero(mags)
    if nz.size == 0:
        return best
    c = np.arange(math.ceil(math.sqrt(scale)) + 1, dtype=float)
    x = (c[None, :] + 0.5) / mags[nz, None]
    order = np.argsort(x, axis=None, kind="stable")
    coord = np.repeat(nz, c.size)[order]
    norm2 = np.cumsum(np.tile(2.0 * c + 1.0, nz.size)[order])
    dot = np.cumsum(mags[coord])
    f = scale * norm2 - power * dot * dot
    j = int(np.argmin(f))
    if f[j] >= best:
        return best
    a = np.bincount(coord[: j + 1], minlength=h.size) * np.sign(h)
    return float(scale * (a @ a) - power * (h @ a) ** 2)


def load_recorded() -> dict[tuple[int, int, int], float]:
    """Recorded f_alg keyed by (workload seed, cell index, round)."""
    if not RECORDED_PATH.exists():
        return {}
    rows = json.loads(RECORDED_PATH.read_text())["trials"]
    return {(r["seed"], r["cell"], r["round"]): float.fromhex(r["f_alg"]) for r in rows}


def check_record(config: BenchConfig, trial_id: int, record: TrialRecord,
                 recorded: float | None) -> bool:
    """True when the trial's output is correct."""
    if config.oracle:
        return record.f_oracle is not None and match_within_tolerance(record.f_alg, record.f_oracle)
    n, power, h = draw(config, trial_id)
    if record.n != n or record.power != power:
        return False
    if recorded is not None and not match_within_tolerance(record.f_alg, recorded):
        return False
    return match_within_tolerance(record.f_alg, reference_single_f(h, power))
