"""cfslv campaign benchmark: one command for every workload in workloads.py.

Usage, from the repository root:

    python3 perfbench/run.py --workload single-certified --seed 1 --seconds 55 --trace 0

A closed loop with one client: trials run one at a time through the
public cfslv.bench.run_trial, in whole stratified rounds (workloads.py),
until --seconds have passed, with short calibration blocks in between
that gauge the machine's speed (see CAL_REF_S).  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it runs each trial
untraced and as a traced replay (tracing.py) and prints the per-layer
metrics.  Every output is
checked (checks.py).  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  Exit status: 0 when every
output was correct, 1 on any mismatch, 2 on a usage error or when cfslv
cannot be imported from this checkout's src/ (no JSON line then).
"""

from __future__ import annotations

import argparse
import fractions
import heapq
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# Set-up probes per run, reported as their median.  A shared host's
# speed can switch between fast and slow spells of seconds (on 2 vCPUs
# of a 2.1 GHz Xeon one import took about 0.085 s or 0.14 s), so the
# probes are spread over the whole run: probes back to back all land in
# one spell.
SETUP_PROBES = 21
# Machine-speed calibration.  On a shared host the same trials ran up to
# 40% slower in some minutes than in others, and a slow spell can last
# a whole run, so no timing within one run averages it out.  A fixed
# block of work that does not touch cfslv runs after every CAL_EVERY_S
# of trial time (about a tenth of the run); the registered times are
# rescaled from the run's mean block time to CAL_REF_S, a round figure
# near the block's median on 2 vCPUs of a shared Intel Xeon.  A slower
# program slows its trials, not the blocks, so a real regression shows
# in full.
CAL_EVERY_S = 0.05
CAL_REF_S = 0.006

# One client, one trial in flight: keep BLAS on one thread too, so a run
# on a small shared machine does not race its own helper threads.  Set
# before numpy is first imported; inherited by the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The program under test is this checkout's src/, never an installed copy.
sys.path[:0] = [str(SRC), str(HERE)]
try:
    import cfslv
except ImportError as _exc:
    print(f"perfbench: cannot import cfslv from {SRC}: {_exc}", file=sys.stderr)
    raise SystemExit(2) from None
if Path(cfslv.__file__).resolve().parent.parent != SRC.resolve():
    print(f"perfbench: cfslv was imported from {cfslv.__file__}, not {SRC}", file=sys.stderr)
    raise SystemExit(2)

import numpy as np  # noqa: E402
from cfslv.bench import run_trial  # noqa: E402

from checks import check_record, load_recorded  # noqa: E402
from tracing import TRIAL_ERRORS, Tracer, layer_metrics, replay_trial  # noqa: E402
from workloads import TRIAL_ID_SPACE, WORKLOADS, configs  # noqa: E402


@dataclass(slots=True)
class Outcome:
    """One attempted trial: status is ok, mismatch or the exception name.

    Slotted: a run keeps tens of thousands, and their memory counts in
    peak_rss_mb.
    """

    cell: int
    round: int
    status: str
    wall_s: float


def _rounds(seconds: float | None, rounds: int | None):
    """Round numbers to run: exactly `rounds` of them when given, else
    whole rounds until `seconds` have passed (always at least one)."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    r = 0
    while (r < rounds) if rounds is not None else (r == 0 or time.perf_counter() < deadline):
        yield r
        r += 1


def _timed_trial(cfg, trial_id: int):
    """run_trial with failures isolated: (record or None, error name or None, wall s)."""
    t0 = time.perf_counter()
    try:
        record, _ = run_trial(cfg, trial_id)
    except TRIAL_ERRORS as exc:
        return None, type(exc).__name__, time.perf_counter() - t0
    return record, None, time.perf_counter() - t0


_CAL_MATS = [(lambda a: a @ a.T)(np.random.default_rng(i).standard_normal((6, 6)))
             for i in range(25)]


def calibration_block() -> float:
    """Wall time in seconds of a fixed block of work outside cfslv.

    The mix a trial spends its time on: small dense linear algebra,
    sorting and rounding of short vectors, enumeration of small integer
    points into dicts and heaps, and Python arithmetic.  Its spread of
    calls matters: under a memory-bound neighbour, and across the host's
    slow and fast spells, its time moved with a mimo-certified round to
    within 1%, where a tight loop of a few numpy calls moved by half as
    much as the trials.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for j, m in enumerate(_CAL_MATS):
        acc += float(np.linalg.eigvalsh(m)[0])
        acc += float(np.linalg.solve(m + np.eye(6), m[0])[0])
        acc += float(np.linalg.qr(m)[1][0, 0])
        v = m[0]
        acc += float(np.cumsum(v[np.argsort(np.abs(v))])[-1] + np.round(2.5 * v).sum())
        norms = {a: sum(c * c for c in a) for a in itertools.product(range(-1, 2), repeat=4)}
        heap = [(x, a) for a, x in norms.items()]
        heapq.heapify(heap)
        acc += heapq.heappop(heap)[0]
        acc += sorted(((i * 7919) % 97, i) for i in range(150))[5][1]
        acc += float(fractions.Fraction(j + 1, 7) + fractions.Fraction(3, j + 2))
    return time.perf_counter() - t0


def _warm_up(cfgs) -> None:
    """One untimed trial per (mode, k), so lazy imports are paid up front."""
    seen = set()
    for cfg in cfgs:
        if (cfg.mode, cfg.k) not in seen:
            seen.add((cfg.mode, cfg.k))
            _timed_trial(cfg, TRIAL_ID_SPACE - 1)


def run_campaign(workload, seed: int, seconds: float | None, rounds: int | None = None,
                 setup: list[float] | None = None,
                 calibration: list[float] | None = None) -> list[Outcome]:
    """Untraced closed loop; the outcome of every attempted trial.

    When `setup` is a list, SETUP_PROBES set-up probes are appended to
    it, run between rounds and spread evenly over `seconds` (all at the
    start when the run counts rounds).  When `calibration` is a list,
    the time of a calibration block run after every CAL_EVERY_S of
    trial time is appended to it (at least one block).  Neither counts
    as trial time.
    """
    cfgs = configs(workload, seed)
    recorded = load_recorded()
    _warm_up(cfgs)
    if calibration is not None:
        calibration_block()  # warm-up, untimed like the trials'
    outcomes = []
    since_block = 0.0
    spacing = (seconds or 0.0) / SETUP_PROBES
    start = time.perf_counter()
    for r in _rounds(seconds, rounds):
        while (setup is not None and len(setup) < SETUP_PROBES
               and time.perf_counter() - start >= len(setup) * spacing):
            setup.append(setup_once())
        for i, cfg in enumerate(cfgs):
            record, error, wall = _timed_trial(cfg, r)
            if error is None:
                ok = check_record(cfg, r, record, recorded.get((seed, i, r)))
                error = "ok" if ok else "mismatch"
            outcomes.append(Outcome(i, r, error, wall))
            since_block += wall
            if calibration is not None and since_block >= CAL_EVERY_S:
                calibration.append(calibration_block())
                since_block = 0.0
    while setup is not None and len(setup) < SETUP_PROBES:
        setup.append(setup_once())
    if calibration is not None and not calibration:
        calibration.append(calibration_block())
    return outcomes


def run_traced(workload, seed: int, seconds: float | None, rounds: int | None = None):
    """Traced run: each trial runs untraced and as a traced replay.

    Returns (tracer, replays, outcomes, traced_s, untraced_s).  Which of
    the two runs first alternates from trial to trial, so neither side
    always meets warm caches.  A trial whose replay differs from
    run_trial in any output bit is a mismatch.
    """
    cfgs = configs(workload, seed)
    recorded = load_recorded()
    _warm_up(cfgs)
    tracer = Tracer()
    replays, outcomes = [], []
    traced_s = untraced_s = 0.0
    for r in _rounds(seconds, rounds):
        for i, cfg in enumerate(cfgs):
            uid = len(replays)
            if uid % 2 == 0:
                record, error, wall = _timed_trial(cfg, r)
                replay = replay_trial(tracer, uid, cfg, r)
            else:
                replay = replay_trial(tracer, uid, cfg, r)
                record, error, wall = _timed_trial(cfg, r)
            replays.append(replay)
            untraced_s += wall
            traced_s += next(s.duration for s in reversed(tracer.spans)
                             if s.trial == uid and s.name == "trial")
            if not replay.same_as(record, error):
                status = "mismatch"
            elif error is not None:
                status = error
            else:
                ok = check_record(cfg, r, record, recorded.get((seed, i, r)))
                status = "ok" if ok else "mismatch"
            outcomes.append(Outcome(i, r, status, wall))
    return tracer, replays, outcomes, traced_s, untraced_s


def tail_index(count: int, pct: float) -> int:
    """Index into sorted samples of the pct-th percentile (nearest rank)."""
    return min(count - 1, max(0, -(-count * int(pct * 100) // 10000) - 1))


def end_to_end(workload, outcomes: list[Outcome],
               calibration: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and a note for each.

    All are pooled over the whole run: on a shared machine whose speed
    drifts in phases of seconds, pooled figures vary less from run to
    run than medians over blocks of the run, which flip between phases.
    The *_ref_* metrics are the same times rescaled to the reference
    machine speed: times CAL_REF_S / the run's mean calibration block.
    """
    walls = sorted(o.wall_s for o in outcomes)
    count = len(walls)
    passed = sum(o.status == "ok" for o in outcomes)
    failed = count - passed
    idx = tail_index(count, workload.tail_pct)
    beyond = count - 1 - idx
    metrics = {
        "trials_per_s": (passed / sum(walls), "1/s"),
        "trial_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "trial_tail_ms": (walls[idx] * 1e3, "ms"),
        "failed_share": (failed / count, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    speed = CAL_REF_S / statistics.fmean(calibration)
    metrics["machine_speed"] = (speed, "ratio")
    metrics["trials_per_ref_s"] = (metrics["trials_per_s"][0] / speed, "1/ref_s")
    metrics["trial_p50_ref_ms"] = (metrics["trial_p50_ms"][0] * speed, "ref_ms")
    metrics["trial_tail_ref_ms"] = (metrics["trial_tail_ms"][0] * speed, "ref_ms")
    notes = {
        "trials_per_s": f"{passed} passed / {sum(walls):.3f} s of trial wall time",
        "trial_p50_ms": f"median of {count} trials",
        "trial_tail_ms": f"p{workload.tail_pct:g} of {count} trials, {beyond} beyond it",
        "failed_share": f"{failed} of {count} attempted",
        "peak_rss_mb": "ru_maxrss of this process",
        "machine_speed": f"{CAL_REF_S} s / mean of {len(calibration)} calibration blocks",
    }
    if beyond < 10:
        notes["trial_tail_ms"] += " (fewer than 10: too few trials for this percentile)"
    return metrics, notes


def setup_once() -> float:
    """Wall time of `import cfslv` in a fresh interpreter, in seconds."""
    code = "import time; t = time.perf_counter(); import cfslv; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def registered_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json registers for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of --seconds, "
                             "so counts can be compared between runs")
    args = parser.parse_args(argv)
    if args.rounds is None and args.seconds is None:
        parser.error("need --seconds or --rounds")
    if args.seed < 0 or (args.seconds is not None and not args.seconds > 0) or (
            args.rounds is not None and args.rounds < 1):
        parser.error("need --seed >= 0, --seconds > 0 and --rounds >= 1")
    workload = WORKLOADS[args.workload]
    seconds = None if args.rounds is not None else args.seconds

    if args.trace:
        tracer, replays, outcomes, traced_s, untraced_s = run_traced(
            workload, args.seed, seconds, args.rounds)
        metrics = layer_metrics(tracer, replays, traced_s, untraced_s)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
        notes = {}
    else:
        setup: list[float] = []
        calibration: list[float] = []
        outcomes = run_campaign(workload, args.seed, seconds, args.rounds, setup, calibration)
        metrics, notes = end_to_end(workload, outcomes, calibration)
        metrics["setup_s"] = (statistics.median(setup), "s")
        notes["setup_s"] = (f"median of {len(setup)} fresh interpreters spread over the run "
                            f"(fastest {min(setup):.4f} s)")

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:17s} {name:32s} {value:14.6g} {unit:11s} {notes.get(name, '')}"
              .rstrip())
    mismatches = [o for o in outcomes if o.status == "mismatch"]
    for o in mismatches:
        print(f"MISMATCH cell {o.cell} round {o.round}", file=sys.stderr)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in registered_metrics(args.trace)},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
