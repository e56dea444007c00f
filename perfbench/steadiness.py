"""Run-to-run spread of the end-to-end metrics.

Runs run.py once per seed for each workload, one run at a time, and
reports per metric the median and the quartile spread
(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4)
gives them.  From the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--seconds 55] [--workloads a,b] [--out FILE]

With --against FILE (an earlier --out), it also prints how far each
median moved from that set's, as a share of the earlier median, next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # metrics printed but not registered (raw times, machine_speed) too
    for line in lines[:-1]:
        _, name, value, unit = line.split()[:4]
        result["metrics"].setdefault(name, {"value": float(value), "unit": unit})
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds) for s in seeds]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                          "bound": bounds.get(name), "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if share < bound / 3 else
                                             "WIDE" if share <= bound else "OVER")
            line = f"{workload:17s} {name:30s} median {med:12.6g} spread {share:7.4f} {flag}"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before is not None and before["median"]:
                shift = med / before["median"] - 1.0
                rows[name]["shift"] = shift
                line += f"  moved {shift:+.4f} vs bound {bound}"
            print(line, flush=True)
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": rows,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
