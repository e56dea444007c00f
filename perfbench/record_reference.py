"""Record single-wide f_alg reference values from the current program.

Writes reference_single_wide.json: f_alg (as float.hex) of every trial
in the first ROUNDS rounds of the single-wide workload for each seed
given.  run.py compares single-wide outputs with these values whenever
a run reaches a recorded trial.  From the repository root:

    python3 perfbench/record_reference.py --seeds 0-10 --rounds 14
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as run.py, before numpy is imported

from cfslv.bench import run_trial  # noqa: E402

from checks import RECORDED_PATH  # noqa: E402
from steadiness import parse_seeds  # noqa: E402
from workloads import WORKLOADS, configs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-10")
    parser.add_argument("--rounds", type=int, default=14)
    args = parser.parse_args()
    workload = WORKLOADS["single-wide"]
    rows = []
    for seed in parse_seeds(args.seeds):
        for i, cfg in enumerate(configs(workload, seed)):
            for r in range(args.rounds):
                record, _ = run_trial(cfg, r)
                rows.append({"seed": seed, "cell": i, "round": r, "n": record.n,
                             "power": record.power, "f_alg": record.f_alg.hex()})
    body = ",\n".join(json.dumps(row) for row in rows)
    RECORDED_PATH.write_text(f'{{"workload": "{workload.name}", "trials": [\n{body}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
