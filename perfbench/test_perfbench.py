"""Checks of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads
from cfslv.bench import match_within_tolerance, run_trial
from cfslv.gram import build_gram_single
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.solver_single import solve_single
from tracing import LAYERS, Tracer, layer_metrics, replay_trial

WORKLOADS = workloads.WORKLOADS


def test_workload_seeds_never_share_an_instance():
    keys = set()
    for seed in (0, 1, 2):
        for cfg in workloads.configs(WORKLOADS["single-certified"], seed):
            for trial_id in (0, 1, workloads.TRIAL_ID_SPACE - 1):
                keys.add(cfg.seed ^ trial_id)
    assert len(keys) == 3 * len(WORKLOADS["single-certified"].cells) * 3


def test_draw_matches_run_trial():
    for name in WORKLOADS:
        for cfg in workloads.configs(WORKLOADS[name], 3)[:4]:
            if name == "single-wide":
                cfg = dataclasses.replace(cfg, n_range=(4, 9))
            n, power, _ = workloads.draw(cfg, 5)
            record, _ = run_trial(cfg, 5)
            assert (record.n, record.power) == (n, power)


def test_reference_agrees_with_solver_and_oracle():
    rng = np.random.default_rng(11)
    for i in range(300):
        n = int(rng.integers(1, 7))
        power = float(np.exp(rng.uniform(math.log(0.1), math.log(50.0))))
        h = rng.standard_normal(n)
        if i % 4 == 0:
            h = np.round(2.0 * h) / 2.0  # commensurate gains and zero entries
        f_ref = checks.reference_single_f(h, power)
        assert match_within_tolerance(solve_single(h, power).f_star, f_ref)
        if h.any() and i % 3 == 0:
            gram = build_gram_single(h, power)
            f_oracle = brute_force_slv(gram, certification_radius(gram, f_ref)).f_star
            assert match_within_tolerance(f_ref, f_oracle)


def test_recorded_references_hold():
    recorded = checks.load_recorded()
    assert recorded, "reference_single_wide.json is missing"
    cfgs = {}
    for (seed, cell, round_), f_alg in list(recorded.items())[::97]:
        cfg = cfgs.setdefault((seed, cell), workloads.configs(WORKLOADS["single-wide"], seed)[cell])
        record, _ = run_trial(cfg, round_)
        assert match_within_tolerance(record.f_alg, f_alg)
        assert checks.check_record(cfg, round_, record, f_alg)


def _trace(name, seed, rounds, order=1):
    """Traced replays of the first `rounds` rounds, optionally reversed."""
    cfgs = workloads.configs(WORKLOADS[name], seed)
    trials = [(i, r) for r in range(rounds) for i in range(len(cfgs))][::order]
    tracer = Tracer()
    replays = {}
    for uid, (i, r) in enumerate(trials):
        replays[(i, r)] = replay_trial(tracer, uid, cfgs[i], r)
    return tracer, replays, trials


@pytest.mark.parametrize("name", ["single-certified", "mimo-certified"])
def test_counts_repeat_and_ignore_trial_order(name):
    _, first, trials = _trace(name, 7, 2)
    _, again, _ = _trace(name, 7, 2)
    _, backwards, _ = _trace(name, 7, 2, order=-1)
    for key in trials:
        assert first[key].counts == again[key].counts == backwards[key].counts
        assert first[key].error == again[key].error == backwards[key].error


def test_traced_run_reproduces_run_trial_and_self_times_add_up():
    tracer, replays, outcomes, traced_s, untraced_s = run.run_traced(
        WORKLOADS["mimo-certified"], 5, None, rounds=2)
    assert [o.status for o in outcomes] == ["ok"] * len(outcomes)
    metrics = layer_metrics(tracer, replays, traced_s, untraced_s)
    layer_s = sum(metrics[k][0] for k in (
        "gram.s", "solver_single.s", "solver_dpk.s", "rate.s", "oracle.radius_s",
        "oracle.search_s", "bench.draw_s"))
    assert layer_s + metrics["bench.self_s"][0] == pytest.approx(metrics["trace.trial_s"][0])
    assert metrics["solver_dpk.k1.s"][0] + metrics["solver_dpk.k2.s"][0] == pytest.approx(
        metrics["solver_dpk.s"][0])
    # per traced trial, so a longer run does not read as more work
    assert metrics["solver_dpk.candidates"] == (
        sum(r.counts["solver_dpk.candidates"] for r in replays) / len(replays), "count/trial")
    assert {s.name for s in tracer.spans} <= set(LAYERS) | {"trial"}
    assert run.registered_metrics(1) == list(metrics)


def test_budget_errors_fail_one_trial_not_the_run(monkeypatch):
    # k=2 vertex groups exceed this budget, k=1 trials fit in it
    monkeypatch.setattr(run, "configs", lambda w, s: [
        dataclasses.replace(c, budget=2000) for c in workloads.configs(w, s)])
    workload = WORKLOADS["mimo-certified"]
    outcomes = run.run_campaign(workload, 1, None, rounds=1)
    expected = ["ok" if workload.cells[o.cell].k == 1 else "ResourceBudgetError"
                for o in outcomes]
    assert [o.status for o in outcomes] == expected
    metrics, _ = run.end_to_end(workload, outcomes, [run.CAL_REF_S])
    failed = expected.count("ResourceBudgetError")
    assert metrics["failed_share"][0] == failed / len(outcomes) > 0

    tracer, replays, outcomes, traced_s, untraced_s = run.run_traced(workload, 1, None, rounds=1)
    assert [o.status for o in outcomes] == expected
    metrics = layer_metrics(tracer, replays, traced_s, untraced_s)
    assert metrics["solver_dpk.budget_errors"] == (failed / len(outcomes), "count/trial")


def test_cli_reports_registered_metrics_and_fails_on_mismatch(monkeypatch, capsys):
    assert run.main(["--workload", "mimo-certified", "--seed", "2", "--seconds", "1",
                     "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == run.registered_metrics(0)
    for name in ("trials_per_s", "trial_p50_ms", "trial_tail_ms", "failed_share",
                 "peak_rss_mb", "setup_s"):
        assert any(line.split()[1] == name for line in lines[:-1])

    monkeypatch.setattr(run, "check_record", lambda *args: False)
    assert run.main(["--workload", "mimo-certified", "--seed", "2", "--seconds", "1",
                     "--rounds", "1", "--trace", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_speed_rescales_times_by_the_calibration_blocks():
    workload = WORKLOADS["single-certified"]
    outcomes = [run.Outcome(0, r, "ok", 0.001 * (r + 1)) for r in range(200)]
    at_ref, _ = run.end_to_end(workload, outcomes, [run.CAL_REF_S])
    slow, _ = run.end_to_end(workload, outcomes, [2 * run.CAL_REF_S, 2 * run.CAL_REF_S])
    assert at_ref["trials_per_ref_s"][0] == pytest.approx(at_ref["trials_per_s"][0])
    # the same trial times on a machine whose blocks ran half as fast
    assert slow["machine_speed"][0] == pytest.approx(0.5)
    assert slow["trials_per_ref_s"][0] == pytest.approx(2 * slow["trials_per_s"][0])
    assert slow["trial_tail_ref_ms"][0] == pytest.approx(0.5 * slow["trial_tail_ms"][0])
    assert run.calibration_block() > 0
