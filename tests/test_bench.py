"""Benchmark campaign determinism, serialization, and summary bounds."""

import dataclasses
import json
import math

import numpy as np
import pytest

import cfslv.bench
from cfslv.bench import (
    BenchConfig,
    CSV_FIELDS,
    match_within_tolerance,
    render_csv,
    render_json,
    resolve_workers,
    run_bench,
    run_trial,
    summarize,
    summary_line,
    trial_rng,
)

SINGLE_CFG = BenchConfig(mode="single", trials=10, n_range=(2, 4),
                         power_range=(0.5, 5.0), seed=101, oracle=True)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(mode="other", trials=1, n_range=(2, 4), power_range=(1.0, 2.0), seed=0)
    with pytest.raises(ValueError):
        BenchConfig(mode="single", trials=0, n_range=(2, 4), power_range=(1.0, 2.0), seed=0)
    with pytest.raises(ValueError):
        BenchConfig(mode="single", trials=1, n_range=(4, 2), power_range=(1.0, 2.0), seed=0)
    with pytest.raises(ValueError):
        BenchConfig(mode="single", trials=1, n_range=(2, 4), power_range=(0.0, 2.0), seed=0)
    with pytest.raises(ValueError):
        BenchConfig(mode="mimo", trials=1, n_range=(2, 4), power_range=(1.0, 2.0), seed=0, k=3)


def test_trial_rng_substreams_are_order_independent():
    a_first = trial_rng(99, 3).standard_normal(4)
    _ = trial_rng(99, 7).standard_normal(4)
    a_again = trial_rng(99, 3).standard_normal(4)
    assert np.array_equal(a_first, a_again)


def test_run_trial_is_reproducible():
    rec1, cand1 = run_trial(SINGLE_CFG, 4)
    rec2, cand2 = run_trial(SINGLE_CFG, 4)
    assert rec1.trial_id == 4
    assert rec1.seed == 101 ^ 4
    assert rec1.f_alg == rec2.f_alg
    assert rec1.f_oracle == rec2.f_oracle
    assert cand1 == cand2


def test_run_trial_certifies():
    rec, _ = run_trial(SINGLE_CFG, 0)
    assert rec.match is True
    assert rec.f_oracle is not None
    assert abs(rec.f_alg - rec.f_oracle) <= 1e-9 * max(1.0, rec.f_oracle)


def test_run_trial_without_oracle_leaves_optional_fields_empty():
    cfg = BenchConfig(mode="single", trials=1, n_range=(2, 2),
                      power_range=(1.0, 1.0), seed=7)
    rec, _ = run_trial(cfg, 0)
    assert rec.f_oracle is None and rec.match is None
    assert rec.elapsed_oracle_s == 0.0


def test_run_trial_without_oracle_builds_no_single_gram(monkeypatch):
    cfg = BenchConfig(mode="single", trials=1, n_range=(2, 5),
                      power_range=(0.5, 5.0), seed=13)
    expected, expected_cand = run_trial(cfg, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the Gram matrix is built without an oracle")

    monkeypatch.setattr(cfslv.bench, "build_gram_single", refuse)
    rec, cand = run_trial(cfg, 3)
    assert cand == expected_cand
    assert dataclasses.replace(rec, elapsed_alg_s=0.0) == dataclasses.replace(expected, elapsed_alg_s=0.0)


def test_run_trial_mimo_mode():
    cfg = BenchConfig(mode="mimo", trials=1, n_range=(2, 3),
                      power_range=(0.5, 2.0), seed=11, k=2, oracle=True)
    rec, _ = run_trial(cfg, 0)
    assert rec.k == 2
    assert rec.match is True
    assert rec.rate_bits >= 0.0


def test_run_trial_at_extreme_power_fails_with_value_error():
    # P g^2 / (1 + P g^2) rounds to 1 for every draw at this power
    config = BenchConfig(mode="mimo", trials=5, n_range=(3, 3), power_range=(1e17, 1e17),
                         seed=5, k=2, oracle=True)
    for trial_id in range(config.trials):
        with pytest.raises(ValueError, match="not positive definite"):
            run_trial(config, trial_id)


def test_run_bench_matches_individual_trials(monkeypatch):
    monkeypatch.setenv("CFSLV_THREADS", "1")
    result = run_bench(SINGLE_CFG)
    assert [r.trial_id for r in result.records] == list(range(10))
    rec5, cand5 = run_trial(SINGLE_CFG, 5)
    assert result.records[5].f_alg == rec5.f_alg
    assert result.candidates[5] == cand5
    assert result.summary["match_rate"] == 1.0


def test_run_bench_parallel_equals_serial(monkeypatch):
    monkeypatch.setenv("CFSLV_THREADS", "1")
    serial = run_bench(SINGLE_CFG)
    monkeypatch.setenv("CFSLV_THREADS", "2")
    parallel = run_bench(SINGLE_CFG)
    assert render_csv(serial.records, zero_timing=True) == \
        render_csv(parallel.records, zero_timing=True)
    assert serial.candidates == parallel.candidates


@pytest.mark.parametrize("threads, trials, started", [(64, 2, 2), (3, 10, 3), (64, 1, None)])
def test_run_bench_starts_at_most_one_worker_per_trial(monkeypatch, threads, trials, started):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: notes max_workers, runs in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setenv("CFSLV_THREADS", str(threads))
    monkeypatch.setattr(cfslv.bench, "ProcessPoolExecutor", RecordingPool)
    result = run_bench(dataclasses.replace(SINGLE_CFG, trials=trials))
    # a single trial runs in this process, with no pool at all
    assert sizes == ([] if started is None else [started])
    assert [r.trial_id for r in result.records] == list(range(trials))


def test_resolve_workers(monkeypatch):
    monkeypatch.setenv("CFSLV_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("CFSLV_THREADS", "zero")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.setenv("CFSLV_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.delenv("CFSLV_THREADS")
    assert resolve_workers() >= 1


def test_csv_layout_and_roundtrip(monkeypatch):
    monkeypatch.setenv("CFSLV_THREADS", "1")
    result = run_bench(SINGLE_CFG)
    text = render_csv(result.records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 11
    row = lines[1].split(",")
    assert int(row[0]) == 0
    # 17 significant digits round-trip through text exactly
    assert float(row[5]) == result.records[0].f_alg
    assert row[10] in ("true", "false")


def test_csv_zero_timing():
    rec, _ = run_trial(SINGLE_CFG, 1)
    text = render_csv([rec], zero_timing=True)
    row = text.strip().split("\n")[1].split(",")
    assert row[8] == "0" and row[9] == "0"


def test_json_rendering():
    rec, _ = run_trial(SINGLE_CFG, 2)
    rows = json.loads(render_json([rec], zero_timing=True))
    assert len(rows) == 1
    assert list(rows[0].keys()) == list(CSV_FIELDS)
    assert rows[0]["f_alg"] == rec.f_alg
    assert rows[0]["elapsed_alg_s"] == 0.0
    assert rows[0]["match"] is True


def test_match_tolerance_boundary():
    assert match_within_tolerance(1.0 + 0.9e-9, 1.0)
    assert not match_within_tolerance(1.0 + 1.1e-9, 1.0)
    # relative scaling above 1
    assert match_within_tolerance(100.0 + 9e-8, 100.0)


def test_summary_counts_and_line():
    rec, cand = run_trial(SINGLE_CFG, 3)
    summary = summarize([rec], [cand])
    assert summary["trials"] == 1
    assert summary["certified"] == 1
    assert "match_rate=1.000000" in summary_line(summary)
    no_oracle = summarize([], [])
    assert no_oracle["match_rate"] is None
    assert "match_rate=n/a" in summary_line(no_oracle)


def test_mean_candidates_respects_per_trial_bound(monkeypatch):
    monkeypatch.setenv("CFSLV_THREADS", "1")
    result = run_bench(SINGLE_CFG)
    caps = []
    for trial_id in range(SINGLE_CFG.trials):
        rng = trial_rng(SINGLE_CFG.seed, trial_id)
        n = int(rng.integers(2, 5))
        power = float(np.exp(rng.uniform(math.log(0.5), math.log(5.0))))
        h = rng.standard_normal(n)
        psi = math.sqrt(1.0 + power * float(h @ h))
        caps.append(n * (2 * math.ceil(psi) + 2) + n)
    assert all(c <= cap for c, cap in zip(result.candidates, caps))
    assert result.summary["mean_candidates"] <= max(caps)
