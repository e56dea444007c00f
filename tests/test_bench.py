"""Benchmark campaign determinism, serialization, and summary bounds."""

import concurrent.futures
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import cfslv.bench
import cfslv.gram
from cfslv.bench import (
    _trial_generator,
    BenchConfig,
    CSV_FIELDS,
    BenchResult,
    field_text,
    match_within_tolerance,
    render_csv,
    render_json,
    resolve_workers,
    run_bench,
    run_trial,
    summarize,
    summary_line,
    trial_rng,
    without_timing,
)
from cfslv.cli import main as cli_main
from cfslv.gram import MimoChannel, build_gram_mimo, build_gram_single
from cfslv.oracle import brute_force_slv, certification_radius
from cfslv.rate import rate_from_objective
from cfslv.solver_dpk import solve_dpk
from cfslv.solver_single import solve_single

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
    with pytest.raises(ValueError, match="^single mode has one receive antenna: k must be 1$"):
        BenchConfig(mode="single", trials=1, n_range=(5, 6), power_range=(1.0, 2.0), seed=0, k=5)


def test_trial_rng_substreams_are_order_independent():
    a_first = trial_rng(99, 3).standard_normal(4)
    _ = trial_rng(99, 7).standard_normal(4)
    a_again = trial_rng(99, 3).standard_normal(4)
    assert np.array_equal(a_first, a_again)


# run_trial's first draw rejects a zero word, so a stale zero buffer or
# buffered uint32 shows only behind a first draw that takes it as it is
FIRST_DRAWS = [
    lambda rng: rng.integers(2, 7),
    lambda rng: rng.random(3),
    lambda rng: rng.integers(0, 2**32, size=3, dtype=np.uint32),
]


def _draws(rng: np.random.Generator, first) -> list:
    """first(rng), run_trial's kinds of draw, then enough more to cross
    Philox's four-word buffer and its buffered uint32 several times."""
    return [
        first(rng),
        rng.integers(2, 7),
        rng.uniform(-2.3, 2.3),
        rng.standard_normal(5),
        rng.standard_normal((3, 2)),
        rng.integers(0, 5, size=7),
        rng.integers(0, 2**40, size=5),
        rng.uniform(size=9),
        rng.standard_normal(11),
    ]


def _same_draws(a: list, b: list) -> bool:
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b))


def _check_stream(key: int) -> None:
    # leave a half-used buffer and a buffered uint32 behind the reset
    stale = _trial_generator(12345)
    stale.integers(0, 5, size=3)
    state = stale.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] != 4
    for first in FIRST_DRAWS:
        assert _same_draws(_draws(_trial_generator(key), first), _draws(trial_rng(key, 0), first))


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1, 2**64, 2**64 + 5, 2**128 - 1])
def test_trial_generator_draws_the_stream_of_trial_rng(key):
    _check_stream(key)


def test_trial_generator_draws_the_stream_of_trial_rng_on_random_keys():
    keys = random.Random(128)
    for _ in range(200):
        _check_stream(keys.getrandbits(128))


@pytest.mark.parametrize("key", [2**128, -1])
def test_trial_generator_rejects_the_keys_philox_rejects(key):
    with pytest.raises(ValueError) as philox:
        np.random.Philox(key=key)
    with pytest.raises(ValueError) as ours:
        _trial_generator(key)
    assert str(ours.value) == str(philox.value) == "key must be positive and less than 2**128."


def test_trial_rng_held_across_run_trial_keeps_its_stream():
    held = trial_rng(99, 3)
    first = held.standard_normal(4)
    run_trial(SINGLE_CFG, 3)
    run_trial(SINGLE_CFG, 4)
    rest = held.standard_normal(6)
    fresh = trial_rng(99, 3)
    assert _same_draws([first, rest], [fresh.standard_normal(4), fresh.standard_normal(6)])


def test_threads_running_run_trial_draw_their_own_streams():
    config = dataclasses.replace(SINGLE_CFG, trials=120, n_range=(2, 6))
    zeroed = lambda rec: dataclasses.replace(rec, elapsed_alg_s=0.0, elapsed_oracle_s=0.0)
    serial = [(zeroed(rec), cand) for rec, cand in
              (run_trial(config, i) for i in range(config.trials))]
    start = threading.Barrier(4)

    def run_share(first: int) -> list:
        start.wait(timeout=60)
        return [(i, *run_trial(config, i)) for i in range(first, config.trials, 4)]

    # switch threads often, so that trials of different threads interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            shares = list(pool.map(run_share, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    threaded = sorted((i, zeroed(rec), cand) for share in shares for i, rec, cand in share)
    assert [(rec, cand) for _, rec, cand in threaded] == serial


def test_import_builds_no_generator():
    src = Path(cfslv.bench.__file__).resolve().parent.parent
    code = "import sys, cfslv; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_config_rejects_a_seed_beyond_the_key_range():
    with pytest.raises(ValueError, match=r"^seed must be less than 2\*\*128$"):
        BenchConfig(mode="single", trials=1, n_range=(2, 4), power_range=(1.0, 2.0),
                    seed=2**128)
    config = BenchConfig(mode="single", trials=1, n_range=(2, 4), power_range=(1.0, 2.0),
                         seed=2**128 - 1)
    assert run_trial(config, 0)[0].seed == 2**128 - 1


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


def _count_calls(monkeypatch, name: str) -> list:
    """Patch cfslv.gram's function name in every cfslv module that holds
    it with a wrapper that notes each call; returns the list of notes."""
    calls = []
    real = getattr(cfslv.gram, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "cfslv" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("oracle", [False, True])
def test_single_trial_builds_one_gram(monkeypatch, oracle):
    cfg = BenchConfig(mode="single", trials=1, n_range=(2, 5),
                      power_range=(0.5, 5.0), seed=13, oracle=oracle)
    expected, expected_cand = run_trial(cfg, 3)
    # every single-antenna G comes from _gram_single, build_gram_single's too
    calls = _count_calls(monkeypatch, "_gram_single")
    scales = _count_calls(monkeypatch, "_single_scale")
    rec, cand = run_trial(cfg, 3)
    # one G, and one 1 + P|h|^2 for G and the rate together
    assert len(calls) == 1
    assert len(scales) == 1
    assert cand == expected_cand
    assert dataclasses.replace(rec, elapsed_alg_s=0.0, elapsed_oracle_s=0.0) == \
        dataclasses.replace(expected, elapsed_alg_s=0.0, elapsed_oracle_s=0.0)


def test_cli_solve_builds_one_gram(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "_gram_single")
    scales = _count_calls(monkeypatch, "_single_scale")
    assert cli_main(["solve", "--h", "1.2,-0.7,0.3", "--power", "4"]) == 0
    assert "psi " in capsys.readouterr().out
    assert len(calls) == len(scales) == 1


def _public_record(config: BenchConfig, trial_id: int):
    """run_trial's record and candidate count rebuilt from the public
    calls, plus the SolverResult, for the same draw."""
    rng = trial_rng(config.seed, trial_id)
    n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
    p_lo, p_hi = config.power_range
    power = float(np.exp(rng.uniform(math.log(p_lo), math.log(p_hi))))
    if config.mode == "single":
        h = rng.standard_normal(n)
        res = solve_single(h, power)
        gram = build_gram_single(h, power)
        rate = rate_from_objective(res.f_star, h, power)
    else:
        gram, dec = build_gram_mimo(MimoChannel(h_matrix=rng.standard_normal((n, config.k)),
                                                power=power))
        res = solve_dpk(gram, dec)
        rate = max(0.0, -0.5 * math.log2(res.f_star))
    ores = brute_force_slv(gram, certification_radius(gram, res.f_star))
    values = (n, power, res.f_star, ores.f_star, rate,
              match_within_tolerance(res.f_star, ores.f_star))
    return values, res.candidates_evaluated, res


@pytest.mark.parametrize("mode, k, n_range, power_range", [
    ("single", 1, (2, 6), (0.1, 10.0)),
    ("mimo", 1, (2, 6), (0.1, 10.0)),
    ("mimo", 2, (2, 3), (0.1, 1.0)),
    # a one-value range: run_trial draws no n, _public_record draws it with integers
    ("single", 1, (4, 4), (0.1, 10.0)),
    ("mimo", 1, (6, 6), (0.1, 10.0)),
    ("mimo", 2, (3, 3), (0.1, 1.0)),
])
def test_run_trial_has_the_bits_of_the_public_calls(mode, k, n_range, power_range):
    config = BenchConfig(mode=mode, trials=200, n_range=n_range, power_range=power_range,
                         seed=2024, k=k, oracle=True)
    unit_won = led_negative = 0
    for trial_id in range(config.trials):
        rec, cand = run_trial(config, trial_id)
        values, public_cand, res = _public_record(config, trial_id)
        got = (rec.n, rec.power, rec.f_alg, rec.f_oracle, rec.rate_bits, rec.match)
        assert [float(x).hex() for x in got[:5]] == [float(x).hex() for x in values[:5]]
        assert got[5] is values[5] is True
        assert cand == public_cand
        unit_won += res.witness_point is None
        # for k = 1 the witness is x > 0 unless canonical_sign negated it
        led_negative += k == 1 and res.witness_point is not None and res.witness_point[0] < 0.0
    assert unit_won > 0
    if k == 1:
        assert led_negative > 0


def _philox_state(gen: np.random.Generator) -> tuple:
    state = gen.bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["state"]["key"]),
            tuple(state["buffer"]), state["buffer_pos"], state["has_uint32"], state["uinteger"])


def test_run_trial_draw_has_the_bits_of_integers_and_uniform():
    # run_trial skips integers(n, n + 1), which consumes nothing, and draws
    # the log-power as lo + (hi - lo) u, Generator.uniform's own formula
    for key in range(10_000):
        n = key % 7 + 1
        lo, hi = math.log(0.1 * (key % 3 + 1)), math.log(10.0 + key % 5)
        drawn, skipped = trial_rng(key, 0), trial_rng(key, 0)
        assert drawn.integers(n, n + 1) == n
        assert _philox_state(drawn) == _philox_state(skipped)
        x, y = drawn.uniform(lo, hi), lo + (hi - lo) * skipped.random()
        assert float(x).hex() == float(y).hex()
        assert _philox_state(drawn) == _philox_state(skipped)


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
    assert render_csv(without_timing(serial).records) == \
        render_csv(without_timing(parallel).records)
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

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setenv("CFSLV_THREADS", str(threads))
    # run_bench imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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


def _result_of(*trial_ids):
    outcomes = [run_trial(SINGLE_CFG, i) for i in trial_ids]
    records = [rec for rec, _ in outcomes]
    candidates = [cand for _, cand in outcomes]
    return BenchResult(records=records, candidates=candidates,
                       summary=summarize(records, candidates))


def test_csv_zero_timing():
    text = render_csv(without_timing(_result_of(1)).records)
    row = text.strip().split("\n")[1].split(",")
    assert row[8] == "0" and row[9] == "0"


def test_json_rendering():
    rec, _ = run_trial(SINGLE_CFG, 2)
    rows = json.loads(render_json(without_timing(_result_of(2)).records))
    assert len(rows) == 1
    assert list(rows[0].keys()) == list(CSV_FIELDS)
    assert rows[0]["f_alg"] == rec.f_alg
    assert rows[0]["elapsed_alg_s"] == 0.0
    assert rows[0]["match"] is True


def test_without_timing_zeroes_both_elapsed_fields_in_csv_and_json():
    result = without_timing(_result_of(0, 1, 2))
    for row in render_csv(result.records).strip().split("\n")[1:]:
        cells = row.split(",")
        assert cells[8] == "0" and cells[9] == "0"
    for row in json.loads(render_json(result.records)):
        assert row["elapsed_alg_s"] == 0.0 and row["elapsed_oracle_s"] == 0.0


def test_without_timing_keeps_other_fields_and_its_input():
    result = _result_of(0, 1, 2)
    before = dataclasses.replace(result, records=list(result.records),
                                 candidates=list(result.candidates), summary=dict(result.summary))
    stripped = without_timing(result)
    assert result == before
    assert all(r.elapsed_alg_s > 0.0 and r.elapsed_oracle_s > 0.0 for r in result.records)
    assert stripped.candidates == result.candidates
    for old, new in zip(result.records, stripped.records):
        assert new == dataclasses.replace(old, elapsed_alg_s=0.0, elapsed_oracle_s=0.0)
    timed = ("mean_elapsed_alg_s", "mean_elapsed_oracle_s")
    assert {k: v for k, v in stripped.summary.items() if k not in timed} == \
        {k: v for k, v in result.summary.items() if k not in timed}


def test_without_timing_summary_line():
    line = summary_line(without_timing(_result_of(0, 1)).summary)
    assert line.endswith(" mean_elapsed_alg_s=0 mean_elapsed_oracle_s=0")


def test_field_text():
    values = [None, True, np.int64(3), "1,-1", 0.1]
    assert [field_text(v) for v in values] == ["", "true", "3", "1,-1", "0.10000000000000001"]


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
