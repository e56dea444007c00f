"""CLI behavior: documents, file parsing, exit codes, bench reports."""

import subprocess
import sys
from pathlib import Path

import pytest

from cfslv.cli import main, parse_vector, read_matrix

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_document(text):
    pairs = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


def test_solve_document(capsys):
    code, out, _ = run_cli(["solve", "--h", "1,1", "--power", "2"], capsys)
    assert code == 0
    doc = parse_document(out)
    assert doc["command"] == "solve"
    assert float(doc["f_star"]) == 2.0
    assert doc["a_star"] == "1,1"
    assert abs(float(doc["rate_bits"]) - 0.660964) <= 1e-6
    assert int(doc["breakpoint_count"]) == 6


def test_solve_zero_channel(capsys):
    code, out, _ = run_cli(["solve", "--h", "0,0", "--power", "5"], capsys)
    assert code == 0
    doc = parse_document(out)
    assert float(doc["f_star"]) == 1.0
    assert doc["a_star"] in ("1,0", "0,1")
    assert float(doc["rate_bits"]) == 0.0


def test_solve_no_timing_zeroes_elapsed(capsys):
    code, out, _ = run_cli(["solve", "--h", "1,2", "--power", "3", "--no-timing"], capsys)
    assert code == 0
    assert parse_document(out)["elapsed_s"] == "0"


@pytest.mark.parametrize("command", ["solve", "mimo", "oracle"])
def test_no_timing_zeroes_only_elapsed(command, tmp_path, capsys):
    (tmp_path / "M.txt").write_text("2 2\n1.5 -0.3\n-0.3 1.2\n")
    args = {
        "solve": ["solve", "--h", "1,2", "--power", "3"],
        "mimo": ["mimo", "--H", str(tmp_path / "M.txt"), "--power", "2"],
        "oracle": ["oracle", "--gram", str(tmp_path / "M.txt"), "--radius", "2"],
    }[command]
    timed = parse_document(run_cli(args, capsys)[1])
    untimed = parse_document(run_cli(args + ["--no-timing"], capsys)[1])
    assert float(timed["elapsed_s"]) > 0.0
    assert untimed.pop("elapsed_s") == "0"
    timed.pop("elapsed_s")
    assert untimed == timed


def readme_transcript(command):
    """The output printed under "$ command" in README.md, unindented."""
    lines = README.read_text(encoding="utf-8").split("\n")
    start = lines.index(f"    $ {command}") + 1
    end = lines.index("", start)
    return "".join(line.removeprefix("    ") + "\n" for line in lines[start:end])


@pytest.mark.parametrize("command", [
    "cfslv solve --h 1.2,-0.7,2.1 --power 10 --no-timing",
    "cfslv oracle --gram gram.txt --radius 3.5 --no-timing",
])
def test_readme_transcript(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "gram.txt").write_text("2 2\n3 -2\n-2 3\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(command.split()[1:], capsys)
    assert (code, err) == (0, "")
    assert out == readme_transcript(command)


def test_rate_document(capsys):
    code, out, _ = run_cli(["rate", "--h", "1,1", "--power", "2", "--a", "1,1"], capsys)
    assert code == 0
    doc = parse_document(out)
    assert abs(float(doc["rate_bits"]) - 0.660964) <= 1e-6


def test_rate_rejects_fractional_coefficients(capsys):
    code, _, err = run_cli(["rate", "--h", "1,1", "--power", "2", "--a", "1.5,1"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("a", ["1e300,1", "1e19,0", "nan,1", "inf,1"])
def test_rate_rejects_coefficients_outside_int64(capsys, a):
    code, out, err = run_cli(["rate", "--h", "1,1", "--power", "1", "--a", a], capsys)
    assert code == 2 and not out
    assert "coefficients must be integers" in err


def test_mimo_document(tmp_path, capsys):
    path = tmp_path / "H.txt"
    path.write_text("2 1\n1\n1\n")
    code, out, _ = run_cli(["mimo", "--H", str(path), "--power", "2"], capsys)
    assert code == 0
    doc = parse_document(out)
    assert abs(float(doc["f_star"]) - 0.4) <= 1e-12
    assert doc["a_star"] in ("1,1", "-1,-1")
    assert int(doc["vertex_count"]) == 6


def test_oracle_document(tmp_path, capsys):
    path = tmp_path / "G.txt"
    path.write_text("2 2\n3 -2\n-2 3\n")
    code, out, _ = run_cli(["oracle", "--gram", str(path), "--radius", "2.24"], capsys)
    assert code == 0
    doc = parse_document(out)
    assert float(doc["f_star"]) == 2.0


def test_oracle_rejects_rectangular(tmp_path, capsys):
    path = tmp_path / "G.txt"
    path.write_text("2 1\n1\n1\n")
    code, _, err = run_cli(["oracle", "--gram", str(path), "--radius", "2"], capsys)
    assert code == 2
    assert "square" in err


def test_matrix_file_errors(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("2\n")
    with pytest.raises(ValueError):
        read_matrix(str(bad_header))
    wrong_count = tmp_path / "b.txt"
    wrong_count.write_text("2 2\n1 2 3\n")
    with pytest.raises(ValueError):
        read_matrix(str(wrong_count))
    not_numbers = tmp_path / "c.txt"
    not_numbers.write_text("1 1\nx\n")
    with pytest.raises(ValueError):
        read_matrix(str(not_numbers))


def test_matrix_file_reads_values(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 3\n1 2 3\n4 5 6\n")
    assert read_matrix(str(path)).tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(["mimo", "--H", "/nonexistent/H.txt", "--power", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_parse_vector_errors():
    with pytest.raises(ValueError):
        parse_vector("")
    with pytest.raises(ValueError):
        parse_vector("1,x")


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        ["solve", "--h", "1,1", "--power", "1e5", "--budget", "1000"], capsys)
    assert code == 3
    assert err == "error: vertex bound 1272 exceeds budget 1000\n"


def test_rounding_singular_gram_is_input_error(capsys):
    code, out, err = run_cli(["solve", "--h", "1", "--power", "1e16"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: Gram matrix is not positive definite (smallest eigenvalue 0.000e+00)\n"


@pytest.mark.parametrize("command", ["solve", "mimo", "oracle", "bench"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_nonpositive_budget_is_input_error(tmp_path, capsys, command, budget):
    (tmp_path / "M.txt").write_text("2 2\n3 -2\n-2 3\n")
    args = {
        "solve": ["--h", "1,2", "--power", "1"],
        "mimo": ["--H", str(tmp_path / "M.txt"), "--power", "1"],
        "oracle": ["--gram", str(tmp_path / "M.txt"), "--radius", "2"],
        "bench": ["--trials", "1", "--n-range", "2:2", "--power-range", "1:1", "--seed", "1"],
    }[command]
    code, out, err = run_cli([command, *args, "--budget", budget], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: budget must be positive\n"


def test_bench_seed_beyond_the_key_range_is_input_error(capsys):
    code, out, err = run_cli(
        ["bench", "--trials", "2", "--n-range", "2:2", "--power-range", "1:1",
         "--seed", str(2**128)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be less than 2**128\n"


def test_extreme_power_mimo_is_input_error(tmp_path, capsys):
    # LAPACK's smallest eigenvalue of this G is -8e-18
    path = tmp_path / "H.txt"
    path.write_text("3 2\n1 0\n0 1\n1 1\n")
    code, out, err = run_cli(["mimo", "--H", str(path), "--power", "1e17"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: diag(d) - V V^T is not positive definite\n"


def test_overflowing_channel_is_input_error(capsys):
    code, out, err = run_cli(["solve", "--h", "1e200,1", "--power", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["mimo", "rate"])
def test_overflowing_mimo_or_rate_channel_is_input_error(tmp_path, capsys, command):
    # H H^T and |h|^2 overflow although every entry is finite
    (tmp_path / "H.txt").write_text("2 1\n1e200\n1e200\n")
    args = {
        "mimo": ["--H", str(tmp_path / "H.txt"), "--power", "1"],
        "rate": ["--h", "1e200,1", "--power", "1", "--a", "1,0"],
    }[command]
    code, out, err = run_cli([command, *args], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows" in err


def test_bench_stdout_report(capsys):
    code, out, err = run_cli(
        ["bench", "--trials", "3", "--n-range", "2:3", "--power-range", "1:2",
         "--seed", "5", "--no-timing"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("trial_id,")
    assert len(lines) == 4
    # no oracle: optional columns empty
    assert lines[1].split(",")[6] == ""
    assert "match_rate=n/a" in err


def test_bench_oracle_exit_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        ["bench", "--trials", "4", "--n-range", "2:3", "--power-range", "0.5:4",
         "--seed", "12", "--oracle", "--no-timing", "--out", str(out_path)], capsys)
    assert code == 0
    assert "match_rate=1.000000" in out
    body = out_path.read_text()
    assert body.count("\n") == 5
    assert body.endswith("true\n")


def test_bench_no_timing_stdout_repeats(tmp_path, capsys):
    args = ["bench", "--trials", "20", "--n-range", "2:4", "--power-range", "1:2",
            "--seed", "3", "--oracle", "--no-timing", "--out", str(tmp_path / "x.csv")]
    first = run_cli(args, capsys)
    second = run_cli(args, capsys)
    assert first[0] == 0 and first == second
    assert "mean_elapsed_alg_s=0 mean_elapsed_oracle_s=0" in first[1]


def test_bench_json_format(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["bench", "--trials", "2", "--n-range", "2:2", "--power-range", "1:1",
         "--seed", "3", "--format", "json", "--no-timing", "--out", str(out_path)], capsys)
    assert code == 0
    import json
    rows = json.loads(out_path.read_text())
    assert len(rows) == 2 and rows[0]["trial_id"] == 0


def test_bench_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(
        ["bench", "--trials", "2", "--n-range", "2-3", "--power-range", "1:2",
         "--seed", "1"], capsys)
    assert code == 2
    assert "range" in err


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as info:
        main(["solve", "--power", "2"])  # missing --h
    assert info.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cfslv.cli", "solve", "--h", "1,1", "--power", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "f_star 2" in proc.stdout
