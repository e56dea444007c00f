"""Command-line front end.

Subcommands: solve (single-antenna exact search), mimo (low-rank exact
search), oracle (exhaustive search on a Gram matrix file), rate
(combination rate), bench (randomized campaign with optional oracle
certification).

Exit codes: 0 success, 1 certified mismatch in a bench run, 2 usage or
input error, 3 resource budget exceeded.  Results print as one
"key value" pair per line; floats use 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bench import (
    BenchConfig,
    any_mismatch,
    field_text,
    render_csv,
    render_json,
    run_bench,
    summary_line,
    without_timing,
)
from .core import CoefficientVector, GramMatrix, SolverResult
from .errors import ResourceBudgetError
from .gram import MimoChannel, build_gram_mimo, search_radius_psi
from .oracle import brute_force_slv
from .rate import computation_rate, rate_from_objective
from .solver_dpk import solve_dpk
from .solver_single import _solve_single

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def parse_vector(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse vector {text!r}: {exc}") from exc
    if not values:
        raise ValueError("vector must contain at least one entry")
    return np.array(values)


def read_matrix(path: str) -> np.ndarray:
    """Matrix file: a header line "n k", then n rows of k numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: expected a header line with two dimensions")
    try:
        n, k = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"{path}: header must hold two integers") from exc
    if n < 1 or k < 1:
        raise ValueError(f"{path}: dimensions must be positive")
    body = tokens[2:]
    if len(body) != n * k:
        raise ValueError(f"{path}: expected {n * k} entries, found {len(body)}")
    try:
        values = np.array([float(tok) for tok in body])
    except ValueError as exc:
        raise ValueError(f"{path}: matrix entries must be numbers") from exc
    return values.reshape(n, k)


def print_document(pairs: list[tuple[str, object]]) -> None:
    """Write each (key, value) pair to stdout as one "key value" line,
    the value as field_text writes a report cell."""
    for key, value in pairs:
        sys.stdout.write(f"{key} {field_text(value)}\n")


def _int_csv(entries: np.ndarray) -> str:
    return ",".join(str(int(v)) for v in entries)


def _elapsed(args: argparse.Namespace, res: SolverResult) -> tuple[str, float]:
    """The elapsed_s line of a one-off solve: 0.0 under --no-timing."""
    return ("elapsed_s", 0.0 if args.no_timing else res.elapsed_seconds)


def _parse_range(text: str, kind: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like lo:hi, got {text!r}")
    if kind == "int":
        return int(parts[0]), int(parts[1])
    return float(parts[0]), float(parts[1])


def cmd_solve(args: argparse.Namespace) -> int:
    h = parse_vector(args.h)
    kwargs = {} if args.budget is None else {"budget": args.budget}
    res, gram = _solve_single(h, args.power, **kwargs)
    print_document([
        ("command", "solve"),
        ("n", h.size),
        ("power", float(args.power)),
        ("psi", search_radius_psi(gram)),
        ("f_star", res.f_star),
        ("a_star", _int_csv(res.a_star.entries)),
        ("rate_bits", rate_from_objective(res.f_star, h, args.power)),
        ("breakpoint_count", res.breakpoint_count),
        ("candidates_evaluated", res.candidates_evaluated),
        _elapsed(args, res),
    ])
    return EXIT_OK


def cmd_mimo(args: argparse.Namespace) -> int:
    h_matrix = read_matrix(args.channel)
    channel = MimoChannel(h_matrix=h_matrix, power=args.power)
    gram, dec = build_gram_mimo(channel)
    kwargs = {} if args.budget is None else {"budget": args.budget}
    res = solve_dpk(gram, dec, **kwargs)
    print_document([
        ("command", "mimo"),
        ("n", channel.n),
        ("k", channel.k),
        ("power", float(args.power)),
        ("f_star", res.f_star),
        ("a_star", _int_csv(res.a_star.entries)),
        ("rate_bits", max(0.0, -0.5 * math.log2(res.f_star))),
        ("vertex_count", res.breakpoint_count),
        ("candidates_evaluated", res.candidates_evaluated),
        _elapsed(args, res),
    ])
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    entries = read_matrix(args.gram)
    if entries.shape[0] != entries.shape[1]:
        raise ValueError(f"{args.gram}: Gram matrix must be square")
    gram = GramMatrix(entries)
    kwargs = {} if args.budget is None else {"budget": args.budget}
    res = brute_force_slv(gram, args.radius, **kwargs)
    print_document([
        ("command", "oracle"),
        ("n", gram.n),
        ("radius", float(args.radius)),
        ("f_star", res.f_star),
        ("a_star", _int_csv(res.a_star.entries)),
        ("candidates_evaluated", res.candidates_evaluated),
        _elapsed(args, res),
    ])
    return EXIT_OK


def cmd_rate(args: argparse.Namespace) -> int:
    h = parse_vector(args.h)
    a = CoefficientVector(parse_vector(args.a))
    print_document([
        ("command", "rate"),
        ("n", h.size),
        ("power", float(args.power)),
        ("a", _int_csv(a.entries)),
        ("rate_bits", computation_rate(h, args.power, a)),
    ])
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(
        mode=args.mode,
        trials=args.trials,
        n_range=_parse_range(args.n_range, "int"),
        power_range=_parse_range(args.power_range, "float"),
        seed=args.seed,
        k=args.k,
        oracle=args.oracle,
        budget=args.budget,
    )
    result = run_bench(config)
    if args.no_timing:
        result = without_timing(result)
    render = render_json if args.format == "json" else render_csv
    report = render(result.records)
    summary = summary_line(result.summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(report)
        print(summary)
    else:
        sys.stdout.write(report)
        print(summary, file=sys.stderr)
    return EXIT_MISMATCH if any_mismatch(result.records) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfslv",
        description="Exact integer-coefficient search for compute-and-forward relaying.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single-antenna exact search")
    p.add_argument("--h", required=True, help="channel gains, comma separated")
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-timing", action="store_true", help="report elapsed_s as 0")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("mimo", help="multi-antenna exact search")
    p.add_argument("--H", dest="channel", required=True,
                   help="channel matrix file (header 'n k')")
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_mimo)

    p = sub.add_parser("oracle", help="exhaustive search on a Gram matrix file")
    p.add_argument("--gram", required=True, help="square matrix file (header 'n n')")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rate", help="computation rate of a given combination")
    p.add_argument("--h", required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--a", required=True, help="integer coefficients, comma separated")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("bench", help="randomized benchmark campaign")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n-range", required=True, help="inclusive dimension range lo:hi")
    p.add_argument("--power-range", required=True, help="inclusive power range lo:hi")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("single", "mimo"), default="single")
    p.add_argument("--k", type=int, default=1, help="receive antennas (mimo mode)")
    p.add_argument("--oracle", action="store_true", help="certify each trial exhaustively")
    p.add_argument("--budget", type=int, default=None,
                   help="override enumeration budgets for solver and oracle")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--no-timing", action="store_true", help="zero timing columns")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
