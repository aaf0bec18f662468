"""Command-line entry point: generate, run, verify, bench, table.

Exit codes: 0 on success, 1 for every `error:` line (bad input or a
violated invariant), 2 for argparse usage errors.  `-` stands for
stdin/stdout wherever a path is taken.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional

from .algorithms import AlgorithmError, algorithm_names, make_algorithm
from .harness import (
    ADVERSARY_SOURCES,
    RUN_ERRORS,
    SweepError,
    _keyed,
    check_opt_cap,
    parse_bench_spec,
    parse_number,
    resolve_source,
    run,
    run_batches,
    sweep,
    sweep_csv,
)
from .instances import InstanceError, parse_instance_record, serialize_instance
from .oracles import FixedOracle
from .reductions import BatchesToRounds, QueryAllBatch, RoundsToBatches, TwoBatchSorting
from .solving import (
    OPT_CAP,
    SolutionCertificate,
    canonical_opt,
    extract_certificate,
    instance_solved,
    query_set_feasible,
    reveal_all,
    verify_certificate,
)

OPT_CAP_HELP = "most vertices the sorting optimum covers by branch and bound beyond its mandatory set"

BATCH_ALGORITHMS = {
    "batch-all": QueryAllBatch,
    "batch-sort-2": TwoBatchSorting,
}


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _write(path: str, payload: str) -> None:
    if path == "-":
        sys.stdout.write(payload)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def certificate_text(cert: SolutionCertificate) -> str:
    lines = []
    if cert.orders is not None:
        for idx, order in enumerate(cert.orders, 1):
            lines.append(f"order S{idx}: " + " ".join(str(e) for e in order))
    if cert.minima is not None:
        for idx, (eid, value) in enumerate(cert.minima, 1):
            lines.append(f"minimum S{idx}: element {eid} value {value}")
    if cert.value is not None:
        lines.append(f"value {cert.value}")
    if cert.equal_ids is not None:
        lines.append("equal " + " ".join(str(e) for e in sorted(cert.equal_ids)))
    return "\n".join(lines) + "\n"


def _load_run_target(args) -> tuple:
    chosen = [opt for opt in (args.instance, args.source, args.oracle) if opt]
    if len(chosen) != 1:
        raise InstanceError("pick exactly one of --instance, --source, --oracle")
    if args.instance:
        instance, truth = parse_instance_record(_read(args.instance))
        if truth is None:
            raise InstanceError("instance file carries no realization; cannot answer queries")
        return instance, FixedOracle(instance, truth)
    spec = args.source or args.oracle
    if args.oracle and spec.partition(":")[0].strip() not in ADVERSARY_SOURCES:
        raise InstanceError(f"--oracle expects one of {ADVERSARY_SOURCES}")
    return resolve_source(spec, args.seed)


def cmd_generate(args) -> int:
    instance, oracle = resolve_source(args.source, args.seed)
    realization = oracle.finalize()
    _write(args.output, serialize_instance(instance, realization))
    return 0


def cmd_run(args) -> int:
    check_opt_cap(args.opt_cap, "--opt-cap")
    instance, oracle = _load_run_target(args)
    if args.as_rounds is not None:
        if args.alg not in BATCH_ALGORITHMS:
            raise AlgorithmError(f"--as-rounds expects a batch algorithm: {sorted(BATCH_ALGORITHMS)}")
        k = _keyed([args.as_rounds], ("k",), "--as-rounds")["k"]
        instance = replace(instance, k=parse_number(k, "k"))
        instance.validate()
        alg = BatchesToRounds(BATCH_ALGORITHMS[args.alg]())
    elif args.as_batches is not None:
        fields = _keyed(args.as_batches, ("r", "alpha"), "--as-batches")
        r = parse_number(fields["r"], "r")
        alpha = parse_number(fields["alpha"], "alpha", Fraction)
        batch_alg = RoundsToBatches(
            lambda sized: make_algorithm(args.alg, sized), alpha, r, instance.n
        )
        batches, report = run_batches(batch_alg, instance, oracle, opt_cap=args.opt_cap)
        for idx, batch in enumerate(batches, 1):
            sys.stdout.write(f"batch {idx}: " + " ".join(str(e) for e in batch) + "\n")
        sys.stdout.write(report.text())
        return 0
    else:
        alg = make_algorithm(args.alg, instance)
    trace, report = run(alg, instance, oracle, opt_cap=args.opt_cap)
    if args.trace:
        sys.stdout.write(trace.text())
    sys.stdout.write(report.text())
    if args.as_rounds is not None:
        sys.stdout.write(f"batches_used {alg.batches_used}\n")
    return 0


def cmd_verify(args) -> int:
    check_opt_cap(args.opt_cap, "--opt-cap")
    instance, truth = parse_instance_record(_read(args.instance))
    if truth is None:
        raise InstanceError("verify needs a realization (value lines)")
    realization = truth.realization
    opt = canonical_opt(instance, truth, cap=args.opt_cap)
    lines = [
        f"n {instance.n}",
        f"m {instance.m}",
        f"k {instance.k}",
        f"problem {instance.problem.text()}",
        f"opt1 {opt.opt1}",
        f"opt_k {opt.opt_k}",
        f"method {opt.method}",
        "opt_set " + " ".join(str(e) for e in sorted(opt.opt_set)),
    ]
    knowledge = reveal_all(instance, realization, opt.opt_set)
    if not instance_solved(instance, knowledge):
        raise InstanceError("optimum query set is not feasible")
    lines.append("feasible yes")
    for eid in sorted(opt.opt_set):
        if query_set_feasible(instance, realization, opt.opt_set - {eid}):
            raise InstanceError(f"optimum query set is not minimal: {eid} is redundant")
    lines.append("minimal yes")
    cert = extract_certificate(instance, knowledge)
    verify_certificate(instance, knowledge, cert, truth)
    sys.stdout.write("\n".join(lines) + "\n" + certificate_text(cert))
    return 0


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise InstanceError(f"--jobs: must be at least 1, not {args.jobs}")
    entries = parse_bench_spec(_read(args.spec))
    try:
        rows, failures = sweep(entries, jobs=args.jobs), []
    except SweepError as exc:
        rows, failures = exc.rows, exc.failures
    _write(args.output, sweep_csv(rows))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_table(args) -> int:
    reader = csv.reader(io.StringIO(_read(args.csv)))
    rows: List[List[str]] = []
    for row in reader:
        if rows and len(row) != len(rows[0]):
            raise InstanceError(f"line {reader.line_num}: {len(row)} fields, the header has {len(rows[0])}")
        rows.append(row)
    if not rows:
        return 0
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        sys.stdout.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundquery",
        description="Round-based query strategies over uncertainty intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an instance file from a source")
    p.add_argument("--source", required=True, help="fig2 | fig3:k=3,c=3 | random:... | adversary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one algorithm against an instance or adversary")
    p.add_argument("--alg", required=True, help=" | ".join(algorithm_names() + sorted(BATCH_ALGORITHMS)))
    p.add_argument("--instance", help="instance file with a realization")
    p.add_argument("--source", help="generator source spec")
    p.add_argument("--oracle", help="adversary source spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="print per-round query lines")
    p.add_argument("--opt-cap", type=int, default=OPT_CAP, help=OPT_CAP_HELP)
    model = p.add_mutually_exclusive_group()
    model.add_argument("--as-rounds", metavar="k=K", help="wrap a batch algorithm into rounds of K")
    model.add_argument(
        "--as-batches", nargs=2, metavar=("r=R", "alpha=A"),
        help="wrap the round algorithm into at most R batches",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check optimum/certificate invariants of an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--opt-cap", type=int, default=OPT_CAP, help=OPT_CAP_HELP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a sweep spec and write CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("table", help="pretty-print a sweep CSV")
    p.add_argument("--csv", default="-")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RUN_ERRORS + (OSError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the last defence against a source too large to build
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
