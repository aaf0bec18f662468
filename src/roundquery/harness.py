"""Drives algorithm-versus-oracle runs and benchmark sweeps.

One run: ask the algorithm for a round, hand the whole round to the
oracle, fold the answers into the knowledge state, and repeat until the
instance is provably solved.  Answers reach the algorithm only at round
boundaries; that is the information contract of the round model.  The
report compares the run against the canonical fixed optimum.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algorithms import make_algorithm
from .instances import (
    Instance,
    InstanceError,
    ProblemFamily,
    ProblemKind,
    RandomParams,
    Realization,
    gen_fig2_bal_instance,
    gen_fig3_overlap_instance,
    gen_random,
)
from .oracles import (
    FixedOracle,
    ValueOracle,
    minimum_additive_lb_adversary,
    minimum_wlb_adversary,
    selection_full_lb_adversary,
    selection_value_lb_adversary,
    sorting_pair_adversary,
)
from .solving import (
    OptReport,
    canonical_opt,
    ceil_div,
    extract_certificate,
    instance_solved,
    set_solved,
    verify_certificate,
)


class HarnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class RoundTrace:
    rounds: Tuple[Tuple[Tuple[int, ...], Tuple[Fraction, ...]], ...]
    final_realization: Realization
    solved_at: Tuple[int, ...]  # per set: first round index after which solved

    def queried_ids(self) -> Tuple[int, ...]:
        return tuple(e for ids, _ in self.rounds for e in ids)

    def text(self) -> str:
        lines = []
        for r, (ids, values) in enumerate(self.rounds, 1):
            id_part = " ".join(str(e) for e in ids)
            val_part = " ".join(str(v) for v in values)
            lines.append(f"round {r}: {id_part} -> {val_part}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class RunReport:
    alg_rounds: int
    alg_queries: int
    opt1: int
    opt_k: int
    wasted: int
    useful: int
    ratio: Fraction
    method: str

    def text(self) -> str:
        return (
            f"rounds {self.alg_rounds}\n"
            f"queries {self.alg_queries}\n"
            f"opt1 {self.opt1}\n"
            f"opt_k {self.opt_k}\n"
            f"wasted {self.wasted}\n"
            f"useful {self.useful}\n"
            f"ratio {self.ratio}\n"
            f"method {self.method}\n"
        )


def run(
    alg,
    instance: Instance,
    oracle: ValueOracle,
    opt_cap: int = 22,
    opt_report: Optional[OptReport] = None,
    max_rounds: Optional[int] = None,
) -> Tuple[RoundTrace, RunReport]:
    """Run one trial to provable solvedness and audit everything.

    Raises if the algorithm emits an empty or malformed round while the
    instance is unsolved, or if the oracle answers inconsistently.  The
    extracted solution certificate is re-verified against the finalized
    realization on every run.
    """
    knowledge = instance.knowledge()
    limit = max_rounds if max_rounds is not None else 4 * instance.n + 8
    rounds: List[Tuple[Tuple[int, ...], Tuple[Fraction, ...]]] = []
    per_set = instance.m if not instance.problem.is_selection else 1
    solved_at = [0 if set_solved(instance, i, knowledge) else -1 for i in range(per_set)]

    while -1 in solved_at:
        if len(rounds) >= limit:
            raise HarnessError(f"no progress after {limit} rounds")
        picked = list(alg.next_round(instance, knowledge))
        if not picked:
            raise HarnessError("algorithm emitted an empty round while unsolved")
        if len(picked) > instance.k:
            raise HarnessError(f"round of {len(picked)} queries exceeds k = {instance.k}")
        if len(set(picked)) != len(picked):
            raise HarnessError("round queries an element twice")
        for e in picked:
            if knowledge.is_revealed(e):
                raise HarnessError(f"round re-queries element {e}")
            if instance.interval(e).trivial:
                raise HarnessError(f"round queries trivial element {e}")
        answers = oracle.answer_round(picked)
        for e in picked:
            knowledge.reveal(e, answers[e])
        rounds.append((tuple(picked), tuple(answers[e] for e in picked)))
        for i in range(per_set):
            if solved_at[i] < 0 and set_solved(instance, i, knowledge):
                solved_at[i] = len(rounds)

    realization = oracle.check_finalize()
    certificate = extract_certificate(instance, knowledge)
    verify_certificate(instance, knowledge, certificate, realization)

    opt = opt_report if opt_report is not None else canonical_opt(instance, realization, cap=opt_cap)
    queried = [e for ids, _ in rounds for e in ids]
    useful = len(set(queried) & opt.opt_set)
    wasted = len(queried) - useful
    alg_rounds = len(rounds)
    if opt.opt_k == 0:
        if alg_rounds != 0:
            raise HarnessError("queries were spent on an instance solved from the start")
        ratio = Fraction(1)
    else:
        ratio = Fraction(alg_rounds, opt.opt_k)

    trace = RoundTrace(tuple(rounds), realization, tuple(solved_at))
    _check_wasted_identity(instance, trace, opt)
    report = RunReport(
        alg_rounds=alg_rounds,
        alg_queries=len(queried),
        opt1=opt.opt1,
        opt_k=opt.opt_k,
        wasted=wasted,
        useful=useful,
        ratio=ratio,
        method=opt.method,
    )
    return trace, report


def _check_wasted_identity(instance: Instance, trace: RoundTrace, opt: OptReport) -> None:
    """Wasted-query accounting: when the run queried a superset of the fixed
    optimum and filled every round but the last, the round count must equal
    ceil((opt1 + wasted_before_final)/k)."""
    rounds = trace.rounds
    if not rounds:
        return
    queried = set(trace.queried_ids())
    if not opt.opt_set <= queried:
        return
    if any(len(ids) != instance.k for ids, _ in rounds[:-1]):
        return
    before_final = [e for ids, _ in rounds[:-1] for e in ids]
    wasted_before = len(before_final) - len(set(before_final) & opt.opt_set)
    expected = ceil_div(opt.opt1 + wasted_before, instance.k)
    if len(rounds) != expected:
        raise HarnessError(
            f"round count {len(rounds)} breaks the wasted-query identity ({expected} expected)"
        )
    if len(rounds) > opt.opt_k + ceil_div(wasted_before, instance.k):
        raise HarnessError("round count exceeds opt_k + ceil(wasted/k)")


# ---------------------------------------------------------------------------
# batch-model runs


@dataclass(frozen=True)
class BatchReport:
    batches: int
    queries: int
    opt1: int
    ratio: Fraction

    def text(self) -> str:
        return (
            f"batches {self.batches}\n"
            f"queries {self.queries}\n"
            f"opt1 {self.opt1}\n"
            f"ratio {self.ratio}\n"
        )


def run_batches(
    batch_alg,
    instance: Instance,
    oracle: ValueOracle,
    opt_cap: int = 22,
    opt_report: Optional[OptReport] = None,
    max_batches: Optional[int] = None,
) -> Tuple[List[Tuple[int, ...]], BatchReport]:
    """Run in the bounded-batch model: unlimited queries per batch."""
    knowledge = instance.knowledge()
    limit = max_batches if max_batches is not None else instance.n + 4
    batches: List[Tuple[int, ...]] = []
    while not instance_solved(instance, knowledge):
        if len(batches) >= limit:
            raise HarnessError(f"no progress after {limit} batches")
        picked = list(batch_alg.next_batch(instance, knowledge))
        if not picked:
            raise HarnessError("batch algorithm emitted an empty batch while unsolved")
        answers = oracle.answer_round(picked)
        for e in picked:
            knowledge.reveal(e, answers[e])
        batches.append(tuple(picked))
    realization = oracle.check_finalize()
    opt = opt_report if opt_report is not None else canonical_opt(instance, realization, cap=opt_cap)
    queries = sum(len(b) for b in batches)
    ratio = Fraction(queries, opt.opt1) if opt.opt1 else Fraction(1)
    return batches, BatchReport(len(batches), queries, opt.opt1, ratio)


# ---------------------------------------------------------------------------
# sources: fixed generators and adversaries behind one selector syntax


def _parse_kv(spec: str) -> Tuple[str, Dict[str, str]]:
    if ":" in spec:
        name, _, args = spec.partition(":")
        pairs = {}
        for part in args.split(","):
            if not part:
                continue
            if "=" not in part:
                raise InstanceError(f"malformed source argument {part!r} in {spec!r}")
            key, _, value = part.partition("=")
            pairs[key.strip()] = value.strip()
        return name.strip(), pairs
    return spec.strip(), {}


_PROBLEM_BY_NAME = {p.value: p for p in ProblemFamily}


def parse_number(text: str, what: str, cast: Callable = int):
    """`cast(text)`, with a malformed number reported as an InstanceError."""
    try:
        return cast(text)
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"{what}: not a number: {text!r}") from None


def resolve_source(spec: str, seed: int = 0) -> Tuple[Instance, ValueOracle]:
    """Build (instance, oracle) from a selector like ``fig3:k=3,c=3`` or
    ``wlb:M=2``; fixed-realization sources wrap a FixedOracle."""
    name, args = _parse_kv(spec)

    def arg(key: str, default, cast: Callable = int):
        return parse_number(args[key], key, cast) if key in args else default

    if name == "fig2":
        instance, realization = gen_fig2_bal_instance()
        return instance, FixedOracle(instance, realization)
    if name == "fig3":
        instance, realization = gen_fig3_overlap_instance(k=arg("k", 3), c=arg("c", 3))
        return instance, FixedOracle(instance, realization)
    if name == "random":
        kind = _PROBLEM_BY_NAME.get(args.get("problem", "minimum"))
        if kind is None:
            raise InstanceError(f"unknown problem {args.get('problem')!r}")
        params = RandomParams(
            n=arg("n", 10),
            m=arg("m", 1),
            k=arg("k", 2),
            problem=ProblemKind(kind, arg("i", None)),
            overlap=args.get("overlap", "disjoint"),
            trivial_prob=arg("triv", 0.15, float),
        )
        instance, realization = gen_random(seed, params)
        return instance, FixedOracle(instance, realization)
    if name == "fig1-pairs":
        return sorting_pair_adversary(arg("c", 1), arg("k", 1))
    if name == "wlb":
        return minimum_wlb_adversary(arg("M", 2))
    if name == "additive":
        return minimum_additive_lb_adversary(arg("m", 2))
    if name == "selval-lb":
        return selection_value_lb_adversary(arg("i", 2), arg("k", None))
    if name == "selfull-lb":
        return selection_full_lb_adversary(arg("i", 2))
    raise InstanceError(f"unknown source {spec!r}")


ADVERSARY_SOURCES = ("fig1-pairs", "wlb", "additive", "selval-lb", "selfull-lb")


# ---------------------------------------------------------------------------
# sweeps


CSV_HEADER = ["source", "alg", "seed", "n", "m", "k", "rounds", "opt_k", "ratio", "queries", "opt1", "wasted"]


@dataclass(frozen=True)
class SweepEntry:
    alg: str
    source: str
    seeds: Tuple[int, ...]
    opt_cap: int = 22


def _run_row(args: Tuple[str, str, int, int]) -> Dict[str, str]:
    alg_name, source, seed, opt_cap = args
    instance, oracle = resolve_source(source, seed)
    alg = make_algorithm(alg_name, instance)
    _, report = run(alg, instance, oracle, opt_cap=opt_cap)
    return {
        "source": source,
        "alg": alg_name,
        "seed": str(seed),
        "n": str(instance.n),
        "m": str(instance.m),
        "k": str(instance.k),
        "rounds": str(report.alg_rounds),
        "opt_k": str(report.opt_k),
        "ratio": str(report.ratio),
        "queries": str(report.alg_queries),
        "opt1": str(report.opt1),
        "wasted": str(report.wasted),
    }


def sweep(entries: Sequence[SweepEntry], jobs: int = 1) -> List[Dict[str, str]]:
    """Deterministic row per (entry, seed); rows keep entry order."""
    tasks = [
        (entry.alg, entry.source, seed, entry.opt_cap)
        for entry in entries
        for seed in entry.seeds
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_row, tasks))
    return [_run_row(task) for task in tasks]


def sweep_csv(rows: Sequence[Dict[str, str]]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def parse_seed_range(text: str) -> Tuple[int, ...]:
    lo, dots, hi = text.partition("..")
    if dots:
        return tuple(range(parse_number(lo, "seeds"), parse_number(hi, "seeds") + 1))
    return (parse_number(text, "seeds"),)


def parse_bench_spec(text: str) -> List[SweepEntry]:
    """Bench files reuse the instance-file line style with sweep directives:

        sweep alg=bal source=fig2 seeds=0
        sweep alg=budget source=fig3:k=3,c=3 seeds=0..4
    """
    entries: List[SweepEntry] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "sweep":
            raise InstanceError(f"line {line_no}: unknown directive {tokens[0]!r}")
        fields: Dict[str, str] = {}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise InstanceError(f"line {line_no}: malformed field {tok!r}")
            key, _, value = tok.partition("=")
            fields[key] = value
        if "alg" not in fields or "source" not in fields:
            raise InstanceError(f"line {line_no}: sweep needs alg= and source=")
        entries.append(
            SweepEntry(
                alg=fields["alg"],
                source=fields["source"],
                seeds=parse_seed_range(fields.get("seeds", "0")),
                opt_cap=parse_number(fields.get("opt_cap", "22"), "opt_cap"),
            )
        )
    return entries
