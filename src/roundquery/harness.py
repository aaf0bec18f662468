"""Drives algorithm-versus-oracle runs and benchmark sweeps.

One run: ask the algorithm for a round, hand the whole round to the
oracle, fold the answers into the knowledge state, and repeat until the
instance is provably solved.  Answers reach the algorithm only at round
boundaries; that is the information contract of the round model.  The
batch model runs through the same loop with rounds as wide as n.  The
report compares the run against the canonical fixed optimum.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

from .algorithms import AlgorithmError, make_algorithm
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
from .intervals import IntervalError, KnowledgeState
from .oracles import (
    FixedOracle,
    MinimumAdditiveLbAdversary,
    MinimumWlbAdversary,
    OracleError,
    SelectionFullLbAdversary,
    SelectionValueLbAdversary,
    SortingPairAdversary,
    ValueOracle,
)
from .solving import (
    OPT_CAP,
    OptReport,
    canonical_opt,
    ceil_div,
    extract_certificate,
    instance_solved,  # unused here; kept for perfbench's tracer, which patches it here
    set_solved,
    verify_certificate,
)


class HarnessError(RuntimeError):
    pass


# what a bad input or a violated invariant raises: one `error:` line in the CLI
RUN_ERRORS = (InstanceError, IntervalError, AlgorithmError, OracleError, HarnessError)


Round = Tuple[Tuple[int, ...], Tuple[Fraction, ...]]  # the ids of one round and their answers


@dataclass(frozen=True)
class RoundTrace:
    rounds: Tuple[Round, ...]
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


class _OpenSets:
    """The ascending indices of the unsolved sets.  A reveal can change only
    the sets holding the revealed element, so only those are re-checked;
    the instance's membership index `sets_of` names them.  A one-set
    family re-checks its set while it is open and builds no index."""

    def __init__(self, instance: Instance, knowledge: KnowledgeState) -> None:
        self.instance, self.knowledge = instance, knowledge
        self.solved_at = [0 if set_solved(instance, i, knowledge) else -1 for i in range(instance.m)]
        self.open = tuple(i for i, r in enumerate(self.solved_at) if r < 0)

    def update(self, picked: Sequence[int], round_no: int) -> None:
        if self.instance.m == 1:
            touched = self.open
        else:
            sets_of = self.instance.sets_of
            touched = {i for e in picked for i in sets_of[e] if self.solved_at[i] < 0}
        for i in touched:
            if set_solved(self.instance, i, self.knowledge):
                self.solved_at[i] = round_no
        self.open = tuple(i for i in self.open if self.solved_at[i] < 0)


def _check_round(instance: Instance, knowledge: KnowledgeState, picked: List[int], width: int) -> None:
    """Reject an empty or oversized round and any id that is unknown,
    repeated or pinned: trivial from the start, or already revealed."""
    if not picked:
        raise HarnessError("algorithm emitted an empty round while unsolved")
    if len(picked) > width:
        raise HarnessError(f"round of {len(picked)} queries exceeds width {width}")
    if len(set(picked)) != len(picked):
        raise HarnessError("round queries an element twice")
    n, state = instance.n, knowledge.state
    for e in picked:
        if not 1 <= e <= n:
            raise HarnessError(f"round queries unknown element {e}")
        if state(e).trivial:
            if instance.interval(e).trivial:
                raise HarnessError(f"round queries trivial element {e}")
            raise HarnessError(f"round re-queries element {e}")


def _drive(
    ask: Callable, instance: Instance, oracle: ValueOracle, width: int, opt_cap: int
) -> Tuple[List[Round], Tuple[int, ...], Realization, OptReport]:
    """The run loop of both models: while a set is open, ask for at most
    `width` ids, check them, have the oracle answer and reveal the round's
    answers in one call.  Then finalize the oracle, re-verify the
    certificate and take the canonical optimum, both audits reading the
    one `TruthRecord` that the oracle validated.

    Each accepted round reveals a new non-trivial element, so a run ends
    within n rounds; a stalling algorithm fails `_check_round` instead."""
    knowledge = KnowledgeState(instance)
    rounds: List[Round] = []
    sets = _OpenSets(instance, knowledge)
    while sets.open:
        picked = list(ask(instance, knowledge, sets.open))
        _check_round(instance, knowledge, picked, width)
        answers = oracle.answer_round(picked)
        knowledge.reveal(answers)
        rounds.append((tuple(picked), tuple(map(answers.__getitem__, picked))))
        sets.update(picked, len(rounds))
    truth = oracle.check_finalize()
    verify_certificate(instance, knowledge, extract_certificate(instance, knowledge), truth)
    return rounds, tuple(sets.solved_at), truth.realization, canonical_opt(instance, truth, cap=opt_cap)


def run(alg, instance: Instance, oracle: ValueOracle, opt_cap: int = OPT_CAP) -> Tuple[RoundTrace, RunReport]:
    """Run one trial in the round model, `alg.next_round` asking for at
    most k queries a round, to provable solvedness; audited by `_drive`
    and by the wasted-query identity."""
    rounds, solved_at, realization, opt = _drive(alg.next_round, instance, oracle, instance.k, opt_cap)
    queried = [e for ids, _ in rounds for e in ids]
    useful = len(set(queried) & opt.opt_set)
    alg_rounds = len(rounds)
    if opt.opt_k == 0:
        if alg_rounds != 0:
            raise HarnessError("queries were spent on an instance solved from the start")
        ratio = Fraction(1)
    else:
        ratio = Fraction(alg_rounds, opt.opt_k)

    trace = RoundTrace(tuple(rounds), realization, solved_at)
    _check_wasted_identity(instance, trace, opt)
    report = RunReport(
        alg_rounds=alg_rounds,
        alg_queries=len(queried),
        opt1=opt.opt1,
        opt_k=opt.opt_k,
        wasted=len(queried) - useful,
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
    batch_alg, instance: Instance, oracle: ValueOracle, opt_cap: int = OPT_CAP
) -> Tuple[List[Tuple[int, ...]], BatchReport]:
    """Run one trial in the batch model, `batch_alg.next_batch` asking for
    any number of queries a batch; audited by `_drive` as in `run`."""
    rounds, _, _, opt = _drive(batch_alg.next_batch, instance, oracle, instance.n, opt_cap)
    batches = [ids for ids, _ in rounds]
    queries = sum(len(b) for b in batches)
    ratio = Fraction(queries, opt.opt1) if opt.opt1 else Fraction(1)
    return batches, BatchReport(len(batches), queries, opt.opt1, ratio)


# ---------------------------------------------------------------------------
# sources: fixed generators and adversaries behind one selector syntax


def _keyed(tokens: Iterable[str], allowed: Sequence[str], where: str) -> Dict[str, str]:
    """`key=value` tokens as a dict.  A token without `=` is an
    InstanceError, and so is an unknown or repeated key: the error names
    it and lists the allowed keys."""
    out: Dict[str, str] = {}
    for token in tokens:
        key, eq, value = (part.strip() for part in token.partition("="))
        if not eq:
            raise InstanceError(f"{where}: malformed field {token!r}")
        if key not in allowed or key in out:
            problem = "repeated" if key in out else "unknown"
            raise InstanceError(f"{where}: {problem} key {key!r} (allowed: {', '.join(allowed) or 'none'})")
        out[key] = value
    return out


_PROBLEM_BY_NAME = {p.value: p for p in ProblemFamily}


def parse_number(text: str, what: str, cast: Callable = int):
    """`cast(text)`, with a malformed number reported as an InstanceError."""
    try:
        return cast(text)
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"{what}: not a number: {text!r}") from None


def check_opt_cap(cap: int, what: str) -> int:
    """`cap`, unless it is negative: then no optimum can fit it, and the
    run is refused before it starts rather than failing at its end."""
    if cap < 0:
        raise InstanceError(f"{what}: must be at least 0, not {cap}")
    return cap


def _random(arg: Callable, seed: int) -> ValueOracle:
    problem = arg("problem", "minimum", str)
    if problem not in _PROBLEM_BY_NAME:
        raise InstanceError(f"unknown problem {problem!r}")
    params = RandomParams(
        n=arg("n", 10),
        m=arg("m", 1),
        k=arg("k", 2),
        problem=ProblemKind(_PROBLEM_BY_NAME[problem], arg("i", None)),
        overlap=arg("overlap", "disjoint", str),
        trivial_prob=arg("triv", 0.15, float),
    )
    return FixedOracle(*gen_random(seed, params))


# each source: the keys its selector takes, and its builder, called with
# `arg(key, default, cast=int)` and the seed, which returns the oracle
SOURCES: Dict[str, Tuple[Tuple[str, ...], Callable[..., ValueOracle]]] = {
    "fig2": ((), lambda arg, seed: FixedOracle(*gen_fig2_bal_instance())),
    "fig3": (("k", "c"), lambda arg, seed: FixedOracle(*gen_fig3_overlap_instance(k=arg("k", 3), c=arg("c", 3)))),
    "random": (("problem", "n", "m", "k", "i", "overlap", "triv"), _random),
    "fig1-pairs": (("c", "k"), lambda arg, seed: SortingPairAdversary(arg("c", 1), arg("k", 1))),
    "wlb": (("M",), lambda arg, seed: MinimumWlbAdversary(arg("M", 2))),
    "additive": (("m",), lambda arg, seed: MinimumAdditiveLbAdversary(arg("m", 2))),
    "selval-lb": (("i", "k"), lambda arg, seed: SelectionValueLbAdversary(arg("i", 2), arg("k", None))),
    "selfull-lb": (("i",), lambda arg, seed: SelectionFullLbAdversary(arg("i", 2))),
}


def resolve_source(spec: str, seed: int = 0) -> Tuple[Instance, ValueOracle]:
    """Build (instance, oracle) from a selector like ``fig3:k=3,c=3`` or
    ``wlb:M=2``; fixed-realization sources wrap a FixedOracle.  A key the
    source does not take, or a repeated one, is an InstanceError."""
    name, _, text = spec.partition(":")
    if name.strip() not in SOURCES:
        raise InstanceError(f"unknown source {spec!r}")
    keys, build = SOURCES[name.strip()]
    args = _keyed((part for part in text.split(",") if part), keys, f"source {spec!r}")

    def arg(key: str, default, cast: Callable = int):
        return parse_number(args[key], key, cast) if key in args else default

    oracle = build(arg, seed)
    return oracle.instance, oracle


ADVERSARY_SOURCES = ("fig1-pairs", "wlb", "additive", "selval-lb", "selfull-lb")


# ---------------------------------------------------------------------------
# sweeps


CSV_HEADER = ["source", "alg", "seed", "n", "m", "k", "rounds", "opt_k", "ratio", "queries", "opt1", "wasted"]


@dataclass(frozen=True)
class SweepEntry:
    alg: str
    source: str
    seeds: Tuple[int, ...]
    opt_cap: int = OPT_CAP


class SweepError(HarnessError):
    """Failed sweep rows: `rows` are the good ones, `failures` the errors."""

    def __init__(self, rows: List[Dict[str, str]], failures: List[str]) -> None:
        super().__init__("; ".join(failures))
        self.rows, self.failures = rows, failures


def _run_row(args: Tuple[str, str, int, int]) -> Union[Dict[str, str], str]:
    """The CSV row of one trial, or the error that stopped it."""
    alg_name, source, seed, opt_cap = args
    try:
        instance, oracle = resolve_source(source, seed)
        _, report = run(make_algorithm(alg_name, instance), instance, oracle, opt_cap=opt_cap)
    except RUN_ERRORS as exc:
        return f"alg={alg_name} source={source} seed={seed}: {exc}"
    except MemoryError:  # this row fails alone; the others are still written
        return f"alg={alg_name} source={source} seed={seed}: out of memory"
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
    """Deterministic row per (entry, seed); rows keep entry order.  Failed
    rows do not stop the others; they end the sweep in a `SweepError`."""
    tasks = [
        (entry.alg, entry.source, seed, entry.opt_cap)
        for entry in entries
        for seed in entry.seeds
    ]
    # the pool starts every worker it may use, so it gets no more than there are rows
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # a few chunks per worker: a hand-off per row costs more than most rows take
            results = list(pool.map(_run_row, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        results = [_run_row(task) for task in tasks]
    rows = [r for r in results if isinstance(r, dict)]
    if len(rows) < len(results):
        raise SweepError(rows, [r for r in results if isinstance(r, str)])
    return rows


def sweep_csv(rows: Sequence[Dict[str, str]]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def parse_seed_range(text: str) -> Tuple[int, ...]:
    lo, dots, hi = text.partition("..")
    if not dots:
        return (parse_number(text, "seeds"),)
    seeds = tuple(range(parse_number(lo, "seeds"), parse_number(hi, "seeds") + 1))
    if not seeds:
        raise InstanceError(f"seeds: empty range {text!r}")
    return seeds


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
        fields = _keyed(tokens[1:], ("alg", "source", "seeds", "opt_cap"), f"line {line_no}")
        if "alg" not in fields or "source" not in fields:
            raise InstanceError(f"line {line_no}: sweep needs alg= and source=")
        entries.append(
            SweepEntry(
                alg=fields["alg"],
                source=fields["source"],
                seeds=parse_seed_range(fields.get("seeds", "0")),
                opt_cap=check_opt_cap(
                    parse_number(fields.get("opt_cap", str(OPT_CAP)), "opt_cap"), f"line {line_no}: opt_cap"
                ),
            )
        )
    return entries
