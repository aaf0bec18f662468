"""Committed run traces: each case's `roundquery` output, round by round,
must stay byte for byte what `tests/golden/runs/<case>.txt` holds.

The cases cover `run --trace` for every round algorithm on random
sources of its kind, the adversaries and the fixed figures, both
reductions, and `generate` of each adversary.  To rewrite the files
after an intended change of output, run

    PYTHONPATH=src python tests/test_run_traces.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from roundquery.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "runs"

RANDOM_SOURCES = {
    "budget": ["random:problem=minimum,n=24,m=4,k=3,overlap=overlap",
               "random:problem=minimum,n=24,m=4,k=3,overlap=disjoint"],
    "bal": ["random:problem=minimum,n=24,m=4,k=3,overlap=overlap"],
    "min-single": ["random:problem=minimum,n=20,m=1,k=3,overlap=single"],
    "sel-value": ["random:problem=selection-value,n=20,k=3,i=7"],
    "sel-full": ["random:problem=selection-full,n=20,k=3,i=7"],
    "sorting-vc": ["random:problem=sorting,n=16,m=1,k=3,overlap=single",
                   "random:problem=sorting,n=20,m=3,k=3,overlap=overlap"],
    "sorting-matching": ["random:problem=sorting,n=16,m=1,k=3,overlap=single",
                         "random:problem=sorting,n=20,m=3,k=3,overlap=overlap"],
}

FIXED_SOURCES = {
    "fig2": ["bal", "budget"],
    "fig3:k=3,c=2": ["bal", "budget"],
}

ADVERSARIES = {
    "fig1-pairs:c=2,k=2": ["sorting-vc", "sorting-matching"],
    "wlb:M=3": ["bal", "budget"],
    "additive:m=3": ["bal", "budget"],
    "selval-lb:i=3,k=2": ["sel-value"],
    "selfull-lb:i=3": ["sel-full"],
}


def _cases():
    cases = {}
    for alg, sources in RANDOM_SOURCES.items():
        for source in sources:
            for seed in range(3):
                name = f"run-{alg}-{source.split(':', 1)[1]}-seed{seed}"
                cases[name] = ["run", "--trace", "--alg", alg, "--source", source, "--seed", str(seed)]
    for source, algs in FIXED_SOURCES.items():
        for alg in algs:
            cases[f"run-{alg}-{source}"] = ["run", "--trace", "--alg", alg, "--source", source]
    for source, algs in ADVERSARIES.items():
        for alg in algs:
            cases[f"run-{alg}-{source}"] = ["run", "--trace", "--alg", alg, "--oracle", source]
        cases[f"generate-{source}"] = ["generate", "--source", source]
    for alg, source in [("batch-sort-2", "random:problem=sorting,n=20,m=3,k=3,overlap=overlap"),
                        ("batch-all", "random:problem=minimum,n=24,m=4,k=3,overlap=overlap")]:
        cases[f"as-rounds-{alg}"] = ["run", "--trace", "--alg", alg, "--source", source, "--as-rounds", "k=3"]
    for alg, source in [("budget", "random:problem=minimum,n=24,m=4,k=3,overlap=overlap"),
                        ("sorting-matching", "random:problem=sorting,n=20,m=3,k=3,overlap=overlap"),
                        ("sorting-vc", "random:problem=sorting,n=20,m=3,k=3,overlap=overlap")]:
        cases[f"as-batches-{alg}"] = ["run", "--alg", alg, "--source", source, "--as-batches", "r=5", "alpha=2"]
    return {name.replace(":", "_").replace(",", "_").replace("=", ""): argv for name, argv in cases.items()}


CASES = _cases()


def output_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_committed_trace(name):
    assert output_of(CASES[name]) == (GOLDEN / f"{name}.txt").read_bytes()


def test_every_committed_trace_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(output_of(argv))
    print(f"wrote {len(CASES)} traces to {GOLDEN}", file=sys.stderr)
