"""Golden regression: the committed bench spec reproduces its committed CSV
byte for byte, so rounds, queries, optima and wasted counts of every
algorithm and problem kind stay fixed across refactors."""

from pathlib import Path

from roundquery.harness import parse_bench_spec, sweep, sweep_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_sweep_small_matches_golden_csv():
    spec = (PERFBENCH / "sweep-small.rq").read_text(encoding="utf-8")
    golden = (PERFBENCH / "golden" / "sweep-small.csv").read_bytes()
    rows = sweep(parse_bench_spec(spec), jobs=1)
    assert sweep_csv(rows).encode("utf-8") == golden
