"""End-to-end command-line behavior, including the golden run output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from roundquery import cli
from roundquery.algorithms import ALGORITHMS
from roundquery.cli import main
from roundquery.harness import resolve_source
from roundquery.instances import parse_instance
from roundquery.solving import OptReport, canonical_opt

FIG2_GOLDEN = (
    "rounds 3\n"
    "queries 13\n"
    "opt1 11\n"
    "opt_k 3\n"
    "wasted 2\n"
    "useful 11\n"
    "ratio 1\n"
    "method closed-form\n"
)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_written_file_parses_and_runs(self, tmp_path, capsys):
        path = tmp_path / "fig2.rq"
        code, _, _ = invoke(capsys, "generate", "--source", "fig2", "-o", str(path))
        assert code == 0
        instance, realization = parse_instance(path.read_text())
        assert instance.n == 17 and realization is not None

    def test_stdout_output(self, capsys):
        code, out, _ = invoke(capsys, "generate", "--source", "fig3:k=3,c=2")
        assert code == 0
        assert out.startswith("k 3\nproblem minimum\n")

    def test_adversary_source_generates_its_finalized_instance(self, capsys):
        code, out, _ = invoke(capsys, "generate", "--source", "selval-lb:i=3")
        assert code == 0
        assert "problem selection-value i=3" in out


class TestRun:
    def test_fig2_golden_output(self, capsys):
        code, out, _ = invoke(capsys, "run", "--alg", "bal", "--source", "fig2")
        assert code == 0
        assert out == FIG2_GOLDEN

    def test_golden_output_is_stable(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = invoke(capsys, "run", "--alg", "bal", "--source", "fig2", "--trace")
            outs.add(out)
        assert len(outs) == 1

    def test_instance_file_round_trip_matches_source_run(self, tmp_path, capsys):
        path = tmp_path / "inst.rq"
        invoke(capsys, "generate", "--source", "random:problem=minimum,n=10,m=2,k=3", "--seed", "5", "-o", str(path))
        _, out_file, _ = invoke(capsys, "run", "--alg", "bal", "--instance", str(path))
        _, out_src, _ = invoke(capsys, "run", "--alg", "bal", "--source", "random:problem=minimum,n=10,m=2,k=3", "--seed", "5")
        assert out_file == out_src

    def test_oracle_flag_runs_adversaries(self, capsys):
        code, out, _ = invoke(capsys, "run", "--alg", "budget", "--oracle", "wlb:M=2")
        assert code == 0
        assert "rounds 2\n" in out and "opt_k 1\n" in out

    def test_oracle_flag_rejects_fixed_sources(self, capsys):
        code, _, err = invoke(capsys, "run", "--alg", "bal", "--oracle", "fig2")
        assert code == 1
        assert "error:" in err

    def test_algorithm_problem_mismatch_fails_cleanly(self, capsys):
        code, _, err = invoke(capsys, "run", "--alg", "sel-full", "--source", "fig2")
        assert code == 1
        assert "error:" in err

    def test_as_rounds_wraps_batch_algorithms(self, capsys):
        # the matching batch grabs both halves of every pair, so the pair
        # family collapses into one batch split over ceil(n/k) rounds
        code, out, _ = invoke(
            capsys, "run", "--alg", "batch-sort-2", "--as-rounds", "k=2",
            "--oracle", "fig1-pairs:c=2,k=2", "--opt-cap", "30",
        )
        assert code == 0
        assert "batches_used 1\n" in out
        assert "rounds 4\n" in out

    def test_as_batches_wraps_round_algorithms(self, capsys):
        code, out, _ = invoke(
            capsys, "run", "--alg", "min-single", "--as-batches", "r=5", "alpha=1",
            "--source", "random:problem=minimum,n=16,m=1,k=1,overlap=single",
        )
        assert code == 0
        assert out.startswith("batch 1:")
        assert "batches " in out

    def test_selection_value_above_the_sorting_cap_runs(self, capsys):
        code, out, err = invoke(
            capsys, "run", "--alg", "sel-value",
            "--source", "random:problem=selection-value,n=30,k=8,i=15",
        )
        assert code == 0 and err == ""
        assert out.endswith("method closed-form\n")

    def test_sorting_above_the_old_n_cap_runs(self, capsys):
        code, out, err = invoke(
            capsys, "run", "--alg", "sorting-matching",
            "--source", "random:problem=sorting,n=30,m=2,overlap=disjoint",
        )
        assert code == 0 and err == ""
        assert out.endswith("method branch-and-bound\n")


class TestVerify:
    def test_sorting_above_the_old_n_cap_verifies(self, tmp_path, capsys):
        path = tmp_path / "sorting.rq"
        invoke(capsys, "generate", "--source", "random:problem=sorting,n=30,m=2,overlap=disjoint", "-o", str(path))
        code, out, err = invoke(capsys, "verify", "--instance", str(path))
        assert code == 0 and err == ""
        assert "n 30\n" in out and "method branch-and-bound\n" in out
        assert "feasible yes\n" in out and "minimal yes\n" in out

    def test_selection_value_above_the_sorting_cap_verifies(self, tmp_path, capsys):
        path = tmp_path / "selval.rq"
        invoke(
            capsys, "generate", "--source", "random:problem=selection-value,n=30,k=8,i=15",
            "-o", str(path),
        )
        code, out, err = invoke(capsys, "verify", "--instance", str(path))
        assert code == 0 and err == ""
        assert "n 30\n" in out and "method closed-form\n" in out
        assert "feasible yes\n" in out and "minimal yes\n" in out

    def test_fig2_instance_verifies(self, tmp_path, capsys):
        path = tmp_path / "fig2.rq"
        invoke(capsys, "generate", "--source", "fig2", "-o", str(path))
        code, out, _ = invoke(capsys, "verify", "--instance", str(path))
        assert code == 0
        assert "opt1 11" in out and "feasible yes" in out and "minimal yes" in out
        assert "minimum S1:" in out

    def test_corrupted_realization_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.rq"
        invoke(capsys, "generate", "--source", "fig2", "-o", str(path))
        text = path.read_text()
        assert "value 1 21/2" in text
        path.write_text(text.replace("value 1 21/2", "value 1 99"))
        code, _, err = invoke(capsys, "verify", "--instance", str(path))
        assert code == 1
        assert "error:" in err

    def test_missing_realization_fails(self, tmp_path, capsys):
        path = tmp_path / "none.rq"
        path.write_text("k 1\nproblem minimum\ninterval 1 (0,2)\n")
        code, _, err = invoke(capsys, "verify", "--instance", str(path))
        assert code == 1

    @pytest.mark.parametrize("change, message", [
        # fig2's optimum is 1 2 3 7 8 9 13 14 15 16 17
        (lambda ids: ids - {17}, "optimum query set is not feasible"),
        (lambda ids: ids | {4}, "optimum query set is not minimal: 4 is redundant"),
    ])
    def test_a_wrong_optimum_is_refused(self, tmp_path, capsys, monkeypatch, change, message):
        path = tmp_path / "fig2.rq"
        invoke(capsys, "generate", "--source", "fig2", "-o", str(path))

        def wrong_opt(instance, realization, cap):
            opt = canonical_opt(instance, realization, cap=cap)
            return OptReport.of(change(opt.opt_set), instance.k, opt.method)

        monkeypatch.setattr(cli, "canonical_opt", wrong_opt)
        code, out, err = invoke(capsys, "verify", "--instance", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestBenchAndTable:
    def test_bench_writes_csv(self, tmp_path, capsys):
        spec = tmp_path / "spec.rq"
        spec.write_text(
            "sweep alg=bal source=fig2 seeds=0\n"
            "sweep alg=budget source=fig3:k=3,c=3 seeds=0\n"
        )
        out_path = tmp_path / "rows.csv"
        code, _, _ = invoke(capsys, "bench", "--spec", str(spec), "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "source,alg,seed,n,m,k,rounds,opt_k,ratio,queries,opt1,wasted"
        assert len(lines) == 3

    def test_bench_jobs_flag(self, tmp_path, capsys):
        spec = tmp_path / "spec.rq"
        spec.write_text("sweep alg=bal source=random:problem=minimum,n=8,m=2,k=2 seeds=0..3\n")
        out_path = tmp_path / "rows.csv"
        code, _, _ = invoke(capsys, "bench", "--spec", str(spec), "-o", str(out_path), "--jobs", "2")
        assert code == 0
        assert len(out_path.read_text().strip().split("\n")) == 5

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_row_keeps_the_good_rows(self, tmp_path, capsys, jobs):
        spec = tmp_path / "spec.rq"
        spec.write_text(
            "sweep alg=bal source=fig2 seeds=0\n"
            "sweep alg=sorting-matching source=random:problem=sorting,n=8,m=1,overlap=single seeds=2 opt_cap=1\n"
            "sweep alg=bal source=fig2 seeds=1\n"
        )
        out_path = tmp_path / "rows.csv"
        code, out, err = invoke(capsys, "bench", "--spec", str(spec), "-o", str(out_path), "--jobs", jobs)
        assert code == 1 and out == ""
        assert err == (
            "error: alg=sorting-matching source=random:problem=sorting,n=8,m=1,overlap=single"
            " seed=2: sorting residual of 2 vertices above cap 1\n"
        )
        lines = out_path.read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [["fig2", "bal", "0"], ["fig2", "bal", "1"]]

    def test_table_renders_csv(self, tmp_path, capsys):
        spec = tmp_path / "spec.rq"
        spec.write_text("sweep alg=bal source=fig2 seeds=0\n")
        out_path = tmp_path / "rows.csv"
        invoke(capsys, "bench", "--spec", str(spec), "-o", str(out_path))
        code, out, _ = invoke(capsys, "table", "--csv", str(out_path))
        assert code == 0
        assert out.splitlines()[0].startswith("source")


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "roundquery", "run", "--alg", "bal", "--source", "fig2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == FIG2_GOLDEN


class TestExitCodes:
    def test_usage_error_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--alg", "bal", "--nonsense"])
        assert err.value.code == 2

    def test_missing_subcommand_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unreadable_file_is_exit_one(self, capsys):
        code, _, err = invoke(capsys, "verify", "--instance", "/no/such/file.rq")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--instance"),
            ("run", "--alg", "bal", "--instance"),
            ("bench", "--spec"),
            ("table", "--csv"),
        ],
    )
    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.rq"
        path.write_bytes(b"\xff\xfe\n")
        code, out, err = invoke(capsys, *argv, str(path))
        assert code == 1
        assert out == "" and err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"

    @pytest.mark.parametrize(
        "text,line",
        [("source,alg,seed\nfig2,bal\n", 2), ("source,alg\nfig2,bal\nfig2,bal,0\n", 3)],
        ids=["short-row", "long-row"],
    )
    def test_ragged_csv_row_is_one_error_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        code, out, err = invoke(capsys, "table", "--csv", str(path))
        assert code == 1
        assert out == "" and err.startswith(f"error: line {line}:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "old,new",
        [
            ("k 1", "k ²"),
            ("set S1 1", "set S1 ¹"),
            ("interval 1 (0,2)", "interval ² (0,1)"),
            ("value 1 1", "value ² 1"),
            ("problem minimum", "problem selection-value i=²"),
        ],
    )
    def test_non_ascii_digit_in_instance_is_one_error_line(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.rq"
        text = "k 1\nproblem minimum\ninterval 1 (0,2)\nset S1 1\nvalue 1 1\n"
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        code, out, err = invoke(capsys, "verify", "--instance", str(path))
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["random:n=abc", "random:triv=2", "fig3:k=x", "selval-lb:i=2,k=y"])
    def test_bad_source_number_is_one_error_line(self, capsys, source):
        code, out, err = invoke(capsys, "run", "--alg", "bal", "--source", source)
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "source",
        [
            "random:problem=minimum,n=6,m=2,k=2,overlap=overlap,tirv=0.5",
            "fig2:x=1",
            "random:problem=minimum,n=5,n=9,m=2",
        ],
    )
    def test_unknown_or_repeated_source_key_is_one_error_line(self, capsys, source):
        code, out, err = invoke(capsys, "run", "--alg", "bal", "--source", source)
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["seed=3", "seeds=0 seeds=1"])
    def test_unknown_or_repeated_sweep_key_is_one_error_line(self, tmp_path, capsys, field):
        spec = tmp_path / "spec.rq"
        spec.write_text(f"sweep alg=bal source=fig2 {field}\n")
        code, out, err = invoke(capsys, "bench", "--spec", str(spec))
        assert code == 1
        assert out == "" and err.startswith("error: line 1:") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["seeds=0..x", "seeds=y..3", "seeds=", "seeds=5..3", "opt_cap=x"])
    def test_bad_bench_number_is_one_error_line(self, tmp_path, capsys, field):
        spec = tmp_path / "spec.rq"
        spec.write_text(f"sweep alg=bal source=fig2 {field}\n")
        code, out, err = invoke(capsys, "bench", "--spec", str(spec))
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--alg", "batch-sort-2", "--as-rounds", "k=x"),
            ("--alg", "batch-sort-2", "--as-rounds", "k=0"),
            ("--alg", "batch-sort-2", "--as-rounds", "k=-2"),
            ("--alg", "batch-sort-2", "--as-rounds", "q=2"),
            ("--alg", "min-single", "--as-batches", "r=x", "alpha=1"),
            ("--alg", "min-single", "--as-batches", "r=3", "alpha=1/0"),
        ],
    )
    def test_bad_wrapper_number_is_one_error_line(self, capsys, flags):
        code, out, err = invoke(capsys, "run", "--source", "random:problem=sorting,n=6", *flags)
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_negative_opt_cap_is_refused_before_the_run(self, tmp_path, capsys, command):
        # the file is never read: the cap is checked first
        target = ("--alg", "sorting-vc", "--source", "random:problem=sorting,n=8") if command == "run" else (
            "--instance", str(tmp_path / "never-read.rq")
        )
        code, out, err = invoke(capsys, command, *target, "--opt-cap", "-1")
        assert code == 1
        assert out == "" and err == "error: --opt-cap: must be at least 0, not -1\n"

    def test_negative_bench_opt_cap_is_one_error_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.rq"
        spec.write_text("sweep alg=bal source=fig2 seeds=0\nsweep alg=sorting-vc source=fig2 opt_cap=-1\n")
        code, out, err = invoke(capsys, "bench", "--spec", str(spec))
        assert code == 1
        assert out == "" and err == "error: line 2: opt_cap: must be at least 0, not -1\n"

    def test_zero_opt_cap_is_valid(self, tmp_path, capsys):
        code, out, err = invoke(capsys, "run", "--alg", "bal", "--source", "fig2", "--opt-cap", "0")
        assert code == 0 and err == "" and out == FIG2_GOLDEN
        spec = tmp_path / "spec.rq"
        spec.write_text("sweep alg=bal source=fig2 seeds=0 opt_cap=0\n")
        code, out, err = invoke(capsys, "bench", "--spec", str(spec))
        assert code == 0 and err == "" and out.count("\n") == 2


ADVERSARIES_SMALL = (
    [f"fig1-pairs:c={c},k={k}" for c in (1, 2) for k in (1, 2)]
    + ["wlb:M=2"]
    + [f"additive:m={m}" for m in (2, 3, 4)]
    + ["selval-lb:i=1", "selval-lb:i=3,k=2", "selfull-lb:i=2", "selfull-lb:i=3"]
)


def _adversary_runs():
    """Every algorithm of each small adversary's kind, plain and under
    `--as-batches`, and `batch-all` under `--as-rounds`."""
    runs = []
    for source in ADVERSARIES_SMALL:
        kind = resolve_source(source)[0].problem.kind
        for alg, (_, kinds) in sorted(ALGORITHMS.items()):
            if kind not in kinds:
                continue
            runs.append(("run", "--alg", alg, "--oracle", source))
            for r in (2, 3):
                for alpha in ("1", "3/2"):
                    runs.append(("run", "--alg", alg, "--oracle", source, "--as-batches", f"r={r}", f"alpha={alpha}"))
        for k in (1, 1000):
            runs.append(("run", "--alg", "batch-all", "--oracle", source, "--as-rounds", f"k={k}"))
    return runs


class TestAdversariesUnderReductions:
    @pytest.mark.parametrize("argv", _adversary_runs(), ids=" ".join)
    def test_report_or_one_error_line(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        if code == 0:
            assert err == "" and "\nopt1 " in out
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1
