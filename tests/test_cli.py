"""End-to-end command-line behavior, including the golden run output."""

import pytest

from roundquery.cli import main
from roundquery.instances import parse_instance

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


class TestVerify:
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
            "sweep alg=sel-value source=random:problem=selection-value,n=30,i=3,overlap=single seeds=0\n"
            "sweep alg=bal source=fig2 seeds=1\n"
        )
        out_path = tmp_path / "rows.csv"
        code, out, err = invoke(capsys, "bench", "--spec", str(spec), "-o", str(out_path), "--jobs", jobs)
        assert code == 1 and out == ""
        assert err == (
            "error: alg=sel-value source=random:problem=selection-value,n=30,i=3,overlap=single"
            " seed=0: n = 30 above brute-force cap 22\n"
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
            ("--alg", "min-single", "--as-batches", "r=x", "alpha=1"),
            ("--alg", "min-single", "--as-batches", "r=3", "alpha=1/0"),
        ],
    )
    def test_bad_wrapper_number_is_one_error_line(self, capsys, flags):
        code, out, err = invoke(capsys, "run", "--source", "random:problem=sorting,n=6", *flags)
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
