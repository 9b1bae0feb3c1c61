"""Command-line interface tests (invoked in-process)."""

import csv
import json

import pytest

from adaptivebo.cli import main
from adaptivebo.output import SUMMARY_COLUMNS


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "function": "rosenbrock",
        "dim": 2,
        "noise_std": 0.01,
        "strategy": "random",
        "budget": 10,
        "n_trials": 2,
        "base_seed": 5,
        "n_init": 3,
        "n_global": 64,
        "n_refine": 2,
        "mc_samples": 100,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_writes_expected_files(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "config.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "trace_trial000.jsonl").exists()
        assert (out / "trace_trial001.jsonl").exists()

    def test_trials_and_seed_overrides(self, tmp_path, config_file):
        out = tmp_path / "out"
        main(["run", "--config", str(config_file), "--out", str(out),
              "--trials", "1", "--seed", "42"])
        stored = json.loads((out / "config.json").read_text())
        assert stored["n_trials"] == 1
        assert stored["base_seed"] == 42
        assert not (out / "trace_trial001.jsonl").exists()

    def test_reruns_byte_identical(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--out", str(out_a)])
        main(["run", "--config", str(config_file), "--out", str(out_b)])
        for name in ("summary.csv", "trace_trial000.jsonl", "trace_trial001.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestReport:
    def test_aggregates_experiment_directories(self, tmp_path, config_file):
        out = tmp_path / "exp1"
        main(["run", "--config", str(config_file), "--out", str(out)])
        report_csv = tmp_path / "report.csv"
        assert main(["report", "--in", str(tmp_path), "--out", str(report_csv)]) == 0
        with report_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["function"] == "rosenbrock"
        assert int(rows[0]["n_trials"]) == 2
        assert float(rows[0]["regret_mean"]) >= 0.0

    def test_report_matches_summary_csv(self, tmp_path, config_file):
        # Report recomputes from traces; its aggregate must match the stats
        # over the summary.csv rows written by run.
        out = tmp_path / "exp1"
        main(["run", "--config", str(config_file), "--out", str(out)])
        with (out / "summary.csv").open() as handle:
            summary_rows = list(csv.DictReader(handle))
        assert [r["trial"] for r in summary_rows] == ["0", "1"]
        bests = [float(r["best_value"]) for r in summary_rows]

        report_csv = tmp_path / "report.csv"
        main(["report", "--in", str(tmp_path), "--out", str(report_csv)])
        with report_csv.open() as handle:
            agg = next(csv.DictReader(handle))
        assert float(agg["best_mean"]) == pytest.approx(sum(bests) / 2, abs=1e-15)

    def test_rerun_into_same_directory_reports_only_its_trials(self, tmp_path):
        exp = tmp_path / "exp"
        cfg = {"function": "ackley", "dim": 2, "strategy": "random", "budget": 8,
               "n_trials": 4, "n_init": 3}
        config = tmp_path / "ackley.json"
        config.write_text(json.dumps(cfg))
        main(["run", "--config", str(config), "--out", str(exp)])
        main(["run", "--config", str(config), "--out", str(exp), "--trials", "2", "--seed", "100"])
        with (exp / "summary.csv").open() as handle:
            summary_rows = list(csv.DictReader(handle))
        report_csv = tmp_path / "report.csv"
        main(["report", "--in", str(exp), "--out", str(report_csv)])
        with report_csv.open() as handle:
            report = next(csv.DictReader(handle))
        assert int(report["n_trials"]) == len(summary_rows) == 2
        bests = [float(r["best_value"]) for r in summary_rows]
        assert float(report["best_mean"]) == pytest.approx(sum(bests) / 2, abs=1e-15)

    def test_empty_directory_fails(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "r.csv")]) == 1


class TestBench:
    def test_prints_single_trial_summary(self, capsys):
        code = main([
            "bench", "--function", "ackley", "--dim", "2", "--noise", "0.0",
            "--strategy", "random", "--budget", "8", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best_value" in out
        assert "simple_regret" in out
        assert "exploration_efficiency" in out

    def test_summary_csv_columns_constant(self):
        assert SUMMARY_COLUMNS[0] == "function"
        assert SUMMARY_COLUMNS[-1] == "mean_iter_seconds"
