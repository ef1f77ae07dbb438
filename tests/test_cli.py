"""Tests for the command-line interface."""

import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.session import default_session


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_names_registered(self):
        for name in ("fig8", "fig13", "table2", "wallclock", "job"):
            assert name in EXPERIMENTS


@pytest.fixture()
def fresh_default_session():
    """A fresh process-wide session for the test, restored after."""
    from repro.session import RobustSession, set_default_session

    previous = set_default_session(RobustSession())
    try:
        yield default_session()
    finally:
        set_default_session(previous)


class TestCommands:
    def test_list(self, capsys):
        code, out = run_cli(["list"], capsys)
        assert code == 0
        assert "2D_Q91" in out
        assert "imdb_job" in out

    def test_guarantee(self, capsys):
        code, out = run_cli(
            ["guarantee", "2D_Q91", "--resolution", "8"], capsys)
        assert code == 0
        assert "10.00" in out
        assert "D^2+3D" in out

    def test_run_default_qa(self, capsys):
        code, out = run_cli(
            ["run", "2D_Q91", "--resolution", "8"], capsys)
        assert code == 0
        assert "sub-optimality" in out

    def test_run_explicit_qa_and_algorithm(self, capsys):
        code, out = run_cli(
            ["run", "2D_Q91", "--resolution", "8", "--qa", "3,4",
             "--algorithm", "alignedbound"], capsys)
        assert code == 0
        assert "alignedbound at qa=(3, 4)" in out

    def test_run_faults_guards_once(self, capsys):
        """A guarded session's ``run --faults`` wraps the instance in one
        guard, which carries the ``--max-retries`` policy."""
        from repro.session import RobustSession, set_default_session

        previous = set_default_session(RobustSession(guard=True))
        try:
            code, out = run_cli(
                ["run", "2D_Q91", "--resolution", "8", "--faults", "0.2",
                 "--fault-seed", "3"], capsys)
        finally:
            set_default_session(previous)
        assert code == 0
        assert "guarded-spillbound at qa=(5, 5)" in out
        assert "guarded-guarded" not in out

    def test_sweep_sampled(self, capsys):
        code, out = run_cli(
            ["sweep", "2D_Q91", "--resolution", "8", "--sample", "10"],
            capsys)
        assert code == 0
        assert "spillbound" in out
        assert "planbouquet" in out

    def test_faulty_sweep_degrades_instead_of_aborting(self, capsys,
                                                       tmp_path):
        # A faulty engine layer guards every run with the default
        # RetryPolicy; the process-wide session's policy stays as is.
        policy = default_session().guard_policy
        code, out = run_cli(
            ["sweep", "2D_Q91", "--resolution", "6", "--sample", "10",
             "--journal", str(tmp_path / "j"),
             "--engine", "simulated+faulty(crash=0.05,transient=0.05)",
             "--fault-seed", "3"], capsys)
        assert code == 0
        assert "degraded" in out
        assert default_session().guard_policy is policy

    def test_sweep_row_store_stays_on_the_command(
            self, capsys, fresh_default_session):
        # The sweep runs on the generated rows, but the process-wide
        # session does not keep them.
        code, out = run_cli(
            ["sweep", "2D_Q91", "--resolution", "4", "--sample", "2",
             "--algorithms", "spillbound", "--engine", "row()",
             "--data-rng", "0", "--data-rows", "400"], capsys)
        assert code == 0
        assert "spillbound" in out
        assert fresh_default_session.database is None

    def test_sweep_title_counts_truths_swept(
            self, capsys, fresh_default_session):
        import re

        code, out = run_cli(
            ["sweep", "2D_Q91", "--resolution", "6", "--sample", "10"],
            capsys)
        assert code == 0
        assert "Empirical robustness for 2D_Q91 (10 truths)" in out
        # The table title made no artifact lookup of its own.
        hits = re.search(r"space_memory_hits\s+(\d+)", out).group(1)
        assert hits == "0"

    def test_run_trace_then_show(self, capsys, tmp_path):
        """Acceptance: ``run --algo ... --trace`` then ``trace show``
        prints a timeline whose decomposition sums to the run's cost."""
        import math

        from repro.obs import decompose, read_trace
        path = str(tmp_path / "t.jsonl")
        code, out = run_cli(
            ["run", "2D_Q91", "--algo", "spillbound",
             "--resolution", "8", "--trace", path], capsys)
        assert code == 0
        assert "trace written to %s" % path in out
        records = read_trace(path)
        parts = decompose(records)
        assert parts["total"] == parts["total_cost"]
        assert parts["total"] == math.fsum(
            r["spent"] for r in records if r["type"] == "execution"
            and r["run"] == parts["run"])
        code, out = run_cli(["trace", "show", path], capsys)
        assert code == 0
        assert "Execution timeline" in out
        assert "MSO decomposition" in out

    def test_sweep_trace_dir(self, capsys, tmp_path):
        trace_dir = str(tmp_path / "traces")
        code, out = run_cli(
            ["sweep", "2D_Q91", "--resolution", "8", "--sample", "4",
             "--algorithms", "spillbound", "--trace-dir", trace_dir],
            capsys)
        assert code == 0
        assert "traces written to %s" % trace_dir in out
        assert "Aggregated observability counters" in out
        assert (tmp_path / "traces" / "2D_Q91-spillbound.jsonl").exists()

    def test_epps(self, capsys):
        code, out = run_cli(["epps", "3D_Q15"], capsys)
        assert code == 0
        assert "cs_c" in out

    def test_experiment_fig9(self, capsys):
        code, out = run_cli(
            ["experiment", "fig9", "--resolution", "5"], capsys)
        assert code == 0
        assert "Q91 guarantee ramp" in out

    def test_unknown_workload_raises(self, capsys):
        with pytest.raises(KeyError):
            main(["guarantee", "17D_Q0"])

    def test_figures_export(self, capsys, tmp_path):
        code, out = run_cli(
            ["figures", "2D_Q91", "--resolution", "8",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "2D_Q91_plan_diagram.svg").exists()
        assert (tmp_path / "2D_Q91_contours.svg").exists()
        assert (tmp_path / "2D_Q91_trace.svg").exists()

    def test_build_and_reload(self, capsys, tmp_path):
        path = str(tmp_path / "q91.npz")
        code, out = run_cli(
            ["build", "2D_Q91", path, "--resolution", "8"], capsys)
        assert code == 0
        from repro.ess.persistence import load_space
        from repro.harness.workloads import workload
        loaded = load_space(workload("2D_Q91"), path)
        assert loaded.built
        assert loaded.grid.shape == (8, 8)

    def test_module_entry_point(self):
        import subprocess
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "Registered workloads" in proc.stdout
