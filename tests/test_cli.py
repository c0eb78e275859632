"""Tests for the command-line harness."""

import pytest

from repro.harness.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestStaticCommands:
    def test_table1(self, capsys):
        rc, out = run_cli(capsys, "table1")
        assert rc == 0
        assert "Table I" in out and "32KB" in out

    def test_table2(self, capsys):
        rc, out = run_cli(capsys, "table2")
        assert rc == 0
        assert "LockillerTM-RWIL" in out


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        rc, out = run_cli(
            capsys,
            "run",
            "--workload", "kmeans-",
            "--system", "Baseline",
            "--threads", "2",
            "--scale", "0.05",
        )
        assert rc == 0
        assert "execution cycles" in out
        assert "commit rate" in out
        assert "time category" in out

    def test_run_small_cache(self, capsys):
        rc, out = run_cli(
            capsys,
            "run",
            "--workload", "ssca2",
            "--system", "LockillerTM",
            "--threads", "2",
            "--scale", "0.05",
            "--cache", "small",
        )
        assert rc == 0
        assert "small caches" in out

    def test_unknown_workload_raises(self, capsys):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            run_cli(
                capsys,
                "run",
                "--workload", "doom",
                "--system", "Baseline",
            )


class TestFigureCommands:
    def test_fig1_with_tiny_sweep(self, capsys):
        rc, out = run_cli(capsys, "fig1", "--scale", "0.05", "--threads", "2")
        assert rc == 0
        assert "Fig. 1" in out

    def test_fig12_with_tiny_sweep(self, capsys):
        rc, out = run_cli(
            capsys, "fig12", "--scale", "0.05", "--threads", "2"
        )
        assert rc == 0
        assert "headline" in out


class TestChartCommand:
    def test_chart_renders(self, capsys):
        rc, out = run_cli(
            capsys,
            "chart",
            "--workload", "kmeans+",
            "--threads", "2",
            "--scale", "0.05",
            "--systems", "CGL,Baseline",
        )
        assert rc == 0
        assert "breakdown" in out
        assert "speedup vs CGL" in out
        assert "1.00x" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSystemAliases:
    """Every command that takes a system accepts the same friendly
    names, resolved through ``resolve_system``."""

    CELL = ("--threads", "2", "--scale", "0.05")

    @pytest.mark.parametrize(
        "argv, expect",
        [
            (("run", "--workload", "ssca2", "--system", "lockiller")
             + CELL, "execution cycles"),
            (("chart", "--workload", "ssca2", "--systems", "cgl,lockiller")
             + CELL, "LockillerTM"),
            (("sweep", "--workloads", "ssca2", "--systems", "cgl,lockiller",
              "--threads", "2", "--scale", "0.05"), "lockiller"),
            (("fig7", "--systems", "lockiller", "--threads", "2",
              "--scale", "0.05"), "LockillerTM"),
            (("metrics", "--workload", "ssca2", "--system", "lockiller",
              "--prefix", "htm") + CELL, "ssca2 on lockiller"),
            (("timeline", "--workload", "ssca2", "--system", "lockiller",
              "--summary") + CELL, "spans="),
        ],
        ids=["run", "chart", "sweep", "fig7", "metrics", "timeline"],
    )
    def test_alias_accepted(self, capsys, argv, expect):
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        assert expect in out

    def test_unknown_system_raises(self, capsys):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            run_cli(capsys, "run", "--workload", "ssca2", "--system", "doom")
