"""The `python -m repro.bench` command-line entry point."""

import os

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import ALL_EXPERIMENTS


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_EXPERIMENTS:
        assert name in out


def test_unknown_experiment(capsys):
    """A bad id is a usage error (exit 2, known ids listed) reported
    before any experiment runs."""
    for argv in (["fig99z"], ["table1", "fig99z"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "fig99z" in captured.err and "fig6a" in captured.err
        assert "table1" not in captured.out


def test_run_one_and_save(tmp_path, capsys):
    assert main(["table1", "--save-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert os.path.exists(tmp_path / "table1.txt")


def test_registry_complete():
    """Every figure and table of the paper has an experiment."""
    for required in (
        "table1", "table2",
        "fig6a", "fig6b", "fig6c",
        "fig7a", "fig7b", "fig7c",
        "fig8a", "fig8b",
        "fig9a", "fig9b", "fig9c",
        "occupancy",
    ):
        assert required in ALL_EXPERIMENTS
