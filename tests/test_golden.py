"""Byte-identical stdout of the standard-library commands against golden files.

Each file under ``tests/golden/`` holds the stdout of one command, run
before a refactor that must not change any output.  Regenerate a file only
when its output is meant to change, with

    python -m wellpol.cli <args> > tests/golden/<name>

``oracle`` output is pinned by its own bit-level test instead, since its
last bits depend on the LAPACK build.
"""

from pathlib import Path

import pytest

from wellpol import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
SWEEP = ["sweep", "--min", "0.05pi", "--max", "0.49pi", "--step", "0.01pi"]
GOLDEN = {
    "table1.csv": ["table1"],
    "table1.json": ["table1", "--format", "json"],
    "table2.csv": ["table2"],
    "table2.json": ["table2", "--format", "json"],
    "solve_gamma_0.39pi.csv": ["solve", "--gamma", "0.39pi"],
    "solve_gamma_0.39pi.json": ["solve", "--gamma", "0.39pi", "--format", "json"],
    "solve_gamma_1e-8.json": ["solve", "--gamma", "1e-8", "--format", "json"],
    "solve_R_3.617018.json": ["solve", "--R", "3.617018", "--format", "json"],
    "solve_R_1e-8.json": ["solve", "--R", "1e-8", "--format", "json"],
    "solve_R_1e9.json": ["solve", "--R", "1e9", "--format", "json"],
    "sweep.csv": SWEEP,
    "sweep.json": SWEEP + ["--format", "json"],
    "limits_delta.json": ["limits", "--mode", "delta"],
    "limits_infinite.json": ["limits", "--mode", "infinite"],
    "calibrate.json": ["calibrate"],
}


def test_every_golden_file_has_a_command():
    assert {p.name for p in GOLDEN_DIR.iterdir()} == set(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_stdout_matches_golden_file(name, capsys):
    assert cli.main(GOLDEN[name]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
