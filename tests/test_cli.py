"""Command-line surface: golden tables, sweep semantics, reports, determinism."""

import errno
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wellpol
from wellpol import cli
from wellpol.cli import format_mixed, main, parse_angle
from wellpol.well_spectrum import ground_state_from_R

TABLE1_GOLDEN = """\
gamma0_over_pi,beta0,R,alpha1_prime,alpha2_prime,alpha_prime,alpha_apr_prime
0.390000,3.403183,3.617018,0.015178,0.173148,0.188326,0.186438
0.410000,4.433507,4.616825,0.005510,0.147482,0.152993,0.153844
0.430000,6.043511,6.192650,0.001663,0.125180,0.126843,0.127803
0.450000,8.925856,9.037118,0.000363,0.106019,0.106382,0.106858
0.470000,15.620252,15.689884,3.99E-5,0.089754,0.089794,0.089913
0.490000,48.983879,49.008061,4.24E-7,0.076129,0.076129,0.076134
"""

TABLE2_GOLDEN = """\
gamma0_over_pi,beta0,R,alpha1_prime,alpha2_prime,alpha_prime
0.190000,0.405655,0.721698,4.93E+1,0.620993,4.99E+1
0.170000,0.315849,0.620477,1.31E+2,0.677762,1.32E+2
0.150000,0.240108,0.528884,3.87E+2,0.733438,3.88E+2
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestParsing:
    def test_pi_suffix(self):
        assert parse_angle("0.39pi") == 0.39 * math.pi
        assert parse_angle("0.39PI") == 0.39 * math.pi
        assert parse_angle("0.39π") == 0.39 * math.pi

    def test_radians(self):
        assert parse_angle("1.2252") == 1.2252

    def test_rejects_garbage(self):
        from wellpol.errors import DomainError

        with pytest.raises(DomainError):
            parse_angle("threepi")


class TestFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.015178, "0.015178"),
            (3.99e-5, "3.99E-5"),
            (4.24e-7, "4.24E-7"),
            (49.28366, "4.93E+1"),
            (387.537, "3.88E+2"),
            (0.000363, "0.000363"),
            (0.0, "0.000000"),
        ],
    )
    def test_mixed_rule(self, value, expected):
        assert format_mixed(value) == expected


class TestTables:
    def test_table1_golden(self, capsys):
        # The 0.47 pi row's strength prints as 15.689884: the published
        # table's 15.589884 contradicts gamma0^2 + beta0^2 = R^2 (and its
        # own alpha_apr' column) and is a misprint.
        code, out = run(["table1"], capsys)
        assert code == 0
        assert out == TABLE1_GOLDEN

    def test_table2_golden(self, capsys):
        code, out = run(["table2"], capsys)
        assert code == 0
        assert out == TABLE2_GOLDEN

    def test_table1_json_round_trips(self, capsys):
        code, out = run(["table1", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "rows", "diagnostics"}
        assert len(payload["rows"]) == 6
        assert payload["rows"][0]["alpha_prime"] == pytest.approx(0.188326, abs=1e-6)

    def test_forbidden_region_dominates_shallow_rows(self, capsys):
        code, out = run(["table2", "--format", "json"], capsys)
        rows = json.loads(out)["rows"]
        for row in rows:
            assert row["alpha1_prime"] / row["alpha_prime"] >= 0.98


class TestSweep:
    def test_matches_table1_columns_byte_for_byte(self, capsys):
        _, table_out = run(["table1"], capsys)
        _, sweep_out = run(
            ["sweep", "--min", "0.39pi", "--max", "0.49pi", "--step", "0.02pi"], capsys
        )
        table_lines = table_out.strip().split("\n")
        sweep_lines = sweep_out.strip().split("\n")
        assert len(sweep_lines) == len(table_lines)
        table_cols = table_lines[0].split(",")
        sweep_cols = sweep_lines[0].split(",")
        for table_row, sweep_row in zip(table_lines[1:], sweep_lines[1:]):
            table_cells = dict(zip(table_cols, table_row.split(",")))
            sweep_cells = dict(zip(sweep_cols, sweep_row.split(",")))
            for column, cell in table_cells.items():
                assert sweep_cells[column] == cell

    def test_empty_range_yields_header_only(self, capsys):
        code, out = run(
            ["sweep", "--min", "0.45pi", "--max", "0.39pi", "--step", "0.02pi"], capsys
        )
        assert code == 0
        assert out.strip().count("\n") == 0
        assert out.startswith("gamma0_over_pi,")

    def test_step_larger_than_range_gives_single_row(self, capsys):
        code, out = run(
            ["sweep", "--min", "0.39pi", "--max", "0.40pi", "--step", "0.30pi"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0.390000,")

    @pytest.mark.parametrize("step", ["1e12", "inf"])
    def test_reversed_range_yields_header_only_at_any_step(self, capsys, step):
        code, out = run(
            ["sweep", "--min", "0.3pi", "--max", "0.2pi", "--step", step], capsys
        )
        assert code == 0
        assert out.strip().count("\n") == 0
        assert out.startswith("gamma0_over_pi,")

    def test_infinite_step_gives_single_row(self, capsys):
        code, out = run(
            ["sweep", "--min", "0.1pi", "--max", "0.2pi", "--step", "inf"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0.100000,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--min", "0", "--max", "0.4pi", "--step", "0.02pi"],
            ["sweep", "--min", "0.1pi", "--max", "0.6pi", "--step", "0.02pi"],
            ["sweep", "--min", "0.1pi", "--max", "0.4pi", "--step=-0.1pi"],
        ],
    )
    def test_invalid_bounds_are_usage_errors(self, argv, capsys):
        code, _ = run(argv, capsys)
        assert code == 2

    def test_nan_step_is_refused_as_nonpositive(self, capsys):
        assert main(["sweep", "--min", "0.1pi", "--max", "0.2pi", "--step", "nan"]) == 2
        assert "sweep step must be positive" in capsys.readouterr().err

    def test_too_many_rows_are_refused_before_solving(self, capsys):
        started = time.perf_counter()
        code = main(["sweep", "--min", "0.1pi", "--max", "0.4pi", "--step", "1e-12"])
        elapsed = time.perf_counter() - started
        captured = capsys.readouterr()
        assert code == 2
        assert elapsed < 1.0
        assert captured.out == ""
        assert "more than 100000 rows" in captured.err


class TestSolve:
    def test_by_gamma_json(self, capsys):
        code, out = run(["solve", "--gamma", "0.39pi", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["alpha_prime"] == pytest.approx(0.188326, abs=1e-6)
        assert row["t_ratio"] == pytest.approx(2.52, abs=0.01)
        diag = payload["diagnostics"]
        assert "orthogonality" not in diag
        assert diag["alpha_via_quadrature"] == pytest.approx(0.188326, abs=1e-6)
        assert math.isfinite(diag["phi_jump_at_edge"])

    def test_shallow_well_in_well_columns(self, capsys):
        # alpha2' -> pi^2/6 - 2/3 and alpha2_t' -> -2/3 as gamma0 -> 0; the
        # cancelling closed form printed -0.53 and -2.33 here.
        code, out = run(["solve", "--gamma", "1e-8", "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["alpha2_prime"] == pytest.approx(math.pi**2 / 6 - 2 / 3, rel=1e-15)
        assert row["alpha2_t_prime"] == pytest.approx(-2 / 3, rel=1e-15)

    def test_by_strength_matches_by_gamma(self, capsys):
        _, by_r = run(["solve", "--R", "3.617018", "--format", "json"], capsys)
        row = json.loads(by_r)["rows"][0]
        assert row["alpha_prime"] == pytest.approx(0.188326, abs=2e-6)

    def test_by_strength_prints_the_solved_state(self, capsys):
        # The row is the state solved from R.  Near the hard wall one ulp of
        # gamma0 moves gamma0 tan(gamma0) by ~7e-8 relative, so a row rebuilt
        # from gamma0 alone would print another R and beta0.
        _, out = run(["solve", "--R", "1e9", "--format", "json"], capsys)
        row = json.loads(out)["rows"][0]
        assert row["R"] == 1e9
        assert row["beta0"] == ground_state_from_R(1e9).beta0

    def test_strength_below_floor_is_usage_error(self, capsys):
        assert main(["solve", "--R", "1e-300"]) == 2
        assert "R must be >= GAMMA_MIN = 1e-30" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_strength_above_ceiling_is_usage_error(self, capsys, command):
        assert main([command, "--R", "1e13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "R must be <= 1.57e+12" in captured.err

    def test_requires_exactly_one_selector(self, capsys):
        assert run(["solve"], capsys)[0] == 2
        assert run(["solve", "--gamma", "0.39pi", "--R", "4.0"], capsys)[0] == 2

    def test_out_of_domain_gamma_is_usage_error(self, capsys):
        assert run(["solve", "--gamma", "0.75pi"], capsys)[0] == 2


class TestReports:
    def test_calibrate_passes(self, capsys):
        code, out = run(["calibrate"], capsys)
        assert code == 0
        payload = json.loads(out)
        checks = {c["name"]: c for c in payload["diagnostics"]["checks"]}
        assert checks["c_round_trip"]["passed"]
        assert checks["one_term_in_band"]["passed"]
        assert checks["hard_wall_vs_one_term"]["passed"]

    def test_limits_delta_passes(self, capsys):
        code, out = run(["limits", "--mode", "delta"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload["diagnostics"]["checks"])

    def test_limits_infinite_passes(self, capsys):
        code, out = run(["limits", "--mode", "infinite"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload["diagnostics"]["checks"])

    def test_oracle_hard_wall_passes(self, capsys):
        code, out = run(["oracle", "--hard-wall", "--num-points", "600"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload["diagnostics"]["checks"])
        assert set(payload["meta"]["inputs"]) == {"R", "hard_wall", "num_points"}
        checks = {c["name"]: c for c in payload["diagnostics"]["checks"]}
        assert checks["hard_wall_vs_conventional_rel"]["band"] == 1e-5

    def test_oracle_reports_honest_deviation_for_shallow_well(self, capsys):
        # The grid polarizability exceeds the paper's heuristic alpha' by
        # ~12% at R = 3.617018.  The run gates on alpha_exact_prime at 1e-5
        # and exits 0, and reports the heuristic's deviation without
        # gating on it.
        code, out = run(["oracle", "--R", "3.617018", "--num-points", "600"], capsys)
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["relative_deviation_from_heuristic"] == pytest.approx(0.119, abs=0.01)
        checks = {c["name"]: c for c in payload["diagnostics"]["checks"]}
        assert set(checks) == {"richardson_vs_spectral_rel", "oracle_vs_exact_rel"}
        assert checks["richardson_vs_spectral_rel"]["passed"]
        exact = checks["oracle_vs_exact_rel"]
        assert exact["passed"] and exact["band"] == 1e-5
        assert exact["value"] == pytest.approx(
            row["richardson_alpha"] / row["alpha_exact_prime"] - 1.0, abs=1e-15
        )

    @pytest.mark.parametrize("R", ["0.721698", "0.620477", "0.528884"])
    def test_oracle_passes_on_table2_rows(self, capsys, R):
        # On these weak wells Romberg's grid value agrees with the spectral
        # solve to ~1e-10 (measured).
        code, out = run(["oracle", "--R", R], capsys)
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["diagnostics"]["checks"]}
        assert checks["richardson_vs_spectral_rel"]["value"] <= 1e-7
        assert checks["oracle_vs_exact_rel"]["passed"]

    def test_oracle_requires_one_target(self, capsys):
        assert run(["oracle"], capsys)[0] == 2
        assert run(["oracle", "--R", "4.0", "--hard-wall"], capsys)[0] == 2

    @pytest.mark.parametrize("R", ["-1", "0", "nan"])
    def test_oracle_refuses_nonpositive_R(self, capsys, R):
        # The ground-state solve checks R, before any grid is built.
        code = main(["oracle", "--R", R])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: R must be finite and positive, got ")

    def test_oracle_refuses_shallow_well_before_any_grid(self, capsys):
        # Its box would need 3.2e12 nodes; a MemoryError would exit 1, the
        # code of a failed check.
        code = main(["oracle", "--R", "1e-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "would have 3200000000223 nodes" in captured.err

    @pytest.mark.parametrize("R", ["1e3", "1e4", "1e9"])
    def test_oracle_refuses_grid_too_coarse_for_tail(self, capsys, R):
        code = main(["oracle", "--R", R])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "h*beta0 = " in captured.err
        assert "num_points >= " in captured.err

    def test_oracle_report_keys(self, capsys):
        code, out = run(["oracle", "--hard-wall", "--num-points", "500"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [list(row) for row in payload["rows"]] == [
            ["alpha_sum", "alpha_curvature", "richardson_alpha", "ground_energy_dimless"]
        ]
        assert list(payload["diagnostics"]) == [
            "grid_num_points_actual",
            "grid_box_half_width",
            "grid_spacing",
            "sum_solve_residual",
            "spectral_ground_energy",
            "refine_grid_multipliers",
            "refine_grid_sizes",
            "refine_alpha_per_level",
            "refine_ground_energy_per_level",
            "refine_observed_order",
            "conventional_sum_reference",
            "checks",
        ]


class TestDeterminism:
    COMMANDS = [
        ["table1"],
        ["table1", "--format", "json"],
        ["table2"],
        ["solve", "--gamma", "0.43pi", "--format", "json"],
        ["sweep", "--min", "0.2pi", "--max", "0.3pi", "--step", "0.05pi"],
        ["limits", "--mode", "delta"],
        ["limits", "--mode", "infinite"],
        ["calibrate"],
        ["oracle", "--hard-wall", "--num-points", "500"],
        ["oracle", "--R", "3.617018", "--num-points", "500"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
    def test_repeated_runs_are_byte_identical(self, argv, capsys):
        code_a, out_a = run(argv, capsys)
        code_b, out_b = run(argv, capsys)
        assert code_a == code_b
        assert out_a == out_b

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "t1.csv"
        code, _ = run(["table1", "--output", str(target)], capsys)
        assert code == 0
        _, stdout_version = run(["table1"], capsys)
        assert target.read_text() == stdout_version

    @pytest.mark.parametrize("command", ["table1", "calibrate"])
    def test_unwritable_output_is_a_usage_error(self, command, capsys, monkeypatch, tmp_path):
        # A table and a report: exit 2 with one line on stderr, as for any bad
        # input, instead of a FileNotFoundError traceback; nothing on stdout.
        # The path is opened before the command computes anything.
        def refuse(args):
            pytest.fail(f"{args.command} ran before its --output was opened")

        for name in ("cmd_table", "cmd_calibrate"):
            monkeypatch.setattr(cli, name, refuse)
        target = tmp_path / "missing" / "out"
        code = main([command, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot write {target}: {os.strerror(errno.ENOENT)}\n"
        assert not target.parent.exists()


class TestLazyImports:
    """numpy and scipy load only for the grid oracle, and it loads no scipy module.

    Each check runs in a fresh interpreter, because this test process has
    loaded both already.
    """

    SRC = str(Path(wellpol.__file__).resolve().parents[1])

    def python(self, *args):
        path = os.pathsep.join(filter(None, [self.SRC, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )

    def loaded_heavy_modules(self, code):
        child = self.python(
            "-c",
            code + "\nimport sys\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))",
        )
        assert child.returncode == 0, child.stderr
        return child.stdout.strip().splitlines()[-1]

    def test_import_loads_neither_numpy_nor_scipy(self):
        assert self.loaded_heavy_modules("import wellpol") == "[]"

    @pytest.mark.parametrize("module", ["wellpol", "wellpol.cli"])
    def test_import_loads_neither_dataclasses_nor_inspect(self, module):
        # Only what the import itself adds counts, not what site loaded.
        child = self.python(
            "-c",
            "import sys\nbefore = set(sys.modules)\n"
            f"import {module}\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip().splitlines()[-1] == "[]"

    def test_table1_loads_neither_numpy_nor_scipy(self):
        code = "import wellpol.cli\nassert wellpol.cli.main(['table1']) == 0"
        assert self.loaded_heavy_modules(code) == "[]"

    def test_solve_json_loads_neither_numpy_nor_scipy(self):
        code = (
            "import wellpol.cli\n"
            "assert wellpol.cli.main(['solve', '--R', '3.617018', '--format', 'json']) == 0"
        )
        assert self.loaded_heavy_modules(code) == "[]"

    def test_oracle_loads_no_scipy_module(self):
        # grid_oracle loads scipy's LAPACK extension from its file, so neither
        # its import nor a study imports scipy or scipy.linalg; numpy may load.
        child = self.python(
            "-c",
            "import sys\nimport wellpol.grid_oracle\nimport wellpol.cli\n"
            "assert wellpol.cli.main(['oracle', '--R', '3.617018', '--num-points', '500']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', '_flapack')))",
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip().splitlines()[-1] == "[]"

    def test_solve_json_command_matches_in_process_run(self, capsys):
        argv = ["solve", "--R", "3.617018", "--format", "json"]
        code, out = run(argv, capsys)
        child = self.python("-m", "wellpol.cli", *argv)
        assert code == 0
        assert child.returncode == 0, child.stderr
        assert child.stdout == out

    def test_oracle_command_matches_in_process_run(self, capsys):
        argv = ["oracle", "--R", "3.617018", "--num-points", "500"]
        code, out = run(argv, capsys)
        child = self.python("-m", "wellpol.cli", *argv)
        assert code == 0
        assert child.returncode == 0, child.stderr
        assert child.stdout == out
