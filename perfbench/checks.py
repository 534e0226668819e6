"""Correctness checks of every operation's output.

Each check returns None when the output is correct and a one-line reason
otherwise.  The in-process checks need no mpmath; the CLI expectations are
built from ``reference`` in the parent process, outside the timed region.
"""

from __future__ import annotations

import json
import math

from stats import relative_error
from workloads import angle, sweep_gammas

# Tolerances stated by the workloads.
SWEEP_REL_TOL = 1e-8          # alpha' against the mpmath closed form
CROSSCHECK_REL_TOL = 1e-8     # quadrature against the closed form
ROUTE_AGREEMENT = 5e-3        # oracle spectral sum against field curvature
BOX_REL_TOL = 2e-3            # oracle Richardson value against the box constant
JSON_REL_TOL = 1e-8           # full-precision CLI floats against mpmath

TABLE1_HEADER = "gamma0_over_pi,beta0,R,alpha1_prime,alpha2_prime,alpha_prime,alpha_apr_prime"
TABLE2_HEADER = "gamma0_over_pi,beta0,R,alpha1_prime,alpha2_prime,alpha_prime"
SWEEP_HEADER = ("gamma0_over_pi,beta0,R,alpha1_prime,alpha2_prime,alpha2_t_prime,"
                "alpha_prime,alpha_apr_prime,t_ratio")


def check_sweep(R, alpha_prime, reference) -> str | None:
    err = relative_error(alpha_prime, reference)
    if err <= SWEEP_REL_TOL:
        return None
    return f"alpha' relative error {err:.2e} > {SWEEP_REL_TOL:g} at R={R!r}"


def check_crosscheck(gamma, result, _reference) -> str | None:
    closed, quadrature, overlap, jump = result
    if not all(math.isfinite(v) for v in result):
        return f"non-finite output {result!r} at gamma0={gamma!r}"
    err = relative_error(quadrature, closed)
    if err <= CROSSCHECK_REL_TOL:
        return None
    return f"quadrature vs closed form {err:.2e} > {CROSSCHECK_REL_TOL:g} at gamma0={gamma!r}"


def check_oracle(well, result, reference) -> str | None:
    alpha_sum, alpha_curvature, richardson = result
    if not all(math.isfinite(v) and v > 0.0 for v in result):
        return f"non-positive or non-finite oracle output {result!r}"
    gap = abs(alpha_sum - alpha_curvature) / alpha_sum
    if gap > ROUTE_AGREEMENT:
        return f"routes disagree by {gap:.2e} > {ROUTE_AGREEMENT:g}"
    if well is None and relative_error(richardson, reference) > BOX_REL_TOL:
        return f"box Richardson {richardson!r} not within {BOX_REL_TOL:g} of {reference!r}"
    return None


def _half_unit(cell: str) -> float:
    """Half a unit in the last printed digit of a fixed or 1.23E+4 cell."""
    mantissa, _, exponent = cell.upper().partition("E")
    decimals = len(mantissa.partition(".")[2])
    return 0.5 * 10.0 ** (int(exponent or 0) - decimals)


def cli_expected(item: dict):
    """Reference values for one CLI invocation (mpmath, printed tables)."""
    import reference as ref

    kind, argv = item["kind"], item["argv"]
    if kind == "table1":
        return ref.TABLE1
    if kind == "table2":
        return ref.TABLE2
    if kind == "solve_csv":
        return [ref.closed_forms(angle(argv[argv.index("--gamma") + 1]))]
    if kind == "sweep":
        return [ref.closed_forms(g) for g in sweep_gammas(argv)]
    if kind == "solve_json":
        return ref.closed_forms(ref.gamma_from_R(float(argv[argv.index("--R") + 1])))
    if kind == "calibrate":
        return {
            "one_term_alpha_prime": ref.ONE_TERM_ALPHA,
            "converged_alpha_prime_50_terms": ref.box_sum(50),
            "hard_wall_alpha_prime_c_minus_1": ref.BOX_ALPHA,
        }
    if kind == "limits_infinite":
        return {"alpha1_limit": (0.0, 1e-7),
                "alpha2_limit": (ref.BOX_ALPHA, 1e-6),
                "alpha2_t_limit": (ref.BOX_TRIAL_ALPHA, 1e-6)}
    return {"alpha1_extrapolated": (ref.DELTA_ALPHA1_SCALED, 1e-3),
            "alpha2_extrapolated": (0.0, 1e-3)}


def _csv_rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _check_table(text: str, header: str, table: dict) -> str | None:
    rows = _csv_rows(text, header)
    if len(rows) != len(table):
        return f"{len(rows)} rows, expected {len(table)}"
    for cells, (gamma_pi, printed) in zip(rows, table.items()):
        if abs(float(cells[0]) - gamma_pi) > 1e-6:
            return f"row gamma0/pi {cells[0]} expected {gamma_pi}"
        for column, cell, (target, tol) in zip(header.split(",")[1:], cells[1:], printed):
            if not abs(float(cell) - target) <= tol:
                return f"{gamma_pi}pi {column} printed {cell}, paper {target} +- {tol}"
    return None


def _check_rows(text: str, expected: list[dict]) -> str | None:
    rows = _csv_rows(text, SWEEP_HEADER)
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for cells, want in zip(rows, expected):
        for column, cell in zip(SWEEP_HEADER.split(","), cells):
            if not abs(float(cell) - want[column]) <= _half_unit(cell) * (1 + 1e-9):
                return f"{column} printed {cell}, reference {want[column]!r}"
    return None


def _check_report(payload: dict, expected: dict) -> str | None:
    diagnostics = payload["diagnostics"]
    failed = [c["name"] for c in diagnostics["checks"] if not c["passed"]]
    if failed:
        return f"report checks failed: {failed}"
    for key, (target, band) in expected.items():
        if not abs(diagnostics[key] - target) <= band:
            return f"{key} = {diagnostics[key]!r}, reference {target!r} +- {band:g}"
    return None


def check_cli(item: dict, returncode: int, stdout: str, expected) -> str | None:
    """Exit status 0 and output matching the reference values."""
    if returncode != 0:
        return f"exit status {returncode}"
    kind = item["kind"]
    try:
        if kind == "table1":
            return _check_table(stdout, TABLE1_HEADER, expected)
        if kind == "table2":
            return _check_table(stdout, TABLE2_HEADER, expected)
        if kind in ("solve_csv", "sweep"):
            return _check_rows(stdout, expected)
        payload = json.loads(stdout)
        if kind == "solve_json":
            row = payload["rows"][0]
            for column, want in expected.items():
                if relative_error(row[column], want) > JSON_REL_TOL:
                    return f"{column} = {row[column]!r}, reference {want!r}"
            quadrature = payload["diagnostics"]["alpha_via_quadrature"]
            if relative_error(quadrature, expected["alpha_prime"]) > JSON_REL_TOL:
                return f"alpha_via_quadrature {quadrature!r}, reference {expected['alpha_prime']!r}"
            return None
        if kind == "calibrate":
            values = {row["name"]: row["value"] for row in payload["rows"]}
            for name, want in expected.items():
                if relative_error(values[name], want) > 1e-12:
                    return f"{name} = {values[name]!r}, reference {want!r}"
            if abs(values["c_prime_from_hard_wall_value"] + 1.0) > 1e-9:
                return "C' round trip is not -1"
            return None
        return _check_report(payload, expected)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
