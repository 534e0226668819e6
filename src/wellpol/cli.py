"""Command-line interface: reference tables, sweeps, limit studies, oracle runs.

Commands

    table1     six-row polarizability table, gamma0 = 0.39 pi .. 0.49 pi
    table2     three shallow-well rows, gamma0 = 0.19 pi, 0.17 pi, 0.15 pi
    solve      one well, selected by --gamma or --R
    sweep      breakdown rows over a gamma0 range
    limits     delta-potential or hard-wall limit study (JSON report)
    oracle     grid-diagonalization cross-check (JSON report); --num-points
               is its one accuracy dial
    calibrate  hard-wall C' calibration round trip (JSON report)

Angles accept either radians or multiples of pi ("0.39pi").  Tables and
sweeps emit CSV (the paper's six decimals, scientific outside [1e-4, 10)) or
JSON (full-precision floats); report commands always emit JSON with a
`checks` block and exit nonzero when a check band fails.  A report's
`inputs` holds only the options the user sets.  Output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from . import conventional_sum, dalgarno_lewis, limits
from .errors import DomainError, NumericalError
from .well_spectrum import GroundState, ground_state_from_R, ground_state_from_gamma

TABLE1_COLUMNS = (
    "gamma0_over_pi",
    "beta0",
    "R",
    "alpha1_prime",
    "alpha2_prime",
    "alpha_prime",
    "alpha_apr_prime",
)
TABLE2_COLUMNS = TABLE1_COLUMNS[:-1]
# Each reference table: its gamma0 rows, in multiples of pi, and its columns.
TABLES = {
    "table1": ((0.39, 0.41, 0.43, 0.45, 0.47, 0.49), TABLE1_COLUMNS),
    "table2": ((0.19, 0.17, 0.15), TABLE2_COLUMNS),
}
SWEEP_COLUMNS = (
    "gamma0_over_pi",
    "beta0",
    "R",
    "alpha1_prime",
    "alpha2_prime",
    "alpha2_t_prime",
    "alpha_prime",
    "alpha_apr_prime",
    "t_ratio",
)

# The state columns stay fixed-point at any magnitude; every other column
# takes the mixed fixed/scientific rule of the printed tables.
_FIXED_COLUMNS = SWEEP_COLUMNS[:3]

# Terms of the hard-wall transition sum that calibrate reports and the
# hard-wall oracle is checked against.
BOX_TERMS = 50

# Most rows one sweep may ask for; a finer step is refused before any row
# is solved, since the rows are built in memory before printing.
MAX_SWEEP_ROWS = 100_000


def parse_angle(text: str) -> float:
    """Angle in radians from '0.39pi'-style multiples of pi or a raw float."""
    cleaned, scale = text.strip().lower(), 1.0
    for suffix in ("pi", "π"):
        if cleaned.endswith(suffix):
            cleaned, scale = cleaned[: -len(suffix)].rstrip(" *"), math.pi
            break
    try:
        # x * 1.0 is x bit for bit, so a raw angle keeps its exact value.
        return float(cleaned) * scale
    except ValueError as exc:
        raise DomainError(f"cannot parse angle {text!r}") from exc


def format_mixed(value: float) -> str:
    """Six decimals, but the 1.23E+4 form for |v| >= 10 or 0 < |v| < 1e-4; nan prints 'nan'."""
    if value != 0.0 and (abs(value) >= 10.0 or abs(value) < 1e-4):
        mantissa, exponent = f"{value:.2E}".split("E")
        return f"{mantissa}E{int(exponent):+d}"
    return f"{value:.6f}"


def _format_cell(column: str, value: float) -> str:
    return f"{value:.6f}" if column in _FIXED_COLUMNS else format_mixed(value)


def _breakdown_row(state: GroundState) -> dict:
    """The state columns, then the breakdown's fields under their own names."""
    return {
        "gamma0_over_pi": state.gamma0 / math.pi,
        "beta0": state.beta0,
        "R": state.R,
        **_fields(dalgarno_lewis.breakdown(state), *SWEEP_COLUMNS[3:]),
    }


def _fields(result, *names: str) -> dict:
    """The named fields of a result, in the order given."""
    return {name: getattr(result, name) for name in names}


def _rows(**columns: Sequence) -> list[dict]:
    """One row per index, from equal-length value sequences named by their column."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _emit_json(args, meta: dict, rows: list[dict], diagnostics: dict) -> None:
    """The one JSON document shape: meta (command first), rows, diagnostics."""
    payload = {"meta": {"command": args.command, **meta}, "rows": rows,
               "diagnostics": diagnostics}
    args.stream.write(json.dumps(payload, indent=2) + "\n")


def _emit_table(rows: list[dict], columns: Sequence[str], args) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_format_cell(col, row[col]) for col in columns))
        args.stream.write("\n".join(lines) + "\n")
    else:
        _emit_json(args, {"columns": list(columns)},
                   [{col: row[col] for col in columns} for row in rows], {})


def _emit_report(args, inputs: dict, rows: list[dict], diagnostics: dict,
                 checks: list[dict]) -> int:
    _emit_json(args, {"inputs": inputs}, rows, {**diagnostics, "checks": checks})
    return 0 if all(c["passed"] for c in checks) else 1


def _check(name: str, value: float, target: float, band: float) -> dict:
    """The one shape of a report check: passed when |value - target| <= band."""
    deviation = value - target
    return {
        "name": name,
        "value": value,
        "target": target,
        "band": band,
        "deviation": deviation,
        "passed": bool(abs(deviation) <= band),
    }


def cmd_table(args) -> int:
    gammas_pi, columns = TABLES[args.command]
    rows = [_breakdown_row(ground_state_from_gamma(g * math.pi)) for g in gammas_pi]
    _emit_table(rows, columns, args)
    return 0


def cmd_solve(args) -> int:
    if (args.gamma is None) == (args.R is None):
        raise DomainError("solve needs exactly one of --gamma or --R")
    if args.gamma is not None:
        state = ground_state_from_gamma(parse_angle(args.gamma))
    else:
        state = ground_state_from_R(args.R)
    row = _breakdown_row(state)
    if args.format == "csv":
        _emit_table([row], SWEEP_COLUMNS, args)
        return 0
    diagnostics = {
        "n_prime_sq": state.n_prime_sq,
        "energy_dimless": state.energy_dimless,
        "phi_jump_at_edge": dalgarno_lewis.phi_jump(state),
        "orthogonality": dalgarno_lewis.orthogonality(state),
        "alpha_via_quadrature": dalgarno_lewis.alpha_via_quadrature(state),
    }
    meta = {"inputs": {"gamma": args.gamma, "R": args.R}, "columns": list(SWEEP_COLUMNS)}
    _emit_json(args, meta, [{col: row[col] for col in SWEEP_COLUMNS}], diagnostics)
    return 0


def _sweep_gammas(lo: float, hi: float, step: float) -> list[float]:
    """The sweep's angles lo + k * step, k = 0, 1, ..., up to hi + tol.

    tol = 1e-9 * min(step, hi - lo) absorbs the rounding of a grid-aligned
    end; bounding it by the range keeps a reversed range (hi < lo) empty at
    any step.  A step wider than the range gives lo alone; so does an
    infinite step, for which lo + 0 * step would be nan.  More than
    MAX_SWEEP_ROWS angles raise DomainError.
    """
    if math.isinf(step):
        return [lo] if lo <= hi else []
    end = hi + 1e-9 * min(step, hi - lo)
    gammas: list[float] = []
    while (gamma := lo + len(gammas) * step) <= end:
        if len(gammas) == MAX_SWEEP_ROWS:
            raise DomainError(
                f"sweep would give more than {MAX_SWEEP_ROWS} rows; use a larger step"
            )
        gammas.append(gamma)
    return gammas


def cmd_sweep(args) -> int:
    lo = parse_angle(args.min)
    hi = parse_angle(args.max)
    step = parse_angle(args.step)
    if not step > 0.0:
        raise DomainError(f"sweep step must be positive, got {args.step!r}")
    for name, value in (("min", lo), ("max", hi)):
        if not 0.0 < value < 0.5 * math.pi:
            raise DomainError(f"sweep {name} must lie in (0, pi/2), got {value!r}")
    rows = [_breakdown_row(ground_state_from_gamma(g)) for g in _sweep_gammas(lo, hi, step)]
    _emit_table(rows, SWEEP_COLUMNS, args)
    return 0


def cmd_limits(args) -> int:
    if args.mode == "delta":
        seq = limits.delta_limit()
        rows = _rows(half_width=seq.a_values, depth=seq.v0_values,
                     alpha1_scaled=seq.alpha1_scaled, alpha2_scaled=seq.alpha2_scaled)
        checks = [
            _check("delta_alpha1_scaled", seq.alpha1_extrapolated, 1.25, 1e-3),
            _check("delta_alpha2_scaled", seq.alpha2_extrapolated, 0.0, 1e-3),
        ]
        diagnostics = _fields(seq, "alpha1_extrapolated", "alpha2_extrapolated")
        return _emit_report(args, {"mode": "delta"}, rows, diagnostics, checks)
    report = limits.infinite_well_limit()
    rows = _rows(epsilon=report.epsilons, alpha1_prime=report.alpha1_values,
                 alpha2_prime=report.alpha2_values, alpha2_t_prime=report.alpha2_t_values)
    checks = [
        _check("hard_wall_alpha1", report.alpha1_limit, 0.0, 1e-7),
        _check("hard_wall_alpha2", report.alpha2_limit, 0.0702247, 1e-6),
        _check("hard_wall_alpha2_t", report.alpha2_t_limit, -0.1324176, 1e-6),
    ]
    diagnostics = _fields(report, "alpha1_limit", "alpha2_limit", "alpha2_t_limit")
    return _emit_report(args, {"mode": "infinite"}, rows, diagnostics, checks)


def cmd_oracle(args) -> int:
    # The only command that needs numpy and scipy.linalg; the others skip
    # their import.
    from . import grid_oracle

    if (args.R is None) == (not args.hard_wall):
        raise DomainError("oracle needs exactly one of --R or --hard-wall")
    # An R of None selects the hard wall.
    config = grid_oracle.GridOracleConfig(well_R=args.R, num_points=args.num_points)
    result = grid_oracle.oracle_study(config)
    checks = [_check("sum_vs_curvature_rel", result.route_gap, 0.0, grid_oracle._ROUTE_AGREEMENT)]
    rows = [_fields(result, "alpha_sum", "alpha_curvature", "richardson_alpha",
                    "ground_energy_dimless")]
    diagnostics = dict(result.diagnostics)
    if args.hard_wall:
        reference = conventional_sum.infinite_well_alpha(BOX_TERMS)
        gap = abs(result.richardson_alpha - reference) / reference
        diagnostics["conventional_sum_reference"] = reference
        checks.append(_check("hard_wall_vs_conventional_rel", gap, 0.0, 1e-5))
    else:
        # Gated on the exact polarizability; the paper's heuristic alpha'
        # and the oracle's deviation from it are reported, not gated.
        state = config.ground
        exact = dalgarno_lewis.alpha_exact_prime(state)
        closed = dalgarno_lewis.breakdown(state).alpha_prime
        rows[0].update(
            alpha_exact_prime=exact,
            closed_form_alpha_prime=closed,
            relative_deviation_from_closed_form=(result.richardson_alpha - closed) / closed,
        )
        deviation = (result.richardson_alpha - exact) / exact
        checks.append(_check("oracle_vs_exact_rel", deviation, 0.0, 1e-5))
    inputs = {"R": args.R, "hard_wall": args.hard_wall, "num_points": args.num_points}
    return _emit_report(args, inputs, rows, diagnostics, checks)


def cmd_calibrate(args) -> int:
    one_term = conventional_sum.infinite_well_term(2)
    converged = conventional_sum.infinite_well_alpha(BOX_TERMS)
    hard_wall_value = dalgarno_lewis.alpha2_prime_hard_wall(-1.0)
    c_round_trip = conventional_sum.calibrate_C(hard_wall_value)
    c_from_one_term = conventional_sum.calibrate_C(one_term)
    rows = [
        {"name": "one_term_alpha_prime", "value": one_term},
        {"name": f"converged_alpha_prime_{BOX_TERMS}_terms", "value": converged},
        {"name": "hard_wall_alpha_prime_c_minus_1", "value": hard_wall_value},
        {"name": "c_prime_from_hard_wall_value", "value": c_round_trip},
        {"name": "c_prime_from_one_term", "value": c_from_one_term},
    ]
    checks = [
        _check("c_round_trip", c_round_trip, -1.0, 1e-9),
        _check("one_term_in_band", one_term, 0.070135, 1.5e-5),
        _check("hard_wall_vs_one_term", hard_wall_value - one_term, 0.0, 2e-4),
    ]
    return _emit_report(args, {}, rows, {"num_terms": BOX_TERMS}, checks)


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_report_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellpol",
        description="Static polarizability of a particle in a 1-D finite square well",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in TABLES:
        p = sub.add_parser(name, help=f"reproduce reference {name}")
        p.set_defaults(run=cmd_table)
        _add_output_options(p)

    p = sub.add_parser("solve", help="solve one well")
    p.set_defaults(run=cmd_solve)
    p.add_argument("--gamma", default=None, help="inside phase, e.g. 0.39pi")
    p.add_argument("--R", type=float, default=None, help="well strength")
    _add_output_options(p)

    p = sub.add_parser("sweep", help="breakdown rows over a gamma0 range")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--min", required=True, help="lower gamma0, e.g. 0.39pi")
    p.add_argument("--max", required=True, help="upper gamma0, e.g. 0.49pi")
    p.add_argument("--step", required=True, help="gamma0 step, e.g. 0.02pi")
    _add_output_options(p)

    p = sub.add_parser("limits", help="delta or hard-wall limit study")
    p.set_defaults(run=cmd_limits)
    p.add_argument("--mode", choices=("delta", "infinite"), required=True)
    _add_report_options(p)

    p = sub.add_parser("oracle", help="grid-diagonalization cross-check")
    p.set_defaults(run=cmd_oracle)
    p.add_argument("--R", type=float, default=None, help="well strength")
    p.add_argument("--hard-wall", action="store_true", help="hard-wall box instead")
    p.add_argument("--num-points", type=int, default=2000)
    _add_report_options(p)

    p = sub.add_parser("calibrate", help="hard-wall C' calibration report")
    p.set_defaults(run=cmd_calibrate)
    _add_report_options(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; exit 2 on bad input, 3 on a numerical failure.

    ``--output`` is opened before the command computes anything, so an
    unwritable path fails at once; a command that fails later leaves it
    truncated.
    """
    args = build_parser().parse_args(argv)
    try:
        if not args.output:
            args.stream = sys.stdout
            return args.run(args)
        try:
            with open(args.output, "w", encoding="utf-8") as args.stream:
                return args.run(args)
        except OSError as exc:
            raise DomainError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
