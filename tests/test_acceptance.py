"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.

Criterion 9c checks the brute-force grid oracle (itself verified on the
hard-wall route against the analytic transition sum to 2e-10) against the
edge-matched Dalgarno-Lewis closed form ``alpha_exact_prime`` on every
deep-well table row.  It also keeps the record of the paper's heuristic:
the published closed-form alpha' undershoots the oracle by ~12% / ~7% on
the two shallowest rows, and 9c asserts that this miss is exactly the gap
between the heuristic and the edge-matched solution, i.e. that it comes
wholly from the edge condition the heuristic leaves unmatched.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
import symbolic
from wellpol import cli
from wellpol.conventional_sum import calibrate_C, infinite_well_alpha, infinite_well_term
from wellpol.dalgarno_lewis import (
    alpha2_prime_hard_wall,
    alpha_exact_prime,
    alpha_via_quadrature,
    breakdown,
    default_c_prime,
    orthogonality,
)
from wellpol.grid_oracle import GridOracleConfig, oracle_study
from wellpol.limits import delta_limit, infinite_well_limit
from wellpol.well_spectrum import ground_state_from_gamma

PI = math.pi


def report(label: str, ok: bool, detail: str) -> None:
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)


# Published Table 1 (gamma0/pi -> beta0, R, alpha1', alpha2', alpha', alpha_apr')
# with per-cell tolerances of one unit in the last printed digit.  The
# 0.47 pi row's R is corrected from the misprinted 15.589884 to 15.689884:
# the printed value contradicts gamma0^2 + beta0^2 = R^2 by 0.1 (eight
# orders above the stated residual tolerance), and the same row's printed
# alpha_apr' = 0.089913 is reproduced only by the corrected strength
# (the misprint would give 0.090052).
TABLE1 = {
    0.39: ((3.403183, 1e-6), (3.617018, 1e-6), (0.015178, 1e-6),
           (0.173148, 1e-6), (0.188326, 1e-6), (0.186438, 1e-6)),
    0.41: ((4.433507, 1e-6), (4.616825, 1e-6), (0.005510, 1e-6),
           (0.147482, 1e-6), (0.152993, 1e-6), (0.153844, 1e-6)),
    0.43: ((6.043511, 1e-6), (6.192650, 1e-6), (0.001663, 1e-6),
           (0.125180, 1e-6), (0.126843, 1e-6), (0.127803, 1e-6)),
    0.45: ((8.925856, 1e-6), (9.037118, 1e-6), (0.000363, 1e-6),
           (0.106019, 1e-6), (0.106382, 1e-6), (0.106858, 1e-6)),
    0.47: ((15.620252, 1e-6), (15.689884, 1e-6), (3.99e-5, 1e-7),
           (0.089754, 1e-6), (0.089794, 1e-6), (0.089913, 1e-6)),
    0.49: ((48.983879, 1e-6), (49.008061, 1e-6), (4.24e-7, 1e-9),
           (0.076129, 1e-6), (0.076129, 1e-6), (0.076134, 1e-6)),
}

# Published Table 2; scientific three-significant-digit entries carry the
# stated band of 0.05 x 10^exponent.
TABLE2 = {
    0.19: ((0.405655, 1e-6), (0.721698, 1e-6), (49.3, 0.5),
           (0.620993, 1e-6), (49.9, 0.5)),
    0.17: ((0.315849, 1e-6), (0.620477, 1e-6), (131.0, 5.0),
           (0.677762, 1e-6), (132.0, 5.0)),
    0.15: ((0.240108, 1e-6), (0.528884, 1e-6), (387.0, 5.0),
           (0.733438, 1e-6), (388.0, 5.0)),
}

TABLE1_GAMMAS = (0.39, 0.41, 0.43, 0.45, 0.47, 0.49)


def _table_failures(table, columns_of):
    failures = []
    for gamma_pi, expected in table.items():
        state = ground_state_from_gamma(gamma_pi * PI)
        computed = columns_of(state)
        for (value, (target, tol)), name in zip(
            zip(computed, expected), ("beta0", "R", "alpha1", "alpha2", "alpha", "apr")
        ):
            if abs(value - target) > tol:
                failures.append(
                    f"{gamma_pi}pi {name}: {value!r} vs {target!r} (tol {tol})"
                )
    return failures


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()

    def columns(state):
        bd = breakdown(state)
        return (state.beta0, state.R, bd.alpha1_prime, bd.alpha2_prime,
                bd.alpha_prime, bd.alpha_apr_prime)

    failures = _table_failures(TABLE1, columns)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report("1  [table-1 reproduction]", ok,
           f"36 cells, {len(failures)} mismatches, {elapsed:.3f}s "
           "(R at 0.47pi checked against the misprint-corrected 15.689884)")
    assert elapsed < 1.0
    assert not failures, failures


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()

    def columns(state):
        bd = breakdown(state)
        return (state.beta0, state.R, bd.alpha1_prime, bd.alpha2_prime, bd.alpha_prime)

    failures = _table_failures(TABLE2, columns)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report("2  [table-2 reproduction]", ok,
           f"15 cells, {len(failures)} mismatches, {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not failures, failures


def test_criterion_3_infinite_well_limit():
    result = infinite_well_limit()
    checks = [
        ("alpha2", result.alpha2_limit, 0.0702247, 1e-6),
        ("alpha2_t", result.alpha2_t_limit, -0.1324176, 1e-6),
        ("alpha1", result.alpha1_limit, 0.0, 1e-7),
    ]
    failures = [
        f"{name}: {value!r} vs {target} (tol {tol})"
        for name, value, target, tol in checks
        if abs(value - target) > tol
    ]
    report("3  [infinite-well limit]", not failures,
           f"alpha2 {result.alpha2_limit:.7f}, alpha2_t {result.alpha2_t_limit:.7f}, "
           f"alpha1 {result.alpha1_limit:.1e}")
    assert not failures, failures


def test_criterion_4_delta_limit():
    result = delta_limit()
    ok1 = abs(result.alpha1_extrapolated - 1.25) <= 1e-3
    ok2 = abs(result.alpha2_extrapolated) <= 1e-3
    report("4  [delta limit]", ok1 and ok2,
           f"scaled alpha1 {result.alpha1_extrapolated:.6f} (target 1.25 +- 1e-3), "
           f"scaled alpha2 {result.alpha2_extrapolated:.1e} (target 0 +- 1e-3)")
    assert ok1 and ok2


def test_criterion_5_t_ratio():
    t39 = breakdown(ground_state_from_gamma(0.39 * PI)).t_ratio
    t47 = breakdown(ground_state_from_gamma(0.47 * PI)).t_ratio
    ok = abs(t39 - 2.52) <= 0.01 and abs(t47 - 2.84) <= 0.01
    report("5  [T ratio]", ok, f"T(0.39pi) = {t39:.4f}, T(0.47pi) = {t47:.4f}")
    assert abs(t39 - 2.52) <= 0.01
    assert abs(t47 - 2.84) <= 0.01


def test_criterion_6_c_calibration():
    hard_wall_value = alpha2_prime_hard_wall(-1.0)
    c_round_trip = calibrate_C(hard_wall_value)
    one_term = infinite_well_term(2)
    analytic = 16384.0 / (243.0 * math.pi**6)
    ok_round = abs(c_round_trip - (-1.0)) <= 1e-9
    ok_band = 0.07012 <= one_term <= 0.07015
    ok_exact = abs(one_term - analytic) <= 1e-12 * analytic
    ok = ok_round and ok_band and ok_exact
    report("6  [C calibration]", ok,
           f"round trip C' = {c_round_trip!r}, one-term = {one_term:.7f} "
           f"(published prints 0.0701371; analytic value is 0.0701317)")
    assert ok_round
    assert ok_band
    assert ok_exact


def test_criterion_7_closed_form_vs_quadrature():
    start = time.perf_counter()
    gammas = np.linspace(0.1 * PI, 0.49 * PI, 52)[1:-1]
    worst = 0.0
    for gamma in gammas:
        state = ground_state_from_gamma(float(gamma))
        closed = breakdown(state).alpha_prime
        worst = max(worst, abs(alpha_via_quadrature(state) - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report("7  [closed form vs quadrature]", ok,
           f"worst relative gap {worst:.2e} over 50 points, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_8_property_suite():
    failures = []
    # parity / orthogonality
    for gamma in np.linspace(0.1 * PI, 0.49 * PI, 52)[1:-1]:
        if abs(orthogonality(ground_state_from_gamma(float(gamma)))) > 1e-10:
            failures.append(f"orthogonality at {gamma / PI:.3f}pi")
    # ODE residuals: identically 0 for the symbolic phi' (free C and B),
    # and the package's phi' pieces are that phi' to 1e-14 relative
    if symbolic.residuals() != (0, 0):
        failures.append(f"symbolic residuals {symbolic.residuals()}")
    for gamma_pi in (0.12, 0.25, 0.39, 0.47):
        state = ground_state_from_gamma(gamma_pi * PI)
        g, b = state.gamma0, state.beta0
        for x in np.linspace(0.05, 0.95, 20):
            if symbolic.phi_inner_error(g, default_c_prime(g), float(x)) > 1e-14:
                failures.append(f"inner phi' at ({gamma_pi}pi, {x:.2f})")
        for x in np.linspace(1.05, 4.0, 20):
            env = math.exp(-b * (float(x) - 1.0))
            if symbolic.phi_outer_error(g, b, float(x), env) > 1e-14:
                failures.append(f"outer phi' at ({gamma_pi}pi, {x:.2f})")
    # transcendental residuals
    for gamma in np.linspace(0.15 * PI, 0.49 * PI, 60):
        state = ground_state_from_gamma(float(gamma))
        if abs(state.gamma0 * math.tan(state.gamma0) - state.beta0) > 1e-10:
            failures.append(f"quantisation residual at {gamma / PI:.3f}pi")
        if abs(state.gamma0**2 + state.beta0**2 - state.R**2) > 1e-10:
            failures.append(f"strength residual at {gamma / PI:.3f}pi")
    # positivity and monotonicity in R across both tables' range
    states = [ground_state_from_gamma(float(g))
              for g in np.linspace(0.15 * PI, 0.49 * PI, 60)]
    alphas = [breakdown(s).alpha_prime for s in states]
    if any(a <= 0.0 for a in alphas):
        failures.append("positivity violated")
    if [s.R for s in states] != sorted(s.R for s in states):
        failures.append("R not monotone on the gamma grid")
    if any(later >= earlier for earlier, later in zip(alphas, alphas[1:])):
        failures.append("alpha' does not increase as R decreases")
    report("8  [property suite]", not failures,
           f"{len(failures)} violations (parity, ODE, quantisation, monotonicity)")
    assert not failures, failures


@pytest.fixture(scope="module")
def oracle_data():
    start = time.perf_counter()
    rows = {}
    for gamma_pi in TABLE1_GAMMAS:
        state = ground_state_from_gamma(gamma_pi * PI)
        config = GridOracleConfig(well_R=state.R, num_points=1100)
        study = oracle_study(config, levels=2)
        rows[gamma_pi] = {
            "closed": breakdown(state).alpha_prime,
            "exact": alpha_exact_prime(state),
            "richardson": study.richardson_alpha,
            "base_sum": study.alpha_sum,
            "curvature": study.alpha_curvature,
        }
    hard_study = oracle_study(GridOracleConfig.hard_wall(num_points=999), levels=2)
    elapsed = time.perf_counter() - start
    return {
        "rows": rows,
        "hard_richardson": hard_study.richardson_alpha,
        "hard_base_sum": hard_study.alpha_sum,
        "hard_curvature": hard_study.alpha_curvature,
        "elapsed": elapsed,
    }


def test_criterion_9a_oracle_route_agreement(oracle_data):
    failures = []
    for gamma_pi, row in oracle_data["rows"].items():
        gap = abs(row["base_sum"] - row["curvature"]) / row["base_sum"]
        if gap > 5e-3:
            failures.append(f"{gamma_pi}pi: routes differ by {gap:.2e}")
    hard_gap = abs(oracle_data["hard_base_sum"] - oracle_data["hard_curvature"])
    hard_gap /= oracle_data["hard_base_sum"]
    if hard_gap > 5e-3:
        failures.append(f"hard wall: routes differ by {hard_gap:.2e}")
    elapsed = oracle_data["elapsed"]
    ok = not failures and elapsed < 2.0
    report("9a [oracle sum vs curvature <= 0.5%]", ok,
           f"worst hard-wall gap {hard_gap:.2e}, oracle work {elapsed:.2f}s "
           "(budget 2s)")
    assert elapsed < 2.0
    assert not failures, failures


def test_criterion_9b_hard_wall_vs_conventional(oracle_data):
    reference = infinite_well_alpha(50)
    gap = abs(oracle_data["hard_richardson"] - reference) / reference
    ok = gap <= 1e-5
    report("9b [hard-wall oracle vs transition sum <= 1e-5]", ok,
           f"extrapolated {oracle_data['hard_richardson']:.9f} vs "
           f"{reference:.9f}, gap {gap:.2e}")
    assert ok, gap


def test_criterion_9c_finite_well_oracle_vs_closed_form(oracle_data):
    # The oracle against the package's Dalgarno-Lewis closed form, in the
    # original 5% band and in the oracle's own 1e-4 accuracy band.
    gaps = {
        gamma_pi: (row["richardson"] - row["exact"]) / row["exact"]
        for gamma_pi, row in oracle_data["rows"].items()
    }
    # Record of the paper's heuristic alpha': its miss against the oracle
    # must equal its miss against the edge-matched closed form.
    paper_deviations = {
        gamma_pi: (row["richardson"] - row["closed"]) / row["closed"]
        for gamma_pi, row in oracle_data["rows"].items()
    }
    edge_terms = {
        gamma_pi: (row["exact"] - row["closed"]) / row["closed"]
        for gamma_pi, row in oracle_data["rows"].items()
    }
    failures = []
    for gamma_pi in sorted(gaps):
        gap = gaps[gamma_pi]
        if abs(gap) > 5e-2 or abs(gap) > 1e-4:
            failures.append(f"{gamma_pi}pi: oracle vs alpha_exact' {gap:+.2e}")
        mismatch = paper_deviations[gamma_pi] - edge_terms[gamma_pi]
        if abs(mismatch) > 1e-4:
            failures.append(
                f"{gamma_pi}pi: paper alpha' misses the oracle by "
                f"{paper_deviations[gamma_pi]:+.4%} but alpha_exact' by "
                f"{edge_terms[gamma_pi]:+.4%}"
            )
    worst = max(abs(g) for g in gaps.values())
    paper = ", ".join(
        f"{g}pi: {d:+.2%}" for g, d in sorted(paper_deviations.items())
    )
    report("9c [oracle vs edge-matched closed form <= 5%]", not failures,
           f"worst gap {worst:.1e} over {len(gaps)} rows; paper's heuristic "
           f"alpha' deviates by {paper}")
    assert not failures, (
        "The grid oracle (verified to 2e-10 against the analytic hard-wall "
        "transition sum) must match the edge-matched Dalgarno-Lewis closed "
        "form alpha_exact' within 5% and 1e-4 on every row, and the paper's "
        f"alpha' must miss it only by the edge-matching term: {failures}"
    )


def test_criterion_10_cli_determinism(capsys):
    commands = [
        ["table1"],
        ["table1", "--format", "json"],
        ["table2"],
        ["solve", "--gamma", "0.39pi", "--format", "json"],
        ["sweep", "--min", "0.39pi", "--max", "0.49pi", "--step", "0.02pi"],
        ["limits", "--mode", "delta"],
        ["limits", "--mode", "infinite"],
        ["oracle", "--hard-wall", "--num-points", "500"],
        ["oracle", "--R", "3.617018", "--num-points", "500"],
        ["calibrate"],
    ]
    failures = []
    for argv in commands:
        code_a = cli.main(argv)
        out_a = capsys.readouterr().out
        code_b = cli.main(argv)
        out_b = capsys.readouterr().out
        if out_a != out_b or code_a != code_b:
            failures.append(" ".join(argv))
        if code_a != 0:
            failures.append(f"{' '.join(argv)} exited {code_a}")
        json_like = argv[0] in ("limits", "oracle", "calibrate") or "json" in argv
        if json_like:
            json.loads(out_a)  # must stay parseable
    report("10 [CLI determinism]", not failures,
           f"{len(commands)} commands run twice, byte-identical output, each exit 0")
    assert not failures, failures
