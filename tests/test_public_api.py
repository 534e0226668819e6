"""The public names of the package and of its modules, and the settable values.

The package re-exports what the README's examples import, plus the error
classes; everything else is imported from its module.  The oracle's grid
and probe fields and the limit studies' starting points and step counts are
derived or fixed, and the result types take only their independent inputs,
so their signatures are pinned, and so are the CLI's options: a removed
knob or a derived field cannot come back unnoticed.
"""

import argparse
import inspect

import pytest

import wellpol
from wellpol import conventional_sum, dalgarno_lewis, grid_oracle, limits, well_spectrum
from wellpol.cli import build_parser

PACKAGE = {
    "breakdown",
    "ground_state_from_R",
    "ground_state_from_gamma",
    "WellSpec",
    "ConvergenceWarning",
    "DomainError",
    "NumericalError",
}
# 8 names; the pieces alpha1', alpha2', alpha2_t' and alpha_apr' come only
# from ``breakdown``, and phi_jump takes the state, phi' being fixed by it.
DALGARNO_LEWIS = {
    "PolarizabilityBreakdown",
    "default_c_prime",
    "phi_jump",
    "alpha_exact_prime",
    "alpha2_prime_hard_wall",
    "breakdown",
    "alpha_via_quadrature",
    "orthogonality",
}
WELL_SPECTRUM = {
    "GAMMA_MAX",
    "GAMMA_MIN",
    "WellSpec",
    "GroundState",
    "ground_state_from_R",
    "ground_state_from_gamma",
}
GRID_ORACLE = {"GridOracleConfig", "OracleResult", "oracle_study"}
CONVENTIONAL_SUM = {"infinite_well_term", "infinite_well_alpha", "calibrate_C"}
LIMITS = {
    "extrapolate",
    "DeltaLimitSequence",
    "InfiniteWellLimitReport",
    "delta_limit",
    "infinite_well_limit",
}
# (name, default) of every parameter; 18 settable values in all, 14 of
# them the result types' independent inputs.  hard_wall's num_states is
# checked but unused (ROADMAP item 4 removes it).
REQUIRED = inspect.Parameter.empty
SIGNATURES = {
    "GridOracleConfig": [("well_R", REQUIRED), ("num_points", 2000)],
    "GridOracleConfig.hard_wall": [("num_points", 2000), ("num_states", 200)],
    "delta_limit": [],
    "infinite_well_limit": [],
    "GroundState": [("gamma0", REQUIRED), ("beta0", REQUIRED), ("R", REQUIRED)],
    "PolarizabilityBreakdown": [
        ("alpha1_prime", REQUIRED),
        ("alpha2_prime", REQUIRED),
        ("alpha2_t_prime", REQUIRED),
        ("alpha_apr_prime", REQUIRED),
    ],
    "DeltaLimitSequence": [
        ("a_values", REQUIRED),
        ("alpha1_scaled", REQUIRED),
        ("alpha2_scaled", REQUIRED),
    ],
    "InfiniteWellLimitReport": [
        ("epsilons", REQUIRED),
        ("alpha1_values", REQUIRED),
        ("alpha2_values", REQUIRED),
        ("alpha2_t_values", REQUIRED),
    ],
}
# Option strings of each subcommand, --help aside; 20 in all.
CLI_OPTIONS = {
    "table1": ["--format", "--output"],
    "table2": ["--format", "--output"],
    "solve": ["--gamma", "--R", "--format", "--output"],
    "sweep": ["--min", "--max", "--step", "--format", "--output"],
    "limits": ["--mode", "--output"],
    "oracle": ["--R", "--hard-wall", "--num-points", "--output"],
    "calibrate": ["--output"],
}
CALLABLES = {
    "GridOracleConfig": grid_oracle.GridOracleConfig,
    "GridOracleConfig.hard_wall": grid_oracle.GridOracleConfig.hard_wall,
    "delta_limit": limits.delta_limit,
    "infinite_well_limit": limits.infinite_well_limit,
    "GroundState": well_spectrum.GroundState,
    "PolarizabilityBreakdown": dalgarno_lewis.PolarizabilityBreakdown,
    "DeltaLimitSequence": limits.DeltaLimitSequence,
    "InfiniteWellLimitReport": limits.InfiniteWellLimitReport,
}


@pytest.mark.parametrize(
    "module, names",
    [
        (wellpol, PACKAGE),
        (dalgarno_lewis, DALGARNO_LEWIS),
        (well_spectrum, WELL_SPECTRUM),
        (grid_oracle, GRID_ORACLE),
        (limits, LIMITS),
        (conventional_sum, CONVENTIONAL_SUM),
    ],
    ids=["wellpol", "dalgarno_lewis", "well_spectrum", "grid_oracle", "limits",
         "conventional_sum"],
)
def test_all_is_pinned_and_resolves(module, names):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == names
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_star_import_gives_exactly_the_package_names():
    namespace = {}
    exec("from wellpol import *", namespace)
    assert set(namespace) - {"__builtins__"} == PACKAGE


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_settable_values_are_pinned(name):
    params = inspect.signature(CALLABLES[name]).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[name]


def test_settable_value_count():
    assert sum(map(len, SIGNATURES.values())) == 18


def test_cli_options_are_pinned():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [o for action in sub._actions for o in action.option_strings
               if o not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 20
