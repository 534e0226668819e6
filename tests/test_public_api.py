"""The public names of the package and of its modules, and the settable values.

The package re-exports what the README's examples import, plus the error
classes; everything else is imported from its module.  The oracle's grid
and probe fields and the limit studies' starting points and step counts are
derived or fixed, and the result types take only their independent inputs
(a breakdown its state, an oracle result its config and level count, a
limit study nothing), so their signatures are
pinned, and so are the CLI's options: a removed knob or a derived field
cannot come back unnoticed.
"""

import argparse
import inspect
import math

import pytest

import wellpol
from wellpol import conventional_sum, dalgarno_lewis, grid_oracle, limits, well_spectrum
from wellpol.cli import build_parser
from wellpol.errors import DomainError

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
# (name, default) of every parameter; 10 settable values in all, 6 of them
# the result types' independent inputs: a breakdown takes its state, an
# oracle result its config and level count, and a limit study nothing.  hard_wall's num_states is checked but unused
# (ROADMAP item 4 removes it).
REQUIRED = inspect.Parameter.empty
SIGNATURES = {
    "GridOracleConfig": [("well_R", REQUIRED), ("num_points", 2000)],
    "GridOracleConfig.hard_wall": [("num_points", 2000), ("num_states", 200)],
    "delta_limit": [],
    "infinite_well_limit": [],
    "GroundState": [("gamma0", REQUIRED), ("beta0", REQUIRED), ("R", REQUIRED)],
    "PolarizabilityBreakdown": [("state", REQUIRED)],
    "DeltaLimitSequence": [],
    "InfiniteWellLimitReport": [],
    "OracleResult": [("config", REQUIRED), ("levels", 2)],
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
    "OracleResult": grid_oracle.OracleResult,
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
    assert sum(map(len, SIGNATURES.values())) == 10


def test_verbs_are_the_record_types():
    # No wrapper function is left to build a record from values of its own.
    assert dalgarno_lewis.breakdown is dalgarno_lewis.PolarizabilityBreakdown
    assert limits.delta_limit is limits.DeltaLimitSequence
    assert limits.infinite_well_limit is limits.InfiniteWellLimitReport
    assert grid_oracle.oracle_study is grid_oracle.OracleResult


@pytest.mark.parametrize(
    "make",
    [
        lambda: dalgarno_lewis.PolarizabilityBreakdown(0.25, 0.5, 0.125, 1.0),
        lambda: limits.DeltaLimitSequence((0.5, 0.25), (1.0, 1.125), (0.5, 0.25)),
        lambda: limits.InfiniteWellLimitReport((0.01, 0.0001), (0.5, 0.25), (1.0, 0.75),
                                               (0.25, 0.125)),
        lambda: grid_oracle.OracleResult(0.5, 0.5, -1.0, 0.5),
    ],
    ids=["PolarizabilityBreakdown", "DeltaLimitSequence", "InfiniteWellLimitReport",
         "OracleResult"],
)
def test_records_refuse_their_derived_values_as_inputs(make):
    # A breakdown, a limit study or an oracle result that no well has cannot be built.
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: grid_oracle.GridOracleConfig(None, num_points=True), "num_points"),
        (lambda: grid_oracle.OracleResult(grid_oracle.GridOracleConfig.hard_wall(500),
                                          levels=True), "levels"),
        (lambda: conventional_sum.infinite_well_alpha(True), "num_terms"),
        (lambda: conventional_sum.infinite_well_term(True), "transition index"),
        (lambda: grid_oracle.GridOracleConfig.hard_wall(num_states=True), "num_states"),
    ],
    ids=["num_points", "levels", "num_terms", "transition_index", "num_states"],
)
def test_counts_refuse_true(make, name):
    # bool is an int subclass, but True is not the count 1.
    with pytest.raises(DomainError, match=f"^{name} must be an integer >= \\d+, got True$"):
        make()


# Inputs that each constructor accepts; gamma0 tan(gamma0) = 1 at X_TAN_X_ONE.
X_TAN_X_ONE = 0.8603335890193797
WELL = (0.5, 2.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: well_spectrum.ground_state_from_R(True),
        lambda: well_spectrum.ground_state_from_gamma(True),
        lambda: well_spectrum.GroundState(True, math.tan(1.0), math.hypot(1.0, math.tan(1.0))),
        lambda: well_spectrum.GroundState(X_TAN_X_ONE, True, math.hypot(X_TAN_X_ONE, 1.0)),
        lambda: well_spectrum.GroundState(*well_spectrum.ground_state_from_R(1.0)[:2], True),
        lambda: grid_oracle.GridOracleConfig(well_R=True),
    ] + [
        lambda i=i: well_spectrum.WellSpec(*WELL[:i], True, *WELL[i + 1:])
        for i in range(len(WELL))
    ],
    ids=["ground_state_from_R", "ground_state_from_gamma", "gamma0", "beta0", "R",
         "well_R", "half_width", "depth", "mass", "charge", "hbar"],
)
def test_reals_refuse_true(make):
    # True == 1, so each call would otherwise build a record that holds True.
    with pytest.raises(DomainError, match="real number"):
        make()


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
