"""The public names of the package and of its modules, and the settable values.

The package re-exports what the README's examples import, plus the error
classes; everything else is imported from its module.  The oracle's grid
and probe fields and the limit studies' starting points are derived or
fixed, so their signatures are pinned: a removed knob cannot come back
unnoticed.
"""

import inspect

import pytest

import wellpol
from wellpol import dalgarno_lewis, grid_oracle, limits, well_spectrum

PACKAGE = {
    "breakdown",
    "ground_state_from_R",
    "ground_state_from_gamma",
    "WellSpec",
    "ConfigurationError",
    "ConvergenceWarning",
    "DomainError",
    "FieldTooLargeError",
    "NumericalError",
}
DALGARNO_LEWIS = {
    "HARD_WALL_ALPHA_COEFF",
    "PhiReduced",
    "PolarizabilityBreakdown",
    "default_c_prime",
    "phi_reduced",
    "phi_jump",
    "alpha1_prime",
    "alpha2_prime",
    "alpha2_t_prime",
    "alpha_exact_prime",
    "alpha2_prime_hard_wall",
    "alpha_apr_prime",
    "breakdown",
    "alpha_via_quadrature",
    "orthogonality",
}
WELL_SPECTRUM = {
    "GAMMA_MAX",
    "GAMMA_MIN",
    "WellSpec",
    "GroundState",
    "normalization_sq",
    "ground_state_from_R",
    "ground_state_from_gamma",
}
GRID_ORACLE = {
    "GridOracleConfig",
    "SpectrumResult",
    "OracleResult",
    "solve_spectrum",
    "oracle_study",
}
LIMITS = {
    "extrapolate",
    "DeltaLimitSequence",
    "InfiniteWellLimitReport",
    "delta_limit",
    "infinite_well_limit",
}
# (name, default) of every parameter; 7 settable values in all.
SIGNATURES = {
    "GridOracleConfig": [
        ("well_R", inspect.Parameter.empty),
        ("box_half_width", None),
        ("num_points", 2000),
        ("num_states", 200),
    ],
    "GridOracleConfig.hard_wall": [("num_points", 2000), ("num_states", 200)],
    "delta_limit": [("steps", 12)],
    "infinite_well_limit": [],
}
CALLABLES = {
    "GridOracleConfig": grid_oracle.GridOracleConfig,
    "GridOracleConfig.hard_wall": grid_oracle.GridOracleConfig.hard_wall,
    "delta_limit": limits.delta_limit,
    "infinite_well_limit": limits.infinite_well_limit,
}


@pytest.mark.parametrize(
    "module, names",
    [
        (wellpol, PACKAGE),
        (dalgarno_lewis, DALGARNO_LEWIS),
        (well_spectrum, WELL_SPECTRUM),
        (grid_oracle, GRID_ORACLE),
        (limits, LIMITS),
    ],
    ids=["wellpol", "dalgarno_lewis", "well_spectrum", "grid_oracle", "limits"],
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
