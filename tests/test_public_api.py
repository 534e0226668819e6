"""The public names of the package and of its closed-form modules.

The package re-exports what the README's examples import, plus the error
classes; everything else is imported from its module.
"""

import pytest

import wellpol
from wellpol import dalgarno_lewis, well_spectrum

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


@pytest.mark.parametrize(
    "module, names",
    [(wellpol, PACKAGE), (dalgarno_lewis, DALGARNO_LEWIS), (well_spectrum, WELL_SPECTRUM)],
    ids=["wellpol", "dalgarno_lewis", "well_spectrum"],
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
