"""Every closed-form public entry point keeps the input contract on any number.

Each test draws from floats (nan, +-inf, subnormals, +-0 and +-max among
them), ints of up to 10^4 digits, bools and text (str, bytes and
bytearray, which ``float`` would parse), and asserts that the call returns
finite floats or raises ``DomainError`` / ``NumericalError``: never another
exception and never a quietly non-finite value.  The one exception
is a breakdown's ``t_ratio``, which is nan exactly where its alpha2' is 0.
The entry points that take a ``GroundState`` draw it through
``ground_state_from_R`` or ``ground_state_from_gamma``, so the numbers reach
them through the state's constructors.  ``OracleResult`` is drawn with its
first grid stopped: each draw must be refused, or else reach that grid.
Each ``@example`` is an input that returned a non-finite value, returned a
value for text or a bool, or raised another exception before its fix.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from wellpol import grid_oracle
from wellpol.conventional_sum import calibrate_C, infinite_well_alpha, infinite_well_term
from wellpol.dalgarno_lewis import (
    alpha2_prime_hard_wall,
    alpha_exact_prime,
    alpha_via_quadrature,
    breakdown,
    default_c_prime,
    phi_jump,
)
from wellpol.errors import DomainError, NumericalError
from wellpol.grid_oracle import OracleResult
from wellpol.limits import extrapolate
from wellpol.well_spectrum import (
    GAMMA_MAX,
    GAMMA_MIN,
    GroundState,
    WellSpec,
    ground_state_from_R,
    ground_state_from_gamma,
)

MAX = sys.float_info.max
EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, sys.float_info.min,
         MAX, -MAX, GAMMA_MIN, GAMMA_MAX, 0.5 * math.pi]
INTS = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-(10**10_000 - 1), max_value=10**10_000 - 1),
)
# Plain floats spread over every exponent, so log-uniform draws also reach
# the ranges where a value is computed, not refused: any positive float, and
# the strengths and phases of the states, up to next to the hard wall.
LOG_UNIFORM = st.floats(min_value=-320.0, max_value=308.25).map(lambda e: 10.0**e)
IN_DOMAIN = st.one_of(
    st.floats(min_value=-30.0, max_value=12.0).map(lambda e: 10.0**e),
    st.floats(min_value=1e-9, max_value=1.0).map(lambda d: 0.5 * math.pi - d),
)
# Text that float() parses, and any other.
TEXT = st.one_of(st.sampled_from(["1", "0.25", "nan", "1e400", b"1", bytearray(b"2")]),
                 st.text(max_size=8), st.binary(max_size=8))
REALS = st.one_of(st.floats(), st.sampled_from(EDGES), LOG_UNIFORM, INTS, st.booleans(), TEXT)


def half(domain):
    """Half the draws from ``domain`` and half from ``REALS``.

    ``st.one_of`` would weigh each of REALS' six branches as much as the domain.
    """
    return st.booleans().flatmap(lambda inside: domain if inside else REALS)


# A state from a drawn number by either constructor; refused numbers count.
STATE_INPUTS = st.tuples(
    st.sampled_from([ground_state_from_R, ground_state_from_gamma]), half(IN_DOMAIN)
)
CONTRACT = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def around(valid, size):
    """Argument tuples of ``size``: any reals, a ``valid`` draw, or one with an argument replaced."""
    return st.one_of(
        st.tuples(*[REALS] * size),
        valid,
        st.builds(lambda args, i, value: args[:i] + (value,) + args[i + 1:],
                  valid, st.integers(0, size - 1), REALS),
    )


def not_a_number(args) -> bool:
    """Whether ``args``, or a list or tuple among them, holds a bool or text."""
    return any(isinstance(a, (bool, str, bytes, bytearray))
               or isinstance(a, (list, tuple)) and not_a_number(a) for a in args)


def outcome(call, *args):
    """The call's value, or None if it raised DomainError or NumericalError.

    A bool or text among the arguments is always refused.
    """
    try:
        value = call(*args)
    except (DomainError, NumericalError):
        return None
    assert not not_a_number(args), args
    return value


def assert_finite_float(value):
    assert type(value) is float and math.isfinite(value), value


def assert_finite_reals(values):
    # A record keeps its inputs as given, so an int input is a field too.
    for value in values:
        assert type(value) in (int, float) and math.isfinite(value), values


def assert_state(state):
    if state is not None:
        assert type(state) is GroundState
        assert_finite_reals(state)


def state_call(func, make, value):
    """func(make(value)), or None if either raised DomainError or NumericalError."""
    state = outcome(make, value)
    return None if state is None else outcome(func, state)


@CONTRACT
@given(REALS)
@example("1")
def test_ground_state_from_R(R):
    assert_state(outcome(ground_state_from_R, R))


@CONTRACT
@given(REALS)
@example("1")
def test_ground_state_from_gamma(gamma0):
    assert_state(outcome(ground_state_from_gamma, gamma0))


@CONTRACT
@given(around(IN_DOMAIN.filter(lambda g: g <= GAMMA_MAX)
              .map(lambda g: tuple(ground_state_from_gamma(g)[:3])), 3))
@example(("1", 1.0, 1.0))
@example((1.0, b"1", 1.0))
def test_ground_state(args):
    assert_state(outcome(GroundState, *args))


@CONTRACT
@given(around(st.tuples(*[st.floats(-30.0, 30.0).map(lambda e: 10.0**e)] * 5), 5))
@example((1.0, 1.0, 1.0, 1.0, 1e-200))
@example((1e-10, 1.0, 1.0, 1.0, 2.2e-309))
@example(("1", 1.0, 1.0, 1.0))
def test_well_spec_and_its_derived_values(args):
    spec = outcome(WellSpec, *args)
    if spec is not None:
        assert_finite_reals(spec)
        assert_finite_float(spec.strength_R)
        assert_finite_float(spec.polarizability_unit)


@CONTRACT
@given(STATE_INPUTS)
def test_breakdown(state_input):
    bd = state_call(breakdown, *state_input)
    if bd is not None:
        assert_state(bd.state)
        assert_finite_reals(bd[1:-1])
        if bd.alpha2_prime == 0.0:
            assert math.isnan(bd.t_ratio)
        else:
            assert_finite_float(bd.t_ratio)


@CONTRACT
@given(STATE_INPUTS)
def test_alpha_exact_prime(state_input):
    value = state_call(alpha_exact_prime, *state_input)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(STATE_INPUTS)
def test_phi_jump(state_input):
    value = state_call(phi_jump, *state_input)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(STATE_INPUTS)
def test_alpha_via_quadrature(state_input):
    value = state_call(alpha_via_quadrature, *state_input)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(half(IN_DOMAIN))
@example(True)
@example("1")
def test_default_c_prime(gamma0):
    value = outcome(default_c_prime, gamma0)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(REALS)
@example(1e308)
@example(MAX)
@example("1")
def test_alpha2_prime_hard_wall(c_prime):
    value = outcome(alpha2_prime_hard_wall, c_prime)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(REALS)
@example("1")
def test_calibrate_C(target):
    value = outcome(calibrate_C, target)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(half(st.integers(min_value=-2, max_value=10**40)))
@example(34 * 10**37)
@example(34 * 10**37 + 2)
def test_infinite_well_term(n):
    value = outcome(infinite_well_term, n)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(half(st.integers(min_value=1, max_value=400)))
def test_infinite_well_alpha(num_terms):
    value = outcome(infinite_well_alpha, num_terms)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(
    st.one_of(st.lists(REALS, max_size=4),
              st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4)),
    half(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
)
@example([1e308, -1e308], 0.25)
@example([1e308, 1.7e308], 0.5)
@example([1.7e308, -1.7e308, 1.7e308], 1e-300)
@example([1.0], 10**5000)
@example("ab", 0.25)
@example([1.0], "0.25")
def test_extrapolate(values, ratio):
    value = outcome(extrapolate, values, ratio)
    if value is not None:
        assert_finite_float(value)


class GridBuilt(Exception):
    """Raised in place of the oracle's first grid: the study passed every refusal."""


def stop_at_grid(*args):
    raise GridBuilt


def counts(valid):
    """Counts from ``valid``, or ints of any size, bools, floats or text."""
    return st.one_of(valid, INTS, st.booleans(), st.floats(), TEXT)


@CONTRACT
@given(st.one_of(st.none(), half(IN_DOMAIN)), counts(st.integers(500, 5000)),
       counts(st.integers(2, 24)))
@example(None, 2000, 2)
@example(True, 2000, 2)
@example("1", 2000, 2)
@example(3.617018, "2000", 2)
@example(3.617018, 2000, 2.0)
def test_oracle_result(well_R, num_points, levels):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_oracle, "_grid", stop_at_grid)
        try:
            outcome(OracleResult, well_R, num_points, levels)
        except GridBuilt:
            pass
