"""Every public entry point keeps the input contract on any number.

Each test draws every real parameter from floats (nan, +-inf, subnormals,
+-0 and +-max among them), ints of up to 10^4 digits, bools and text (str,
bytes and bytearray, which ``float`` would parse), None, complex numbers,
an ``object()``, Decimals (NaN, sNaN, +-inf and 10^5000 among them),
Fractions (a 5,000-digit numerator among them) and numpy float32, float64
and int64 scalars.  It asserts that the call returns finite floats, the
same bits as the call on each number's ``float()``, or raises
``DomainError`` / ``NumericalError`` with a message under 300 characters:
never another exception, never a warning (pytest's ``filterwarnings =
error`` makes one an exception) and never a quietly non-finite value.  The
one exception is a breakdown's ``t_ratio``, which is nan exactly where its
alpha2' is 0.
The entry points that take a ``GroundState`` draw it through
``ground_state_from_R`` or ``ground_state_from_gamma``, so the numbers reach
them through the state's constructors.  ``OracleResult`` is drawn with its
first grid stopped: each draw must be refused, or else reach that grid.
Each ``@example`` is an input that returned a non-finite value, returned a
value for text or a bool, returned other bits than its float, or raised
another exception before its fix.
"""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
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
# No float holds 10^5000 as a Fraction; as a Decimal it is inf.  Python
# prints neither in 300 characters, nor the Fraction at all.
HUGE = [Decimal(10**5000), Fraction(10**5000, 3), Fraction(-(10**5000), 7)]
# What float() refuses, and numbers of other types than int and float.
OTHERS = st.one_of(
    st.sampled_from([None, 1j, complex(1.0, 0.0), object(), Decimal("NaN"), Decimal("sNaN"),
                     Decimal("-inf"), *HUGE]),
    st.decimals(),
    st.fractions(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
REALS = st.one_of(st.floats(), st.sampled_from(EDGES), LOG_UNIFORM, INTS, st.booleans(), TEXT,
                  OTHERS)
# Wells at which float32 strengths once computed in float32, or raised NumericalError.
FLOAT32_WELLS = [np.float32(R) for R in (0.01, 0.5, 1.0, 3.617018, 49.008061, 1e3, 1e6)]


def half(domain):
    """Half the draws from ``domain`` and half from ``REALS``.

    ``st.one_of`` would weigh each of REALS' seven branches as much as the domain.
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


def examples(*values):
    """One ``@example`` per value, for a test of one argument."""
    def apply(test):
        for value in values:
            test = example(value)(test)
        return test
    return apply


def as_float(arg):
    """``arg`` as the real-input gate takes it: a number as its float, a list item by item.

    Records pass as they are: they hold floats.
    """
    if isinstance(arg, list):
        return [float(item) for item in arg]
    return arg if isinstance(arg, tuple) else float(arg)


def bits(value):
    """``value`` with every float in it, in records, tuples and dicts too, as its hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return type(value), tuple(bits(item) for item in value)
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return value


def outcome(call, *args, reals=True):
    """The call's value, or None if it raised DomainError or NumericalError.

    A refusal says why in under 300 characters.  A bool or text among the
    arguments is always refused, and if the arguments are ``reals`` a value
    has the bits of the call on each argument's float.
    """
    try:
        value = call(*args)
    except (DomainError, NumericalError) as exc:
        assert len(str(exc)) < 300, exc
        return None
    assert not not_a_number(args), args
    assert not reals or bits(value) == bits(call(*map(as_float, args))), args
    return value


def assert_finite_float(value):
    assert type(value) is float and math.isfinite(value), value


def assert_finite_reals(values):
    # A record holds the float of each input, whatever its type.
    for value in values:
        assert type(value) is float and math.isfinite(value), values


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
@examples("1", *FLOAT32_WELLS, Decimal("1"), Decimal("NaN"), None)
def test_ground_state_from_R(R):
    assert_state(outcome(ground_state_from_R, R))


@CONTRACT
@given(REALS)
@examples("1", np.float32(0.39 * math.pi), np.float32(0.1), Decimal("1"), Fraction(1))
def test_ground_state_from_gamma(gamma0):
    assert_state(outcome(ground_state_from_gamma, gamma0))


@CONTRACT
@given(around(IN_DOMAIN.filter(lambda g: g <= GAMMA_MAX)
              .map(lambda g: tuple(ground_state_from_gamma(g)[:3])), 3))
@example(("1", 1.0, 1.0))
@example((1.0, b"1", 1.0))
@example((Decimal("1"), *ground_state_from_gamma(1.0)[1:3]))
@example((None, 1.0, 1.0))
def test_ground_state(args):
    assert_state(outcome(GroundState, *args))


@CONTRACT
@given(around(st.tuples(*[st.floats(-30.0, 30.0).map(lambda e: 10.0**e)] * 5), 5))
@example((1.0, 1.0, 1.0, 1.0, 1e-200))
@example((1e-10, 1.0, 1.0, 1.0, 2.2e-309))
@example(("1", 1.0, 1.0, 1.0))
@example((Decimal("1"), 1.0, 1.0, 1.0))
@example((1.0, 1.0, 1.0, 1.0, Decimal("1")))
@example((None, 1.0, 1.0, 1.0))
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
@examples(True, "1", Decimal("1"), np.float32(1.0))
def test_default_c_prime(gamma0):
    value = outcome(default_c_prime, gamma0)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(REALS)
@examples(1e308, MAX, "1", None)
def test_alpha2_prime_hard_wall(c_prime):
    value = outcome(alpha2_prime_hard_wall, c_prime)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(REALS)
@examples("1", None, 1j, object(), Decimal(10**5000))
def test_calibrate_C(target):
    value = outcome(calibrate_C, target)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(half(st.integers(min_value=-2, max_value=10**40)))
@example(34 * 10**37)
@example(34 * 10**37 + 2)
def test_infinite_well_term(n):
    value = outcome(infinite_well_term, n, reals=False)
    if value is not None:
        assert_finite_float(value)


@CONTRACT
@given(half(st.integers(min_value=1, max_value=400)))
def test_infinite_well_alpha(num_terms):
    value = outcome(infinite_well_alpha, num_terms, reals=False)
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
@example([1.0, 2.0], Decimal("0.25"))
@example([1.0], Decimal("NaN"))
@example([None], 0.25)
@example([1.0], None)
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
@example(Decimal("3.617018"), 2000, 2)
@example(np.float32(3.617018), 2000, 2)
def test_oracle_result(well_R, num_points, levels):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_oracle, "_grid", stop_at_grid)
        try:
            outcome(OracleResult, well_R, num_points, levels, reals=False)
        except GridBuilt:
            pass


# hypothesis prints each explicit example, and Python prints no Fraction past
# 4,300 digits, so the numbers of HUGE are checked here, not as @example.
@pytest.mark.parametrize(
    "call",
    [ground_state_from_R, ground_state_from_gamma, lambda v: GroundState(v, 1.0, 1.0),
     lambda v: WellSpec(1.0, 1.0, 1.0, v), default_c_prime, alpha2_prime_hard_wall, calibrate_C,
     lambda v: extrapolate([v], 0.25), lambda v: extrapolate([1.0], v), OracleResult],
    ids=["ground_state_from_R", "ground_state_from_gamma", "GroundState", "WellSpec",
         "default_c_prime", "alpha2_prime_hard_wall", "calibrate_C", "extrapolate-values",
         "extrapolate-ratio", "OracleResult"],
)
@pytest.mark.parametrize("value", HUGE, ids=["Decimal", "Fraction", "negative-Fraction"])
def test_huge_numbers_are_refused_in_a_short_message(call, value):
    # The Fractions' refusals raised ValueError printing them, and calibrate_C
    # printed all 5,000 digits of the Decimal.
    assert outcome(call, value) is None


@pytest.mark.parametrize(
    "well_R", [Decimal("3.617018"), np.float32(3.617018), Fraction(3617018, 10**6)],
    ids=["Decimal", "float32", "Fraction"],
)
def test_oracle_studies_any_real_well_at_its_float(well_R):
    # The Decimal raised TypeError, and the float32 well NumericalError: the
    # study computed in the input's own type.  The record keeps the input.
    study, real = OracleResult(well_R, 600), OracleResult(float(well_R), 600)
    assert study.well_R is well_R
    assert bits(study[1:]) == bits(real[1:])
