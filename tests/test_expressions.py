import cmath
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhcircles import EvalError, ParseError
from rhcircles.expressions import parse_expression


def ev(text, z=0j, functions=None):
    return parse_expression(text, functions)(z)


def test_number_literals():
    assert ev("2") == 2.0
    assert ev("2.5") == 2.5
    assert ev("1e-3") == 1e-3
    assert ev(".5") == 0.5
    assert ev("2i") == 2j
    assert ev("1.5e2i") == 150j
    assert ev("i") == 1j
    assert abs(ev("pi") - cmath.pi) < 1e-15
    assert abs(ev("e") - cmath.e) < 1e-15


def test_precedence_and_associativity():
    assert ev("1+2*3") == 7.0
    assert ev("2^3^2") == 512.0
    assert ev("2**3**2") == 512.0
    assert ev("-2^2") == -4.0
    assert ev("(1+2)*3") == 9.0
    assert ev("8/4/2") == 1.0
    assert ev("--3") == 3.0
    assert ev("2*-3") == -6.0


def test_variable_and_builtins():
    f = parse_expression("(z - 0.4)/(z - 2.5)")
    assert abs(f(1.0) - 0.6 / (-1.5)) < 1e-15
    assert abs(ev("exp(i*pi)", 0.0) + 1.0) < 1e-15
    assert ev("conj(z)", 1 + 2j) == 1 - 2j


def test_registered_functions():
    f = parse_expression("1 - r(z)*conj(r(1/conj(z)))", {"r": lambda w: 0.3 * w})
    z = 0.5 + 0.25j
    # conj(r(1/conj(z))) = conj(0.3/conj(z)) = 0.3/z for this r
    assert abs(f(z) - (1 - 0.09)) < 1e-15


def test_evaluator_reports_source():
    f = parse_expression("z^2")
    assert f.source == "z^2"


def test_eval_errors():
    f = parse_expression("1/z")
    with pytest.raises(EvalError):
        f(0.0)
    with pytest.raises(EvalError):
        parse_expression("exp(z)")(1e6)
    with pytest.raises(EvalError):
        parse_expression("z^z")(1e300)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expression("1 + ?")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("2 3")
    with pytest.raises(ParseError):
        parse_expression("nope")
    with pytest.raises(ParseError):
        parse_expression("sin(z)")
    with pytest.raises(ParseError):
        parse_expression("(1 + 2")
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("1 +")


def test_too_deep_expressions_are_typed_errors():
    # 400 nested parentheses take the parser past the recursion limit
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expression("(" * 400 + "2" + ")" * 400)
    # a long sum parses in a loop but evaluates as a chain of closures
    f = parse_expression("2" + "+z/1000" * 3000)
    with pytest.raises(EvalError, match="nested too deeply to evaluate"):
        f(0.5)
    with pytest.raises(EvalError, match="nested too deeply to evaluate"):
        f(np.array([0.5, 2.0]))


@given(
    st.lists(
        st.integers(min_value=-5, max_value=5), min_size=1, max_size=5
    ),
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    ),
)
def test_polynomials_match_horner(coeffs, z):
    text = " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))
    got = parse_expression(text)(z)
    want = 0j
    for c in reversed(coeffs):
        want = want * z + c
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


_LEAVES = st.sampled_from(["z", "i", "2", "0.5", "3i", "pi"])


def _combine(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    )
    power = st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
        lambda t: f"({t[0]})^({t[1]})"
    )
    calls = st.tuples(st.sampled_from(["exp", "conj", "-"]), children).map(
        lambda t: f"{t[0]}({t[1]})"
    )
    return st.one_of(binary, power, calls)


@given(
    st.recursive(_LEAVES, _combine, max_leaves=8),
    st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
)
def test_array_evaluation_matches_pointwise(text, points):
    f = parse_expression(text)
    want, first_bad = [], None
    for k, z in enumerate(points):
        try:
            want.append(f(z))
        except EvalError:
            first_bad = k
            break
    if first_bad is not None:
        named = re.escape(f"z = {complex(points[first_bad])}")
        with pytest.raises(EvalError, match=named):
            f(np.array(points))
        return
    got = f(np.array(points))
    assert got.shape == (len(points),)
    for g, w in zip(got, want):
        assert isinstance(w, complex)
        assert abs(g - w) <= 1e-15 * abs(w)


def test_array_names_its_first_singular_point():
    f = parse_expression("1/((z - 1)*(z + 1))")
    with pytest.raises(EvalError, match=re.escape("z = (-1+0j)")):
        f(np.array([0.5, -1.0, 1.0]))
    assert f(np.array([0.5, 2.0])).shape == (2,)


def test_constant_division_by_zero_is_an_eval_error():
    f = parse_expression("z + 1/0")
    with pytest.raises(EvalError):
        f(0.5)
    with pytest.raises(EvalError):
        f(np.array([0.5, 2.0]))


def test_constant_expression_takes_the_shape_of_its_points():
    got = parse_expression("2 - i")(np.zeros((2, 3)))
    assert got.shape == (2, 3) and np.all(got == 2 - 1j)
    assert parse_expression("2 - i")(0.0) == 2 - 1j
