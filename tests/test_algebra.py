"""Exact polynomial layer: rationals, multivariate polynomials, Hermite basis."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit.algebra import (
    ParamPoly,
    double_factorial,
    hermite,
    hermite_expand,
    param_eval,
    real_roots,
)

# ---------------------------------------------------------------------------
# double factorial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,value",
    [(1, 1), (3, 3), (5, 15), (7, 105), (9, 945), (19, 654729075)],
)
def test_double_factorial_odd_values(n, value):
    assert double_factorial(n) == value


def test_double_factorial_rejects_even_and_small():
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(-1)


# ---------------------------------------------------------------------------
# Hermite polynomials (unit leading coefficient, weight e^{-x^2/2})
# ---------------------------------------------------------------------------


def test_hermite_low_degree_tables():
    assert hermite(0).coefficients == (Fraction(1),)
    assert hermite(1).coefficients == (Fraction(0), Fraction(1))
    assert hermite(2).coefficients == (Fraction(-1), Fraction(0), Fraction(1))
    assert hermite(3).coefficients == (
        Fraction(0),
        Fraction(-3),
        Fraction(0),
        Fraction(1),
    )
    assert hermite(4).coefficients == (
        Fraction(3),
        Fraction(0),
        Fraction(-6),
        Fraction(0),
        Fraction(1),
    )
    assert hermite(5).coefficients == (
        Fraction(0),
        Fraction(15),
        Fraction(0),
        Fraction(-10),
        Fraction(0),
        Fraction(1),
    )


@given(st.integers(min_value=1, max_value=15))
def test_hermite_three_term_recurrence(p):
    """H_{p+1}(x) = x H_p(x) - p H_{p-1}(x), checked coefficientwise."""
    left = list(hermite(p + 1).coefficients)
    shifted = [Fraction(0)] + list(hermite(p).coefficients)
    lower = list(hermite(p - 1).coefficients) + [Fraction(0), Fraction(0)]
    for k in range(p + 2):
        assert left[k] == shifted[k] - p * lower[k]


@given(
    st.integers(min_value=0, max_value=12),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
)
def test_hermite_evaluation_matches_recurrence(p, x):
    by_coeffs = sum(c * x**k for k, c in enumerate(hermite(p).coefficients))
    prev, cur = Fraction(1), x
    if p == 0:
        assert by_coeffs == 1
        return
    for k in range(1, p):
        prev, cur = cur, x * cur - k * prev
    assert by_coeffs == cur


def test_hermite_rejects_negative_degree():
    with pytest.raises(ValueError):
        hermite(-1)


def test_hermite_expand_basics():
    # x^2 = H_2 + 1 and x^3 = H_3 + 3 H_1
    assert hermite_expand((0, 0, 1)) == {2: Fraction(1), 0: Fraction(1)}
    assert hermite_expand((0, 0, 0, 1)) == {3: Fraction(1), 1: Fraction(3)}


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=1,
        max_size=9,
    )
)
def test_hermite_expand_round_trip(coeffs):
    """Expanding in the Hermite basis and recombining returns the input."""
    expansion = hermite_expand(tuple(coeffs))
    degree = len(coeffs) - 1
    rebuilt = [Fraction(0)] * (degree + 1)
    for order, weight in expansion.items():
        for k, c in enumerate(hermite(order).coefficients):
            rebuilt[k] += weight * c
    padded = list(coeffs) + [Fraction(0)] * (degree + 1 - len(coeffs))
    assert rebuilt == [Fraction(c) for c in padded]


# ---------------------------------------------------------------------------
# ParamPoly
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)

# Dense exponent tuples (e_a, e_rho) mapped to coefficients.
dense_terms = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    ),
    small_fractions,
    max_size=4,
)


def poly_strategy(variables=("a", "rho")):
    return dense_terms.map(lambda terms: ParamPoly(variables, terms))


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60)
def test_parampoly_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == ParamPoly.constant(0)


def test_parampoly_constants_are_variable_free():
    a = ParamPoly.variable("a")
    squeezed = a - a + 5
    assert squeezed.is_constant
    assert squeezed.variables == ()
    assert squeezed.constant_value() == 5
    assert squeezed == ParamPoly.constant(5)


def test_parampoly_coefficient_extraction():
    a = ParamPoly.variable("a")
    rho = ParamPoly.variable("rho")
    p = 7200 * a**2 * rho**2 + 864000 * a * rho + 66960000
    assert p.coefficient(a=2, rho=2) == 7200
    assert p.coefficient(a=1, rho=1) == 864000
    assert p.coefficient() == 66960000
    assert p.coefficient(a=2) == 0  # a^2 rho^0 is absent


def test_parampoly_substitute_and_degree():
    a = ParamPoly.variable("a")
    rho = ParamPoly.variable("rho")
    p = a * rho**2 + 3 * rho
    assert p.degree() == 3
    assert ParamPoly.constant(5).degree() == 0
    at_two = p.substitute("a", 2)
    assert at_two == 2 * rho**2 + 3 * rho
    assert p.substitute("rho", Fraction(1, 2)) == a * Fraction(1, 4) + Fraction(3, 2)


def test_parampoly_derivative_product_rule():
    a = ParamPoly.variable("a")
    rho = ParamPoly.variable("rho")
    f = a**2 * rho + 1
    g = rho**3 - a
    lhs = (f * g).derivative("rho")
    rhs = f.derivative("rho") * g + f * g.derivative("rho")
    assert lhs == rhs


@given(
    poly_strategy(),
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
)
@settings(max_examples=40)
def test_param_eval_exact_vs_float(p, aval, rhoval):
    """Float evaluation agrees with exact evaluation on dyadic-friendly points."""
    exact = param_eval(p, {"a": aval, "rho": rhoval})
    approx = param_eval(p, {"a": float(aval), "rho": float(rhoval)})
    assert isinstance(exact, Fraction)
    assert abs(float(exact) - approx) <= 1e-9 * (1.0 + abs(approx))


def test_param_eval_requires_all_variables():
    a = ParamPoly.variable("a")
    with pytest.raises(ValueError):
        param_eval(a + 1, {})


def _dense_horner(variables, items, assignment) -> float:
    """Reference Horner evaluation on dense exponent tuples aligned with
    ``variables``; the float path of ParamPoly must match it bit for bit."""
    if not variables:
        return math.fsum(c for _, c in items) if items else 0.0
    x = float(assignment[variables[0]])
    rest = variables[1:]
    groups: dict[int, list] = {}
    for exps, c in items:
        groups.setdefault(exps[0], []).append((exps[1:], c))
    acc = 0.0
    for e in range(max(groups), -1, -1):
        acc = acc * x
        if e in groups:
            acc += _dense_horner(rest, groups[e], assignment)
    return acc


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@given(
    st.one_of(
        poly_strategy(),
        small_fractions.map(ParamPoly.constant),
        st.just(ParamPoly()),
    ),
    finite_floats,
    finite_floats,
)
@settings(max_examples=80)
def test_evaluate_float_matches_dense_horner_bitwise(p, aval, rhoval):
    assignment = {"a": aval, "rho": rhoval}
    variables = p.variables
    dense = [
        (tuple(dict(key).get(v, 0) for v in variables), float(c))
        for key, c in p.terms.items()
    ]
    expected = _dense_horner(variables, dense, assignment)
    assert _bits(p.evaluate_float(assignment)) == _bits(expected)


@given(dense_terms)
@settings(max_examples=60)
def test_parampoly_is_independent_of_variable_order(terms):
    forward = ParamPoly(("a", "rho"), terms)
    swapped = ParamPoly(("rho", "a"), {(r, a): c for (a, r), c in terms.items()})
    assert forward.terms == swapped.terms
    assert forward == swapped
    assert str(forward) == str(swapped)


def test_parampoly_str_is_canonical():
    rho = ParamPoly.variable("rho")
    p = 24000 * rho**3 + 3240 + 21600 * rho**2 + 12960 * rho
    assert str(p) == "3240 + 12960*rho + 21600*rho^2 + 24000*rho^3"


# ---------------------------------------------------------------------------
# real_roots
# ---------------------------------------------------------------------------


def test_real_roots_cubic_with_known_roots():
    x = ParamPoly.variable("x")
    p = (x - 1) * (x - 2) * (x - 3)
    roots = real_roots(p, (0.0, 4.0))
    assert len(roots) == 3
    for found, expected in zip(roots, (1.0, 2.0, 3.0)):
        assert abs(found - expected) < 1e-12


def test_real_roots_touching_zero():
    x = ParamPoly.variable("x")
    roots = real_roots(x * x, (-1.0, 1.0))
    assert any(abs(r) < 1e-9 for r in roots)


def test_real_roots_no_roots():
    x = ParamPoly.variable("x")
    assert real_roots(x * x + 1, (-10.0, 10.0)) == []


def test_real_roots_validates_input():
    x = ParamPoly.variable("x")
    y = ParamPoly.variable("y")
    with pytest.raises(ValueError):
        real_roots(x + y, (0.0, 1.0))
    with pytest.raises(ValueError):
        real_roots(x, (1.0, -1.0))


def test_real_roots_increasing_cubic_single_root():
    # 200 rho^3 + 180 rho^2 + 108 rho + 27 has exactly one real root in [-1, 1]
    rho = ParamPoly.variable("rho")
    p = 200 * rho**3 + 180 * rho**2 + 108 * rho + 27
    roots = real_roots(p, (-1.0, 1.0))
    assert len(roots) == 1
    value = param_eval(p, {"rho": roots[0]})
    assert abs(value) < 1e-9
