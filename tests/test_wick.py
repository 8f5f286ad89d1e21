"""Gaussian moment engine: pairing recursion, conditional-moment cross-check,
polynomial expectations and cumulants."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import wick
from chaoskit.algebra import ParamPoly, double_factorial, param_eval
from chaoskit.chaos import ChaosElement, SymTensor, Tensor, contract, multiple_integral
from chaoskit.counterexamples import h1h5_positivity_certificate
from chaoskit.montecarlo import clt_experiment, family_point, sample_gaussian_polynomial
from chaoskit.wick import (
    CovSpec,
    DegreeCapError,
    GaussianPolynomial,
    cumulant,
    expectation,
    expectation_of_product,
    gaussian_moment,
    gaussian_moment_1d,
    gaussian_moment_bivariate_conditional,
)

# ---------------------------------------------------------------------------
# Raw moments
# ---------------------------------------------------------------------------


def test_moments_1d():
    assert gaussian_moment_1d(0) == 1
    assert gaussian_moment_1d(1) == 0
    assert gaussian_moment_1d(2) == 1
    assert gaussian_moment_1d(7) == 0
    assert gaussian_moment_1d(8) == 105
    assert gaussian_moment_1d(10) == 945


def test_identity_moments_factorize():
    cov = CovSpec.identity(3)
    m = gaussian_moment((4, 2, 6), cov)
    assert m.is_constant
    assert m.constant_value() == 3 * 1 * 15
    assert gaussian_moment((1, 2, 2), cov).constant_value() == 0


def test_bivariate_moment_small_cases():
    rho = ParamPoly.variable("rho")
    assert gaussian_moment((1, 1), CovSpec.bivariate()) == rho
    assert gaussian_moment((2, 2), CovSpec.bivariate()) == 1 + 2 * rho**2
    assert gaussian_moment((3, 3), CovSpec.bivariate()) == 9 * rho + 6 * rho**3
    assert gaussian_moment((2, 1), CovSpec.bivariate()) == ParamPoly.constant(0)


def test_conditional_moment_table():
    """Closed forms from integrating the conditional law U | V."""
    rho = ParamPoly.variable("rho")
    # E[U^2 V^{2k}] = (2k-1)!! (1 + 2k rho^2)
    for k in range(1, 6):
        expected = double_factorial(2 * k - 1) * (1 + 2 * k * rho**2)
        assert gaussian_moment_bivariate_conditional(2, 2 * k) == expected
    # E[U V^{2k+1}] = (2k+1)!! rho
    for k in range(0, 5):
        expected = double_factorial(2 * k + 1) * rho
        assert gaussian_moment_bivariate_conditional(1, 2 * k + 1) == expected


def test_pairing_vs_conditional_all_degrees_to_20():
    """Two independent computations of E[U^n V^m] agree for every n + m <= 20.

    The pairing recursion enumerates Wick couplings; the conditional route
    integrates E[U^n | V] against one-dimensional moments.  Exact polynomial
    equality in rho, no tolerances.
    """
    cov = CovSpec.bivariate()
    for n in range(0, 21):
        for m in range(0, 21 - n):
            assert gaussian_moment((n, m), cov) == gaussian_moment_bivariate_conditional(n, m)


def test_gaussian_moment_validates():
    with pytest.raises(ValueError):
        gaussian_moment((-1, 2), CovSpec.bivariate())
    with pytest.raises(ValueError):
        gaussian_moment((1, 2, 3), CovSpec.bivariate())  # wrong arity
    cov = CovSpec.identity(3)
    for index, power in ((-1, 1), (3, 1), (0, -1)):
        with pytest.raises(ValueError):
            GaussianPolynomial.coordinate(cov, index, power)
    with pytest.raises(TypeError):
        GaussianPolynomial.coordinate(cov, 1.0)
    for terms in ({(1, 0): 1}, {(1, 0, 0, 2): 1}, {(1, -1, 0): 1}):  # arity, sign
        with pytest.raises(ValueError):
            GaussianPolynomial(cov, terms)
    for n, m in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            gaussian_moment_bivariate_conditional(n, m)
    assert GaussianPolynomial.coordinate(cov, 2, 0) == GaussianPolynomial.constant(cov, 1)


def test_degree_cap_guard():
    cov = CovSpec.identity(1)
    with pytest.raises(DegreeCapError):
        gaussian_moment((201,), cov)
    with pytest.raises(DegreeCapError):
        gaussian_moment_bivariate_conditional(21, 20)
    f = GaussianPolynomial.coordinate(cov, 0, 21)
    with pytest.raises(DegreeCapError):
        expectation_of_product(f, f)
    with pytest.raises(DegreeCapError):
        cumulant(GaussianPolynomial.coordinate(cov, 0, 7), 6)


def test_three_dimensional_rational_covariance():
    # cov with exact rational off-diagonals; moment symmetric under relabeling
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    cov = CovSpec([[1, half, third], [half, 1, 0], [third, 0, 1]])
    m = gaussian_moment((2, 1, 1), cov)
    assert m.is_constant
    # E[X^2 Y Z] = Var(X) E[YZ] + 2 E[XY] E[XZ] with E[YZ] = 0
    assert m.constant_value() == 2 * half * third


def test_covspec_rejects_asymmetry_and_names_the_entry():
    with pytest.raises(ValueError, match=r"not symmetric at \(2, 1\)"):
        CovSpec([[1, 0, 0], [0, 1, 5], [0, 4, 1]])
    with pytest.raises(ValueError, match=r"not symmetric at \(1, 0\)"):
        CovSpec([[1, 2], [3, 1]])
    for entries in ([], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match="square matrix"):
            CovSpec(entries)


def test_covspec_is_identity():
    assert CovSpec([[1, 0], [0, 1]]).is_identity
    assert not CovSpec([[1, 0], [0, 2]]).is_identity
    assert not CovSpec.bivariate().is_identity
    assert CovSpec.identity(3).is_identity
    assert CovSpec.identity(3) == CovSpec([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_identity_builds_no_rows_until_asked(monkeypatch):
    def no_rows(d, i):
        raise AssertionError("an identity entry row was built")

    monkeypatch.setattr(wick, "_unit_row", no_rows)
    big = CovSpec.identity(1 << 20)
    assert big.dimension == 1 << 20 and big.is_identity
    assert big == CovSpec.identity(1 << 20) and big != CovSpec.identity(3)
    # moments under the identity need neither rows nor a cache
    f = multiple_integral(SymTensor(1 << 20, 2, {(5, 9): 1}))
    assert expectation_of_product(f, f) == 4
    assert not f.cov._moment_cache


def test_identity_entries_on_request():
    for d in (1, 2, 5):
        rows = tuple(
            tuple(ParamPoly.constant(int(i == j)) for j in range(d)) for i in range(d)
        )
        cov = CovSpec.identity(d)
        assert cov.entries == rows
        assert cov.numeric_matrix() == [[float(i == j) for j in range(d)] for i in range(d)]
        assert cov == CovSpec(rows) and CovSpec(rows).is_identity


def test_cholesky_reproduces_matrix():
    for matrix in [
        [[1, Fraction(1, 2)], [Fraction(1, 2), 1]],  # CovSpec.bivariate(1/2)
        # a later diagonal entry is the larger, so the pivot rows swap
        [[1, 1], [1, 4]],
        [[1, 2, 0], [2, 9, 3], [0, 3, 4]],
    ]:
        factor = CovSpec(matrix).cholesky_factor()
        d = len(factor)
        product = [
            [sum(factor[i][k] * factor[j][k] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        for i in range(d):
            for j in range(d):
                assert abs(product[i][j] - matrix[i][j]) < 1e-12


def test_cholesky_handles_singular_psd():
    cov = CovSpec([[1, 1], [1, 1]])
    factor = cov.cholesky_factor()
    product = [
        [sum(factor[i][k] * factor[j][k] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    for i in range(2):
        for j in range(2):
            assert abs(product[i][j] - 1.0) < 1e-12


def test_cholesky_rejects_indefinite():
    # each message names the first negative diagonal entry left where the
    # factorization stops
    for matrix, pivot in [
        ([[1, 2], [2, 1]], "-3.000e+00"),
        ([[-2, 0], [0, -1]], "-1.000e+00"),
        ([[-1]], "-1.000e+00"),
        ([[4, 0, 0], [0, -3, 0], [0, 0, -5]], "-3.000e+00"),
        ([[0, 0], [0, -1]], "-1.000e+00"),
        # the zero pivot ends the factorization; the -1 below it is found late
        ([[1, 1, 0], [1, 1, 0], [0, 0, -1]], "-1.000e+00"),
    ]:
        message = f"covariance is not PSD at this evaluation point (pivot {pivot})"
        with pytest.raises(ValueError, match=re.escape(message)):
            CovSpec(matrix).cholesky_factor()


# ---------------------------------------------------------------------------
# GaussianPolynomial and expectations
# ---------------------------------------------------------------------------


def h2(cov=None):
    cov = cov or CovSpec.identity(1)
    return GaussianPolynomial(cov, {(2,): 1, (0,): -1})


def test_expectation_is_linear():
    cov = CovSpec.identity(2)
    f = GaussianPolynomial(cov, {(2, 0): 1, (0, 0): -1})
    g = GaussianPolynomial(cov, {(0, 2): 3})
    assert expectation(f + g) == expectation(f) + expectation(g)
    assert expectation(f).constant_value() == 0
    assert expectation(g).constant_value() == 3


def test_product_expectation_matches_expanded_product():
    cov = CovSpec.bivariate()
    f = GaussianPolynomial(cov, {(1, 0): 10, (0, 3): 1, (0, 1): -3})
    assert expectation_of_product(f, f) == expectation(f * f)


coeff_st = st.integers(min_value=-3, max_value=3)


@given(
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
        ),
        coeff_st,
        max_size=3,
    ),
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
        ),
        coeff_st,
        max_size=3,
    ),
)
@settings(max_examples=40, deadline=None)
def test_product_route_agrees_on_random_bivariate_pairs(fterms, gterms):
    cov = CovSpec.bivariate()
    f = GaussianPolynomial(cov, fterms or {(0, 0): 1})
    g = GaussianPolynomial(cov, gterms or {(0, 0): 1})
    assert expectation_of_product(f, g) == expectation(f * g)


_BIVARIATE = CovSpec.bivariate()
rho_coefficients = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=2,
).map(lambda t: ParamPoly(("rho",), {(k,): c for k, c in t.items()}))
bivariate_polys = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
    ),
    rho_coefficients,
    max_size=3,
).map(lambda terms: GaussianPolynomial(_BIVARIATE, terms))


@given(bivariate_polys, bivariate_polys, bivariate_polys)
@settings(max_examples=40, deadline=None)
def test_gaussian_polynomial_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == GaussianPolynomial(_BIVARIATE, {})
    for i in (0, 1):
        lhs = (f * g).derivative(i)
        assert lhs == f.derivative(i) * g + f * g.derivative(i)


def test_gaussian_polynomial_rejects_mixed_covariances():
    f = GaussianPolynomial(_BIVARIATE, {(1, 0): 1})
    g = GaussianPolynomial(CovSpec.identity(2), {(1, 0): 1})
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g
    with pytest.raises(ValueError):
        expectation_of_product(f, g)


def test_partial_derivative():
    cov = CovSpec.identity(2)
    f = GaussianPolynomial(cov, {(2, 1): 1, (0, 1): -1})
    fx = f.derivative(0)
    fy = f.derivative(1)
    assert fx == GaussianPolynomial(cov, {(1, 1): 2})
    assert fy == GaussianPolynomial(cov, {(2, 0): 1, (0, 0): -1})


# ---------------------------------------------------------------------------
# Cumulants.  Oracle: H_2(xi) = xi^2 - 1 is a centered chi-square with one
# degree of freedom, whose cumulants are kappa_n = 2^(n-1) (n-1)!.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order,value", [(1, 0), (2, 2), (3, 8), (4, 48), (5, 384), (6, 3840)])
def test_cumulants_of_h2_match_chi_square(order, value):
    k = cumulant(h2(), order)
    assert k.is_constant
    assert k.constant_value() == value


def test_cumulants_of_pure_gaussian_vanish_above_two():
    cov = CovSpec.identity(1)
    xi = GaussianPolynomial(cov, {(1,): 2})
    assert cumulant(xi, 1).constant_value() == 0
    assert cumulant(xi, 2).constant_value() == 4
    for order in (3, 4, 5, 6):
        assert cumulant(xi, order).constant_value() == 0


def test_cumulant_shift_invariance_above_one():
    cov = CovSpec.identity(1)
    f = GaussianPolynomial(cov, {(2,): 1})
    g = f + 7
    assert cumulant(g, 1).constant_value() == cumulant(f, 1).constant_value() + 7
    for order in (2, 3, 4):
        assert cumulant(g, order) == cumulant(f, order)


def test_cumulant_order_validation():
    with pytest.raises(ValueError):
        cumulant(h2(), 0)
    with pytest.raises(ValueError):
        cumulant(h2(), 7)


def test_fourth_cumulant_additivity_independent_summands():
    # kappa4 is additive across independent coordinates
    cov = CovSpec.identity(2)
    f = GaussianPolynomial(cov, {(2, 0): 1, (0, 0): -1})
    g = GaussianPolynomial(cov, {(0, 2): 5, (0, 0): -5})
    total = cumulant(f + g, 4).constant_value()
    assert total == cumulant(f, 4).constant_value() + cumulant(g, 4).constant_value()
    assert total == 48 + 5**4 * 48


def test_symbolic_rho_cumulant_collapses_at_zero():
    cov = CovSpec.bivariate()
    x = GaussianPolynomial(cov, {(1, 0): 10, (0, 3): 1, (0, 1): -3})
    k4 = cumulant(x, 4)
    at_zero = k4.substitute("rho", 0)
    assert at_zero.is_constant
    # independence: contributions from 10U and H_3(V) add up
    h3 = GaussianPolynomial(CovSpec.identity(1), {(3,): 1, (1,): -3})
    assert at_zero.constant_value() == cumulant(h3, 4).constant_value()


def test_moments_of_h3():
    cov = CovSpec.identity(1)
    h3 = GaussianPolynomial(cov, {(3,): 1, (1,): -3})
    m2 = expectation_of_product(h3, h3).constant_value()
    assert m2 == 6
    m4 = expectation_of_product(h3 * h3, h3 * h3).constant_value()
    assert m4 == 3348
    m6 = expectation_of_product(h3 * h3 * h3, h3 * h3 * h3).constant_value()
    assert m6 == 11608920
    assert cumulant(h3, 4).constant_value() == 3348 - 3 * 36


def test_moments_of_h5():
    cov = CovSpec.identity(1)
    h5 = GaussianPolynomial(cov, {(5,): 1, (3,): -10, (1,): 15})
    assert expectation_of_product(h5, h5).constant_value() == 120
    m4 = expectation_of_product(h5 * h5, h5 * h5).constant_value()
    assert m4 == 67003200
    assert cumulant(h5, 4).constant_value() == 67003200 - 3 * 120**2


def _x0() -> GaussianPolynomial:
    return GaussianPolynomial.coordinate(CovSpec.identity(1), 0)


def _u() -> SymTensor:
    return SymTensor(2, 1, {(0,): 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: gaussian_moment((1.9, 0.5), CovSpec.bivariate()),
        lambda: SymTensor(3, 2, {(0.9, 2.2): 1}),
        lambda: Tensor(3, 2, {(0, 1.5): 1}),
        lambda: ParamPoly(("rho",), {(2.5,): 1}),
        lambda: GaussianPolynomial(CovSpec.bivariate(), {(1.0, 2): 1}),
        lambda: CovSpec.identity(2.0),
        lambda: CovSpec.identity(True),
        lambda: SymTensor(2, True, {(0,): 1}),
        lambda: ChaosElement(2, {True: SymTensor(2, 1, {(0,): 1})}),
        lambda: family_point("dyadic_p2", True),
        lambda: clt_experiment("dyadic_p2", [True, 4], 1000, seed=1),
        lambda: ParamPoly(("x",), {(True,): 1}),
        lambda: GaussianPolynomial.coordinate(CovSpec.identity(2), True),
        lambda: gaussian_moment((True, True), CovSpec.bivariate()),
        lambda: SymTensor(2, 1, {(True,): 1}),
        lambda: Tensor(2.5, 1, {}),
        lambda: Tensor(2, True, {(1,): 1}),
        lambda: cumulant(_x0(), True),
        lambda: _x0() ** True,
        lambda: gaussian_moment_bivariate_conditional(True, 1),
        lambda: contract(_u(), _u(), True),
        lambda: h1h5_positivity_certificate(3.0),
        lambda: sample_gaussian_polynomial(_x0(), 5, 1.5),
        lambda: clt_experiment("dyadic_p2", [4], 200, 1.5),
    ],
    ids=[
        "gaussian_moment",
        "SymTensor",
        "Tensor",
        "ParamPoly",
        "GaussianPolynomial",
        "CovSpec.identity-float",
        "CovSpec.identity-bool",
        "SymTensor-bool-order",
        "ChaosElement-bool-order",
        "family_point-bool",
        "clt_experiment-bool",
        "ParamPoly-bool",
        "coordinate-bool",
        "gaussian_moment-bool",
        "SymTensor-bool-index",
        "Tensor-float-dimension",
        "Tensor-bool-order",
        "cumulant-bool-order",
        "pow-bool",
        "conditional-bool",
        "contract-bool-r",
        "positivity-float-grid",
        "sample-float-seed",
        "clt_experiment-float-seed",
    ],
)
def test_non_integer_indices_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_index_errors_keep_their_messages():
    with pytest.raises(TypeError, match=r"^integer expected, got False$"):
        SymTensor(3, 2, {(0, False): 1})
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        Tensor(3, 2, {(0, 1.5): 1})
    with pytest.raises(ValueError, match=r"^index \(0, 3\) out of range \[0, 3\)$"):
        Tensor(3, 2, {(0, 3): 1})
    with pytest.raises(ValueError, match=r"^index \(0,\) does not have length 2$"):
        gaussian_moment([0], CovSpec.bivariate())
