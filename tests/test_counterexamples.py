"""Both explicit constructions, each verified through two independent routes.

Route one is the Wick pairing engine (what the library ships).  Route two,
built here in the tests, expands powers of X = a U + g(V) with plain
polynomial algebra and integrates monomial by monomial with the closed-form
conditional-moment table.  The two routes share no moment code, so they
cannot fail in the same way.
"""

import math
from fractions import Fraction

import pytest

from chaoskit.algebra import ParamPoly, param_eval, real_roots
from chaoskit.cli import _poly_in_rho
from chaoskit.counterexamples import (
    CounterexampleReport,
    counterexample_h1h3,
    h1h3_element,
    h1h3_rho_star_closed_form,
    h1h5_element,
    h1h5_positivity_certificate,
    h1h5_second_moment,
    kappa4_h1h5,
)
from chaoskit.wick import (
    cumulant,
    expectation,
    gaussian_moment_bivariate_conditional,
)


def oracle_moment(x_poly: ParamPoly, power: int) -> ParamPoly:
    """E[x_poly(U, V)^power] using only polynomial algebra plus the
    conditional-moment table.  ``x_poly`` lives in variables u, v and
    optionally a; the result lives in rho (and a)."""
    expanded = x_poly**power
    total = ParamPoly.constant(0)
    a = ParamPoly.variable("a")
    for key, coeff in expanded.terms.items():
        named = dict(key)
        u_pow = named.get("u", 0)
        v_pow = named.get("v", 0)
        moment = gaussian_moment_bivariate_conditional(u_pow, v_pow)
        term = moment * coeff
        if named.get("a", 0):
            term = term * a ** named["a"]
        total = total + term
    return total


def u_v_polynomial_h1h3() -> ParamPoly:
    u = ParamPoly.variable("u")
    v = ParamPoly.variable("v")
    return 10 * u + v**3 - 3 * v


def u_v_polynomial_h1h5() -> ParamPoly:
    a = ParamPoly.variable("a")
    u = ParamPoly.variable("u")
    v = ParamPoly.variable("v")
    return a * u + v**5 - 10 * v**3 + 15 * v


# ---------------------------------------------------------------------------
# X = 10 U + H3(V)
# ---------------------------------------------------------------------------


class TestDegree13:
    def test_second_moment(self):
        rep = counterexample_h1h3()
        assert rep.e2 == 106
        assert 3 * rep.e2**2 == 33708
        oracle = oracle_moment(u_v_polynomial_h1h3(), 2)
        assert oracle == ParamPoly.constant(106)

    def test_fourth_moment_both_routes(self):
        rep = counterexample_h1h3()
        expected = _poly_in_rho(36948, 12960, 21600, 24000)
        assert rep.e4_poly == expected
        assert oracle_moment(u_v_polynomial_h1h3(), 4) == expected

    def test_fourth_cumulant_both_routes(self):
        rep = counterexample_h1h3()
        expected = _poly_in_rho(3240, 12960, 21600, 24000)
        assert rep.kappa4_poly == expected
        oracle = oracle_moment(u_v_polynomial_h1h3(), 4) - 3 * Fraction(106) ** 2
        assert oracle == expected

    def test_sixth_moment_both_routes(self):
        rep = counterexample_h1h3()
        expected = _poly_in_rho(34330920, 62596800, 104328000, 102960000, 32400000)
        assert rep.e6_poly == expected
        assert oracle_moment(u_v_polynomial_h1h3(), 6) == expected

    def test_kappa4_at_zero_matches_independent_sum(self):
        # at rho = 0 the two summands are independent and 10U is Gaussian,
        # so the whole fourth cumulant comes from H3(V): 3348 - 3 * 36
        rep = counterexample_h1h3()
        at_zero = rep.kappa4_poly.substitute("rho", 0)
        assert at_zero.is_constant
        assert at_zero.constant_value() == 3240

    def test_root_location_and_uniqueness(self):
        rep = counterexample_h1h3()
        assert abs(rep.rho_star_numeric - rep.rho_star_closed_form) <= 1e-10
        assert abs(rep.rho_star_numeric - (-0.39665)) <= 1e-4
        residual = param_eval(rep.kappa4_poly, {"rho": rep.rho_star_numeric})
        assert abs(residual) <= 1e-9
        assert len(real_roots(rep.kappa4_poly, (-1.0, 1.0))) == 1

    def test_closed_form_root_kills_cubic(self):
        # substitute the radical expression into 200 t^3 + 180 t^2 + 108 t + 27
        # (the fourth cumulant divided by 120)
        t = h1h3_rho_star_closed_form()
        value = 200 * t**3 + 180 * t**2 + 108 * t + 27
        assert abs(value) < 1e-12

    def test_kappa4_is_strictly_increasing_on_the_interval(self):
        rep = counterexample_h1h3()
        dk = rep.kappa4_poly.derivative("rho")
        # quadratic with negative discriminant and positive leading coefficient
        a2 = dk.coefficient(rho=2)
        a1 = dk.coefficient(rho=1)
        a0 = dk.coefficient()
        assert a2 > 0
        assert a1 * a1 - 4 * a2 * a0 < 0

    def test_sixth_moment_gap(self):
        rep = counterexample_h1h3()
        assert rep.gaussian_sixth == 17865240
        assert abs(rep.e6_at_rho_star - 20292574.8838) < 1e-2
        assert rep.sixth_moment_gap > 2.4e6

    def test_element_is_centered(self):
        x = h1h3_element()
        assert expectation(x) == ParamPoly.constant(0)

    def test_report_invariants_reject_bad_roots(self):
        rep = counterexample_h1h3()
        with pytest.raises(RuntimeError):
            CounterexampleReport(
                e2=rep.e2,
                e4_poly=rep.e4_poly,
                kappa4_poly=rep.kappa4_poly,
                rho_star_numeric=rep.rho_star_numeric,
                rho_star_closed_form=rep.rho_star_closed_form + 1e-6,
                e6_poly=rep.e6_poly,
                e6_at_rho_star=rep.e6_at_rho_star,
                gaussian_sixth=rep.gaussian_sixth,
            )
        with pytest.raises(RuntimeError):
            CounterexampleReport(
                e2=rep.e2,
                e4_poly=rep.e4_poly,
                kappa4_poly=rep.kappa4_poly,
                rho_star_numeric=0.25,
                rho_star_closed_form=0.25,
                e6_poly=rep.e6_poly,
                e6_at_rho_star=rep.e6_at_rho_star,
                gaussian_sixth=rep.gaussian_sixth,
            )


# ---------------------------------------------------------------------------
# X = a U + H5(V)
# ---------------------------------------------------------------------------


class TestDegree15:
    def test_second_moment(self):
        a = ParamPoly.variable("a")
        assert h1h5_second_moment() == a * a + 120
        assert h1h5_second_moment(3) == ParamPoly.constant(129)

    def test_fourth_cumulant_symbolic_both_routes(self):
        a = ParamPoly.variable("a")
        rho = ParamPoly.variable("rho")
        expected = 7200 * a**2 * rho**2 + 864000 * a * rho + 66960000
        assert kappa4_h1h5() == expected
        oracle = oracle_moment(u_v_polynomial_h1h5(), 4) - 3 * (a * a + 120) ** 2
        assert oracle == expected

    def test_fourth_moment_symbolic_oracle(self):
        a = ParamPoly.variable("a")
        rho = ParamPoly.variable("rho")
        expected = (
            3 * a**4
            + 720 * a**2
            + 7200 * a**2 * rho**2
            + 864000 * a * rho
            + 67003200
        )
        assert oracle_moment(u_v_polynomial_h1h5(), 4) == expected

    def test_independence_at_rho_zero(self):
        """With rho = 0 the summands are independent, a U is Gaussian, and
        the fourth cumulant must equal that of H5(V) alone for every a."""
        at_zero = kappa4_h1h5().substitute("rho", 0)
        assert at_zero.is_constant
        assert at_zero.constant_value() == 66960000
        h5 = h1h5_element(0)
        assert cumulant(h5, 4) == ParamPoly.constant(66960000)

    def test_specializations(self):
        k4 = kappa4_h1h5()
        at_1_m1 = k4.substitute("a", 1).substitute("rho", -1)
        assert at_1_m1.constant_value() == 7200 - 864000 + 66960000 == 66103200
        assert kappa4_h1h5(1) == k4.substitute("a", 1)
        assert kappa4_h1h5(Fraction(1, 2)) == k4.substitute("a", Fraction(1, 2))

    def test_always_positive_on_a_coarse_exact_lattice(self):
        k4 = kappa4_h1h5()
        for num_a in range(-10, 11, 2):
            row = k4.substitute("a", num_a)
            for num_r in range(-4, 5):
                value = row.substitute("rho", Fraction(num_r, 4))
                assert value.constant_value() > 0


class TestPositivityCertificate:
    def test_certificate_contents(self):
        cert = h1h5_positivity_certificate()
        a = ParamPoly.variable("a")
        assert cert.discriminant_poly == -1181952000000 * a**2
        assert cert.radicand_poly == -5700 * a**2
        assert cert.symbolic_nonpositive
        assert cert.holds

    def test_grid_minimum(self):
        cert = h1h5_positivity_certificate()
        # attained at (a, rho) = (+-10, -+1): 720000 - 8640000 + 66960000
        assert cert.grid_min == 59040000.0
        assert cert.grid_min > 0

    def test_radicand_zero_only_at_a_zero(self):
        cert = h1h5_positivity_certificate()
        at_zero = cert.radicand_poly.substitute("a", 0)
        assert at_zero == ParamPoly.constant(0)
        for a_val in (Fraction(1, 7), -3, 10, Fraction(-1, 2)):
            value = cert.radicand_poly.substitute("a", a_val)
            assert value.constant_value() < 0

    def test_small_grid_agrees(self):
        coarse = h1h5_positivity_certificate(grid_points=5)
        fine = h1h5_positivity_certificate(grid_points=21)
        # refining a symmetric lattice can only lower the recorded minimum
        assert fine.grid_min <= coarse.grid_min
        assert fine.holds

    def test_grid_points_validated(self):
        with pytest.raises(ValueError):
            h1h5_positivity_certificate(grid_points=1)
