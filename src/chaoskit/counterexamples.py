"""Two explicit bivariate constructions with exactly computable cumulants.

Both live on a correlated pair (U, V) of standard Gaussians with correlation
rho:

* ``counterexample_h1h3``: X = 10 U + H3(V).  Its fourth cumulant is a cubic
  in rho with exactly one real root rho* in (-1, 1); at rho* the fourth
  cumulant vanishes while the sixth moment stays far from the Gaussian value
  15 E[X^2]^3, so X is a non-Gaussian variable with vanishing fourth cumulant.
* ``kappa4_h1h5`` and friends: X = a U + H5(V).  Here the fourth cumulant is
  a quadratic in rho whose discriminant is negative for every a != 0, so it
  never vanishes; ``h1h5_positivity_certificate`` packages that argument.

Every polynomial identity below is produced by the exact Wick engine.  The
module-level tests verify each one a second time against the closed-form
conditional-moment oracle, so a transcription slip in either route cannot
survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ParamPoly, _as_index, param_eval, real_roots
from .wick import CovSpec, GaussianPolynomial, cumulant, expectation, expectation_of_product

__all__ = [
    "CounterexampleReport",
    "PositivityCertificate",
    "h1h3_element",
    "counterexample_h1h3",
    "h1h3_rho_star_closed_form",
    "h1h5_element",
    "h1h5_second_moment",
    "kappa4_h1h5",
    "h1h5_positivity_certificate",
]

# Float tolerances on the root rho*: closed form against the root finder,
# and the fourth cumulant evaluated there.
ROOT_AGREEMENT_TOL = 1e-10
KAPPA4_AT_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class CounterexampleReport:
    """Exact summary of the degree-(1, 3) construction X = 10 U + H3(V)."""

    e2: Fraction
    e4_poly: ParamPoly
    kappa4_poly: ParamPoly
    rho_star_numeric: float
    rho_star_closed_form: float
    e6_poly: ParamPoly
    e6_at_rho_star: float
    gaussian_sixth: Fraction

    def __post_init__(self):
        if abs(self.rho_star_numeric - self.rho_star_closed_form) > ROOT_AGREEMENT_TOL:
            raise RuntimeError(
                "closed-form and numeric roots disagree: "
                f"{self.rho_star_closed_form} vs {self.rho_star_numeric}"
            )
        residual = param_eval(self.kappa4_poly, {"rho": self.rho_star_numeric})
        if abs(residual) > KAPPA4_AT_ROOT_TOL:
            raise RuntimeError(f"fourth cumulant at the root is {residual}, not ~0")

    @property
    def sixth_moment_gap(self) -> float:
        """E[X^6] at rho* minus the Gaussian sixth moment (positive here)."""
        return self.e6_at_rho_star - float(self.gaussian_sixth)


def h1h3_element() -> GaussianPolynomial:
    """X = 10 U + V^3 - 3 V over the rho-correlated standard bivariate pair."""
    cov = CovSpec.bivariate()
    return GaussianPolynomial(cov, {(1, 0): 10, (0, 3): 1, (0, 1): -3})


def h1h3_rho_star_closed_form() -> float:
    """The unique real root of the fourth cumulant, via radicals.

    With t = (sqrt(5) - 1)/2, the root is (3/10) * (t^(1/3) - 1 - (1/t)^(1/3)).
    Both cube roots act on positive reals, so no complex intermediates arise.
    """
    t = (math.sqrt(5.0) - 1.0) / 2.0
    return 0.3 * (t ** (1.0 / 3.0) - 1.0 - (1.0 / t) ** (1.0 / 3.0))


def counterexample_h1h3() -> CounterexampleReport:
    """Build the full exact report for X = 10 U + H3(V).

    The fourth cumulant is strictly increasing in rho (its derivative has
    negative discriminant), so the cubic has exactly one real root; real_roots
    counts it exactly on [-1, 1] and returns the largest double <= it.
    """
    x = h1h3_element()
    x2 = x * x
    e2_poly = expectation(x2)
    if not e2_poly.is_constant:
        raise RuntimeError("E[X^2] unexpectedly depends on the correlation")
    e2 = e2_poly.constant_value()

    e4_poly = expectation_of_product(x2, x2)
    kappa4_poly = cumulant(x, 4)

    roots = real_roots(kappa4_poly, (-1.0, 1.0))
    if len(roots) != 1:
        raise RuntimeError(f"expected one root in (-1, 1), found {roots}")
    rho_star = roots[0]

    x3 = x2 * x
    e6_poly = expectation_of_product(x3, x3)
    e6_at_rho_star = param_eval(e6_poly, {"rho": rho_star})

    return CounterexampleReport(
        e2=e2,
        e4_poly=e4_poly,
        kappa4_poly=kappa4_poly,
        rho_star_numeric=rho_star,
        rho_star_closed_form=h1h3_rho_star_closed_form(),
        e6_poly=e6_poly,
        e6_at_rho_star=e6_at_rho_star,
        gaussian_sixth=15 * e2**3,
    )


# ---------------------------------------------------------------------------
# The quintic variant X = a U + H5(V).
# ---------------------------------------------------------------------------


def h1h5_element(a=None) -> GaussianPolynomial:
    """X = a U + V^5 - 10 V^3 + 15 V; a symbolic by default."""
    cov = CovSpec.bivariate()
    a = ParamPoly.variable("a") if a is None else a
    return GaussianPolynomial(cov, {(1, 0): a, (0, 5): 1, (0, 3): -10, (0, 1): 15})


def h1h5_second_moment(a=None) -> ParamPoly:
    """E[X^2] = a^2 + 120; the cross term E[U H5(V)] vanishes for every rho."""
    x = h1h5_element(a)
    out = expectation(x * x)
    return out


def kappa4_h1h5(a=None) -> ParamPoly:
    """Fourth cumulant of a U + H5(V), exact in (a, rho).

    Evaluates to 7200 a^2 rho^2 + 864000 a rho + 66960000.  Sanity anchors:
    at rho = 0 the summands are independent, so the value must reduce to the
    a-free constant kappa4(H5(V)) = 66960000; the rho-linear coefficient
    864000 = 4 * E[H1 H5^3].  Both are enforced by the test suite against the
    conditional-moment oracle.
    """
    return cumulant(h1h5_element(a), 4)


@dataclass(frozen=True)
class PositivityCertificate:
    """Proof object for: the quintic-variant fourth cumulant is always > 0.

    ``kappa4_poly`` is quadratic in rho with leading coefficient 7200 a^2 and
    positive constant term.  ``discriminant_poly`` is its rho-discriminant
    B^2 - 4AC as an exact polynomial in a; ``radicand_poly`` is the same
    object normalized by the positive square 4 * 7200^2 a^2 (the quantity
    under the square root when the quadratic formula is written with all
    positive factors pulled out).  Either form is <= 0 everywhere with
    equality only at a = 0, so the quadratic has no real root in rho unless
    a = 0, in which case the polynomial is the positive constant 66960000.
    ``grid_min`` is a brute-force floor over a 201 x 201 grid on
    [-10, 10] x [-1, 1].
    """

    kappa4_poly: ParamPoly
    discriminant_poly: ParamPoly
    radicand_poly: ParamPoly
    grid_min: float
    symbolic_nonpositive: bool
    holds: bool


def h1h5_positivity_certificate(grid_points: int = 201) -> PositivityCertificate:
    if _as_index(grid_points) < 2:
        raise ValueError("grid needs at least 2 points per axis")
    k4 = kappa4_h1h5()

    d1 = k4.derivative("rho")
    d2 = d1.derivative("rho")
    if not d2.derivative("rho").is_zero:
        raise RuntimeError("fourth cumulant is not quadratic in rho")
    A = d2 * Fraction(1, 2)
    B = d1.substitute("rho", 0)
    C = k4.substitute("rho", 0)
    discriminant = B * B - 4 * A * C

    # discriminant = -1181952000000 a^2; dividing by the positive square
    # (2 * 7200)^2 a^2 / 4 = 7200^2 a^2 leaves -22800 a^2, and pulling the
    # final factor 4 out of the square root gives the radicand -5700 a^2.
    lead = A.coefficient(a=2)
    if lead <= 0 or A - lead * ParamPoly.variable("a") ** 2 != ParamPoly.constant(0):
        raise RuntimeError("rho^2 coefficient is not a positive multiple of a^2")
    radicand = discriminant * Fraction(1, 4 * lead**2)

    # Exact symbolic certificate: the discriminant is c * a^2 with c < 0,
    # hence negative for all a != 0 and zero only at a = 0.
    c = discriminant.coefficient(a=2)
    symbolic_ok = (
        c < 0
        and discriminant - c * ParamPoly.variable("a") ** 2 == ParamPoly.constant(0)
    )

    grid_min = math.inf
    steps = grid_points - 1
    for i in range(grid_points):
        row = k4.substitute("a", Fraction(20 * i, steps) - 10).float_evaluator()
        for j in range(grid_points):
            value = row({"rho": -1.0 + 2.0 * j / steps})
            if value < grid_min:
                grid_min = value

    return PositivityCertificate(
        kappa4_poly=k4,
        discriminant_poly=discriminant,
        radicand_poly=radicand,
        grid_min=grid_min,
        symbolic_nonpositive=bool(symbolic_ok),
        holds=bool(symbolic_ok and grid_min > 0),
    )
