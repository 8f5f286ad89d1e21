"""Exact moments and cumulants of polynomial functionals of Gaussian vectors.

Two independent routes to bivariate Gaussian moments are kept deliberately
separate so they can check each other:

* :func:`gaussian_moment` reduces the first remaining factor against every
  other factor (pairing recursion, memoized on the monomial), and
* :func:`gaussian_moment_bivariate_conditional` integrates conditional
  moments of V given U, never touching the pairing recursion.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .algebra import Monomial, ParamPoly, SparsePoly, _merge, double_factorial

__all__ = [
    "DEGREE_CAP",
    "DegreeCapError",
    "CovSpec",
    "GaussianPolynomial",
    "gaussian_moment",
    "gaussian_moment_bivariate_conditional",
    "expectation",
    "expectation_of_product",
    "cumulant",
]

# Total monomial degree supported by the moment engine.  Far above what the
# shipped constructions need (degree 18 polynomials taken to the 2nd power),
# but a hard stop against accidental combinatorial blow-ups.
DEGREE_CAP = 40


class DegreeCapError(ValueError):
    """Requested moment exceeds the supported total degree."""


def gaussian_moment_1d(k: int) -> int:
    """E[G^k] for one standard Gaussian: (k-1)!! for even k, else 0."""
    if k < 0:
        raise ValueError("negative power")
    if k % 2:
        return 0
    return 1 if k == 0 else double_factorial(k - 1)


_ONE = ParamPoly.constant(1)
_ZERO = ParamPoly()
# E[G^e] for every exponent a validated monomial can carry.
_MOMENTS_1D = tuple(gaussian_moment_1d(e) for e in range(DEGREE_CAP + 1))


def _unit_row(d: int, i: int) -> tuple[ParamPoly, ...]:
    """Row i of the d x d identity, built from the shared _ONE and _ZERO."""
    return (_ZERO,) * i + (_ONE,) + (_ZERO,) * (d - i - 1)


class CovSpec:
    """Symmetric covariance matrix whose entries are exact ParamPoly values."""

    __slots__ = ("dimension", "_entries", "_moment_cache", "_is_identity")

    def __init__(self, entries: Sequence[Sequence[Union[ParamPoly, int, Fraction]]]):
        rows = [tuple(ParamPoly._coerce(v) for v in row) for row in entries]
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise ValueError("covariance entries must form a square matrix")
        # tuple comparison runs in C and skips entries that are the same object
        if any(row != col for row, col in zip(rows, zip(*rows))):
            i, j = next(
                (i, j) for i in range(d) for j in range(i) if rows[i][j] != rows[j][i]
            )
            raise ValueError(f"covariance not symmetric at ({i}, {j})")
        self.dimension = d
        self._entries = tuple(rows)
        self._moment_cache: dict[Monomial, ParamPoly] = {}
        self._is_identity = all(row == _unit_row(d, i) for i, row in enumerate(rows))

    @classmethod
    def identity(cls, dimension: int) -> "CovSpec":
        """The i.i.d. standard Gaussian covariance; rows are built only when read."""
        if dimension < 1:
            raise ValueError("covariance entries must form a square matrix")
        cov = cls.__new__(cls)
        cov.dimension = dimension
        cov._entries = None
        cov._moment_cache = {}
        cov._is_identity = True
        return cov

    @property
    def entries(self) -> tuple[tuple[ParamPoly, ...], ...]:
        d = self.dimension
        return self._entries or tuple(_unit_row(d, i) for i in range(d))

    @classmethod
    def bivariate(cls, rho: Union[ParamPoly, int, Fraction, None] = None) -> "CovSpec":
        """Unit-variance pair with correlation ``rho`` (symbolic by default)."""
        r = ParamPoly.variable("rho") if rho is None else ParamPoly._coerce(rho)
        one = ParamPoly.constant(1)
        return cls([[one, r], [r, one]])

    @property
    def is_identity(self) -> bool:
        return self._is_identity

    def parameters(self) -> tuple[str, ...]:
        names: set[str] = set()
        for row in self._entries or ():
            for entry in row:
                names.update(entry.variables)
        return tuple(sorted(names))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CovSpec):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self._is_identity == other._is_identity
            and (self._is_identity or self._entries == other._entries)
        )

    __hash__ = None

    def numeric_matrix(self, assignment: Mapping[str, float] | None = None):
        assignment = assignment or {}
        return [
            [entry.evaluate_float(assignment) for entry in row] for row in self.entries
        ]

    def cholesky_factor(
        self, assignment: Mapping[str, float] | None = None
    ) -> list[list[float]]:
        """Pivoted Cholesky factor F with sigma = F F^T.

        Raises ValueError when the evaluated matrix has a pivot below -1e-10,
        i.e. is not positive semidefinite at this evaluation point.
        """
        d = self.dimension
        tol = 1e-10  # a pivot at or below tol ends the factorization
        m = [row[:] for row in self.numeric_matrix(assignment)]
        lower = [[0.0] * d for _ in range(d)]
        perm = list(range(d))
        for k in range(d):
            j = max(range(k, d), key=lambda t: m[t][t])
            if m[j][j] < -tol:
                raise ValueError(
                    f"covariance is not PSD at this evaluation point "
                    f"(pivot {m[j][j]:.3e})"
                )
            if j != k:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
                lower[k], lower[j] = lower[j], lower[k]
                perm[k], perm[j] = perm[j], perm[k]
            pivot = m[k][k]
            if pivot <= tol:
                for t in range(k, d):
                    if m[t][t] < -tol:
                        raise ValueError(
                            f"covariance is not PSD at this evaluation point "
                            f"(pivot {m[t][t]:.3e})"
                        )
                break
            root = math.sqrt(pivot)
            lower[k][k] = root
            for i in range(k + 1, d):
                lower[i][k] = m[i][k] / root
            for i in range(k + 1, d):
                lik = lower[i][k]
                if lik:
                    for j2 in range(k + 1, i + 1):
                        m[i][j2] -= lik * lower[j2][k]
                        m[j2][i] = m[i][j2]
        factor = [[0.0] * d for _ in range(d)]
        for i, target in enumerate(perm):
            factor[target] = lower[i]
        return factor


# ---------------------------------------------------------------------------
# Moments.
# ---------------------------------------------------------------------------


def _moment(cov: CovSpec, key: Monomial) -> ParamPoly:
    """Moment of the monomial with sparse key ``key``; assumes it is validated.

    Under the identity, the product of 1-D moments.  Otherwise the pairing
    recursion on the first factor, memoized per covariance.
    """
    if cov.is_identity:
        value = 1
        for _, e in key:
            value *= _MOMENTS_1D[e]
        return ParamPoly.constant(value)
    if sum(e for _, e in key) % 2:
        return _ZERO
    if not key:
        return _ONE
    cached = cov._moment_cache.get(key)
    if cached is not None:
        return cached
    # Pair the first factor x_i with every remaining factor x_k.
    (i, e), rest = key[0], key[1:]
    beta = ((i, e - 1),) + rest if e > 1 else rest
    result = ParamPoly()
    for pos, (k, remaining) in enumerate(beta):
        lowered = ((k, remaining - 1),) if remaining > 1 else ()
        reduced = beta[:pos] + lowered + beta[pos + 1 :]
        result = result + remaining * cov.entries[i][k] * _moment(cov, reduced)
    cov._moment_cache[key] = result
    return result


def gaussian_moment(multidegree: Sequence[int], cov: CovSpec) -> ParamPoly:
    """E[prod_i Z_i^{multidegree[i]}] for the centered Gaussian vector of ``cov``.

    Pairing recursion on the first remaining factor, memoized per covariance;
    under the identity, a product of 1-D moments.  Zero whenever the total
    degree is odd.
    """
    md = tuple(map(operator.index, multidegree))
    if len(md) != cov.dimension:
        raise ValueError(
            f"multidegree length {len(md)} does not match dimension {cov.dimension}"
        )
    if any(e < 0 for e in md):
        raise ValueError("multidegree entries must be non-negative")
    if sum(md) > DEGREE_CAP:
        raise DegreeCapError(f"total degree {sum(md)} exceeds cap {DEGREE_CAP}")
    return _moment(cov, tuple((i, e) for i, e in enumerate(md) if e))


def gaussian_moment_bivariate_conditional(n: int, m: int) -> ParamPoly:
    """E[U^n V^m] for unit-variance correlated Gaussians, via conditioning.

    Writes V | U=x as N(rho*x, 1 - rho^2) and integrates the conditional
    moment term by term; only even powers of the conditional spread
    contribute, so the answer is an exact polynomial in rho.  Independent of
    the pairing recursion used by :func:`gaussian_moment`.
    """
    if n < 0 or m < 0:
        raise ValueError("powers must be non-negative")
    if n + m > DEGREE_CAP:
        raise DegreeCapError(f"total degree {n + m} exceeds cap {DEGREE_CAP}")
    rho = ParamPoly.variable("rho")
    spread_sq = 1 - rho * rho  # Var(V | U)
    total = ParamPoly()
    for k in range(0, m + 1, 2):
        outer = n + m - k
        if outer % 2:
            continue
        weight = math.comb(m, k) * gaussian_moment_1d(k) * gaussian_moment_1d(outer)
        if weight:
            total = total + weight * rho ** (m - k) * spread_sq ** (k // 2)
    return total


# ---------------------------------------------------------------------------
# Polynomial functionals.
# ---------------------------------------------------------------------------


class GaussianPolynomial(SparsePoly):
    """Polynomial of the coordinates of a Gaussian vector.

    ``terms`` maps a sparse monomial key over coordinate indices (the
    :data:`~chaoskit.algebra.Monomial` format ParamPoly uses over parameter
    names) to an exact ParamPoly coefficient, so the same object covers both
    plain rational functionals and families swept by symbolic parameters.
    The constructor takes dense exponent tuples (length = dimension);
    operations build their results from sparse keys directly.
    """

    __slots__ = ("cov",)

    def __init__(
        self,
        cov: CovSpec,
        terms: Mapping[tuple[int, ...], Union[ParamPoly, int, Fraction]] | None = None,
    ):
        sparse: dict[Monomial, ParamPoly] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(operator.index, exps))
            if len(exps) != cov.dimension:
                raise ValueError(
                    f"exponent tuple {exps!r} does not match dimension {cov.dimension}"
                )
            if min(exps) < 0:
                raise ValueError("negative exponent")
            key = tuple((i, e) for i, e in enumerate(exps) if e)
            coeff = ParamPoly._coerce(coeff)
            existing = sparse.get(key)
            sparse[key] = coeff if existing is None else existing + coeff
        self.cov = cov
        self.terms = {k: c for k, c in sparse.items() if c}

    @classmethod
    def _of(cls, cov: CovSpec, terms: Mapping[Monomial, ParamPoly]):
        """From sparse keys that the package built (not validated); drops zeros."""
        poly = cls.__new__(cls)
        poly.cov = cov
        poly.terms = {k: c for k, c in terms.items() if c}
        return poly

    def _like(self, terms: Mapping[Monomial, ParamPoly]) -> "GaussianPolynomial":
        return GaussianPolynomial._of(self.cov, terms)

    def _coerce(self, value) -> "GaussianPolynomial":
        if isinstance(value, GaussianPolynomial):
            if value.cov is not self.cov and value.cov != self.cov:
                raise ValueError("operands live over different covariances")
            return value
        return GaussianPolynomial.constant(self.cov, value)

    # perfbench/spans.py wraps these entries through the class's own
    # __dict__, so they must live here and not only on SparsePoly.
    __mul__ = __rmul__ = SparsePoly.__mul__

    partial_derivative = SparsePoly.derivative

    @classmethod
    def constant(cls, cov: CovSpec, value) -> "GaussianPolynomial":
        return cls._of(cov, {(): ParamPoly._coerce(value)})

    @classmethod
    def coordinate(cls, cov: CovSpec, index: int, power: int = 1) -> "GaussianPolynomial":
        index, power = operator.index(index), operator.index(power)
        if not 0 <= index < cov.dimension or power < 0:
            raise ValueError(
                f"coordinate {index} to power {power} is outside dimension "
                f"{cov.dimension} or negative"
            )
        exps = [0] * cov.dimension
        exps[index] = power
        return cls(cov, {tuple(exps): 1})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianPolynomial):
            return NotImplemented
        return self.cov == other.cov and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"GaussianPolynomial({len(self.terms)} terms, d={self.cov.dimension})"


def expectation(f: GaussianPolynomial) -> ParamPoly:
    """E[f] as an exact polynomial in the covariance parameters."""
    return expectation_of_product(f, GaussianPolynomial.constant(f.cov, 1))


def _parity_classes(f: GaussianPolynomial, identity: bool):
    groups: dict[tuple, list] = {}
    for key, coeff in f.terms.items():
        if identity:
            sig = tuple(i for i, e in key if e % 2)
        else:
            sig = (sum(e for _, e in key) % 2,)
        groups.setdefault(sig, []).append((key, coeff))
    return groups


def expectation_of_product(f: GaussianPolynomial, g: GaussianPolynomial) -> ParamPoly:
    """E[f * g] without materializing the product polynomial.

    Terms are bucketed by parity signature (coordinatewise for independent
    coordinates, total parity otherwise); only matching buckets can produce
    a non-vanishing moment.
    """
    f._coerce(g)  # raises ValueError over a different covariance
    if f.degree() + g.degree() > DEGREE_CAP:
        raise DegreeCapError(
            f"product degree {f.degree() + g.degree()} exceeds cap {DEGREE_CAP}"
        )
    identity = f.cov.is_identity
    left = _parity_classes(f, identity)
    right = _parity_classes(g, identity)
    total = ParamPoly()
    for sig, fterms in left.items():
        gterms = right.get(sig)
        if not gterms:
            continue
        for ka, ca in fterms:
            for kb, cb in gterms:
                total = total + ca * cb * _moment(f.cov, _merge(ka, kb))
    return total


def cumulant(f: GaussianPolynomial, order: int) -> ParamPoly:
    """Cumulant of f of the given order (1 through 6), exactly.

    Uses the raw-moment recursion
    kappa_n = mu_n - sum_{k<n} C(n-1, k-1) * kappa_k * mu_{n-k};
    order 4 therefore equals E[(f - Ef)^4] - 3 E[(f - Ef)^2]^2.
    """
    if not isinstance(order, int) or not 1 <= order <= 6:
        raise ValueError(f"cumulant order must be in 1..6, got {order!r}")
    degree = f.degree()
    if order * max(degree, 1) > DEGREE_CAP:
        raise DegreeCapError(
            f"order {order} of a degree-{degree} functional exceeds cap {DEGREE_CAP}"
        )
    powers = [GaussianPolynomial.constant(f.cov, 1), f]
    while len(powers) <= (order + 1) // 2:
        powers.append(powers[-1] * f)
    raw = {
        n: expectation_of_product(powers[(n + 1) // 2], powers[n // 2])
        for n in range(1, order + 1)
    }
    kappa: dict[int, ParamPoly] = {}
    for n in range(1, order + 1):
        acc = raw[n]
        for k in range(1, n):
            acc = acc - math.comb(n - 1, k - 1) * kappa[k] * raw[n - k]
        kappa[n] = acc
    return kappa[order]
