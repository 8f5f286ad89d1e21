"""Exact rational algebra: sparse polynomial ring, Hermite basis, root isolation.

Everything on the exact path is computed with arbitrary-precision rationals
(:class:`fractions.Fraction`).  Floats appear only at the named evaluation
boundaries: :meth:`ParamPoly.evaluate_float`, :func:`param_eval` with float
inputs, and :func:`real_roots`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence, Union

__all__ = [
    "Monomial",
    "SparsePoly",
    "ParamPoly",
    "HermitePoly",
    "RootFindError",
    "double_factorial",
    "hermite",
    "hermite_expand",
    "param_eval",
    "real_roots",
]

ExactScalar = Union[Fraction, int]


def _as_fraction(value: ExactScalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def double_factorial(n: int) -> int:
    """Product n * (n-2) * ... * 3 * 1 of an odd positive integer.

    double_factorial(1) == 1.  Even or non-positive input is rejected.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1 or n % 2 == 0:
        raise ValueError(f"double factorial needs an odd positive integer, got {n!r}")
    result = 1
    for factor in range(3, n + 1, 2):
        result *= factor
    return result


# Sparse monomial key: sorted (variable, exponent >= 1) pairs; () is the constant.
Monomial = tuple[tuple[Hashable, int], ...]


def _merge(a: Monomial, b: Monomial) -> Monomial:
    """Sparse key of the product of the monomials with keys a and b."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


class SparsePoly:
    """Polynomial ring on sparse monomial keys.

    ``terms`` maps a :data:`Monomial` key to a nonzero coefficient; a
    coefficient is zero exactly when it is falsy.  Subclasses supply
    ``_like`` (a result of their own kind from terms that may hold zeros)
    and ``_coerce`` (an operand as their own kind, raising ``TypeError`` for
    a foreign type).  Instances are immutable by convention.
    """

    __slots__ = ("terms",)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree (0 for constants, including the zero polynomial)."""
        return max((sum(e for _, e in key) for key in self.terms), default=0)

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            existing = out.get(key)
            out[key] = c if existing is None else existing + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = _merge(ka, kb)
                prod = ca * cb
                existing = out.get(key)
                out[key] = prod if existing is None else existing + prod
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self._coerce(1)
        for _ in range(exponent):
            result = result * self
        return result

    def derivative(self, variable):
        """Partial derivative in ``variable``, treating it as a plain variable."""
        out = {}
        for key, c in self.terms.items():
            for pos, (v, e) in enumerate(key):
                if v == variable:
                    lowered = ((v, e - 1),) if e > 1 else ()
                    reduced = key[:pos] + lowered + key[pos + 1 :]
                    scaled = c * e
                    existing = out.get(reduced)
                    out[reduced] = scaled if existing is None else existing + scaled
        return self._like(out)


class ParamPoly(SparsePoly):
    """Polynomial in named parameters with exact rational coefficients.

    Term keys are sparse monomial keys over parameter names, so equal
    polynomials have equal ``terms`` whatever the construction route.  The
    constructor takes dense exponent tuples aligned with ``variables``.
    """

    __slots__ = ()

    def __init__(
        self,
        variables: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], ExactScalar] | None = None,
    ):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names!r}")
        accumulated: dict[Monomial, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(operator.index, exps))
            if len(exps) != len(names):
                raise ValueError(f"exponent tuple {exps!r} does not match {names!r}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps!r}")
            key = tuple(sorted((v, e) for v, e in zip(names, exps) if e))
            value = _as_fraction(coeff)
            if value:
                accumulated[key] = accumulated.get(key, Fraction(0)) + value
        self.terms = {k: c for k, c in accumulated.items() if c}

    @staticmethod
    def _like(terms: Mapping[Monomial, Fraction]) -> "ParamPoly":
        result = ParamPoly.__new__(ParamPoly)
        result.terms = {k: c for k, c in terms.items() if c}
        return result

    @staticmethod
    def _coerce(value) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        return ParamPoly.constant(value)

    # perfbench/spans.py wraps these entries through the class's own
    # __dict__, so they must live here and not only on SparsePoly.
    __add__ = __radd__ = SparsePoly.__add__
    __mul__ = __rmul__ = SparsePoly.__mul__

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value: ExactScalar) -> "ParamPoly":
        return cls._like({(): _as_fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        return cls((name,), {(1,): Fraction(1)})

    # -- inspection -------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        """Sorted names of the parameters that some term uses."""
        return tuple(sorted({v for key in self.terms for v, _ in key}))

    @property
    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"polynomial {self} is not constant")
        return self.terms.get((), Fraction(0))

    def coefficient(self, **powers: int) -> Fraction:
        """Coefficient of the monomial with the given named exponents."""
        key = tuple(sorted((v, e) for v, e in powers.items() if e))
        return self.terms.get(key, Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable-looking container; not intended as a dict key

    # -- calculus / evaluation ---------------------------------------------

    def substitute(self, name: str, value: ExactScalar) -> "ParamPoly":
        """Exactly substitute one parameter by a rational value."""
        if name not in self.variables:
            return self
        value = _as_fraction(value)
        out: dict[Monomial, Fraction] = {}
        for key, c in self.terms.items():
            e = dict(key).get(name, 0)
            reduced = tuple(pair for pair in key if pair[0] != name)
            out[reduced] = out.get(reduced, Fraction(0)) + c * value**e
        return self._like(out)

    def evaluate(self, assignment: Mapping[str, ExactScalar]) -> Fraction:
        """Exact evaluation; every variable must be assigned a rational."""
        variables = self.variables
        missing = [v for v in variables if v not in assignment]
        if missing:
            raise ValueError(f"missing parameter values for {missing}")
        values = {v: _as_fraction(assignment[v]) for v in variables}
        total = Fraction(0)
        for key, c in self.terms.items():
            term = c
            for v, e in key:
                term *= values[v] ** e
            total += term
        return total

    def evaluate_float(self, assignment: Mapping[str, float]) -> float:
        """Floating evaluation via nested Horner recursion over variables."""
        variables = self.variables
        missing = [v for v in variables if v not in assignment]
        if missing:
            raise ValueError(f"missing parameter values for {missing}")
        items = [(key, float(c)) for key, c in self.terms.items()]
        return _horner(variables, items, assignment)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        variables = self.variables

        def order(key: Monomial):
            powers = dict(key)
            dense = tuple(powers.get(v, 0) for v in variables)
            return sum(dense), dense

        bits = []
        for key in sorted(self.terms, key=order):
            c = self.terms[key]
            factors = [name if e == 1 else f"{name}^{e}" for name, e in key]
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(factors))
            else:
                bits.append(f"{c}*" + "*".join(factors))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def _horner(variables, items, assignment) -> float:
    """Horner in variables[0] over groups of equal exponent, recursing on the
    rest; each key's pairs are sorted, so variables[0] can only lead a key."""
    if not variables:
        return math.fsum(c for _, c in items) if items else 0.0
    name, rest = variables[0], variables[1:]
    x = float(assignment[name])
    groups: dict[int, list] = {}
    for key, c in items:
        if key and key[0][0] == name:
            groups.setdefault(key[0][1], []).append((key[1:], c))
        else:
            groups.setdefault(0, []).append((key, c))
    acc = 0.0
    for e in range(max(groups), -1, -1):
        acc = acc * x
        if e in groups:
            acc += _horner(rest, groups[e], assignment)
    return acc


def param_eval(
    poly: ParamPoly, assignment: Mapping[str, Union[ExactScalar, float]]
):
    """Evaluate ``poly``, staying exact unless any assigned value is a float."""
    if any(isinstance(v, float) for v in assignment.values()):
        return poly.evaluate_float({k: float(v) for k, v in assignment.items()})
    return poly.evaluate(assignment)


# ---------------------------------------------------------------------------
# Hermite polynomials (unit-variance normalization: H2(x) = x^2 - 1).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitePoly:
    """Hermite polynomial in the monomial basis; coefficients ascending."""

    order: int
    coefficients: tuple[Fraction, ...]

    def __call__(self, x: ExactScalar) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


_HERMITE_COEFFS: list[tuple[Fraction, ...]] = [
    (Fraction(1),),
    (Fraction(0), Fraction(1)),
]


def hermite(p: int) -> HermitePoly:
    """The order-``p`` Hermite polynomial via H_{p+1} = x*H_p - p*H_{p-1}."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ValueError(f"order must be a non-negative integer, got {p!r}")
    while len(_HERMITE_COEFFS) <= p:
        k = len(_HERMITE_COEFFS) - 1
        hk = _HERMITE_COEFFS[k]
        hk_prev = _HERMITE_COEFFS[k - 1]
        coeffs = [Fraction(0)] * (k + 2)
        for i, c in enumerate(hk):
            coeffs[i + 1] += c
        for i, c in enumerate(hk_prev):
            coeffs[i] -= k * c
        _HERMITE_COEFFS.append(tuple(coeffs))
    return HermitePoly(p, _HERMITE_COEFFS[p])


def hermite_expand(coefficients: Sequence[ExactScalar]) -> dict[int, Fraction]:
    """Rewrite a polynomial (monomial coefficients, ascending) in the Hermite basis.

    Returns {order: coefficient} with zero entries omitted.  Exact, and
    invertible: substituting the Hermite polynomials back recovers the input.
    """
    work = [_as_fraction(c) for c in coefficients]
    while work and not work[-1]:
        work.pop()
    out: dict[int, Fraction] = {}
    for k in range(len(work) - 1, -1, -1):
        c = work[k]
        if not c:
            continue
        out[k] = c
        for i, h in enumerate(hermite(k).coefficients):
            work[i] -= c * h
    return {k: out[k] for k in sorted(out)}


# ---------------------------------------------------------------------------
# Real root isolation for univariate ParamPoly.
# ---------------------------------------------------------------------------


class RootFindError(RuntimeError):
    """Root polishing failed to converge within its iteration budget."""


_GRID_CELLS = 1024
_POLISH_BUDGET = 50


def real_roots(
    poly: ParamPoly,
    interval: tuple[float, float],
    tol: float = 1e-12,
) -> list[float]:
    """Real roots of a univariate polynomial on a closed interval.

    Sign changes are isolated on a uniform grid of ``_GRID_CELLS`` cells,
    refined by bisection to width <= tol, then polished with Newton steps.
    Roots are returned ascending and deduplicated to within 2*tol.  Raises
    :class:`RootFindError` if a Newton polish fails to settle within
    ``_POLISH_BUDGET`` iterations.
    """
    if not isinstance(poly, ParamPoly) or len(poly.variables) != 1:
        raise ValueError("real_roots expects a univariate ParamPoly")
    if poly.degree() < 1:
        raise ValueError("polynomial must have degree >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")

    name = poly.variables[0]
    deriv = poly.derivative(name)

    def f(x: float) -> float:
        return poly.evaluate_float({name: x})

    def fprime(x: float) -> float:
        return deriv.evaluate_float({name: x})

    xs = [lo + (hi - lo) * k / _GRID_CELLS for k in range(_GRID_CELLS + 1)]
    vals = [f(x) for x in xs]

    roots = [x for x, v in zip(xs, vals) if v == 0.0]
    for k in range(_GRID_CELLS):
        fa, fb = vals[k], vals[k + 1]
        if fa == 0.0 or fb == 0.0 or (fa > 0) == (fb > 0):
            continue
        a, b = xs[k], xs[k + 1]
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        x = 0.5 * (a + b)
        for _ in range(_POLISH_BUDGET):
            g = fprime(x)
            if g == 0.0:
                break  # keep the bisection value; already within tol
            step = f(x) / g
            candidate = x - step
            if not math.isfinite(candidate):
                raise RootFindError("Newton polish produced a non-finite iterate")
            x = candidate
            if abs(step) <= 0.25 * tol:
                break
        else:
            raise RootFindError(
                f"Newton polish did not converge within {_POLISH_BUDGET} iterations"
            )
        roots.append(min(max(x, lo), hi))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > 2 * tol:
            deduped.append(r)
    return deduped
