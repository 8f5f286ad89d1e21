"""Exact rational algebra: parameter polynomials, Hermite basis, root isolation.

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
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
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


class ParamPoly:
    """Polynomial in named parameters with exact rational coefficients.

    Canonical form: variable names are sorted, unused variables are pruned,
    zero coefficients are never stored, and each term key is one exponent
    tuple aligned with ``variables``.  Instances are immutable by convention;
    all arithmetic is exact.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], ExactScalar] | None = None,
    ):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names!r}")
        order = sorted(range(len(names)), key=names.__getitem__)
        sorted_names = tuple(names[i] for i in order)

        accumulated: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(operator.index, exps))
            if len(exps) != len(names):
                raise ValueError(f"exponent tuple {exps!r} does not match {names!r}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps!r}")
            key = tuple(exps[i] for i in order)
            value = _as_fraction(coeff)
            if value:
                accumulated[key] = accumulated.get(key, Fraction(0)) + value
        cleaned = {e: c for e, c in accumulated.items() if c}

        # Prune variables that no surviving term uses, so that equal
        # polynomials compare equal regardless of construction route.
        used = [any(e[i] for e in cleaned) for i in range(len(sorted_names))]
        if not all(used):
            keep = [i for i, u in enumerate(used) if u]
            sorted_names = tuple(sorted_names[i] for i in keep)
            cleaned = {tuple(e[i] for i in keep): c for e, c in cleaned.items()}

        self.variables = sorted_names
        self.terms = cleaned

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value: ExactScalar) -> "ParamPoly":
        value = _as_fraction(value)
        # already canonical, so the general constructor's checks are skipped
        result = cls.__new__(cls)
        result.variables = ()
        result.terms = {(): value} if value else {}
        return result

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        return cls((name,), {(1,): Fraction(1)})

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        if self.variables:
            raise ValueError(f"polynomial {self} is not constant")
        return self.terms.get((), Fraction(0))

    def degree(self) -> int:
        """Total degree (0 for constants, including the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, **powers: int) -> Fraction:
        """Coefficient of the monomial with the given named exponents."""
        exps = tuple(powers.get(v, 0) for v in self.variables)
        extra = set(powers) - set(self.variables)
        if any(powers[name] for name in extra):
            return Fraction(0)
        return self.terms.get(exps, Fraction(0))

    # -- alignment helper -------------------------------------------------

    def _aligned(self, other: "ParamPoly"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = tuple(sorted(set(self.variables) | set(other.variables)))

        def remap(poly: "ParamPoly") -> dict[tuple[int, ...], Fraction]:
            pos = [merged.index(v) for v in poly.variables]
            out = {}
            for exps, c in poly.terms.items():
                key = [0] * len(merged)
                for p, e in zip(pos, exps):
                    key[p] = e
                out[tuple(key)] = c
            return out

        return merged, remap(self), remap(other)

    @staticmethod
    def _coerce(value) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        return ParamPoly.constant(value)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "ParamPoly":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        names, a, b = self._aligned(other)
        out = dict(a)
        for exps, c in b.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return ParamPoly(names, out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        result = ParamPoly.__new__(ParamPoly)
        result.variables = self.variables
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other) -> "ParamPoly":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ParamPoly":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not self.terms or not other.terms:
            return ParamPoly()
        # Constant fast paths keep the heavily used scalar case cheap.
        if not self.variables:
            k = self.terms[()]
            result = ParamPoly.__new__(ParamPoly)
            result.variables = other.variables
            result.terms = {e: c * k for e, c in other.terms.items()}
            return result
        if not other.variables:
            return other * self
        names, a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                if key in out:
                    out[key] += prod
                else:
                    out[key] = prod
        return ParamPoly(names, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ParamPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ParamPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.variables and self.constant_value() == other
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # mutable-looking container; not intended as a dict key

    # -- calculus / evaluation ---------------------------------------------

    def derivative(self, name: str) -> "ParamPoly":
        if name not in self.variables:
            return ParamPoly()
        i = self.variables.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                key = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                out[key] = out.get(key, Fraction(0)) + c * exps[i]
        return ParamPoly(self.variables, out)

    def substitute(self, name: str, value: ExactScalar) -> "ParamPoly":
        """Exactly substitute one parameter by a rational value."""
        if name not in self.variables:
            return self
        value = _as_fraction(value)
        i = self.variables.index(name)
        names = self.variables[:i] + self.variables[i + 1 :]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            key = exps[:i] + exps[i + 1 :]
            scaled = c * value ** exps[i]
            out[key] = out.get(key, Fraction(0)) + scaled
        return ParamPoly(names, out)

    def evaluate(self, assignment: Mapping[str, ExactScalar]) -> Fraction:
        """Exact evaluation; every variable must be assigned a rational."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"missing parameter values for {missing}")
        values = [_as_fraction(assignment[v]) for v in self.variables]
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def evaluate_float(self, assignment: Mapping[str, float]) -> float:
        """Floating evaluation via nested Horner recursion over variables."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"missing parameter values for {missing}")
        items = [(exps, float(c)) for exps, c in self.terms.items()]
        return _horner(self.variables, items, assignment)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
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
