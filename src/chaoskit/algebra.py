"""Exact rational algebra: sparse polynomial ring, Hermite basis, root isolation.

Everything on the exact path is computed with arbitrary-precision rationals
(:class:`fractions.Fraction`).  Floats appear only at the named evaluation
boundaries: :meth:`ParamPoly.float_evaluator` (through which
:meth:`ParamPoly.evaluate_float` runs), :func:`param_eval` with float inputs,
and :func:`real_roots`, which is exact until it rounds the roots it returns.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Union

__all__ = [
    "Monomial",
    "SparsePoly",
    "ParamPoly",
    "HermitePoly",
    "double_factorial",
    "hermite",
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


def _as_index(value) -> int:
    """An integer argument as an int; bools and non-integers raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"integer expected, got {value!r}")
    return operator.index(value)


def _as_indices(values, length: int, bound: int | None = None) -> tuple[int, ...]:
    """``length`` integers in [0, bound), or >= 0 when ``bound`` is None; bools and
    non-integers raise TypeError, a wrong length or an entry out of range ValueError."""
    values = tuple(values)
    if bool in map(type, values):  # the first bool raises _as_index's TypeError
        _as_index(next(v for v in values if type(v) is bool))
    out = tuple(map(operator.index, values))
    if len(out) != length:
        raise ValueError(f"index {out!r} does not have length {length}")
    hi = math.inf if bound is None else bound
    if out and (min(out) < 0 or max(out) >= hi):
        raise ValueError(f"index {out!r} out of range [0, {hi})")
    return out


def double_factorial(n: int) -> int:
    """Product n * (n-2) * ... * 3 * 1 of an odd positive integer.

    double_factorial(1) == 1.  Even or non-positive input is rejected.
    """
    if _as_index(n) < 1 or n % 2 == 0:
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
        if _as_index(exponent) < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self._coerce(1)
        for _ in range(exponent):
            result = result * self
        return result

    @staticmethod
    def _from_dense(names: Sequence, terms: Mapping | None, coerce) -> dict:
        """Sparse terms from dense exponent tuples aligned with ``names``;
        coefficients go through ``coerce``, equal keys add, zeros drop."""
        out = {}
        for exps, coeff in (terms or {}).items():
            exps = _as_indices(exps, len(names))
            key = tuple(sorted((v, e) for v, e in zip(names, exps) if e))
            value = coerce(coeff)
            existing = out.get(key)
            out[key] = value if existing is None else existing + value
        return {k: c for k, c in out.items() if c}

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
        self.terms = self._from_dense(names, terms, _as_fraction)

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

    def float_evaluator(self) -> Callable[[Mapping[str, float]], float]:
        """The float evaluation function of this polynomial, with its Horner
        plan built once; call it on each assignment to evaluate."""
        variables = self.variables
        plan = _horner_plan(
            variables, [(key, float(c)) for key, c in self.terms.items()]
        )

        def evaluate(assignment: Mapping[str, float]) -> float:
            missing = [v for v in variables if v not in assignment]
            if missing:
                raise ValueError(f"missing parameter values for {missing}")
            return _run_horner(plan, assignment)

        return evaluate

    def evaluate_float(self, assignment: Mapping[str, float]) -> float:
        """Floating evaluation: build the Horner plan, then run it once."""
        return self.float_evaluator()(assignment)

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


def _horner_plan(variables, items):
    """Horner plan of (key, float coefficient) items: a float when no
    variables are left (the fsum of the coefficients), else the pair
    (variables[0], steps) whose steps, from the top exponent of variables[0]
    down to 0, hold the plan of that exponent's group or None when no key has
    it.  Each key's pairs are sorted, so variables[0] can only lead a key."""
    if not variables:
        return math.fsum(c for _, c in items)
    name, rest = variables[0], variables[1:]
    groups: dict[int, list] = {}
    for key, c in items:
        if key and key[0][0] == name:
            groups.setdefault(key[0][1], []).append((key[1:], c))
        else:
            groups.setdefault(0, []).append((key, c))
    steps = [
        _horner_plan(rest, groups[e]) if e in groups else None
        for e in range(max(groups), -1, -1)
    ]
    return name, steps


def _run_horner(plan, assignment) -> float:
    """Evaluate a Horner plan: multiply by the variable, add each group."""
    if isinstance(plan, float):
        return plan
    name, steps = plan
    x = float(assignment[name])
    acc = 0.0
    for step in steps:
        acc = acc * x
        if step is not None:
            acc += _run_horner(step, assignment)
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
    p = _as_index(p)
    if p < 0:
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


# ---------------------------------------------------------------------------
# Real root isolation for univariate ParamPoly.
# ---------------------------------------------------------------------------


def _divmod(num, den):
    """Quotient and remainder of coefficient lists, highest degree first."""
    num, quot = list(num), []
    while len(num) >= len(den):
        quot.append(num[0] / den[0])
        pad = den[1:] + [0] * (len(num) - len(den))
        num = [c - quot[-1] * d for c, d in zip(num[1:], pad)]
    while num and not num[0]:
        del num[0]
    return quot, num


def _derivative(p):
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]


def _sign_at(p, x: float) -> int:
    """Exact sign of the integer polynomial p at the double x."""
    num, den = x.as_integer_ratio()
    acc = 0
    for k, c in enumerate(p):
        acc = acc * num + c * den**k
    return (acc > 0) - (acc < 0)


def _ordinal(x: float) -> int:
    """Rank of x among the doubles: 0.0 is 0, adjacent doubles differ by 1."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return bits if bits < 1 << 63 else (1 << 63) - bits


def _double(k: int) -> float:
    """The double of rank k (inverse of :func:`_ordinal`)."""
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else (1 << 63) - k))[0]


def real_roots(poly: ParamPoly, interval: tuple[float, float]) -> list[float]:
    """Distinct real roots of a univariate polynomial on [lo, hi], ascending,
    each as the largest double <= the root (two roots in one ulp cell give
    that double twice).  Exact until that rounding: the Sturm chain of the
    square-free part p / gcd(p, p') counts the roots in (a, b] between
    doubles, intervals are halved until each holds one root, and the exact
    sign of the square-free part bisects it down to adjacent doubles.
    """
    if not isinstance(poly, ParamPoly) or len(poly.variables) != 1:
        raise ValueError("real_roots expects a univariate ParamPoly")
    lo, hi = float(interval[0]), float(interval[1])
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("interval must be finite with lo < hi")

    name = poly.variables[0]
    p = [poly.coefficient(**{name: e}) for e in range(poly.degree(), -1, -1)]
    g, r = p, _derivative(p)
    while r:
        g, r = r, _divmod(g, r)[1]
    chain = [_divmod(p, g)[0]]
    chain.append(_derivative(chain[0]))
    while len(chain[-1]) > 1:  # a square-free chain ends in a nonzero constant
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    for k, s in enumerate(chain):  # a positive multiple keeps every sign
        scale = math.lcm(*(c.denominator for c in s))
        chain[k] = [c.numerator * (scale // c.denominator) for c in s]
    square_free = chain[0]

    def variations(k: int) -> int:
        signs = [s for s in (_sign_at(q, _double(k)) for q in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    def isolate(a: int, b: int, va: int, vb: int) -> list[float]:
        """Roots in (_double(a), _double(b)], whose variations are va, vb."""
        n = va - vb
        if n > 1 and b - a > 1:
            m = (a + b) // 2
            vm = variations(m)
            return isolate(a, m, va, vm) + isolate(m, b, vm, vb)
        side = _sign_at(square_free, _double(b))  # 0 when a root sits at b
        while n == 1 and side and b - a > 1:  # bisect on the sign flip
            m = (a + b) // 2
            a, b = (a, m) if _sign_at(square_free, _double(m)) == side else (m, b)
        return [_double(a)] * (n - (not side)) + [_double(b)] * (not side)

    a, b = _ordinal(lo), _ordinal(hi)
    at_lo = [_double(a)] if _sign_at(square_free, lo) == 0 else []
    return at_lo + isolate(a, b, variations(a), variations(b))
