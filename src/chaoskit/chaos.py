"""Symmetric tensor calculus over a finite orthonormal system.

Conventions used throughout:

* A :class:`SymTensor` of order p stores one exact value per sorted
  multi-index; the value is shared by every permutation of that index.
* Norms are full-tensor Euclidean norms: ``|u|^2`` sums the squared entry
  over all index permutations, i.e. orbit size times the stored square.
* ``multiple_integral`` maps a kernel to the polynomial whose coefficient on
  ``prod_i H_{a_i}(x_i)`` is the kernel entry times its orbit size, which
  gives the isometry E[I_p(u) I_q(v)] = (p == q) * p! * <u, v>.
* The carre-du-champ operator is oriented so that E[gamma(X)] equals the
  variance of X.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .algebra import Monomial, ParamPoly, _as_fraction, _as_index, _as_indices, hermite
from .wick import CovSpec, GaussianPolynomial

__all__ = [
    "SymTensor",
    "Tensor",
    "ChaosElement",
    "HVector",
    "ProductExpansion",
    "Kappa4Decomposition",
    "MixedTermBound",
    "contract",
    "contract_sym",
    "multiple_integral",
    "product_formula_expand",
    "malliavin_derivative",
    "ou_inverse",
    "gamma",
    "gamma_variance",
    "stein_bound",
    "kappa4_exact",
    "kappa4_decomposition",
    "max_contraction_norms",
    "mixed_term_bound_check",
]


def _orbit_size(idx: tuple[int, ...]) -> int:
    """Distinct permutations of a sorted index: p! / prod m_i!, in integers."""
    size, run, prev = math.factorial(len(idx)), 0, None
    for i in idx:
        run = run + 1 if i == prev else 1
        size //= run
        prev = i
    return size


def _orbit_sum(terms) -> Fraction:
    """sum of x / w over (w, x) integer pairs, the x summed per w first."""
    groups: dict[int, int] = {}
    for w, x in terms:
        groups[w] = groups.get(w, 0) + x
    return sum((Fraction(x, w) for w, x in groups.items()), Fraction(0))


class SymTensor:
    """Symmetric order-p tensor with exact rational entries.

    ``coeffs`` maps each sorted multi-index (length ``order``, entries in
    ``range(dimension)``) to the common value of the tensor on that orbit.
    Zero values are not stored.
    """

    __slots__ = ("dimension", "order", "coeffs")

    def __init__(
        self,
        dimension: int,
        order: int,
        coeffs: Mapping[tuple[int, ...], Union[Fraction, int]] | None = None,
    ):
        order, dimension = _as_index(order), _as_index(dimension)
        if order < 1:
            raise ValueError(f"order must be a positive integer, got {order!r}")
        if dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for idx, value in (coeffs or {}).items():
            idx = _as_indices(idx, order, dimension)
            if list(idx) != sorted(idx):
                raise ValueError(f"index {idx!r} is not sorted; store orbit values once")
            v = _as_fraction(value)
            if v:
                cleaned[idx] = v
        self.dimension = dimension
        self.order = order
        self.coeffs = cleaned

    @classmethod
    def _of(cls, dimension: int, order: int, scale: int, sums: dict) -> "SymTensor":
        """Entry t / (scale orbit(m)) at each sorted m, t = sums[m] (not validated)."""
        tensor = cls.__new__(cls)
        tensor.dimension, tensor.order = dimension, order
        tensor.coeffs = {m: Fraction(t, scale * _orbit_size(m)) for m, t in sums.items() if t}
        return tensor

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def norm_sq(self) -> Fraction:
        """Full-tensor squared Euclidean norm (orbit-weighted)."""
        return sum(
            (_orbit_size(idx) * c * c for idx, c in self.coeffs.items()),
            Fraction(0),
        )

    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq()))

    def inner(self, other: "SymTensor") -> Fraction:
        """Full-tensor inner product <self, other>."""
        if (self.dimension, self.order) != (other.dimension, other.order):
            raise ValueError("inner product needs matching dimension and order")
        small, large = self.coeffs, other.coeffs
        if len(small) > len(large):
            small, large = large, small
        total = Fraction(0)
        for idx, c in small.items():
            d = large.get(idx)
            if d is not None:
                total += _orbit_size(idx) * c * d
        return total

    def scale(self, factor: Union[Fraction, int]) -> "SymTensor":
        factor = _as_fraction(factor)
        return SymTensor(
            self.dimension,
            self.order,
            {idx: c * factor for idx, c in self.coeffs.items()},
        )

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if not isinstance(other, SymTensor):
            return NotImplemented
        if (self.dimension, self.order) != (other.dimension, other.order):
            raise ValueError("sum needs matching dimension and order")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, Fraction(0)) + c
        return SymTensor(self.dimension, self.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SymTensor(d={self.dimension}, order={self.order}, nnz={len(self.coeffs)})"


class Tensor:
    """General (not necessarily symmetric) tensor stored by full index."""

    __slots__ = ("dimension", "order", "entries")

    def __init__(
        self,
        dimension: int,
        order: int,
        entries: Mapping[tuple[int, ...], Union[Fraction, int]] | None = None,
    ):
        order, dimension = _as_index(order), _as_index(dimension)
        if order < 0:
            raise ValueError("order must be non-negative")
        if dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for idx, value in (entries or {}).items():
            idx = _as_indices(idx, order, dimension)
            value = _as_fraction(value)
            if value:
                cleaned[idx] = value
        self.dimension = dimension
        self.order = order
        self.entries = cleaned

    @classmethod
    def _of(cls, dimension: int, order: int, entries: dict[tuple[int, ...], Fraction]):
        """From full-index entries that the package built (not validated)."""
        tensor = cls.__new__(cls)
        tensor.dimension, tensor.order, tensor.entries = dimension, order, entries
        return tensor

    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.entries.values()), Fraction(0))

    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq()))

    def scalar_value(self) -> Fraction:
        if self.order != 0:
            raise ValueError("scalar_value needs an order-0 tensor")
        return self.entries.get((), Fraction(0))

    def __repr__(self) -> str:
        return f"Tensor(d={self.dimension}, order={self.order}, nnz={len(self.entries)})"


def _check_contraction(u: SymTensor, v: SymTensor, r: int) -> None:
    if u.dimension != v.dimension:
        raise ValueError("contraction needs matching dimensions")
    if not 0 <= _as_index(r) <= min(u.order, v.order):
        raise ValueError(f"contraction order r={r} out of range")


def _by_submultiset(u: SymTensor, r: int) -> tuple[int, dict[tuple[int, ...], list]]:
    """Index L * u, L the lcm of u's denominators, by each distinct size-r
    sub-multiset s of every stored index a.

    Each s maps to the pairs (a minus s, L * u[a] * orbit size of a minus s).
    """
    den = math.lcm(*(c.denominator for c in u.coeffs.values()))
    index: dict[tuple[int, ...], list] = {}
    for idx, c in u.coeffs.items():
        x = c.numerator * den // c.denominator
        for s in set(itertools.combinations(idx, r)):
            rest = list(idx)
            for i in s:
                rest.remove(i)
            rest = tuple(rest)
            index.setdefault(s, []).append((rest, x * _orbit_size(rest)))
    return den, index


def _contraction(
    u: SymTensor, v: SymTensor, r: int
) -> tuple[int, dict[tuple[tuple[int, ...], tuple[int, ...]], int]]:
    """The one contraction join: L and {(a, b): L * block sum of u (x)_r v}.

    For symmetric kernels u (x)_r v takes one value on all orbit(a) orbit(b)
    full indices a' + b', a' a permutation of the sorted index a and b' of
    b: the sum over sorted s of orbit(s) u[a + s] v[b + s].  The block sum
    is that value times orbit(a) orbit(b); it runs over the integer-scaled
    kernels, and L is the product of their scales.
    """
    den_u, left = _by_submultiset(u, r)
    den_v, right = (den_u, left) if v is u else _by_submultiset(v, r)
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for s, heads in left.items():
        tails = right.get(s)
        if tails is None:
            continue
        w = _orbit_size(s)
        for a, x in heads:
            xw = x * w
            for b, y in tails:
                blocks[a, b] = blocks.get((a, b), 0) + xw * y
    return den_u * den_v, blocks


def contract(u: SymTensor, v: SymTensor, r: int) -> Tensor:
    """The r-fold contraction u (x)_r v over the last r slots of each kernel.

    Result has order p + q - 2r and is in general not symmetric.  r = 0 is
    the tensor product; r = p = q gives the order-0 tensor <u, v>.  Each
    block of :func:`_contraction` is written to its full indices.
    """
    _check_contraction(u, v, r)
    den, blocks = _contraction(u, v, r)
    perms: dict[tuple[int, ...], set] = {}
    out: dict[tuple[int, ...], Fraction] = {}
    for (a, b), total in blocks.items():
        if not total:
            continue
        for idx in (a, b):
            if idx not in perms:
                perms[idx] = set(itertools.permutations(idx))
        value = Fraction(total, den * len(perms[a]) * len(perms[b]))
        for head in perms[a]:
            for tail in perms[b]:
                out[head + tail] = value
    return Tensor._of(u.dimension, u.order + v.order - 2 * r, out)


def _contraction_norm_sq(u: SymTensor, v: SymTensor, r: int) -> Fraction:
    """|u (x)_r v|^2 from the blocks of :func:`_contraction`.

    Block (a, b) covers orbit(a) orbit(b) full indices, each holding
    total / (L orbit(a) orbit(b)), so it adds total^2 / (orbit(a) orbit(b))
    / L^2; :func:`_orbit_sum` sums the integer squares per orbit product.
    """
    den, blocks = _contraction(u, v, r)
    squares = ((_orbit_size(a) * _orbit_size(b), t * t) for (a, b), t in blocks.items())
    return _orbit_sum(squares) / (den * den)


def _sym_contract(u: SymTensor, v: SymTensor, r: int) -> tuple[int, dict]:
    """L and {sorted m: t_m} with u (x)~_r v at m equal to t_m / (L orbit(m)).

    t_m, the orbit sum of L * u (x)_r v at m, is the sum of the block sums of
    :func:`_contraction` with sorted(a + b) = m.  For r = p = q the one key
    is () and t / L = <u, v>.
    """
    den, blocks = _contraction(u, v, r)
    acc: dict[tuple[int, ...], int] = {}
    for (a, b), total in blocks.items():
        key = tuple(sorted(a + b))
        acc[key] = acc.get(key, 0) + total
    return den, acc


def contract_sym(u: SymTensor, v: SymTensor, r: int) -> SymTensor:
    """Symmetrized contraction; requires a result of order >= 1."""
    _check_contraction(u, v, r)
    if u.order + v.order == 2 * r:
        raise ValueError("symmetrized contraction is undefined for order 0")
    return SymTensor._of(u.dimension, u.order + v.order - 2 * r, *_sym_contract(u, v, r))


# ---------------------------------------------------------------------------
# Chaos elements and multiple integrals.
# ---------------------------------------------------------------------------


class ChaosElement:
    """Finite sum of multiple integrals, stored as {order: kernel}."""

    __slots__ = ("dimension", "components")

    def __init__(self, dimension: int, components: Mapping[int, SymTensor]):
        dimension = _as_index(dimension)
        if dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        cleaned: dict[int, SymTensor] = {}
        for order, tensor in components.items():
            order = _as_index(order)
            if order < 1:
                raise ValueError(f"component orders must be >= 1, got {order!r}")
            if tensor.order != order:
                raise ValueError(
                    f"kernel of order {tensor.order} filed under order {order}"
                )
            if tensor.dimension != dimension:
                raise ValueError("component dimension mismatch")
            if not tensor.is_zero:
                cleaned[order] = tensor
        self.dimension = dimension
        self.components = dict(sorted(cleaned.items()))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def variance(self) -> Fraction:
        """E[X^2] = sum_p p! * |u_p|^2, exactly."""
        return sum(
            (math.factorial(p) * u.norm_sq() for p, u in self.components.items()),
            Fraction(0),
        )

    def compile(self) -> GaussianPolynomial:
        """Expand into an explicit polynomial of i.i.d. coordinates."""
        return sum(
            (multiple_integral(u) for u in self.components.values()),
            GaussianPolynomial(CovSpec.identity(self.dimension), {}),
        )

    def scale(self, factor: Union[Fraction, int]) -> "ChaosElement":
        return ChaosElement(
            self.dimension,
            {p: u.scale(factor) for p, u in self.components.items()},
        )

    def __add__(self, other: "ChaosElement") -> "ChaosElement":
        if not isinstance(other, ChaosElement):
            return NotImplemented
        if self.dimension != other.dimension:
            raise ValueError("sum needs matching dimensions")
        out = dict(self.components)
        for p, u in other.components.items():
            out[p] = out[p] + u if p in out else u
        return ChaosElement(self.dimension, out)

    def __repr__(self) -> str:
        orders = ", ".join(str(p) for p in self.components)
        return f"ChaosElement(d={self.dimension}, orders=[{orders}])"


@dataclass(frozen=True)
class HVector:
    """Coordinate vector of polynomial functionals (e.g. a Malliavin gradient)."""

    dimension: int
    entries: tuple[GaussianPolynomial, ...]

    def __post_init__(self):
        if len(self.entries) != self.dimension:
            raise ValueError("entry count must equal the dimension")

    def inner(self, other: "HVector") -> GaussianPolynomial:
        """Pointwise inner product sum_i self_i * other_i."""
        total = GaussianPolynomial(CovSpec.identity(self.dimension), {})
        for a, b in zip(self.entries, other.entries):
            if not (a.is_zero or b.is_zero):
                total = total + a * b
        return total


def multiple_integral(u: SymTensor) -> GaussianPolynomial:
    """I_p(u) as a polynomial of i.i.d. standard Gaussian coordinates.

    The coefficient of prod_i H_{a_i}(x_i) is the stored kernel value times
    the orbit size of its index, where a is the index multiplicity vector.
    The sorted index gives each coordinate's multiplicity as one run, so the
    sparse keys come out sorted.
    """
    acc: dict[Monomial, Fraction] = {}
    for idx, value in u.coeffs.items():
        partial = [((), value * _orbit_size(idx))]
        for i, run in itertools.groupby(idx):
            hcoeffs = hermite(sum(1 for _ in run)).coefficients
            partial = [
                (key + ((i, k),) if k else key, c * hk)
                for key, c in partial
                for k, hk in enumerate(hcoeffs)
                if hk
            ]
        for key, c in partial:
            acc[key] = acc.get(key, 0) + c
    return GaussianPolynomial._of(
        CovSpec.identity(u.dimension),
        {key: ParamPoly.constant(c) for key, c in acc.items()},
    )


@dataclass(frozen=True)
class ProductExpansion:
    """I_p(u) * I_q(v) rewritten as chaos components plus an order-0 part."""

    element: ChaosElement
    constant: Fraction


def _product_sum(
    pairs: list[tuple[SymTensor, SymTensor, Union[Fraction, int]]],
    by_r: bool = False,
) -> tuple[Fraction, dict]:
    """sum over (u, v, w) and r of w r! C(p,r) C(q,r) u (x)~_r v, times r if ``by_r``.

    The one product-formula sum, kept in integers.  Returns the r = p = q
    terms as one order-0 constant c and, per order k >= 1 with a nonzero
    entry, (L_k, {sorted m: t_m}) with h_k[m] = t_m / (L_k orbit(m)), L_k the
    lcm of the order-k terms' denominators.  With ``by_r`` the r = 0 terms
    vanish, and the r = p = q terms, which no caller reads, are skipped too.
    """
    terms: dict[int, list] = {}
    constant = Fraction(0)
    for u, v, w in pairs:
        p, q = u.order, v.order
        top = min(p, q) - (by_r and p == q)
        for r in range(1 if by_r else 0, top + 1):
            coef = w * math.factorial(r) * math.comb(p, r) * math.comb(q, r)
            den, acc = _sym_contract(u, v, r)
            term = Fraction(coef * r if by_r else coef, den)
            if p + q == 2 * r:
                constant += term * acc.get((), 0)
            else:
                terms.setdefault(p + q - 2 * r, []).append((term, acc))
    sums = {}
    for k, parts in sorted(terms.items()):
        scale = math.lcm(*(f.denominator for f, _ in parts))
        total: dict[tuple[int, ...], int] = {}
        for f, acc in parts:
            factor = f.numerator * (scale // f.denominator)
            for m, t in acc.items():
                total[m] = total.get(m, 0) + factor * t
        if any(total.values()):
            sums[k] = (scale, total)
    return constant, sums


def _inner(a: dict, b: dict) -> Fraction:
    """sum_k k! <a_k, b_k> = E[I(a) I(b)] for two integer product sums.

    <a_k, b_k> = sum_m orbit(m) a_k[m] b_k[m] = sum_m s_m t_m / orbit(m) / (L_a L_b),
    the integer products grouped by orbit (:func:`_orbit_sum`).
    """
    total = Fraction(0)
    for k in a.keys() & b.keys():
        (scale_a, sa), (scale_b, sb) = a[k], b[k]
        dot = _orbit_sum((_orbit_size(m), s * sb[m]) for m, s in sa.items() if m in sb)
        total += math.factorial(k) * dot / (scale_a * scale_b)
    return total


def _square(X: ChaosElement, by_r: bool = False) -> tuple[Fraction, dict]:
    """X^2, or gamma(X) minus its order-0 part Var X when ``by_r``, by the
    product formula.

    X^2 sums I_p(u_p) I_q(u_q) over ordered component pairs; gamma(X) =
    sum_{p,q} q^{-1} <D I_p(u_p), D I_q(u_q)> weights each (p, q, r) product
    term by r/q.  The pairs (p, q) and (q, p) share one symmetrized
    contraction, so each unordered pair is summed once with the two weights
    added: 1 or 2 for X^2, r/p or r (p+q)/(pq) for gamma(X).
    """
    weight = (lambda k: Fraction(1, k)) if by_r else (lambda k: 1)
    items = list(X.components.items())
    pairs = [
        (u, v, weight(p) if p == q else weight(p) + weight(q))
        for i, (p, u) in enumerate(items)
        for q, v in items[i:]
    ]
    return _product_sum(pairs, by_r)


def product_formula_expand(u: SymTensor, v: SymTensor) -> ProductExpansion:
    """Expand I_p(u) I_q(v) = sum_r r! C(p,r) C(q,r) I_{p+q-2r}(sym contraction).

    The r = p = q term is an order-0 constant and is reported separately.
    """
    if u.dimension != v.dimension:
        raise ValueError("product formula needs matching dimensions")
    constant, sums = _product_sum([(u, v, 1)])
    components = {k: SymTensor._of(u.dimension, k, *sums[k]) for k in sums}
    return ProductExpansion(ChaosElement(u.dimension, components), constant)


# ---------------------------------------------------------------------------
# Malliavin-style operators.
# ---------------------------------------------------------------------------


def malliavin_derivative(X: ChaosElement) -> HVector:
    """The gradient D X: X is a polynomial of i.i.d. standard coordinates,
    so D_i X is its partial derivative in x_i (which equals
    sum_p p * I_{p-1}(u_p(., e_i)))."""
    f = X.compile()
    return HVector(X.dimension, tuple(f.derivative(i) for i in range(X.dimension)))


def ou_inverse(X: ChaosElement) -> ChaosElement:
    """Pseudo-inverse of the number operator on centered elements: scale by -1/p."""
    return ChaosElement(
        X.dimension,
        {p: u.scale(Fraction(-1, p)) for p, u in X.components.items()},
    )


def gamma(X: ChaosElement) -> GaussianPolynomial:
    """Carre-du-champ gamma(X) = <DX, -D L^{-1} X>, oriented so E[gamma] = Var X."""
    anti = malliavin_derivative(ou_inverse(X).scale(-1))  # -D L^{-1} X
    return malliavin_derivative(X).inner(anti)


def gamma_variance(X: ChaosElement) -> Fraction:
    """Var(gamma(X)) = sum_{k>=1} k! |g_k|^2, exactly.

    g_k is the order-k kernel of gamma(X), the product formula weighted by
    r/q (see :func:`_square`); the order-0 part is Var X.  The sum is read
    from the integer numerators of g_k (:func:`_inner`); no kernel is built.
    """
    g = _square(X, by_r=True)[1]
    return _inner(g, g)


def stein_bound(X: ChaosElement, which: str = "combined") -> float:
    """Distance bound to the centered Gaussian with the same variance.

    wasserstein: (1/sigma) * sqrt(Var gamma);  tv: (2/sigma^2) * sqrt(Var gamma);
    combined: 2 / min(sigma, sigma^2) * sqrt(Var gamma).
    """
    if which not in ("wasserstein", "tv", "combined"):
        raise ValueError(f"unknown bound kind {which!r}")
    variance = float(X.variance())
    if variance <= 0:
        raise ValueError("stein_bound needs a non-degenerate element")
    sigma = math.sqrt(variance)
    spread = math.sqrt(float(gamma_variance(X)))
    if which == "wasserstein":
        return spread / sigma
    if which == "tv":
        return 2.0 * spread / variance
    return 2.0 * spread / min(sigma, variance)


# ---------------------------------------------------------------------------
# Fourth-cumulant machinery.
# ---------------------------------------------------------------------------


def kappa4_exact(X: ChaosElement) -> Fraction:
    """The fourth cumulant of X, exactly.

    X^2 = c + sum_k I_k(h_k) by the product formula (see :func:`_square`).
    X is centered, so E[X^2] = c, E[X^4] = c^2 + sum_k k! |h_k|^2 and
    kappa4 = Var(X^2) - 2 c^2.  The sum over k is read from the integer
    numerators of h_k (see :func:`_inner`); no kernel is built.
    """
    c, h = _square(X)
    return _inner(h, h) - 2 * c * c


@dataclass(frozen=True)
class Kappa4Decomposition:
    k4x: Fraction
    k4y: Fraction
    k4z: Fraction
    cov_sq: Fraction


def kappa4_decomposition(Y: SymTensor, Z: SymTensor) -> Kappa4Decomposition:
    """Split kappa4(I_p(Y) + I_q(Z)) for kernels of different order parity.

    By the product formula y^2 = cy + I(sy), z^2 = cz + I(sz), yz = I(yz):
    k4y = Var sy - 2 cy^2, cov_sq = sum_k k! <sy_k, sz_k> and, as
    X^2 = y^2 + 2 yz + z^2, k4x = Var sy + 2 cov_sq + Var sz + 4 Var yz
    - 2 (cy + cz)^2, every term read from integer sums (:func:`_inner`).
    Hard invariants: the odd cross moments E[y^3 z] = sum_k k! <sy_k, yz_k>
    and E[y z^3] vanish (yz has no constant and no order of sy or sz),
    Cov(Y^2, Z^2) >= 0, and k4x = k4y + k4z + 6 cov_sq, which holds iff
    E[(yz)^2] = E[y^2 z^2]: the yz contractions against the yy and zz ones.
    """
    if (Y.order - Z.order) % 2 == 0:
        raise ValueError("kernels must have orders of different parity")
    if Y.dimension != Z.dimension:
        raise ValueError("kernels must share a dimension")
    cy, sy = _product_sum([(Y, Y, 1)])
    cz, sz = _product_sum([(Z, Z, 1)])
    c_yz, yz = _product_sum([(Y, Z, 1)])
    if c_yz or yz.keys() & (sy.keys() | sz.keys()):
        raise RuntimeError("odd cross moments failed to vanish; engine inconsistency")
    var_y, var_z = _inner(sy, sy), _inner(sz, sz)
    k4y = var_y - 2 * cy * cy
    k4z = var_z - 2 * cz * cz
    cov_sq = _inner(sy, sz)
    if cov_sq < 0:
        raise RuntimeError("Cov(Y^2, Z^2) negative; engine inconsistency")
    k4x = var_y + 2 * cov_sq + var_z + 4 * _inner(yz, yz) - 2 * (cy + cz) ** 2
    if k4x != k4y + k4z + 6 * cov_sq:
        raise RuntimeError("fourth-cumulant split failed; engine inconsistency")
    return Kappa4Decomposition(k4x=k4x, k4y=k4y, k4z=k4z, cov_sq=cov_sq)


def max_contraction_norms(u: SymTensor) -> float:
    """max over r in 1..p-1 of |u (x)_r u| (0.0 when the order is 1)."""
    if u.order == 1:
        return 0.0
    return max(
        math.sqrt(float(_contraction_norm_sq(u, u, r))) for r in range(1, u.order)
    )


@dataclass(frozen=True)
class MixedTermBound:
    """Exact left side, float right side, and an exactly decided verdict."""

    lhs: Fraction
    rhs: float
    holds: bool


def mixed_term_bound_check(u: SymTensor, v: SymTensor) -> MixedTermBound:
    """Check the cross-term estimate for kernels of orders p < q.

    lhs = E[G^2] with G = q^{-1} <D I_p(u), D I_q(v)>, the product formula
    weighted by r/q, computed exactly by the isometry.  The bound is

        p!^2 C(q-1, p-1)^2 (q-p)! |u|^2 |v (x)_{q-p} v|
        + (p^2/2) sum_{r=1}^{p-1} (r-1)!^2 C(p-1, r-1)^2 C(q-1, r-1)^2
          (p+q-2r)! (|u (x)_{p-r} u|^2 + |v (x)_{p-r} v|^2).

    The verdict compares lhs with A*sqrt(B) + C using exact rational
    arithmetic (squaring out the single square root), so it never depends on
    floating-point rounding.
    """
    p, q = u.order, v.order
    if p >= q:
        raise ValueError(f"requires p < q, got p={p}, q={q}")
    if u.dimension != v.dimension:
        raise ValueError("kernels must share a dimension")
    # p < q, so G has no order-0 part and E[G] = 0.
    g = _product_sum([(u, v, Fraction(1, q))], by_r=True)[1]
    lhs = _inner(g, g)

    A = (
        Fraction(
            math.factorial(p) ** 2
            * math.comb(q - 1, p - 1) ** 2
            * math.factorial(q - p)
        )
        * u.norm_sq()
    )
    B = _contraction_norm_sq(v, v, q - p)
    S = Fraction(0)
    for r in range(1, p):
        coef = (
            math.factorial(r - 1) ** 2
            * math.comb(p - 1, r - 1) ** 2
            * math.comb(q - 1, r - 1) ** 2
            * math.factorial(p + q - 2 * r)
        )
        S += coef * (
            _contraction_norm_sq(u, u, p - r) + _contraction_norm_sq(v, v, p - r)
        )
    C = Fraction(p * p, 2) * S

    slack = lhs - C
    holds = slack <= 0 or slack * slack <= A * A * B
    rhs = float(A) * math.sqrt(float(B)) + float(C)
    return MixedTermBound(lhs=lhs, rhs=rhs, holds=holds)
