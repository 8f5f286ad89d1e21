"""Symmetric tensors, multiple integrals, product formula, Malliavin-type
operators, and the fourth-cumulant machinery."""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import full_items, ou_apply, symmetrize
from test_acceptance import mixed_parity_pairs, mixed_term_pairs, stein_chain_elements

from chaoskit import chaos
from chaoskit.algebra import ParamPoly
from chaoskit.chaos import (
    ChaosElement,
    HVector,
    Kappa4Decomposition,
    SymTensor,
    Tensor,
    contract,
    contract_sym,
    gamma,
    gamma_variance,
    kappa4_decomposition,
    kappa4_exact,
    malliavin_derivative,
    max_contraction_norms,
    mixed_term_bound_check,
    multiple_integral,
    ou_inverse,
    product_formula_expand,
    stein_bound,
)
from chaoskit.chaos import _contraction_norm_sq, _orbit_size
from chaoskit.cli import _random_chaos_element, _random_sym_tensor
from chaoskit.counterexamples import counterexample_h1h3
from chaoskit.montecarlo import FAMILY_NAMES, family_point
from chaoskit.wick import (
    CovSpec,
    GaussianPolynomial,
    cumulant,
    expectation,
    expectation_of_product,
    gaussian_moment,
)

HALF = Fraction(1, 2)


def sym_pair(d=2):
    """sym(e_0 (x) e_1): the normalized off-diagonal rank-one kernel."""
    return SymTensor(d, 2, {(0, 1): HALF})


# ---------------------------------------------------------------------------
# SymTensor / Tensor / symmetrize
# ---------------------------------------------------------------------------


def test_symtensor_validation():
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(1, 0): 1})  # unsorted index
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(0, 2): 1})  # out of range
    with pytest.raises(ValueError):
        SymTensor(2, 0, {})  # order must be >= 1
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(0,): 1})  # wrong arity
    for other in (SymTensor(3, 2, {(0, 1): 1}), SymTensor(2, 1, {(0,): 1})):
        with pytest.raises(ValueError):
            sym_pair().inner(other)  # shape mismatch
        with pytest.raises(ValueError):
            sym_pair() + other


def test_tensor_validation():
    t = Tensor(3, 2, {(2, 0): 4, (1, 1): Fraction(0), (0, 1): HALF, (1, 2): 0})
    assert t.entries == {(2, 0): Fraction(4), (0, 1): HALF}
    assert type(t.entries[(2, 0)]) is Fraction
    assert Tensor(3, 0, {(): Fraction(2, 3)}).scalar_value() == Fraction(2, 3)
    for bad in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            Tensor(3, 2, {bad: 1})  # out of range
    with pytest.raises(ValueError):
        Tensor(3, 2, {(0,): 1})  # wrong arity
    with pytest.raises(ValueError):
        Tensor(3, -1, {})
    for dimension, order, entries in ((-3, 0, {(): 1}), (0, 2, {})):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            Tensor(dimension, order, entries)
    with pytest.raises(TypeError):
        Tensor(3, 1, {(0,): 0.5})  # not an exact rational


def test_orbit_size_is_the_multinomial_count():
    # every sorted index with p <= 7 and d <= 4: p! / prod m_i! over the
    # multiplicities m_i; tests/oracles.symmetrize divides by this count
    for d in range(1, 5):
        for p in range(8):
            for idx in itertools.combinations_with_replacement(range(d), p):
                want = math.factorial(p)
                for m in Counter(idx).values():
                    want //= math.factorial(m)
                assert _orbit_size(idx) == want, idx


def test_norms_account_for_orbits():
    u = sym_pair()
    assert u.norm_sq() == HALF
    assert abs(u.norm() - math.sqrt(0.5)) < 1e-15
    diag = SymTensor(2, 2, {(0, 0): 1})
    assert diag.norm_sq() == 1
    assert u.inner(diag) == 0
    assert u.inner(u) == HALF


def test_symmetrize_order_two():
    raw = Tensor(2, 2, {(1, 0): Fraction(1)})
    s = symmetrize(raw)
    assert s.coeffs == {(0, 1): HALF}
    # mapping input with explicit shape
    s2 = symmetrize({(1, 0): 1}, dimension=2, order=2)
    assert s2 == s
    # idempotent on already-symmetric input
    assert symmetrize(s) is s


def test_symmetrize_order_three_orbit_of_three():
    s = symmetrize({(1, 1, 0): 1}, dimension=2, order=3)
    assert s.coeffs == {(0, 1, 1): Fraction(1, 3)}
    # all three orderings carry weight 1/3
    full = dict(full_items(s))
    assert full[(1, 1, 0)] == Fraction(1, 3)
    assert full[(1, 0, 1)] == Fraction(1, 3)
    assert full[(0, 1, 1)] == Fraction(1, 3)


def test_slot_contracts_one_index():
    def slot(u, i):
        return contract_sym(u, SymTensor(u.dimension, 1, {(i,): 1}), 1)

    u = sym_pair()
    assert slot(u, 0).coeffs == {(1,): HALF}
    assert slot(u, 1).coeffs == {(0,): HALF}
    deep = SymTensor(2, 3, {(0, 0, 1): Fraction(1, 3)})
    assert slot(deep, 0).coeffs == {(0, 1): Fraction(1, 3)}
    assert slot(deep, 1).coeffs == {(0, 0): Fraction(1, 3)}


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------


def test_contract_pair_with_itself():
    u = sym_pair()
    c = contract(u, u, 1)
    assert c.entries == {(0, 0): Fraction(1, 4), (1, 1): Fraction(1, 4)}
    assert c.norm_sq() == Fraction(1, 8)
    assert abs(c.norm() - math.sqrt(2) / 4) < 1e-15


def test_contract_extremes():
    u = sym_pair()
    full = contract(u, u, 2)
    assert full.order == 0
    assert full.scalar_value() == u.norm_sq()
    outer = contract(u, u, 0)
    assert outer.order == 4
    assert outer.norm_sq() == u.norm_sq() ** 2


def test_contract_validation():
    u = sym_pair()
    with pytest.raises(ValueError):
        contract(u, SymTensor(3, 2, {(0, 1): 1}), 1)
    with pytest.raises(ValueError):
        contract(u, u, 3)
    with pytest.raises(ValueError):
        contract_sym(u, u, 2)  # order-0 result
    with pytest.raises(ValueError):
        product_formula_expand(u, SymTensor(3, 2, {(0, 1): 1}))


def test_contract_sym_is_symmetric_kernel():
    u = SymTensor(2, 3, {(0, 0, 1): 1})
    v = sym_pair()
    s = contract_sym(u, v, 1)
    assert s.order == 3
    assert all(idx == tuple(sorted(idx)) for idx in s.coeffs)


def test_contract_sym_matches_symmetrized_contract():
    # orders 1 and 2 with mixed denominators; at r = 1 the entry (0,) cancels
    # (1/2 * 2/3 - 1/3 * 1), at r = 0 the three nonzero full entries on the
    # orbit of (0, 1, 1) cancel (2/3 - 1/3 - 1/3)
    u = SymTensor(3, 1, {(0,): HALF, (1,): Fraction(-1, 3), (2,): Fraction(5, 7)})
    v = SymTensor(
        3,
        2,
        {
            (0, 0): Fraction(2, 3),
            (0, 1): 1,
            (1, 1): Fraction(4, 3),
            (1, 2): Fraction(-3, 4),
            (2, 2): Fraction(1, 5),
        },
    )
    assert contract(u, v, 0).entries[(1, 0, 1)] == Fraction(-1, 3)
    assert (0, 1, 1) not in contract_sym(u, v, 0).coeffs
    assert (0,) not in contract_sym(u, v, 1).coeffs
    rng = random.Random(5151)
    pairs = [(u, v), (v, u)]
    while len(pairs) < 40:
        d = rng.randint(1, 4)
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        if p != q:
            pairs.append((_random_sym_tensor(rng, d, p), _random_sym_tensor(rng, d, q)))
    for a, b in pairs:
        for r in range(min(a.order, b.order) + 1):
            full = contract(a, b, r)
            assert_valid_tensor(full)
            assert full.entries == brute_force_contract(a, b, r)
            assert contract_sym(a, b, r) == symmetrize(full)
            assert _contraction_norm_sq(a, b, r) == full.norm_sq()


def test_block_contraction_norms_on_the_bound_corpora():
    # u (x)_r u for r = 1..p-1, the norms both bounds take, on every kernel of
    # the criterion 9 pairs and the criterion 10 points
    kernels = [t for pair in mixed_term_pairs() for t in pair]
    for n in (4, 16, 64, 256):
        kernels += family_point("dyadic_p2", n).scaled.element.components.values()
    for u in kernels:
        for r in range(1, u.order):
            full = contract(u, u, r)
            assert_valid_tensor(full)
            assert _contraction_norm_sq(u, u, r) == full.norm_sq()


def assert_valid_tensor(t: Tensor) -> None:
    """contract builds its Tensor unchecked; the checked constructor must agree."""
    assert Tensor(t.dimension, t.order, t.entries).entries == t.entries
    assert all(type(c) is Fraction and c for c in t.entries.values())


def brute_force_contract(u, v, r):
    """u (x)_r v by definition: sum over the r contracted slots of every full index."""
    d, p, q = u.dimension, u.order, v.order

    def entry(t, idx):
        return t.coeffs.get(tuple(sorted(idx)), 0)

    out = {}
    for head in itertools.product(range(d), repeat=p - r):
        for tail in itertools.product(range(d), repeat=q - r):
            total = sum(
                entry(u, head + s) * entry(v, tail + s)
                for s in itertools.product(range(d), repeat=r)
            )
            if total:
                out[head + tail] = total
    return out


# ---------------------------------------------------------------------------
# multiple integrals
# ---------------------------------------------------------------------------


def test_multiple_integral_diagonal_is_hermite():
    poly = multiple_integral(SymTensor(1, 2, {(0, 0): 1}))
    assert poly == GaussianPolynomial(CovSpec.identity(1), {(2,): 1, (0,): -1})
    cube = multiple_integral(SymTensor(1, 3, {(0, 0, 0): 1}))
    assert cube == GaussianPolynomial(CovSpec.identity(1), {(3,): 1, (1,): -3})


def test_multiple_integral_off_diagonal_pair():
    poly = multiple_integral(sym_pair())
    assert poly == GaussianPolynomial(CovSpec.identity(2), {(1, 1): 1})


def index_strategy(d, p):
    return st.tuples(*([st.integers(0, d - 1)] * p)).map(lambda t: tuple(sorted(t)))


def kernel_strategy(d, p):
    return (
        st.dictionaries(
            index_strategy(d, p),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=1,
            max_size=3,
        )
        .map(lambda coeffs: SymTensor(d, p, coeffs))
        .filter(lambda tensor: not tensor.is_zero)
    )


@given(
    st.integers(1, 3).flatmap(
        lambda p: st.tuples(kernel_strategy(3, p), kernel_strategy(3, p))
    )
)
@settings(max_examples=40, deadline=None)
def test_isometry_same_order(pair):
    u, v = pair
    lhs = expectation_of_product(multiple_integral(u), multiple_integral(v))
    assert lhs.is_constant
    assert lhs.constant_value() == math.factorial(u.order) * u.inner(v)


@given(kernel_strategy(2, 1), kernel_strategy(2, 2), kernel_strategy(2, 3))
@settings(max_examples=20, deadline=None)
def test_orthogonality_across_orders(u1, u2, u3):
    i1, i2, i3 = (multiple_integral(u) for u in (u1, u2, u3))
    assert expectation_of_product(i1, i2).constant_value() == 0
    assert expectation_of_product(i1, i3).constant_value() == 0
    assert expectation_of_product(i2, i3).constant_value() == 0
    assert expectation(i1).constant_value() == 0
    assert expectation(i2).constant_value() == 0
    assert expectation(i3).constant_value() == 0


# ---------------------------------------------------------------------------
# product formula
# ---------------------------------------------------------------------------


def test_product_formula_square_of_coordinate():
    e0 = SymTensor(1, 1, {(0,): 1})
    exp = product_formula_expand(e0, e0)
    assert exp.constant == 1
    assert set(exp.element.components) == {2}
    assert exp.element.components[2].coeffs == {(0, 0): Fraction(1)}


def test_product_formula_h2_squared():
    u = SymTensor(1, 2, {(0, 0): 1})
    exp = product_formula_expand(u, u)
    # H_2^2 = H_4 + 4 H_2 + 2
    assert exp.constant == 2
    assert exp.element.components[4].coeffs == {(0, 0, 0, 0): Fraction(1)}
    assert exp.element.components[2].coeffs == {(0, 0): Fraction(4)}


@pytest.mark.parametrize(
    "p,weights",
    [
        (3, {6: 1, 4: 9, 2: 18, 0: 6}),
        (5, {10: 1, 8: 25, 6: 200, 4: 600, 2: 600, 0: 120}),
    ],
)
def test_product_formula_hermite_squares(p, weights):
    """H_p^2 expands with weights r! C(p,r)^2 on H_{2p-2r}."""
    u = SymTensor(1, p, {(0,) * p: 1})
    exp = product_formula_expand(u, u)
    assert exp.constant == weights[0]
    for order, w in weights.items():
        if order == 0:
            continue
        assert exp.element.components[order].coeffs == {(0,) * order: Fraction(w)}


@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda pq: st.tuples(kernel_strategy(2, pq[0]), kernel_strategy(2, pq[1]))
    )
)
@settings(max_examples=40, deadline=None)
def test_product_formula_matches_polynomial_product(pair):
    u, v = pair
    exp = product_formula_expand(u, v)
    direct = multiple_integral(u) * multiple_integral(v)
    rebuilt = exp.element.compile() + GaussianPolynomial.constant(
        CovSpec.identity(2), exp.constant
    )
    assert direct == rebuilt


# ---------------------------------------------------------------------------
# ChaosElement basics
# ---------------------------------------------------------------------------


def test_chaos_element_variance():
    x = ChaosElement(
        2,
        {
            1: SymTensor(2, 1, {(0,): 2}),
            2: sym_pair(),
        },
    )
    # var = 1! * 4 + 2! * 1/2
    assert x.variance() == 5
    direct = expectation_of_product(x.compile(), x.compile()).constant_value()
    assert direct == 5


def test_chaos_element_validation():
    with pytest.raises(ValueError):
        ChaosElement(2, {2: SymTensor(3, 2, {(0, 1): 1})})  # dimension clash
    with pytest.raises(ValueError):
        ChaosElement(2, {3: sym_pair()})  # key does not match order
    with pytest.raises(ValueError):
        ChaosElement(2, {2: sym_pair()}) + ChaosElement(3, {2: sym_pair(3)})
    # the dimension follows SymTensor's integer rule
    with pytest.raises(TypeError):
        ChaosElement(2.0, {1: SymTensor(2, 1, {(0,): 1})})
    with pytest.raises(TypeError):
        ChaosElement(True, {1: SymTensor(1, 1, {(0,): 1})})
    for dimension in (0, -3):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            ChaosElement(dimension, {})


def test_chaos_element_add_and_scale():
    x = ChaosElement(2, {2: sym_pair()})
    y = ChaosElement(2, {1: SymTensor(2, 1, {(1,): 1})})
    z = (x + y).scale(2)
    assert z.variance() == 4 * (x.variance() + y.variance())


# ---------------------------------------------------------------------------
# Malliavin-type operators
# ---------------------------------------------------------------------------


def test_derivative_of_first_order_is_constant():
    x = ChaosElement(2, {1: SymTensor(2, 1, {(0,): 3})})
    dx = malliavin_derivative(x)
    assert dx.entries[0] == GaussianPolynomial.constant(CovSpec.identity(2), 3)
    assert dx.entries[1].is_zero


def test_derivative_of_h2():
    x = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    dx = malliavin_derivative(x)
    assert dx.entries[0] == GaussianPolynomial(CovSpec.identity(1), {(1,): 2})


def test_derivative_of_product_pair():
    x = ChaosElement(2, {2: sym_pair()})
    dx = malliavin_derivative(x)
    assert dx.entries[0] == GaussianPolynomial(CovSpec.identity(2), {(0, 1): 1})
    assert dx.entries[1] == GaussianPolynomial(CovSpec.identity(2), {(1, 0): 1})


@given(
    st.integers(1, 3).flatmap(lambda p: kernel_strategy(2, p)),
)
@settings(max_examples=30, deadline=None)
def test_derivative_matches_partial_derivatives(u):
    """For identity covariance the gradient equals coordinatewise d/dx_i."""
    x = ChaosElement(2, {u.order: u})
    dx = malliavin_derivative(x)
    compiled = x.compile()
    for i in range(2):
        assert dx.entries[i] == compiled.derivative(i)


def test_hvector_validates_length():
    cov = CovSpec.identity(2)
    with pytest.raises(ValueError):
        HVector(2, (GaussianPolynomial.constant(cov, 1),))


def test_ou_operators():
    x = ChaosElement(
        2, {1: SymTensor(2, 1, {(0,): 1}), 3: SymTensor(2, 3, {(0, 1, 1): 1})}
    )
    lx = ou_apply(x)
    assert lx.components[1].coeffs == {(0,): Fraction(1)}
    assert lx.components[3].coeffs == {(0, 1, 1): Fraction(3)}
    anti = ou_inverse(x)
    assert anti.components[3].coeffs == {(0, 1, 1): Fraction(-1, 3)}
    # L^{-1} then -L is the identity on centered elements
    restored = ou_apply(anti).scale(-1)
    assert restored.components[1] == x.components[1]
    assert restored.components[3] == x.components[3]


# ---------------------------------------------------------------------------
# gamma and the Stein-type bounds
# ---------------------------------------------------------------------------


def test_gamma_of_first_order_is_variance_constant():
    x = ChaosElement(1, {1: SymTensor(1, 1, {(0,): 2})})
    g = gamma(x)
    assert g == GaussianPolynomial.constant(CovSpec.identity(1), 4)
    assert gamma_variance(x) == 0


def test_gamma_of_h2():
    x = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    g = gamma(x)
    # gamma = 2 xi^2, mean 2 = Var(H_2), Var(gamma) = 8
    assert g == GaussianPolynomial(CovSpec.identity(1), {(2,): 2})
    assert expectation(g).constant_value() == 2 == x.variance()
    assert gamma_variance(x) == 8


def test_gamma_mean_is_variance_for_mixed_element():
    x = ChaosElement(
        3,
        {
            1: SymTensor(3, 1, {(2,): 1}),
            2: SymTensor(3, 2, {(0, 1): HALF, (0, 0): 1}),
            3: SymTensor(3, 3, {(0, 1, 2): Fraction(1, 6)}),
        },
    )
    assert expectation(gamma(x)).constant_value() == x.variance()


@given(
    st.integers(1, 3).flatmap(lambda p: kernel_strategy(2, p)),
    st.integers(1, 3).flatmap(lambda p: kernel_strategy(2, p)),
)
@settings(max_examples=25, deadline=None)
def test_gamma_mean_is_variance_random(u, v):
    components = {u.order: u}
    if v.order in components:
        components[v.order] = components[v.order] + v
    else:
        components[v.order] = v
    components = {p: t for p, t in components.items() if not t.is_zero}
    if not components:
        return
    x = ChaosElement(2, components)
    assert expectation(gamma(x)).constant_value() == x.variance()


def test_gamma_variance_quartic_scaling():
    x = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    assert gamma_variance(x.scale(3)) == 81 * 8


def test_stein_bounds_for_h2():
    x = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    assert abs(stein_bound(x, "wasserstein") - 2.0) < 1e-12
    assert abs(stein_bound(x, "tv") - math.sqrt(8)) < 1e-12
    assert abs(stein_bound(x, "combined") - 4.0) < 1e-12
    with pytest.raises(ValueError):
        stein_bound(x, "kolmogorov")


def test_stein_bound_rejects_degenerate():
    x = ChaosElement(1, {1: SymTensor(1, 1, {(0,): 0})})
    with pytest.raises(ValueError, match="non-degenerate"):
        stein_bound(x)


def test_stein_bound_rejects_an_unknown_kind_first(monkeypatch):
    # the kind is checked before the variance and before Var Gamma
    with pytest.raises(ValueError, match="unknown bound kind 'bogus'"):
        stein_bound(ChaosElement(2, {}), "bogus")

    def unreachable(x):
        raise AssertionError("Var Gamma computed for an unknown kind")

    monkeypatch.setattr(chaos, "gamma_variance", unreachable)
    x = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    with pytest.raises(ValueError, match="unknown bound kind 'bogus'"):
        stein_bound(x, "bogus")


# ---------------------------------------------------------------------------
# fourth cumulant
# ---------------------------------------------------------------------------


def test_kappa4_small_cases():
    h2 = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    assert kappa4_exact(h2) == 48
    pair = ChaosElement(2, {2: sym_pair()})
    assert kappa4_exact(pair) == 6
    gauss = ChaosElement(1, {1: SymTensor(1, 1, {(0,): 5})})
    assert kappa4_exact(gauss) == 0


def test_kappa4_scaling():
    h2 = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    assert kappa4_exact(h2.scale(HALF)) == Fraction(48, 16)


def polynomial_gamma_variance(x: ChaosElement) -> Fraction:
    """Var Gamma from the polynomial gamma(X) and Wick moments."""
    g = gamma(x)
    mean = expectation(g).constant_value()
    return expectation_of_product(g, g).constant_value() - mean * mean


def test_kappa4_and_gamma_variance_match_polynomial_oracle():
    rng = random.Random(60606)
    corpus = stein_chain_elements() + [_random_chaos_element(rng) for _ in range(20)]
    for x in corpus:
        assert kappa4_exact(x) == cumulant(x.compile(), 4).constant_value()
        assert gamma_variance(x) == polynomial_gamma_variance(x)


@pytest.mark.parametrize("d, p", [(5, 4), (12, 2), (6, 3), (3, 5), (4, 1)])
def test_dense_single_chaos_matches_the_contraction_formulas(d, p):
    # for F = I_p(u), with s_r = |u (x)~_r u|^2 (Nualart & Peccati 2005;
    # Nourdin & Peccati 2012): kappa4 = (3/p) sum_r r r!^2 C(p,r)^4
    # (2p-2r)! s_r and Var Gamma = sum_r (r/p)^2 r!^2 C(p,r)^4 (2p-2r)! s_r,
    # r = 1..p-1; s_r comes from the full-index contract, which is
    # independent of the product-formula sums; every sorted index is nonzero
    rng = random.Random(1900 + 10 * d + p)
    u = SymTensor(
        d,
        p,
        {
            idx: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for idx in itertools.combinations_with_replacement(range(d), p)
        },
    )
    k4 = var_gamma = Fraction(0)
    for r in range(1, p):
        term = (
            math.factorial(r) ** 2
            * math.comb(p, r) ** 4
            * math.factorial(2 * p - 2 * r)
            * symmetrize(contract(u, u, r)).norm_sq()
        )
        k4 += Fraction(3 * r, p) * term
        var_gamma += Fraction(r * r, p * p) * term
    x = ChaosElement(d, {p: u})
    assert kappa4_exact(x) == k4
    assert gamma_variance(x) == var_gamma


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_single_chaos_gamma_variance_is_at_most_its_kappa4_share(q):
    # Var Gamma <= (q - 1) / (3q) * kappa4 for X = I_q(u), with equality at
    # q = 2 (Nourdin & Peccati 2012, "Normal Approximations with Malliavin
    # Calculus", ch. 5); exact on seeded kernels
    rng = random.Random(1000 + q)
    share = Fraction(q - 1, 3 * q)
    for _ in range(30):
        d = rng.randint(2, 4)
        x = ChaosElement(d, {q: _random_sym_tensor(rng, d, q)})
        k4, var_gamma = kappa4_exact(x), gamma_variance(x)
        assert 0 < var_gamma <= share * k4
        if q == 2:
            assert var_gamma == share * k4


def test_same_parity_kappa4_is_negative_on_the_tensor_engine():
    # the paper's p = 1, q = 3 failure, on the tensor engine: with the unit
    # vector v = (-3/5, 4/5), I_3(v^{(x)3}) = H_3(V) for V = <v, x>, so X is
    # 10 U + H_3(V) with U = x_0 and rho = E[UV] = -3/5, the bivariate
    # element that counterexample_h1h3 builds on its Wick engine
    v = (Fraction(-3, 5), Fraction(4, 5))
    cube = {
        idx: v[idx[0]] * v[idx[1]] * v[idx[2]]
        for idx in itertools.combinations_with_replacement(range(2), 3)
    }
    x = ChaosElement(2, {1: SymTensor(2, 1, {(0,): 10}), 3: SymTensor(2, 3, cube)})
    report = counterexample_h1h3()
    assert kappa4_exact(x) == -1944
    assert report.kappa4_poly.substitute("rho", Fraction(-3, 5)).constant_value() == -1944
    assert gamma_variance(x) == 504  # > 0: X is not Gaussian, yet kappa4 < 0
    assert x.variance() == report.e2 == 106


def test_kappa4_matches_the_split_on_mixed_parity_pairs():
    suite = mixed_parity_pairs()
    for (y, z), split in zip(suite["pairs"], suite["decompositions"]):
        x = ChaosElement(y.dimension, {y.order: y, z.order: z})
        assert kappa4_exact(x) == split.k4x


def polynomial_kappa4_decomposition(Y: SymTensor, Z: SymTensor) -> Kappa4Decomposition:
    """The kappa4 split from Wick moments of the polynomials y^2, z^2, yz and X^2."""
    y = multiple_integral(Y)
    z = multiple_integral(Z)
    y2, z2 = y * y, z * z
    ey2 = expectation(y2).constant_value()
    ez2 = expectation(z2).constant_value()
    ey4 = expectation_of_product(y2, y2).constant_value()
    ez4 = expectation_of_product(z2, z2).constant_value()
    ey2z2 = expectation_of_product(y2, z2).constant_value()
    yz = y * z
    assert expectation_of_product(y2, yz).constant_value() == 0
    assert expectation_of_product(yz, z2).constant_value() == 0
    x = y + z
    x2 = x * x
    ex2 = expectation(x2).constant_value()
    ex4 = expectation_of_product(x2, x2).constant_value()
    return Kappa4Decomposition(
        k4x=ex4 - 3 * ex2 * ex2,
        k4y=ey4 - 3 * ey2 * ey2,
        k4z=ez4 - 3 * ez2 * ez2,
        cov_sq=ey2z2 - ey2 * ez2,
    )


def test_kappa4_decomposition_matches_polynomial_oracle():
    pairs = list(mixed_parity_pairs()["pairs"])
    rng = random.Random(90909)
    for d, p, q in itertools.product((2, 3, 4), range(1, 5), range(1, 6)):
        if (p + q) % 2 and p + q >= 5:
            pairs.append((_random_sym_tensor(rng, d, p), _random_sym_tensor(rng, d, q)))
    assert len(pairs) == 50 + 3 * 8
    for y, z in pairs:
        assert kappa4_decomposition(y, z) == polynomial_kappa4_decomposition(y, z)


def test_kappa4_decomposition_disjoint_pair():
    y = SymTensor(2, 1, {(0,): 1})
    z = SymTensor(2, 2, {(1, 1): 1})
    dec = kappa4_decomposition(y, z)
    assert dec.k4y == 0
    assert dec.k4z == 48
    assert dec.cov_sq == 0
    assert dec.k4x == 48


def test_kappa4_decomposition_overlapping_pair():
    y = SymTensor(1, 1, {(0,): 2})
    z = SymTensor(1, 2, {(0, 0): 1})
    dec = kappa4_decomposition(y, z)
    # identity checked internally; here the monotone structure
    assert dec.k4x >= dec.k4z >= dec.k4y
    assert dec.cov_sq >= 0
    assert dec.k4x > 0


def test_kappa4_decomposition_rejects_same_parity():
    u = SymTensor(2, 2, {(0, 0): 1})
    v = sym_pair()
    with pytest.raises(ValueError):
        kappa4_decomposition(u, v)
    with pytest.raises(ValueError):  # dimension mismatch
        kappa4_decomposition(SymTensor(3, 1, {(0,): 1}), v)


@given(
    kernel_strategy(3, 1),
    kernel_strategy(3, 2),
)
@settings(max_examples=25, deadline=None)
def test_kappa4_decomposition_random_pairs(y, z):
    dec = kappa4_decomposition(y, z)
    assert dec.k4x >= max(dec.k4y, dec.k4z)
    assert dec.k4x > 0
    assert dec.cov_sq >= 0


# ---------------------------------------------------------------------------
# contraction norms and the mixed-term bound
# ---------------------------------------------------------------------------


def test_max_contraction_norms():
    assert max_contraction_norms(SymTensor(1, 1, {(0,): 1})) == 0.0
    diag = SymTensor(1, 2, {(0, 0): 1})
    assert abs(max_contraction_norms(diag) - 1.0) < 1e-15
    off = sym_pair()
    assert abs(max_contraction_norms(off) - math.sqrt(2) / 4) < 1e-15


def test_mixed_term_equality_witness():
    u = SymTensor(1, 1, {(0,): 1})
    v = SymTensor(1, 2, {(0, 0): 1})
    result = mixed_term_bound_check(u, v)
    assert result.lhs == 1
    assert result.rhs == 1.0
    assert result.holds


def test_mixed_term_disjoint_supports():
    u = SymTensor(2, 1, {(0,): 1})
    v = SymTensor(2, 2, {(1, 1): 1})
    result = mixed_term_bound_check(u, v)
    assert result.lhs == 0
    assert result.holds


def test_mixed_term_requires_strictly_increasing_orders():
    u = sym_pair()
    with pytest.raises(ValueError):
        mixed_term_bound_check(u, u)
    with pytest.raises(ValueError):
        mixed_term_bound_check(SymTensor(2, 2, {(0, 0): 1}), SymTensor(2, 1, {(0,): 1}))
    with pytest.raises(ValueError):  # dimension mismatch
        mixed_term_bound_check(SymTensor(3, 1, {(0,): 1}), u)


@given(
    st.tuples(st.integers(1, 2), st.integers(2, 3))
    .filter(lambda pq: pq[0] < pq[1])
    .flatmap(lambda pq: st.tuples(kernel_strategy(3, pq[0]), kernel_strategy(3, pq[1])))
)
@settings(max_examples=25, deadline=None)
def test_mixed_term_bound_random(pair):
    u, v = pair
    result = mixed_term_bound_check(u, v)
    assert result.holds


def test_mixed_term_lhs_matches_polynomial_oracle():
    # E[G^2] with G = q^{-1} sum_i D_i I_p(u) D_i I_q(v) from the gradients
    for u, v in mixed_term_pairs():
        du = malliavin_derivative(ChaosElement(u.dimension, {u.order: u}))
        dv = malliavin_derivative(ChaosElement(v.dimension, {v.order: v}))
        g = du.inner(dv) * Fraction(1, v.order)
        assert expectation(g).constant_value() == 0
        lhs = expectation_of_product(g, g).constant_value()
        assert mixed_term_bound_check(u, v).lhs == lhs



# ---------------------------------------------------------------------------
# exact-engine digest
# ---------------------------------------------------------------------------

# SHA-256 over the exact values below, on the seeded generators of the CLI.
EXACT_ENGINE_SHA256 = "bd02ab1c18270f3da37b9ca93ff3dc92e84f9ee94d6c61b7c5af5d47ad327299"


def exact_engine_digest() -> str:
    """Digest of Gamma terms, Var Gamma, cumulants 1-6, mixed-term bounds,
    bivariate and 3-d moment tables and the family contraction norms."""
    rng = random.Random(42)
    digest = hashlib.sha256()

    def put(value):
        digest.update(repr(value).encode())
        digest.update(b"\n")

    for _ in range(6):
        x = _random_chaos_element(rng)
        dense = lambda key: tuple(dict(key).get(i, 0) for i in range(x.dimension))
        put(sorted((dense(k), c.constant_value()) for k, c in gamma(x).terms.items()))
        put(gamma_variance(x))
        f = x.compile()
        put([cumulant(f, n).constant_value() for n in range(1, 7)])
    for _ in range(8):
        d = rng.randint(2, 4)
        p = rng.randint(1, 3)
        q = rng.randint(p + 1, 4)
        result = mixed_term_bound_check(
            _random_sym_tensor(rng, d, p), _random_sym_tensor(rng, d, q)
        )
        put((result.lhs, result.rhs.hex(), result.holds))

    biv = CovSpec.bivariate()
    u = GaussianPolynomial.coordinate(biv, 0)
    v = GaussianPolynomial.coordinate(biv, 1)
    f = 3 * u - v * v + u * v * Fraction(1, 2)
    put([str(cumulant(f, n)) for n in range(1, 7)])
    put([str(gaussian_moment((n, m), biv)) for n in range(11) for m in range(11 - n)])
    a, b, c = (ParamPoly.variable(name) for name in "abc")
    cov3 = CovSpec([[1, a, b], [a, 1, c], [b, c, 2]])
    put(
        [
            str(gaussian_moment(md, cov3))
            for md in itertools.product(range(5), repeat=3)
            if sum(md) <= 8
        ]
    )
    for family in FAMILY_NAMES:
        put(family_point(family, 4).max_contraction().hex())
    return digest.hexdigest()


def test_exact_engine_digest():
    assert exact_engine_digest() == EXACT_ENGINE_SHA256
