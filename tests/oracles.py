"""Reference implementations that the tests compare the package against.

No package code calls these: ``symmetrize`` of the full-index ``contract`` is
the reference for ``contract_sym``, ``ou_apply`` (the number operator L) the
one ``ou_inverse`` is checked against, ``full_items`` lists a symmetric
kernel by full index, and ``hermite_expand`` inverts the Hermite basis that
``hermite`` builds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence, Union

from chaoskit.algebra import ExactScalar, _as_fraction, hermite
from chaoskit.chaos import ChaosElement, SymTensor, Tensor, _orbit_size


def symmetrize(
    source: Union[Tensor, SymTensor, Mapping[tuple[int, ...], Union[Fraction, int]]],
    dimension: int | None = None,
    order: int | None = None,
) -> SymTensor:
    """Symmetrize a tensor: average the entries over each index orbit.

    Accepts a :class:`Tensor`, a full-index mapping (``dimension`` and
    ``order`` then required), or a :class:`SymTensor` (returned unchanged;
    symmetrization is idempotent).
    """
    if isinstance(source, SymTensor):
        return source
    if isinstance(source, Tensor):
        entries, dimension, order = source.entries, source.dimension, source.order
    else:
        if dimension is None or order is None:
            raise ValueError("mapping input needs explicit dimension and order")
        entries = source
    sums: dict[tuple[int, ...], Fraction] = {}
    for idx, value in entries.items():
        key = tuple(sorted(idx))
        sums[key] = sums.get(key, Fraction(0)) + _as_fraction(value)
    coeffs = {idx: total / _orbit_size(idx) for idx, total in sums.items()}
    return SymTensor(dimension, order, coeffs)


def full_items(u: SymTensor):
    """Yield every (full index, value) pair of u, one per distinct permutation."""
    for idx, value in u.coeffs.items():
        for perm in set(itertools.permutations(idx)):
            yield perm, value


def ou_apply(X: ChaosElement) -> ChaosElement:
    """Number operator: multiply the order-p component by p."""
    return ChaosElement(X.dimension, {p: u.scale(p) for p, u in X.components.items()})


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
