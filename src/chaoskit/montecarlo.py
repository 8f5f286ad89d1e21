"""Seeded sampling of Gaussian polynomial functionals and CLT experiments.

Randomness contract
-------------------
All sampling is driven by numpy's Philox counter-based generator.  Draws are
partitioned into chunks of ``max(1, 2**21 // dimension)`` rows; chunk ``c`` of
a run with seed ``s`` uses ``SeedSequence(entropy=s, spawn_key=(c,))``, so the
sample stream is a pure function of (seed, size, dimension).  Chunks run one
after another in stream order, each drawing, transforming and evaluating
inside one caller-allocated buffer that holds one chunk: 2**21 values at
most, unless a single row is wider.
Uniforms are built as ``(k + 0.5) * 2**-53`` from 53-bit integers k, with the
one value that rounds up to 1.0 (k = 2**53 - 1) clamped to 1 - 2**-53, so every
uniform lies in (0, 1).  Standard normals are obtained by inverse transform
through a rational quantile approximation (``normal_quantile``) whose absolute
error is below 1e-9 over the full open interval.  The constant
``GENERATOR_ID`` names this whole scheme and is stamped on every SampleSet and
report.

Summation order inside every estimator is fixed (chunk rows in stream order),
and so is the order in which a polynomial's terms are summed: the
lexicographic order of their dense exponent vectors, which ``_dense_order``
gives on the sparse monomial keys.  Reports are therefore byte-identical
across runs with the same seed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from .chaos import (
    ChaosElement,
    SymTensor,
    gamma_variance,
    kappa4_exact,
    max_contraction_norms,
)
from .wick import GaussianPolynomial, Monomial

__all__ = [
    "GENERATOR_ID",
    "SampleSet",
    "DistanceBounds",
    "ScaledChaos",
    "FamilyPoint",
    "ExperimentReport",
    "FAMILY_NAMES",
    "normal_quantile",
    "normal_cdf",
    "sample_gaussian_polynomial",
    "sample_chaos",
    "empirical_kappa4",
    "wasserstein1_to_gaussian",
    "ks_to_gaussian",
    "gaussian_distance_bound",
    "family_point",
    "clt_experiment",
]

GENERATOR_ID = "philox4x64/u53-halfstep/inverse-cdf-as241/chunk2^21:v1"

_BATCHES = 20
# clt_experiment's slack is _BAND_MULTIPLIER error bands; ks_small_at_max
# asks for a KS statistic below _KS_SMALL at the largest n.
_BAND_MULTIPLIER = 3
_KS_SMALL = 0.02


# ---------------------------------------------------------------------------
# Standard normal quantile (rational approximation, Wichura's algorithm).
# ---------------------------------------------------------------------------

_QUANT_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_QUANT_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_QUANT_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0,
    5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_QUANT_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1,
    1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_QUANT_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0,
    1.78482653991729133580e0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_QUANT_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4,
    1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


_SLICE = 1 << 14


def _ratpoly(r: np.ndarray, num: tuple, den: tuple, p=None, q=None) -> np.ndarray:
    """num(r) / den(r) by Horner's rule, written into ``p`` (``q`` is scratch)."""
    p = np.empty_like(r) if p is None else p
    q = np.empty_like(r) if q is None else q
    for coeffs, acc in ((num, p), (den, q)):
        acc.fill(coeffs[-1])
        for c in coeffs[-2::-1]:
            np.multiply(acc, r, out=acc)
            np.add(acc, c, out=acc)
    return np.divide(p, q, out=p)


def _tail_quantile(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quantile at the entries with |p - 0.5| > 0.425 (or NaN); q = p - 0.5."""
    pt = np.where(q < 0.0, p, 1.0 - p)
    r = np.sqrt(-np.log(pt))
    # the far tail (r > 5, and NaN) is rare: evaluate each branch only where it applies
    near = r <= 5.0
    far = ~near
    val = np.empty_like(r)
    val[near] = _ratpoly(r[near] - 1.6, _QUANT_C, _QUANT_D)
    val[far] = _ratpoly(r[far] - 5.0, _QUANT_E, _QUANT_F)
    return np.where(q < 0.0, -val, val)


def normal_quantile(p, out=None):
    """Inverse standard normal CDF on (0, 1), vectorized.

    Rational minimax approximation in three regions (central, moderate tail,
    far tail); absolute error below 1e-9 everywhere, which the test suite
    checks against an independent implementation.

    ``out``, when given, is a C-contiguous float64 array of the shape of
    ``p`` that receives the result and is returned; it may be ``p`` itself,
    which is then overwritten.

    The flattened input is processed in slices of 2^14 values that stay in
    cache: the tail entries of a slice are evaluated first, then the central
    approximation on the whole slice in preallocated buffers, and the tail
    entries are written over it.  Every value goes through the same
    floating-point operations in the same order whatever the slicing, so the
    result does not depend on it.
    """
    p = np.asarray(p, dtype=np.float64)
    result = np.empty(p.shape) if out is None else out
    if (
        result.shape != p.shape
        or result.dtype != np.float64
        or not result.flags.c_contiguous
    ):
        raise ValueError("out must be a C-contiguous float64 array shaped like p")
    flat = p.ravel()
    dest = result.reshape(-1)
    width = min(flat.size, _SLICE)
    q, r, num, den = np.empty((4, width))
    for start in range(0, flat.size, _SLICE):
        ps = flat[start : start + _SLICE]
        k = ps.size
        if np.any((ps <= 0.0) | (ps >= 1.0)):
            raise ValueError("quantile argument must lie strictly inside (0, 1)")
        qs = np.subtract(ps, 0.5, out=q[:k])
        tail = np.flatnonzero(~(np.abs(qs) <= 0.425))
        if tail.size:
            tail_values = _tail_quantile(ps[tail], qs[tail])
        rs = np.multiply(qs, qs, out=r[:k])
        np.subtract(0.180625, rs, out=rs)
        ratio = _ratpoly(rs, _QUANT_A, _QUANT_B, num[:k], den[:k])
        chunk = np.multiply(qs, ratio, out=dest[start : start + k])
        if tail.size:
            chunk[tail] = tail_values
    return result if result.shape or out is not None else float(result)


def normal_cdf(x, sigma: float = 1.0):
    """CDF of the centered Gaussian with standard deviation sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return ndtr(np.asarray(x, dtype=np.float64) / sigma)


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Realizations of one scalar functional, with its randomness provenance."""

    values: np.ndarray
    seed: int
    generator_id: str = GENERATOR_ID

    @property
    def size(self) -> int:
        return int(self.values.shape[0])


def _chunk_rows(dimension: int) -> int:
    return max(1, (1 << 21) // dimension)


def _normal_chunk(seed: int, chunk_index: int, buf: np.ndarray) -> np.ndarray:
    """Fill ``buf`` (rows x dimension) with chunk ``chunk_index``'s normals."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(chunk_index,))
    gen = np.random.Generator(np.random.Philox(ss))
    # random() is k * 2**-53 with k = (next 64 bits) >> 11, the k of
    # integers(0, 2**53); adding 2**-54 rounds exactly as (k + 0.5) * 2**-53.
    # At k = 2**53 - 1 that rounds up to 1.0; the clamp maps it to 1 - 2**-53.
    gen.random(out=buf)
    buf += 2.0**-54
    np.minimum(buf, np.nextafter(1.0, 0.0), out=buf)
    return normal_quantile(buf, out=buf)


def _dense_order(key: Monomial) -> tuple[int, ...]:
    """Sort key on sparse monomial keys that orders them as the lexicographic
    order orders their dense exponent vectors."""
    return tuple(x for i, e in key for x in (-i, e))


def sample_gaussian_polynomial(
    f: GaussianPolynomial,
    n: int,
    seed: int,
    assignment: Mapping[str, float] | None = None,
) -> SampleSet:
    """n i.i.d. draws of the polynomial functional f.

    Coordinates are sampled as i.i.d. standard normals and, when the
    covariance is not the identity, pushed through its (pivoted) Cholesky
    factor evaluated at ``assignment``.  Term coefficients must be numeric
    after the same assignment.  Chunks run one after another in stream order,
    each in the same chunk-sized buffer.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    d = f.cov.dimension
    identity = f.cov.is_identity
    factor = None if identity else np.asarray(f.cov.cholesky_factor(assignment))

    assignment = dict(assignment or {})
    terms = [
        (key, f.terms[key].evaluate_float(assignment))
        for key in sorted(f.terms, key=_dense_order)
    ]

    out = np.empty(n, dtype=np.float64)
    rows = _chunk_rows(d)
    buf = np.empty(min(rows, n) * d)
    for chunk, start in enumerate(range(0, n, rows)):
        stop = min(start + rows, n)
        z = _normal_chunk(seed, chunk, buf[: (stop - start) * d].reshape(-1, d))
        x = z if factor is None else z @ factor.T
        acc = np.zeros(stop - start, dtype=np.float64)
        for support, value in terms:
            term = np.full(stop - start, value)
            for i, e in support:
                col = x[:, i]
                term *= col if e == 1 else col**e
            acc += term
        out[start:stop] = acc
    return SampleSet(values=out, seed=int(seed))


def sample_chaos(X: ChaosElement, n: int, seed: int) -> SampleSet:
    """Sample a chaos element by evaluating its compiled polynomial."""
    return sample_gaussian_polynomial(X.compile(), n, seed)


# ---------------------------------------------------------------------------
# Estimators.
# ---------------------------------------------------------------------------


def _batch_estimates(values: np.ndarray, estimator) -> tuple[float, float]:
    """Full-sample point estimate plus a 20-batch standard error."""
    n = values.shape[0]
    width = n // _BATCHES
    batches = [
        estimator(values[b * width : (b + 1) * width]) for b in range(_BATCHES)
    ]
    se = float(np.std(np.asarray(batches), ddof=1) / math.sqrt(_BATCHES))
    return estimator(values), se


def empirical_kappa4(s: SampleSet) -> tuple[float, float]:
    """Plug-in fourth cumulant m4 - 3 m2^2 on centered samples, with SE."""
    if s.size < 100:
        raise ValueError("fourth-cumulant estimation needs at least 100 samples")

    def k4(x: np.ndarray) -> float:
        x = x - x.mean()
        m2 = float(np.mean(x * x))
        m4 = float(np.mean(x**4))
        return m4 - 3.0 * m2 * m2

    return _batch_estimates(s.values, k4)


def wasserstein1_to_gaussian(s: SampleSet, sigma: float) -> float:
    """Mean absolute gap between order statistics and Gaussian quantiles."""
    if s.size < 2:
        raise ValueError("need at least two samples")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    xs = np.sort(s.values)
    n = xs.shape[0]
    grid = (np.arange(1, n + 1) - 0.5) / n
    return float(np.mean(np.abs(xs - sigma * normal_quantile(grid))))


def ks_to_gaussian(s: SampleSet, sigma: float) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against N(0, sigma^2)."""
    if s.size < 1:
        raise ValueError("need at least one sample")
    xs = np.sort(s.values)
    n = xs.shape[0]
    cdf = normal_cdf(xs, sigma)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


@dataclass(frozen=True)
class DistanceBounds:
    tv_bound: float
    w_bound: float


def gaussian_distance_bound(sigma: float, sigma_n: float) -> DistanceBounds:
    """Distance bounds between N(0, sigma^2) and N(0, sigma_n^2).

    tv <= 2 |sigma_n^2 - sigma^2| / max(sigma_n^2, sigma^2) and
    w  <= sqrt(2/pi) |sigma_n^2 - sigma^2| / max(sigma_n, sigma).
    """
    if sigma <= 0 or sigma_n <= 0:
        raise ValueError("standard deviations must be positive")
    gap = abs(sigma_n * sigma_n - sigma * sigma)
    tv = 2.0 * gap / max(sigma_n * sigma_n, sigma * sigma)
    w = math.sqrt(2.0 / math.pi) * gap / max(sigma_n, sigma)
    return DistanceBounds(tv_bound=tv, w_bound=w)


# ---------------------------------------------------------------------------
# Kernel families for the convergence experiments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledChaos:
    """A chaos element times an exact positive scalar given by its square.

    Keeping the square rational sidesteps irrational scale factors such as
    n^(-1/2): every moment of interest scales by an integer power of the
    square, so exactness survives.  Only the sample values ever touch the
    float square root.
    """

    element: ChaosElement
    scale_sq: Fraction

    def sample(self, n: int, seed: int) -> SampleSet:
        core = sample_chaos(self.element, n, seed)
        scale = math.sqrt(float(self.scale_sq))
        return SampleSet(values=core.values * scale, seed=core.seed)


# Each family repeats one block of ``stride`` coordinates n times.  A block
# is a list of (order, first coordinate, value): the kernel of that order
# takes ``value`` on the sorted index (first, ..., first + order - 1) of
# every block.  The element is scaled by 1 / (n * number of kernels).
_FAMILIES = {
    "dyadic_p2": (2, ((2, 0, Fraction(1, 2)),)),
    "mixed_p2_q3": (5, ((2, 0, Fraction(1, 2)), (3, 2, Fraction(1, 6)))),
    "independent_blocks_M3": (
        6,
        ((1, 0, Fraction(1)), (2, 1, Fraction(1, 2)), (3, 3, Fraction(1, 6))),
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _family_element(family: str, n: int) -> tuple[ChaosElement, Fraction]:
    """The family's n-block element and its scale square."""
    stride, block = _FAMILIES[family]
    d = stride * n
    kernels = {}
    for order, first, value in block:
        index = {tuple(range(b, b + order)): value for b in range(first, d, stride)}
        kernels[order] = SymTensor(d, order, index)
    return ChaosElement(d, kernels), Fraction(1, len(block) * n)


@functools.cache
def _block_stats(family: str) -> tuple[Fraction, Fraction, Fraction]:
    """Variance, fourth cumulant and Var(Gamma) of the family's one-block element."""
    block, _ = _family_element(family, 1)
    return block.variance(), kappa4_exact(block), gamma_variance(block)


@dataclass(frozen=True)
class FamilyPoint:
    """One (family, n) point: the scaled element plus its exact statistics.

    The n blocks occupy disjoint coordinates, so the carre-du-champ operator
    splits as a sum over blocks and both the fourth cumulant and Var(Gamma)
    are exactly n * scale_sq^2 times their one-block values.  The one-block
    values come from the exact engine on the family's n = 1 element, once
    per family; the additivity itself is covered by tests comparing against
    direct whole-element computation for n up to 64.
    """

    family: str
    n: int
    scaled: ScaledChaos
    block_variance: Fraction
    block_kappa4: Fraction
    block_gamma_var: Fraction

    def exact_variance(self) -> Fraction:
        return self.n * self.scaled.scale_sq * self.block_variance

    def exact_kappa4(self) -> Fraction:
        return self.n * self.scaled.scale_sq**2 * self.block_kappa4

    def exact_gamma_variance(self) -> Fraction:
        return self.n * self.scaled.scale_sq**2 * self.block_gamma_var

    def sigma(self) -> float:
        return math.sqrt(float(self.exact_variance()))

    def stein_w_bound(self) -> float:
        return math.sqrt(float(self.exact_gamma_variance())) / self.sigma()

    def max_contraction(self) -> float:
        """Largest nontrivial contraction norm among scaled components."""
        return max(
            float(self.scaled.scale_sq) * max_contraction_norms(u)
            for u in self.scaled.element.components.values()
        )


def family_point(family: str, n: int) -> FamilyPoint:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILY_NAMES}")
    if n < 1:
        raise ValueError("n must be positive")
    full, scale_sq = _family_element(family, n)
    var_b, k4_b, gv_b = _block_stats(family)
    return FamilyPoint(
        family=family,
        n=n,
        scaled=ScaledChaos(element=full, scale_sq=scale_sq),
        block_variance=var_b,
        block_kappa4=k4_b,
        block_gamma_var=gv_b,
    )


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    name: str
    parameters: dict = field(default_factory=dict)
    exact_values: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def _point_seed(seed: int, family: str, n: int) -> int:
    """Derived per-point seed: hash of (seed, family index, n) via SeedSequence."""
    fam_index = FAMILY_NAMES.index(family)
    ss = np.random.SeedSequence(entropy=(int(seed), fam_index, int(n)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def clt_experiment(
    family: str,
    n_grid: Sequence[int],
    samples_per_point: int,
    seed: int,
) -> ExperimentReport:
    """Exact-vs-empirical convergence study along one kernel family.

    For each n the report records the exact variance, fourth cumulant,
    Var(Gamma), and Wasserstein bound, next to empirical W1, KS, and
    fourth-cumulant estimates from ``samples_per_point`` draws.  Verdicts:

    * ``kappa4_decreasing``: the exact fourth cumulant strictly decreases.
    * ``w1_within_bound[n=..]``: empirical W1 <= Wasserstein bound + slack.
    * ``w1_trend`` (different-parity families): W1 non-increasing up to slack.
    * ``ks_decreasing`` / ``ks_small_at_max`` (independent-blocks family).
    * ``contraction_decreasing`` (dyadic family).

    The slack is 3 * log(m)/sqrt(m); all tolerances are recorded in
    ``parameters`` next to the verdicts they govern.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILY_NAMES}")
    n_grid = [operator.index(n) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be nonempty and strictly increasing")
    m = operator.index(samples_per_point)
    if m < 100:
        raise ValueError("need at least 100 samples per point")

    band = math.log(m) / math.sqrt(m)
    slack = _BAND_MULTIPLIER * band
    report = ExperimentReport(name=f"clt:{family}")
    report.parameters.update(
        {
            "family": family,
            "n_grid": list(n_grid),
            "samples_per_point": m,
            "seed": int(seed),
            "generator_id": GENERATOR_ID,
            "error_band": band,
            "band_formula": "log(m)/sqrt(m)",
            "band_multiplier": _BAND_MULTIPLIER,
            "tolerance.w1_within_bound": "stein_w + 3*log(m)/sqrt(m)",
            "tolerance.w1_trend": "previous_w1 + 3*log(m)/sqrt(m)",
            "tolerance.kappa4_decreasing": "exact, strict",
            "tolerance.contraction_decreasing": "exact, strict",
            "tolerance.ks_decreasing": "strict decrease of the point estimates",
            "tolerance.ks_small_at_max": str(_KS_SMALL),
        }
    )

    kappa4s: list[Fraction] = []
    w1s: list[float] = []
    kss: list[float] = []
    contractions: list[float] = []
    for n in n_grid:
        point = family_point(family, n)
        sigma = point.sigma()
        stein = point.stein_w_bound()
        report.exact_values[f"variance[n={n}]"] = point.exact_variance()
        report.exact_values[f"kappa4[n={n}]"] = point.exact_kappa4()
        report.exact_values[f"var_gamma[n={n}]"] = point.exact_gamma_variance()
        report.exact_values[f"stein_w[n={n}]"] = stein

        samples = point.scaled.sample(m, _point_seed(seed, family, n))
        w1 = wasserstein1_to_gaussian(samples, sigma)
        ks = ks_to_gaussian(samples, sigma)
        k4_hat, k4_se = empirical_kappa4(samples)
        report.estimates[f"w1[n={n}]"] = (w1, band)
        report.estimates[f"ks[n={n}]"] = (ks, band)
        report.estimates[f"kappa4_hat[n={n}]"] = (k4_hat, k4_se)
        report.verdicts[f"w1_within_bound[n={n}]"] = bool(w1 <= stein + slack)

        kappa4s.append(point.exact_kappa4())
        w1s.append(w1)
        kss.append(ks)
        if family == "dyadic_p2":
            contraction = point.max_contraction()
            report.exact_values[f"max_contraction[n={n}]"] = contraction
            contractions.append(contraction)

    report.verdicts["kappa4_decreasing"] = all(
        b < a for a, b in zip(kappa4s, kappa4s[1:])
    )
    if family in ("dyadic_p2", "mixed_p2_q3"):
        report.verdicts["w1_trend"] = all(
            b <= a + slack for a, b in zip(w1s, w1s[1:])
        )
    if family == "dyadic_p2":
        report.verdicts["contraction_decreasing"] = all(
            b < a for a, b in zip(contractions, contractions[1:])
        )
    if family == "independent_blocks_M3":
        report.verdicts["ks_decreasing"] = all(
            b < a for a, b in zip(kss, kss[1:])
        )
        report.verdicts["ks_small_at_max"] = bool(kss[-1] < _KS_SMALL)
    return report
