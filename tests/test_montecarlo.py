"""Sampling layer: quantile function, reproducibility, estimators, kernel
families, and the simulation experiment driver."""

import hashlib
import math
import multiprocessing
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import montecarlo
from chaoskit.algebra import ParamPoly
from chaoskit.chaos import ChaosElement, SymTensor, gamma_variance, kappa4_exact
from chaoskit.montecarlo import (
    FAMILY_NAMES,
    GENERATOR_ID,
    SampleSet,
    clt_experiment,
    empirical_kappa4,
    family_point,
    gaussian_distance_bound,
    ks_to_gaussian,
    normal_cdf,
    normal_quantile,
    sample_chaos,
    sample_gaussian_polynomial,
    wasserstein1_to_gaussian,
)
from chaoskit.wick import CovSpec, GaussianPolynomial, expectation_of_product

PHI_INV_75 = 0.6744897501960817


def h2_element(d=1, coord=0):
    idx = (coord, coord)
    return ChaosElement(d, {2: SymTensor(d, 2, {idx: 1})})


# ---------------------------------------------------------------------------
# Quantile and CDF
# ---------------------------------------------------------------------------


def test_quantile_basic_values():
    assert normal_quantile(0.5) == 0.0
    assert abs(normal_quantile(0.75) - PHI_INV_75) < 1e-12
    assert abs(normal_quantile(0.25) + PHI_INV_75) < 1e-12


def test_quantile_matches_scipy_across_regimes():
    ps = np.concatenate(
        [
            np.array([1e-300, 1e-30, 1e-12, 1e-9, 1e-5]),
            np.linspace(0.001, 0.999, 513),
            1.0 - np.array([1e-5, 1e-9, 1e-12, 1e-15]),
        ]
    )
    ours = normal_quantile(ps)
    reference = scipy.special.ndtri(ps)
    scale = np.maximum(1.0, np.abs(reference))
    assert np.max(np.abs(ours - reference) / scale) < 1e-9


def test_quantile_round_trip_through_cdf():
    ps = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(normal_cdf(normal_quantile(ps)) - ps)) < 1e-12


def test_quantile_rejects_boundary():
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)
    with pytest.raises(ValueError):
        normal_quantile(np.array([0.2, 1.5]))
    for bad in (-1.0, math.nan, np.array([0.2, math.nan])):
        with pytest.raises(ValueError, match="strictly inside"):
            normal_quantile(bad)


def test_quantile_far_tail_values():
    # p < e^-25 takes the far branch (r > 5); values recorded before that
    # branch was skipped on slices without such p
    assert normal_quantile(1e-12) == float.fromhex("-0x1.c234fba57a32ap+2")
    assert normal_quantile(1e-300) == float.fromhex("-0x1.286074064c26ep+5")


def _whole_array_as241(p):
    """AS241 on the whole array at once, split by boolean masks: the
    evaluation that produced the v1 stream, kept as the bitwise reference."""

    def ratpoly(r, num, den):
        a = np.full_like(r, num[-1])
        for c in num[-2::-1]:
            a = a * r + c
        b = np.full_like(r, den[-1])
        for c in den[-2::-1]:
            b = b * r + c
        return a / b

    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * ratpoly(0.180625 - qc * qc, montecarlo._QUANT_A, montecarlo._QUANT_B)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt < 0.0, p[tail], 1.0 - p[tail])))
    val = np.where(
        r <= 5.0,
        ratpoly(np.minimum(r, 5.0) - 1.6, montecarlo._QUANT_C, montecarlo._QUANT_D),
        ratpoly(np.maximum(r, 5.0) - 5.0, montecarlo._QUANT_E, montecarlo._QUANT_F),
    )
    out[tail] = np.where(qt < 0.0, -val, val)
    return out


def test_quantile_bitwise_equal_to_whole_array_evaluation():
    # v1 uniforms over several 2^14-value slices, plus explicit points in all
    # three regions: central (|p - 1/2| <= 0.425), r <= 5 and the far tail
    # (r > 5, i.e. p < exp(-25)) down to 2^-53 and up to 1 - 2^-53
    gen = np.random.Generator(np.random.Philox(7))
    u = (gen.integers(0, 1 << 53, size=3 * (1 << 14) + 123, dtype=np.int64) + 0.5) * 2.0**-53
    far = np.geomspace(2.0**-53, 1e-12, 200)
    moderate = np.geomspace(1e-10, 0.07, 200)
    central = np.linspace(0.076, 0.924, 200)
    p = np.concatenate([far, moderate, central, u, 1.0 - moderate, 1.0 - far])
    radius = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    assert np.any(np.abs(p - 0.5) <= 0.425)
    assert np.any((np.abs(p - 0.5) > 0.425) & (radius <= 5.0))
    assert np.any(radius > 5.0)
    assert p.size > 3 * (1 << 14)

    ours = normal_quantile(p)
    assert ours.tobytes() == _whole_array_as241(p).tobytes()

    square = p[: 125 * 400].reshape(125, 400)
    assert normal_quantile(square).shape == (125, 400)
    assert normal_quantile(square).tobytes() == ours[: 125 * 400].tobytes()
    scalar = normal_quantile(0.975)
    assert type(scalar) is float
    assert scalar == _whole_array_as241(np.array([0.975]))[0]


def test_quantile_out_may_alias_the_input():
    # tails are evaluated before a slice's results are written, so the
    # input may serve as the output, across several slices and all regions
    gen = np.random.Generator(np.random.Philox(9))
    tails = np.geomspace(2.0**-53, 0.07, 300)
    spread = gen.random(2 * (1 << 14) + 77) * 0.98 + 0.01
    p = np.concatenate([tails, spread]).reshape(-1, 7)
    want = normal_quantile(p)
    separate = np.empty_like(p)
    assert normal_quantile(p, out=separate) is separate
    assert separate.tobytes() == want.tobytes()
    assert normal_quantile(p, out=p) is p
    assert p.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        normal_quantile(np.full(4, 0.5), out=np.empty(5))
    with pytest.raises(ValueError):
        normal_quantile(np.full((4, 4), 0.5), out=np.empty((4, 8))[:, ::2])


def test_cdf_with_scale():
    assert abs(normal_cdf(0.0, sigma=3.0) - 0.5) < 1e-15
    assert abs(normal_cdf(3.0, sigma=3.0) - normal_cdf(1.0)) < 1e-15
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            normal_cdf(0.0, sigma)


# ---------------------------------------------------------------------------
# Sampling: determinism and distribution
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    x = h2_element()
    a = sample_chaos(x, 5000, seed=2024)
    b = sample_chaos(x, 5000, seed=2024)
    assert np.array_equal(a.values, b.values)
    assert a.generator_id == GENERATOR_ID == b.generator_id
    c = sample_chaos(x, 5000, seed=2025)
    assert not np.array_equal(a.values, c.values)


def test_sampling_is_prefix_stable_across_chunks():
    # chunks are keyed by index, so a longer run must extend a shorter one;
    # with d = 1 a chunk holds 2^21 rows and rows + 5 spans two chunks
    x = ChaosElement(1, {1: SymTensor(1, 1, {(0,): 1})})
    rows = 1 << 21
    short = sample_chaos(x, rows, seed=11)
    longer = sample_chaos(x, rows + 5, seed=11)
    assert np.array_equal(longer.values[:rows], short.values)


# SHA-256 of v1 sample streams at seed 42, recorded with the whole-array
# quantile and chunks run one after another.
V1_FIRST_CHUNK_SHA256 = "f3ce8f1b51c646bee4c8faf533fbf782bad6cef63366359688a6972782123997"
V1_DYADIC_512_SHA256 = "233b3425f737c717bc3696500d17108b071574409efa69372f4fb0336d139b14"
V1_BLOCKS_64_SHA256 = "27de67a7479168106450793a11b03daf1c5b7d4b55193daa91231e64609077eb"
# The same through Cholesky factors, recorded with every chunk drawn, pushed
# and summed whole: 40-dimensional (chunks of 52428 rows), and a dense
# 36-dimensional factor whose second chunk has one row.
V1_CHOLESKY_NUMERIC_SHA256 = "19aaf09e2d02615507d6327a33ac38104b943687ca49611d3166a6529f1d0c3a"
V1_CHOLESKY_SYMBOLIC_SHA256 = "2b8338b22ec483670ddbe70e4ca35f20579ac5902d46a013da1d9e2f3a6584b2"
V1_CHOLESKY_ROW_TAIL_SHA256 = "52948833e4137da6265112a6481ca3808c11b7a46d19796c0993843ce1f44524"


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def test_v1_stream_first_chunk_digest():
    assert GENERATOR_ID == "philox4x64/u53-halfstep/inverse-cdf-as241/chunk2^21:v1"
    f = GaussianPolynomial.coordinate(CovSpec.identity(1), 0)
    values = sample_gaussian_polynomial(f, 1 << 21, seed=42).values
    assert _sha256(values) == V1_FIRST_CHUNK_SHA256


def test_v1_stream_multichunk_wide_digest():
    element = family_point("dyadic_p2", 512).scaled.element
    assert element.dimension == 1024  # 2^21 // 1024 = 2048 rows: 8 chunks
    values = sample_chaos(element, 1 << 14, seed=42).values
    assert _sha256(values) == V1_DYADIC_512_SHA256


def test_v1_stream_mixed_support_digest():
    # the I_1, I_2 and I_3 components give terms on one, two and three
    # coordinates, summed in the lexicographic order of dense exponent vectors
    element = family_point("independent_blocks_M3", 64).scaled.element
    assert element.dimension == 384  # 2^21 // 384 = 5461 rows: 4 chunks
    values = sample_chaos(element, 1 << 14, seed=42).values
    assert _sha256(values) == V1_BLOCKS_64_SHA256


def _correlated_cov(rho) -> CovSpec:
    entries = [[Fraction(int(i == j)) for j in range(40)] for i in range(40)]
    entries[0][1] = entries[1][0] = rho
    return CovSpec(entries)


def _numeric_cholesky_polynomial() -> GaussianPolynomial:
    return GaussianPolynomial(
        _correlated_cov(Fraction(1, 2)), {(1,) * 40: 1, (2,) + (0,) * 39: Fraction(1, 3)}
    )


def _symbolic_cholesky_polynomial() -> GaussianPolynomial:
    rho = ParamPoly.variable("rho")
    return GaussianPolynomial(
        _correlated_cov(rho), {(1, 1) + (0,) * 38: 1, (0, 0, 2) + (0,) * 37: rho}
    )


def _dense_cholesky_polynomial() -> GaussianPolynomial:
    # every pair correlated 1/4, so each pushed coordinate sums many
    # products; pushed in 455-row blocks instead of whole chunks, some
    # hundreds of them round differently under OpenBLAS
    d = 36
    cov = CovSpec([[Fraction(1) if i == j else Fraction(1, 4) for j in range(d)] for i in range(d)])
    terms = {tuple(int(k in (i, i + 1)) for k in range(d)): 1 for i in range(d - 1)}
    terms[(2,) + (0,) * (d - 1)] = Fraction(1, 3)
    return GaussianPolynomial(cov, terms)


def test_v1_stream_cholesky_numeric_digest():
    f = _numeric_cholesky_polynomial()
    values = sample_gaussian_polynomial(f, 150_000, seed=42).values  # 3 chunks
    assert _sha256(values) == V1_CHOLESKY_NUMERIC_SHA256


def test_v1_stream_cholesky_symbolic_digest():
    f = _symbolic_cholesky_polynomial()
    values = sample_gaussian_polynomial(f, 150_000, seed=42, assignment={"rho": -0.3}).values
    assert _sha256(values) == V1_CHOLESKY_SYMBOLIC_SHA256


def test_v1_stream_cholesky_one_row_tail_digest():
    f = _dense_cholesky_polynomial()
    values = sample_gaussian_polynomial(f, (1 << 21) // 36 + 1, seed=42).values
    assert _sha256(values) == V1_CHOLESKY_ROW_TAIL_SHA256


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
        max_size=12,
        unique_by=tuple,
    )
)
@settings(max_examples=200, deadline=None)
def test_sparse_sort_key_orders_as_dense_vectors(vectors):
    sparse = [tuple((i, e) for i, e in enumerate(v) if e) for v in vectors]
    ordered = sorted(sparse, key=montecarlo._dense_order)
    dense = [tuple(dict(key).get(i, 0) for i in range(5)) for key in ordered]
    assert dense == sorted(map(tuple, vectors))


def test_largest_draw_gives_a_finite_normal(monkeypatch):
    # the largest 53-bit draw k = 2^53 - 1 has the half-step uniform
    # (k + 0.5) * 2^-53, which rounds to 1.0 in float64 unless clamped
    class LargestDraw:
        def __init__(self, bit_generator):
            pass

        def random(self, out):
            out[...] = (2.0**53 - 1) * 2.0**-53
            return out

    monkeypatch.setattr(np.random, "Generator", LargestDraw)
    ((start, z),) = montecarlo._normal_blocks(42, 0, 3, np.empty((3, 2)))
    assert start == 0
    assert np.all(np.isfinite(z))
    assert np.all(z == normal_quantile(np.nextafter(1.0, 0.0)))


def _peak_traced_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_holds_one_chunk_buffer(monkeypatch):
    # 3 chunks of 2^21 // 64 rows, each drawn, transformed and summed in
    # blocks of 2^14 // 64 = 256 rows, that is 2^14 values.  With one CPU the
    # chunks are drawn here, one after another, straight into the output, and
    # the peak allocation is the output and under ten blocks: the draw block,
    # the term scratch, the four slice buffers of normal_quantile, the power
    # table (exponents 1 and 2) and the tail entries.  With two CPUs they are
    # drawn in forked workers, and the parent allocates only the output and
    # the row-sized chunk results.
    cov = CovSpec.identity(64)
    f = GaussianPolynomial(cov, {(1, 1) + (0,) * 62: 1, (0, 0, 2) + (0,) * 61: 1})
    chunk_rows = 1 << 15
    n = 3 * chunk_rows
    block_bytes = (1 << 14) * 8
    normal_blocks = montecarlo._normal_blocks
    drawn_here = []

    def record(seed, chunk, rows, buf):
        drawn_here.append(chunk)
        return normal_blocks(seed, chunk, rows, buf)

    monkeypatch.setattr(montecarlo, "_normal_blocks", record)
    for cpus in (1, 2):
        drawn_here.clear()
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
        peak = _peak_traced_bytes(lambda: sample_gaussian_polynomial(f, n, seed=5))
        if cpus == 1:
            assert drawn_here == [0, 1, 2]
            assert peak < n * 8 + 10 * block_bytes
        else:
            assert drawn_here == []
            assert peak < 4 * n * 8


def test_worker_count_does_not_change_bits(monkeypatch):
    # 8 chunks of an identity covariance, then 3 chunks through a Cholesky
    # factor, numeric and symbolic; every worker count gives the same bytes
    dyadic = family_point("dyadic_p2", 512).scaled.element.compile()
    cases = (
        (dyadic, 1 << 14, None),
        (_numeric_cholesky_polynomial(), 150_000, None),
        (_symbolic_cholesky_polynomial(), 150_000, {"rho": -0.3}),
    )
    digests = []
    for f, n, assignment in cases:
        runs = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
            values = sample_gaussian_polynomial(f, n, seed=42, assignment=assignment).values
            runs.add(_sha256(values))
        assert len(runs) == 1
        digests.append(runs.pop())
    assert digests == [
        V1_DYADIC_512_SHA256, V1_CHOLESKY_NUMERIC_SHA256, V1_CHOLESKY_SYMBOLIC_SHA256
    ]


def test_sampling_leaves_no_worker_processes(monkeypatch):
    cov = CovSpec.identity(64)
    f = GaussianPolynomial(cov, {(1, 1) + (0,) * 62: 1})
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    sample_gaussian_polynomial(f, 5 * (1 << 15), seed=5)
    assert multiprocessing.active_children() == []

    normal_blocks = montecarlo._normal_blocks

    def fail_in_chunk_3(seed, chunk, rows, buf):
        if chunk == 3:
            raise ArithmeticError("chunk 3")
        return normal_blocks(seed, chunk, rows, buf)

    monkeypatch.setattr(montecarlo, "_normal_blocks", fail_in_chunk_3)
    with pytest.raises(ArithmeticError, match="chunk 3"):
        sample_gaussian_polynomial(f, 5 * (1 << 15), seed=5)
    assert multiprocessing.active_children() == []


def _dyadic_512_digest(seed: int) -> str:
    element = family_point("dyadic_p2", 512).scaled.element
    return _sha256(sample_chaos(element, 1 << 14, seed=seed).values)


def test_daemonic_worker_samples_inline():
    # pool workers may not fork workers of their own: inside one, the
    # 8 chunks run inline and give the recorded bytes
    with multiprocessing.get_context("fork").Pool(1) as pool:
        digest = pool.apply_async(_dyadic_512_digest, (42,)).get(timeout=120)
    assert digest == V1_DYADIC_512_SHA256


# ---------------------------------------------------------------------------
# The blocked chunk kernel against the per-term reference
# ---------------------------------------------------------------------------


def _float_terms(f: GaussianPolynomial, assignment=None) -> list:
    return [
        (key, f.terms[key].evaluate_float(dict(assignment or {})))
        for key in sorted(f.terms, key=montecarlo._dense_order)
    ]


def _per_term_values(f: GaussianPolynomial, n: int, seed: int, assignment=None):
    """The evaluation that recorded the v1 stream: each chunk's normals in
    one buffer, pushed through the Cholesky factor whole, then each term
    built as value * factor_1 * factor_2 ... and added to a zero sum."""
    d = f.cov.dimension
    factor = None if f.cov.is_identity else np.asarray(f.cov.cholesky_factor(assignment))
    rows = montecarlo._chunk_rows(d)
    out = []
    for chunk, start in enumerate(range(0, n, rows)):
        k = min(rows, n - start)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
        z = np.random.Generator(np.random.Philox(ss)).random((k, d))
        z += 2.0**-54
        np.minimum(z, np.nextafter(1.0, 0.0), out=z)
        z = normal_quantile(z, out=z)
        x = z if factor is None else z @ factor.T
        acc = np.zeros(k)
        for support, value in _float_terms(f, assignment):
            term = np.full(k, value)
            for i, e in support:
                term *= x[:, i] if e == 1 else x[:, i] ** e
            acc += term
        out.append(acc)
    return np.concatenate(out)


def _blocked_chunk(f: GaussianPolynomial, rows: int, seed: int, block: int):
    """Chunk 0 of f on an identity covariance, in blocks of ``block`` rows."""
    d = f.cov.dimension
    plan = montecarlo._term_plan(_float_terms(f), d, block)
    return montecarlo._chunk_values((0, rows), job=(seed, d, None, block, plan))


def _assert_blocked_matches_per_term(f, n, seed, assignment=None, blocks=(1, 7)):
    want = _per_term_values(f, n, seed, assignment)
    got = sample_gaussian_polynomial(f, n, seed, assignment=assignment).values
    assert got.tobytes() == want.tobytes()
    # the first rows of chunk 0, since its draws continue across blocks;
    # short blocks sum by accumulate, long ones by one add per term
    rows = min(n, 500)
    for block in blocks:
        assert _blocked_chunk(f, rows, seed, block).tobytes() == want[:rows].tobytes()


def test_blocked_kernel_hermite_constants_and_powers():
    # compiled Hermite products: constants, x^2 ... x^4, and mixed powers
    kernel = SymTensor(3, 4, {(0, 0, 0, 0): 1, (0, 0, 1, 1): Fraction(1, 3), (0, 1, 2, 2): -2})
    f = ChaosElement(3, {4: kernel, 2: SymTensor(3, 2, {(1, 1): Fraction(5, 7)})}).compile()
    assert () in f.terms and any(e >= 3 for key in f.terms for _, e in key)
    _assert_blocked_matches_per_term(f, 20_000, seed=3)


def test_blocked_kernel_mixed_exponent_patterns():
    import random as pyrandom

    rng = pyrandom.Random(1616)
    cov = CovSpec.identity(6)
    terms = {}
    for _ in range(40):
        exponents = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(6))
        terms[exponents] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
    _assert_blocked_matches_per_term(GaussianPolynomial(cov, terms), 9_000, seed=4)


def test_blocked_kernel_one_row_tail_chunks():
    # 2^21 // 40 + 1 rows: the second chunk, and its one block, has one row
    cov = CovSpec.identity(40)
    f = GaussianPolynomial(cov, {(1, 1) + (0,) * 38: 1, (0, 2) + (0,) * 38: -1, (0,) * 40: 2})
    _assert_blocked_matches_per_term(f, (1 << 21) // 40 + 1, seed=6)


def test_blocked_kernel_cholesky():
    # a dense factor with a one-row tail chunk, and a symbolic factor
    f = _dense_cholesky_polynomial()
    _assert_blocked_matches_per_term(f, (1 << 21) // 36 + 1, seed=6, blocks=())
    f = _symbolic_cholesky_polynomial()
    _assert_blocked_matches_per_term(f, 60_000, seed=8, assignment={"rho": 0.7}, blocks=())


def _dense_quartic(d: int) -> GaussianPolynomial:
    import itertools
    import random as pyrandom

    rng = pyrandom.Random(12)
    index = itertools.combinations_with_replacement(range(d), 4)
    kernel = SymTensor(d, 4, {idx: Fraction(rng.randint(-9, 9) or 1, 7) for idx in index})
    return ChaosElement(d, {4: kernel}).compile()


def test_blocked_kernel_many_terms_in_windows(monkeypatch):
    # 1442 terms at d = 12 take 132 windows of 11 terms per 1365-row block
    # (2 windows per 16-row block).  Inline, the kernel must give the
    # per-term bits, allocate less than the per-term evaluation, which holds
    # the whole chunk, and take no longer (best of three, with a margin for
    # timer noise).
    import time

    f = _dense_quartic(12)
    assert len(f.terms) == 1442
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
    n = 20_000

    def best_seconds(call):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            values = call()
            times.append(time.perf_counter() - start)
        return min(times), values

    blocked = lambda: sample_gaussian_polynomial(f, n, seed=9).values  # noqa: E731
    per_term = lambda: _per_term_values(f, n, seed=9)  # noqa: E731
    blocked_s, got = best_seconds(blocked)
    per_term_s, want = best_seconds(per_term)
    assert got.tobytes() == want.tobytes()
    assert _blocked_chunk(f, 500, 9, 16).tobytes() == want[:500].tobytes()
    assert _peak_traced_bytes(blocked) < _peak_traced_bytes(per_term)
    assert blocked_s < 1.25 * per_term_s


def test_h2_sample_mean_band():
    n = 100_000
    s = sample_chaos(h2_element(), n, seed=7)
    assert abs(float(s.values.mean())) <= 3.0 * math.sqrt(2.0 / n)


def test_standard_gaussian_sample_variance_band():
    n = 100_000
    x = ChaosElement(2, {1: SymTensor(2, 1, {(1,): 1})})
    s = sample_chaos(x, n, seed=3)
    assert abs(float(s.values.var()) - 1.0) <= 3.0 * math.sqrt(2.0 / n)


def test_sample_requires_positive_n():
    with pytest.raises(ValueError):
        sample_chaos(h2_element(), 0, seed=1)


def test_sampling_correlated_pair_via_cholesky():
    rho = 0.6
    cov = CovSpec.bivariate(Fraction(3, 5))
    f = GaussianPolynomial(cov, {(1, 1): 1})  # U * V, mean rho
    s = sample_gaussian_polynomial(f, 200_000, seed=5)
    se = math.sqrt((1.0 + rho**2) / s.size)
    assert abs(float(s.values.mean()) - rho) <= 4.0 * se


def test_sampling_symbolic_covariance_needs_assignment():
    cov = CovSpec.bivariate()
    f = GaussianPolynomial(cov, {(1, 1): 1})
    s = sample_gaussian_polynomial(f, 50_000, seed=5, assignment={"rho": -0.5})
    assert abs(float(s.values.mean()) + 0.5) <= 0.03
    with pytest.raises(Exception):
        sample_gaussian_polynomial(f, 100, seed=5)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def test_empirical_kappa4_constant_sample():
    s = SampleSet(values=np.full(400, 2.5), seed=0)
    point, se = empirical_kappa4(s)
    assert point == 0.0
    assert se == 0.0


def test_empirical_kappa4_h2():
    s = sample_chaos(h2_element(), 1_000_000, seed=99)
    point, se = empirical_kappa4(s)
    assert abs(point - 48.0) <= 3.0 * se


def test_empirical_kappa4_gaussian():
    x = ChaosElement(1, {1: SymTensor(1, 1, {(0,): 1})})
    s = sample_chaos(x, 1_000_000, seed=100)
    point, se = empirical_kappa4(s)
    assert abs(point) <= 3.0 * se


def test_empirical_kappa4_needs_enough_samples():
    with pytest.raises(ValueError):
        empirical_kappa4(SampleSet(values=np.zeros(99), seed=0))


def test_wasserstein_zero_on_exact_quantiles():
    n = 1000
    grid = normal_quantile((np.arange(1, n + 1) - 0.5) / n)
    s = SampleSet(values=grid, seed=0)
    assert wasserstein1_to_gaussian(s, 1.0) < 1e-12


def test_wasserstein_two_zeros_is_quartile():
    s = SampleSet(values=np.zeros(2), seed=0)
    assert abs(wasserstein1_to_gaussian(s, 1.0) - PHI_INV_75) < 1e-12


def test_wasserstein_needs_two_samples():
    with pytest.raises(ValueError):
        wasserstein1_to_gaussian(SampleSet(values=np.zeros(1), seed=0), 1.0)
    for sigma in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            wasserstein1_to_gaussian(SampleSet(values=np.zeros(2), seed=0), sigma)


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_wasserstein_shift_changes_at_most_by_shift(c):
    rng = np.random.default_rng(12)
    base = rng.normal(size=500)
    s0 = SampleSet(values=np.sort(base), seed=0)
    s1 = SampleSet(values=np.sort(base + c), seed=0)
    w0 = wasserstein1_to_gaussian(s0, 1.0)
    w1 = wasserstein1_to_gaussian(s1, 1.0)
    assert abs(w1 - w0) <= abs(c) + 1e-12


def test_ks_degenerate_at_zero():
    s = SampleSet(values=np.zeros(1), seed=0)
    assert abs(ks_to_gaussian(s, 1.0) - 0.5) < 1e-15


def test_ks_exact_quantiles():
    for n in (4, 10, 250):
        grid = normal_quantile((np.arange(1, n + 1) - 0.5) / n)
        s = SampleSet(values=grid, seed=0)
        assert abs(ks_to_gaussian(s, 1.0) - 1.0 / (2 * n)) < 1e-12


def test_ks_single_far_value_approaches_one():
    s = SampleSet(values=np.array([40.0]), seed=0)
    assert ks_to_gaussian(s, 1.0) > 1.0 - 1e-12


def test_distance_bounds():
    zero = gaussian_distance_bound(2.0, 2.0)
    assert zero.tv_bound == 0.0
    assert zero.w_bound == 0.0
    b = gaussian_distance_bound(1.0, math.sqrt(2.0))
    assert abs(b.tv_bound - 1.0) < 1e-12
    assert abs(b.w_bound - math.sqrt(2.0 / math.pi) / math.sqrt(2.0)) < 1e-12
    for sigma, sigma_n in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            gaussian_distance_bound(sigma, sigma_n)


# ---------------------------------------------------------------------------
# Kernel families: exact statistics
# ---------------------------------------------------------------------------


def test_family_names():
    assert FAMILY_NAMES == ("dyadic_p2", "mixed_p2_q3", "independent_blocks_M3")
    with pytest.raises(ValueError):
        family_point("nope", 4)
    with pytest.raises(ValueError):
        family_point("dyadic_p2", 0)


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("n", [1, 3, 8])
def test_family_unit_variance(family, n):
    assert family_point(family, n).exact_variance() == 1


def test_dyadic_exact_columns():
    for n, k4 in ((2, Fraction(3)), (4, Fraction(3, 2)), (16, Fraction(3, 8)), (64, Fraction(3, 32))):
        pt = family_point("dyadic_p2", n)
        assert pt.exact_kappa4() == k4
        assert pt.exact_gamma_variance() == Fraction(1, n)
        assert abs(pt.stein_w_bound() - 1.0 / math.sqrt(n)) < 1e-12
        assert abs(pt.max_contraction() - 1.0 / math.sqrt(8 * n)) < 1e-12


def test_mixed_exact_columns():
    for n in (1, 2, 8):
        pt = family_point("mixed_p2_q3", n)
        assert pt.exact_kappa4() == Fraction(15, 2 * n)
        assert pt.exact_gamma_variance() == Fraction(5, 4 * n)


def test_blocks_exact_columns():
    for n in (1, 2, 6):
        pt = family_point("independent_blocks_M3", n)
        assert pt.exact_kappa4() == Fraction(10, 3 * n)
        assert pt.exact_gamma_variance() == Fraction(5, 9 * n)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_gamma_variance_is_a_sixth_of_kappa4(family):
    # per block Var Gamma = kappa4 / 6, so the clt bound stein_w is
    # sqrt(kappa4 / 6) / sigma at every n: the experiment's sqrt(kappa4) rate
    _, block_kappa4, block_gamma_var = montecarlo._block_stats(family)
    assert block_gamma_var == block_kappa4 / 6
    for n in (1, 4, 64, 256):
        pt = family_point(family, n)
        assert pt.exact_gamma_variance() == pt.exact_kappa4() / 6
        assert pt.stein_w_bound() == math.sqrt(float(pt.exact_kappa4() / 6)) / pt.sigma()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_block_additivity_matches_direct_engine(family):
    """The per-block shortcut must agree with whole-element exact computation."""
    for n in (1, 2, 3, 64):
        pt = family_point(family, n)
        element = pt.scaled.element
        scale_sq = pt.scaled.scale_sq
        assert scale_sq * element.variance() == pt.exact_variance()
        assert scale_sq**2 * kappa4_exact(element) == pt.exact_kappa4()
        assert scale_sq**2 * gamma_variance(element) == pt.exact_gamma_variance()


def test_family_sample_variance_matches():
    pt = family_point("mixed_p2_q3", 4)
    s = pt.scaled.sample(100_000, seed=21)
    assert abs(float(s.values.var()) - 1.0) <= 0.03


# ---------------------------------------------------------------------------
# Consistency of simulation with the exact engine
# ---------------------------------------------------------------------------


def test_random_elements_moments_within_four_se():
    """Ten seeded random small elements; second and fourth sample moments
    must sit within 4 batch standard errors of the exact values."""
    import random as pyrandom

    rng = pyrandom.Random(31415)
    for trial in range(10):
        d = rng.randint(1, 3)
        components = {}
        for order in rng.sample((1, 2, 3), k=rng.randint(1, 2)):
            coeffs = {}
            for _ in range(rng.randint(1, 2)):
                idx = tuple(sorted(rng.randrange(d) for _ in range(order)))
                coeffs[idx] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            tensor = SymTensor(d, order, coeffs)
            if not tensor.is_zero:
                components[order] = tensor
        if not components:
            continue
        x = ChaosElement(d, components)
        compiled = x.compile()
        exact_m2 = float(x.variance())
        exact_m4 = float(
            expectation_of_product(
                compiled * compiled, compiled * compiled
            ).constant_value()
        )
        s = sample_chaos(x, 1_000_000, seed=5000 + trial)
        values = s.values
        batches = values[: 20 * (s.size // 20)].reshape(20, -1)
        for exact, power in ((exact_m2, 2), (exact_m4, 4)):
            per_batch = (batches**power).mean(axis=1)
            point = float((values**power).mean())
            se = float(per_batch.std(ddof=1) / math.sqrt(20))
            assert abs(point - exact) <= 4.0 * se + 1e-12


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def test_clt_experiment_structure_and_determinism():
    rep = clt_experiment("dyadic_p2", [2, 8], 2000, seed=77)
    assert rep.name == "clt:dyadic_p2"
    assert rep.parameters["generator_id"] == GENERATOR_ID
    assert rep.parameters["samples_per_point"] == 2000
    assert "tolerance.w1_within_bound" in rep.parameters
    assert rep.exact_values["kappa4[n=2]"] == 3
    assert rep.exact_values["kappa4[n=8]"] == Fraction(3, 4)
    for key in ("w1[n=2]", "ks[n=2]", "kappa4_hat[n=2]"):
        point, se = rep.estimates[key]
        assert math.isfinite(point) and se >= 0.0
    assert rep.verdicts["kappa4_decreasing"]
    again = clt_experiment("dyadic_p2", [2, 8], 2000, seed=77)
    assert again.estimates == rep.estimates
    assert again.verdicts == rep.verdicts


def test_clt_experiment_validates_input():
    with pytest.raises(ValueError):
        clt_experiment("dyadic_p2", [4, 4], 1000, seed=1)
    with pytest.raises(ValueError):
        clt_experiment("dyadic_p2", [4, 16], 50, seed=1)
    with pytest.raises(ValueError):
        clt_experiment("unknown", [4, 16], 1000, seed=1)
    with pytest.raises(TypeError):
        clt_experiment("dyadic_p2", [4.7], 100.9, 1)


def test_clt_experiment_w1_bound_holds_at_moderate_size():
    rep = clt_experiment("dyadic_p2", [4, 16], 20_000, seed=13)
    for n in (4, 16):
        assert rep.verdicts[f"w1_within_bound[n={n}]"]
        w1, _ = rep.estimates[f"w1[n={n}]"]
        stein = rep.exact_values[f"stein_w[n={n}]"]
        band = rep.parameters["error_band"]
        assert w1 <= stein + 3.0 * band


def test_clt_experiment_blocks_has_ks_verdicts():
    rep = clt_experiment("independent_blocks_M3", [2, 8], 5000, seed=4)
    assert "ks_decreasing" in rep.verdicts
    assert "ks_small_at_max" in rep.verdicts
    assert "contraction_decreasing" not in rep.verdicts


def test_clt_experiment_dyadic_contraction_column():
    rep = clt_experiment("dyadic_p2", [4, 16], 1000, seed=4)
    assert rep.verdicts["contraction_decreasing"]
    assert abs(rep.exact_values["max_contraction[n=4]"] - 1 / math.sqrt(32)) < 1e-12
    assert abs(rep.exact_values["max_contraction[n=16]"] - 1 / math.sqrt(128)) < 1e-12
