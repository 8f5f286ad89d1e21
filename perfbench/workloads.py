"""The three benchmark workloads: seeded inputs, operations and their checks.

Every workload is a fixed list of operations built from the seed.  An
operation calls chaoskit's public API on inputs the benchmark generated; its
check returns the list of problems with the output (empty when correct).
Checks use exact identities that hold for every seed.  At ``RECORDED_SEED``
the canonical text of every output is also compared with the SHA-256 digests
in ``golden.json``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import chaoskit as ck

WORKLOADS = ("mc_clt", "exact_dense", "symbolic_suites")
RECORDED_SEED = 42

# kappa4(a U + H5(V)) = 7200 a^2 rho^2 + 864000 a rho + 66960000, as
# (rho^2 coefficient / a^2, rho coefficient / a, constant).
H1H5_KAPPA4 = (7200, 864000, 66960000)


@dataclass
class Op:
    label: str  # unique within the workload
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    canon: Callable[[Any], str]  # canonical text of the output, for digests
    draws: int = 0  # functional draws the call samples (mc_clt)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def build(name: str, seed: int, scratch_dir: str, tiny: bool = False) -> list[Op]:
    """The operation list of one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = _rng(name, seed)
    if name == "mc_clt":
        return _mc_clt(rng, tiny)
    if name == "exact_dense":
        return _exact_dense(rng, tiny)
    return _symbolic_suites(rng, scratch_dir, tiny)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# mc_clt: the Monte Carlo layer on narrow and wide points.
# ---------------------------------------------------------------------------

MC_SAMPLES = 1 << 14

# Narrow points fit one 2^21-value chunk (d <= 32).  Wide points have
# d >= 1000 and 8 or 9 chunks; the round stays near 6 s so that a run holds
# several rounds.  Independent-blocks points start at n = 64: below that the
# KS statistic's bias at this sample size leaves its ks_small_at_max verdict
# (KS < 0.02) too little margin for every seed.
MC_POINTS = (
    ("dyadic_p2", (4,)),
    ("dyadic_p2", (8,)),
    ("dyadic_p2", (16,)),
    ("dyadic_p2", (4, 8, 16)),
    ("independent_blocks_M3", (64,)),
    ("independent_blocks_M3", (192,)),
    ("dyadic_p2", (512,)),
)
MC_POINTS_TINY = (
    ("dyadic_p2", (4,)),
    ("dyadic_p2", (4, 8)),
    ("independent_blocks_M3", (64,)),
)

# Exact per-point values of each family: kappa4 = K / n, Var Gamma = G / n,
# variance 1.
FAMILY_EXACT = {
    "dyadic_p2": (Fraction(6), Fraction(1)),
    "independent_blocks_M3": (Fraction(10, 3), Fraction(5, 9)),
}


def _check_clt(report, family: str, grid, samples: int) -> list:
    problems = [f"verdict {k} is false" for k, v in report.verdicts.items() if not v]
    params = report.parameters
    if params.get("generator_id") != ck.GENERATOR_ID:
        problems.append("report generator id differs from GENERATOR_ID")
    if params.get("samples_per_point") != samples or params.get("n_grid") != list(grid):
        problems.append("report parameters differ from the request")
    k4, gv = FAMILY_EXACT[family]
    exact, est = report.exact_values, report.estimates
    for n in grid:
        if exact.get(f"variance[n={n}]") != 1:
            problems.append(f"variance[n={n}] != 1")
        if exact.get(f"kappa4[n={n}]") != k4 / n:
            problems.append(f"kappa4[n={n}] != {k4 / n}")
        if exact.get(f"var_gamma[n={n}]") != gv / n:
            problems.append(f"var_gamma[n={n}] != {gv / n}")
        if not close(exact.get(f"stein_w[n={n}]", math.nan), math.sqrt(gv / n)):
            problems.append(f"stein_w[n={n}] != sqrt(Var Gamma)")
        if family == "dyadic_p2" and not close(
            exact.get(f"max_contraction[n={n}]", math.nan), 1 / math.sqrt(8 * n)
        ):
            problems.append(f"max_contraction[n={n}] != 1/sqrt(8n)")
        for key in ("w1", "ks", "kappa4_hat"):
            point, se = est.get(f"{key}[n={n}]", (math.nan, math.nan))
            if not (math.isfinite(point) and math.isfinite(se)):
                problems.append(f"{key}[n={n}] is not finite")
    return problems


def _canon_report(report) -> str:
    lines = [f"{k}={v!r}" for k, v in report.exact_values.items()]
    lines += [f"{k}={v!r}" for k, v in report.estimates.items()]
    lines += [f"{k}={v!r}" for k, v in report.verdicts.items()]
    return "\n".join(lines)


def _mc_clt(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for family, grid in MC_POINTS_TINY if tiny else MC_POINTS:
        seed = rng.getrandbits(32)
        ops.append(
            Op(
                label=f"clt[{family},n={','.join(map(str, grid))}]",
                kind="clt",
                call=lambda f=family, g=grid, s=seed: ck.clt_experiment(
                    f, list(g), MC_SAMPLES, s
                ),
                check=lambda r, f=family, g=grid: _check_clt(r, f, g, MC_SAMPLES),
                canon=_canon_report,
                draws=MC_SAMPLES * len(grid),
            )
        )
    return ops


def first_chunk_digest() -> str:
    """SHA-256 of the first 2^21-value chunk of the recorded seed's stream."""
    f = ck.GaussianPolynomial.coordinate(ck.CovSpec.identity(1), 0)
    values = ck.sample_gaussian_polynomial(f, 1 << 21, RECORDED_SEED).values
    return hashlib.sha256(values.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# exact_dense: the exact engine on dense identity-covariance kernels.
# ---------------------------------------------------------------------------

# (dimension, order) of the kernels for kappa4_exact, gamma_variance and
# contract(u, u, r), r = 1..p-1, then of one kernel for contractions only.
# Each operation stays near or below 1 s so that a run holds several rounds.
DENSE_KERNELS = ((5, 4), (12, 2), (6, 3))
DENSE_CONTRACT_ONLY = ((4, 5),)
DENSE_PAIRS = ((4, 2, 3), (3, 2, 4), (6, 2, 2), (4, 3, 3))  # product formula
MIXED_PAIRS = ((4, 2, 3), (3, 2, 4), (4, 1, 3), (3, 3, 4))  # p < q
DENSE_KERNELS_TINY = ((3, 2), (3, 3))
DENSE_CONTRACT_ONLY_TINY = ()
DENSE_PAIRS_TINY = ((3, 2, 2),)
MIXED_PAIRS_TINY = ((3, 1, 2),)

_NONZERO = (-3, -2, -1, 1, 2, 3)


def dense_kernel(rng: random.Random, d: int, p: int) -> ck.SymTensor:
    """A symmetric kernel with a nonzero entry on every sorted index."""
    return ck.SymTensor(
        d,
        p,
        {
            idx: Fraction(rng.choice(_NONZERO), rng.randint(1, 3))
            for idx in itertools.combinations_with_replacement(range(d), p)
        },
    )


class DenseOracle:
    """Integer dense-array route to contractions, kappa4 and Var Gamma.

    The kernel times the lcm L of its denominators is stored as a full int64
    array, so contractions are exact ``np.tensordot`` calls.  For a single
    chaos F = I_p(u), with s_r = |u (x)~_r u|^2 (symmetrized contraction):
    kappa4(F) = (3/p) sum_r r r!^2 C(p,r)^4 (2p-2r)! s_r and
    Var Gamma(F) = sum_r (r/p)^2 r!^2 C(p,r)^4 (2p-2r)! s_r, r = 1..p-1
    (Nualart-Peccati; Nourdin-Peccati).
    """

    def __init__(self, u: ck.SymTensor):
        self.p = u.order
        self.scale = math.lcm(*(c.denominator for c in u.coeffs.values()))
        self.array = np.zeros((u.dimension,) * u.order, dtype=np.int64)
        for idx, c in u.coeffs.items():
            value = int(c * self.scale)
            for perm in set(itertools.permutations(idx)):
                self.array[perm] = value
        self._sym: dict[int, Fraction] = {}

    def contraction(self, r: int) -> np.ndarray:
        """u (x)_r u over the last r slots, times scale^2."""
        axes = list(range(self.p - r, self.p))
        return np.tensordot(self.array, self.array, axes=(axes, axes))

    def sym_norm_sq(self, r: int) -> Fraction:
        if r not in self._sym:
            raw = self.contraction(r)
            k = raw.ndim
            total = np.zeros_like(raw)
            for perm in itertools.permutations(range(k)):
                total += np.transpose(raw, perm)
            squares = sum(int(x) * int(x) for x in total.ravel().tolist())
            self._sym[r] = Fraction(squares, math.factorial(k) ** 2 * self.scale**4)
        return self._sym[r]

    def _weighted(self, weight) -> Fraction:
        p = self.p
        return sum(
            (
                weight(r)
                * math.factorial(r) ** 2
                * math.comb(p, r) ** 4
                * math.factorial(2 * p - 2 * r)
                * self.sym_norm_sq(r)
                for r in range(1, p)
            ),
            Fraction(0),
        )

    def kappa4(self) -> Fraction:
        return self._weighted(lambda r: Fraction(3 * r, self.p))

    def gamma_variance(self) -> Fraction:
        return self._weighted(lambda r: Fraction(r * r, self.p * self.p))


def _check_value(expected: Callable[[], Fraction]):
    def check(value) -> list:
        want = expected()
        return [] if value == want else [f"{value} != expected {want}"]

    return check


def _check_contraction(oracle: DenseOracle, r: int):
    def check(tensor) -> list:
        want = oracle.contraction(r)
        if tensor.order != want.ndim:
            return [f"order {tensor.order} != {want.ndim}"]
        scale = oracle.scale**2
        if len(tensor.entries) != int(np.count_nonzero(want)):
            return ["nonzero entry count differs from the dense contraction"]
        for idx, value in tensor.entries.items():
            if value * scale != int(want[idx]):
                return [f"entry {idx} differs from the dense contraction"]
        return []

    return check


def _canon_tensor(tensor) -> str:
    return "\n".join(f"{k}:{v}" for k, v in sorted(tensor.entries.items()))


def _check_product(u: ck.SymTensor, v: ck.SymTensor):
    direct = functools.cache(lambda: ck.multiple_integral(u) * ck.multiple_integral(v))

    def check(expansion) -> list:
        problems = []
        if expansion.element.compile() + expansion.constant != direct():
            problems.append("expansion differs from I_p(u) I_q(v)")
        isometry = math.factorial(u.order) * u.inner(v) if u.order == v.order else 0
        if expansion.constant != isometry:
            problems.append("constant term differs from p! <u, v>")
        return problems

    return check


def _canon_expansion(expansion) -> str:
    lines = [str(expansion.constant)]
    for order, tensor in expansion.element.components.items():
        lines += [f"{order}|{k}:{v}" for k, v in sorted(tensor.coeffs.items())]
    return "\n".join(lines)


def _check_mixed(result) -> list:
    if not result.holds:
        return ["mixed-term bound does not hold"]
    if result.lhs < 0 or float(result.lhs) > result.rhs * (1 + 1e-9):
        return [f"lhs {result.lhs} outside [0, rhs={result.rhs}]"]
    return []


def _exact_dense(rng: random.Random, tiny: bool) -> list[Op]:
    kernels = DENSE_KERNELS_TINY if tiny else DENSE_KERNELS
    contract_only = DENSE_CONTRACT_ONLY_TINY if tiny else DENSE_CONTRACT_ONLY
    ops = []
    contractions = []
    for d, p in kernels:
        u = dense_kernel(rng, d, p)
        oracle = DenseOracle(u)
        shape = f"d={d},p={p}"
        ops.append(
            Op(
                f"kappa4_exact[{shape}]",
                "kappa4",
                lambda u=u: ck.kappa4_exact(ck.ChaosElement(u.dimension, {u.order: u})),
                _check_value(oracle.kappa4),
                str,
            )
        )
        ops.append(
            Op(
                f"gamma_variance[{shape}]",
                "gamma_var",
                lambda u=u: ck.gamma_variance(
                    ck.ChaosElement(u.dimension, {u.order: u})
                ),
                _check_value(oracle.gamma_variance),
                str,
            )
        )
        contractions.append((u, oracle, shape))
    for d, p in contract_only:
        u = dense_kernel(rng, d, p)
        contractions.append((u, DenseOracle(u), f"d={d},p={p}"))
    for u, oracle, shape in contractions:
        for r in range(1, u.order):
            ops.append(
                Op(
                    f"contract[{shape},r={r}]",
                    "contract",
                    lambda u=u, r=r: ck.contract(u, u, r),
                    _check_contraction(oracle, r),
                    _canon_tensor,
                )
            )
    for d, p, q in DENSE_PAIRS_TINY if tiny else DENSE_PAIRS:
        u, v = dense_kernel(rng, d, p), dense_kernel(rng, d, q)
        ops.append(
            Op(
                f"product_formula_expand[d={d},p={p},q={q}]",
                "product_formula",
                lambda u=u, v=v: ck.product_formula_expand(u, v),
                _check_product(u, v),
                _canon_expansion,
            )
        )
    for d, p, q in MIXED_PAIRS_TINY if tiny else MIXED_PAIRS:
        u, v = dense_kernel(rng, d, p), dense_kernel(rng, d, q)
        ops.append(
            Op(
                f"mixed_term_bound_check[d={d},p={p},q={q}]",
                "mixed_term",
                lambda u=u, v=v: ck.mixed_term_bound_check(u, v),
                _check_mixed,
                lambda m: f"{m.lhs}|{m.rhs!r}|{m.holds}",
            )
        )
    return ops


# ---------------------------------------------------------------------------
# symbolic_suites: many small symbolic operations on d = 2 covariances.
# ---------------------------------------------------------------------------

CLI_SUITES = (
    ("counterexample", {}),
    ("lemma-suite", {"pairs": 10}),
    ("bounds-suite", {"pairs": 10}),
    ("positivity", {"grid_points": 101}),
)
CLI_FORMATS = ("csv", "json", "csv")
H1H5_COUNT = 20
TABLE_COUNT = 8
TABLE_DEGREE = 20
DECOMPOSITION_COUNT = 40
# A fixed schedule of (d, p, q): orders of different parity with p + q >= 5,
# so that every split takes at least a few milliseconds and the work of a
# round does not depend on the seed; only indices and values are drawn.
DECOMPOSITION_SHAPES = tuple(
    (d, p, q)
    for d in (2, 3, 4)
    for p in range(1, 5)
    for q in range(1, 6)
    if (p - q) % 2 and p + q >= 5
)


def _cli_call(command: str, seed: int, fmt: str, path: str, options: dict):
    def call():
        config = ck.RunConfig(
            command=command, seed=seed, output_path=path, format=fmt, **options
        )
        with contextlib.redirect_stdout(io.StringIO()):
            code = ck.run(config)
        with open(path, "rb") as handle:
            return code, handle.read()

    return call


def _check_cli(fmt: str):
    def check(result) -> list:
        code, data = result
        problems = [] if code == 0 else [f"exit code {code}"]
        text = data.decode("utf-8")
        if fmt == "json":
            verdicts = list(json.loads(text)["verdicts"].values())
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
            verdicts = [row["verdict"] == "true" for row in rows if row["verdict"]]
        if not verdicts or not all(verdicts):
            problems.append("report holds a false verdict")
        return problems

    return check


def h1h5_reference(a: Fraction) -> ck.ParamPoly:
    c2, c1, c0 = H1H5_KAPPA4
    return ck.ParamPoly(("rho",), {(2,): c2 * a * a, (1,): c1 * a, (0,): c0})


def _check_h1h5(a: Fraction):
    def check(poly) -> list:
        want = h1h5_reference(a)
        return [] if poly == want else [f"kappa4_h1h5({a}) = {poly}, expected {want}"]

    return check


def _moment_table(degree: int):
    cov = ck.CovSpec.bivariate()
    return [
        ck.gaussian_moment((n, t - n), cov)
        for t in range(degree + 1)
        for n in range(t + 1)
    ]


@functools.cache
def _conditional_table(degree: int) -> tuple:
    return tuple(
        ck.gaussian_moment_bivariate_conditional(n, t - n)
        for t in range(degree + 1)
        for n in range(t + 1)
    )


def _check_table(degree: int):
    def check(table) -> list:
        want = _conditional_table(degree)
        bad = sum(1 for got, expected in zip(table, want) if got != expected)
        if len(table) != len(want) or bad:
            return [f"{bad} moments differ from the conditional route"]
        return []

    return check


def _sparse_kernel(rng: random.Random, d: int, p: int) -> ck.SymTensor:
    indices = list(itertools.combinations_with_replacement(range(d), p))
    chosen = rng.sample(indices, min(len(indices), 3))
    return ck.SymTensor(
        d, p, {idx: Fraction(rng.choice(_NONZERO), rng.randint(1, 3)) for idx in chosen}
    )


def _check_decomposition(y: ck.SymTensor, z: ck.SymTensor):
    parts = functools.cache(
        lambda: tuple(
            ck.kappa4_exact(ck.ChaosElement(t.dimension, {t.order: t})) for t in (y, z)
        )
    )

    def check(dec) -> list:
        problems = []
        if (dec.k4y, dec.k4z) != parts():
            problems.append("component cumulants differ from kappa4_exact")
        if dec.k4x != dec.k4y + dec.k4z + 6 * dec.cov_sq:
            problems.append("split identity fails")
        if not (dec.k4x > 0 and dec.cov_sq >= 0 and dec.k4x >= max(dec.k4y, dec.k4z)):
            problems.append("positivity or monotonicity fails")
        return problems

    return check


def _symbolic_suites(rng: random.Random, scratch_dir: str, tiny: bool) -> list[Op]:
    ops = []
    formats = CLI_FORMATS[:1] if tiny else CLI_FORMATS
    for rep, fmt in enumerate(formats):
        for command, options in CLI_SUITES:
            seed = rng.getrandbits(32)
            path = os.path.join(scratch_dir, f"{command}-{rep}.{fmt}")
            ops.append(
                Op(
                    f"cli[{command},{fmt},#{rep}]",
                    "cli",
                    _cli_call(command, seed, fmt, path, options),
                    _check_cli(fmt),
                    lambda result: result[1].decode("utf-8"),
                )
            )
    for k in range(2 if tiny else H1H5_COUNT):
        a = Fraction(rng.choice([j for j in range(-60, 61) if j]), rng.randint(1, 12))
        ops.append(
            Op(
                f"kappa4_h1h5[#{k},a={a}]",
                "kappa4_h1h5",
                lambda a=a: ck.kappa4_h1h5(a),
                _check_h1h5(a),
                str,
            )
        )
        ops.append(
            Op(
                f"real_roots[#{k},a={a}]",
                "real_roots",
                lambda poly=h1h5_reference(a): ck.real_roots(poly, (-1.0, 1.0)),
                lambda roots: [] if roots == [] else [f"roots {roots} found"],
                repr,
            )
        )
    degree = 10 if tiny else TABLE_DEGREE
    for k in range(1 if tiny else TABLE_COUNT):
        ops.append(
            Op(
                f"moment_table[degree={degree},#{k}]",
                "moment_table",
                lambda: _moment_table(degree),
                _check_table(degree),
                lambda table: "\n".join(map(str, table)),
            )
        )
    for k in range(2 if tiny else DECOMPOSITION_COUNT):
        d, p, q = DECOMPOSITION_SHAPES[k % len(DECOMPOSITION_SHAPES)]
        y, z = _sparse_kernel(rng, d, p), _sparse_kernel(rng, d, q)
        ops.append(
            Op(
                f"kappa4_decomposition[#{k},d={d},p={p},q={q}]",
                "kappa4_decomposition",
                lambda y=y, z=z: ck.kappa4_decomposition(y, z),
                _check_decomposition(y, z),
                lambda dec: f"{dec.k4x}|{dec.k4y}|{dec.k4z}|{dec.cov_sq}",
            )
        )
    return ops
