"""Span recorder for the traced benchmark run.

The recorder wraps chaoskit's public layer entry points from the outside: it
rebinds module attributes (``montecarlo.normal_quantile``, ``chaos.contract``,
...) and a few class methods (``ChaosElement.compile``,
``GaussianPolynomial.__mul__``, ``ParamPoly`` arithmetic).  No package file is
edited.  A function imported into several modules (``from .wick import
cumulant``) is rebound in every module that holds it, so calls made inside the
package are seen too.

Each span is kept in memory as ``(name, start, end, parent)``.  A span's self
time is its duration minus the time covered by its direct children.
``ParamPoly`` arithmetic runs millions of times per operation, so it gets call
counters only, never spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import chaoskit
from chaoskit import algebra, chaos, cli, counterexamples, montecarlo, wick

_MODULES = (chaoskit, algebra, wick, chaos, counterexamples, montecarlo, cli)

# (owner module, attribute, span name).  Besides the spans the per-layer
# metrics read, the list holds the library entry points that cli.run and the
# counterexamples call, so that cli self time excludes all library work.
_FUNCTIONS = (
    (montecarlo, "normal_quantile", "montecarlo.normal_quantile"),
    (montecarlo, "sample_gaussian_polynomial", "montecarlo.sample_gaussian_polynomial"),
    (montecarlo, "wasserstein1_to_gaussian", "montecarlo.wasserstein1_to_gaussian"),
    (montecarlo, "ks_to_gaussian", "montecarlo.ks_to_gaussian"),
    (montecarlo, "empirical_kappa4", "montecarlo.empirical_kappa4"),
    (montecarlo, "family_point", "montecarlo.family_point"),
    (montecarlo, "clt_experiment", "montecarlo.clt_experiment"),
    (chaos, "contract", "chaos.contract"),
    (chaos, "multiple_integral", "chaos.multiple_integral"),
    (chaos, "product_formula_expand", "chaos.product_formula_expand"),
    (chaos, "gamma", "chaos.gamma"),
    (chaos, "gamma_variance", "chaos.gamma_variance"),
    (chaos, "stein_bound", "chaos.stein_bound"),
    (chaos, "kappa4_exact", "chaos.kappa4_exact"),
    (chaos, "kappa4_decomposition", "chaos.kappa4_decomposition"),
    (chaos, "mixed_term_bound_check", "chaos.mixed_term_bound_check"),
    (wick, "expectation", "wick.expectation"),
    (wick, "expectation_of_product", "wick.expectation_of_product"),
    (wick, "cumulant", "wick.cumulant"),
    (wick, "gaussian_moment", "wick.gaussian_moment"),
    (algebra, "real_roots", "algebra.real_roots"),
    (algebra, "param_eval", "algebra.param_eval"),
    (counterexamples, "counterexample_h1h3", "counterexamples.counterexample_h1h3"),
    (counterexamples, "h1h5_positivity_certificate", "counterexamples.positivity"),
    (counterexamples, "h1h5_second_moment", "counterexamples.h1h5_second_moment"),
    (counterexamples, "kappa4_h1h5", "counterexamples.kappa4_h1h5"),
    (cli, "run", "cli.run"),
)

_METHODS = (
    (chaos.ChaosElement, "compile", "chaos.compile"),
    (wick.GaussianPolynomial, "__mul__", "wick.poly_mul"),
    (wick.GaussianPolynomial, "__rmul__", "wick.poly_mul"),
)

_COUNTED = (
    (algebra.ParamPoly, "__mul__", "algebra.mul_calls"),
    (algebra.ParamPoly, "__rmul__", "algebra.mul_calls"),
    (algebra.ParamPoly, "__add__", "algebra.add_calls"),
    (algebra.ParamPoly, "__radd__", "algebra.add_calls"),
)


def _quantile_values(args, result) -> int:
    return int(np.size(args[0]))


def _compiled_terms(args, result) -> int:
    return len(result.terms)


def _multiplied_terms(args, result) -> int:
    left, right = args[0], args[1]
    if isinstance(right, wick.GaussianPolynomial):
        return len(left.terms) * len(right.terms)
    return len(left.terms)


_WORK = {
    "montecarlo.normal_quantile": _quantile_values,
    "chaos.compile": _compiled_terms,
    "wick.poly_mul": _multiplied_terms,
}


class Tracer:
    """Records spans and counts while ``active``; patches on ``__enter__``."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, name, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if work is not None:
                self.counts[name] += work(args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if self.active:
                counts[key] += 1
            return fn(*args)

        return wrapper

    def root(self, name, fn):
        """Run ``fn`` under a top-level span (one benchmark operation)."""
        return self._spanned(name, fn)()

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._spanned(name, original)
            for module in _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for cls, attr, name in _METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._spanned(name, original))
        for cls, attr, key in _COUNTED:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._counted(key, original))
        return self

    def __exit__(self, *exc):
        self.active = False
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    # -- aggregation -------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _), child in zip(self.spans, covered):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return dict(out)

    def per_root(self, names) -> list[tuple[str, float, dict[str, float]]]:
        """For each top-level span: its name, duration and the total seconds
        of each of ``names`` among its descendants."""
        rows = []
        root_of = [0] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                root_of[index] = len(rows)
                rows.append((name, end - start, dict.fromkeys(names, 0.0)))
            else:
                root_of[index] = root_of[parent]
                if name in names:
                    rows[root_of[index]][2][name] += end - start
        return rows


def moment_cache_entries() -> int:
    """Entries in the moment caches of the cached identity covariances.

    Read from outside through private attributes; 0 if they are renamed.
    """
    covs = getattr(wick.CovSpec, "_identity_cache", {})
    return sum(len(getattr(cov, "_moment_cache", ())) for cov in covs.values())
