"""chaoskit benchmark: one seeded workload per run, closed loop, one client.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {mc_clt,exact_dense,symbolic_suites}
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout, never from an
installed copy.  The workload's operation list runs in whole rounds, one
operation at a time, until about S seconds of operation time are spent.
Every output is checked.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced round with ``--trace 1``.  The exit code is
0 when every check passed, 1 when any failed, 2 on bad usage or a checkout
without ``src/chaoskit``.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_tmp"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    limit = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, limit))
        except ValueError:
            wanted = limit
        os.environ[var] = str(min(max(wanted, 1), limit))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_chaoskit():
    """Import chaoskit from the checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "chaoskit" / "__init__.py").is_file():
        print(f"perfbench: no chaoskit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import chaoskit

    if Path(chaoskit.__file__).resolve().parent != src / "chaoskit":
        print(f"perfbench: chaoskit came from {chaoskit.__file__}", file=sys.stderr)
        sys.exit(2)
    return chaoskit


def commit_id() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(ck, seed: int, threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_id(),
        "generator_id": ck.GENERATOR_ID,
        "seed": seed,
        "threads_env": threads,
    }


def setup_seconds(workload: str, seed: int, probes: int, tiny: bool) -> float:
    """Median fresh-process time to import chaoskit and build the inputs."""
    times = []
    for _ in range(probes):
        command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        if tiny:
            command.append("tiny")
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class Measurement:
    round_s: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    kind_s: list = field(default_factory=list)  # per round: {kind: seconds}
    draws: int = 0
    draw_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)


class Runner:
    """Executes operations and checks their outputs outside the timed call."""

    def __init__(self, golden: dict | None, tracer=None):
        self.golden = golden
        self.tracer = tracer

    def execute(self, op, m: Measurement, traced: bool) -> float:
        from workloads import digest

        error = None
        if traced:
            self.tracer.active = True
        start = perf_counter()
        try:
            result = (
                self.tracer.root(f"op.{op.kind}", op.call) if traced else op.call()
            )
        except Exception as exc:  # a raising operation is a counted failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        if traced:
            self.tracer.active = False
        problems = [error] if error else op.check(result)
        if not error and self.golden is not None:
            want = self.golden.get(op.label)
            if want is None:
                problems.append("no recorded digest for this operation")
            elif digest(op.canon(result)) != want:
                problems.append("output differs from the recorded digest")
        m.attempted += 1
        if problems:
            m.failures.append((op.label, problems[0]))
        m.draws += op.draws
        m.draw_s += latency if op.draws else 0.0
        return latency

    def measure(self, ops, budget: float, rounds: int | None = None, traced=False):
        """Whole rounds until the next one would pass ``budget`` seconds of
        operation time (at least one), or exactly ``rounds`` rounds."""
        m = Measurement()
        while True:
            kinds: dict[str, float] = defaultdict(float)
            for op in ops:
                latency = self.execute(op, m, traced)
                m.latencies.append(latency)
                kinds[op.kind] += latency
            m.round_s.append(sum(kinds.values()))
            m.kind_s.append(kinds)
            if rounds is not None:
                if len(m.round_s) >= rounds:
                    return m
            elif sum(m.round_s) + statistics.median(m.round_s) > budget:
                return m


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1))."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def kind_median(m: Measurement, kind: str) -> float:
    return statistics.median(k.get(kind, 0.0) for k in m.kind_s)


def end_to_end(m: Measurement, setup_s: float) -> dict:
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(m.round_s), "s"),
        "peak_rss_mb": (peak_rss_kib / 2**10, "MB"),
    }


def workload_extras(workload: str, m: Measurement) -> dict:
    """End-to-end figures printed but not gated (see README.md)."""
    extras = {
        "op_p50_s": (statistics.median(m.latencies), "s"),
        "ops_timed": (len(m.latencies), "count"),
        "cold_round_s": (m.round_s[0], "s"),
        "fail_frac": (len(m.failures) / m.attempted, "ratio"),
    }
    if workload == "mc_clt":
        extras["samples_per_s"] = (m.draws / m.draw_s, "1/s")
    if workload == "exact_dense":
        for metric, kind in (
            ("kappa4_s", "kappa4"),
            ("gamma_var_s", "gamma_var"),
            ("contract_s", "contract"),
        ):
            extras[metric] = (kind_median(m, kind), "s")
    if workload == "symbolic_suites":
        extras["op_p90_s"] = (percentile(m.latencies, 0.9), "s")
    return extras


# Per-layer metric -> (span name, field) from the tracer table; counts come
# from the tracer's counters.
LAYER_SPANS = {
    "montecarlo.quantile_s": ("montecarlo.normal_quantile", "total_s"),
    "montecarlo.quantile_calls": ("montecarlo.normal_quantile", "calls"),
    "montecarlo.sample_self_s": ("montecarlo.sample_gaussian_polynomial", "self_s"),
    "montecarlo.family_point_s": ("montecarlo.family_point", "total_s"),
    "chaos.compile_s": ("chaos.compile", "total_s"),
    "chaos.contract_s": ("chaos.contract", "total_s"),
    "chaos.contract_calls": ("chaos.contract", "calls"),
    "chaos.gamma_s": ("chaos.gamma", "total_s"),
    "chaos.multiple_integral_s": ("chaos.multiple_integral", "total_s"),
    "chaos.kappa4_decomposition_s": ("chaos.kappa4_decomposition", "total_s"),
    "wick.expectation_of_product_s": ("wick.expectation_of_product", "self_s"),
    "wick.expectation_of_product_calls": ("wick.expectation_of_product", "calls"),
    "wick.cumulant_s": ("wick.cumulant", "self_s"),
    "wick.poly_mul_s": ("wick.poly_mul", "total_s"),
    "wick.gaussian_moment_s": ("wick.gaussian_moment", "total_s"),
    "algebra.real_roots_s": ("algebra.real_roots", "total_s"),
    "algebra.real_roots_calls": ("algebra.real_roots", "calls"),
    "algebra.param_eval_s": ("algebra.param_eval", "total_s"),
    "algebra.param_eval_calls": ("algebra.param_eval", "calls"),
    "counterexamples.h1h3_s": ("counterexamples.counterexample_h1h3", "total_s"),
    "counterexamples.positivity_s": ("counterexamples.positivity", "total_s"),
    "cli.run_s": ("cli.run", "total_s"),
    "cli.self_s": ("cli.run", "self_s"),
}
LAYER_COUNTS = {
    "montecarlo.quantile_values": "montecarlo.normal_quantile",
    "chaos.compile_terms": "chaos.compile",
    "wick.poly_mul_terms": "wick.poly_mul",
    "algebra.mul_calls": "algebra.mul_calls",
    "algebra.add_calls": "algebra.add_calls",
}
ESTIMATORS = (
    "montecarlo.wasserstein1_to_gaussian",
    "montecarlo.ks_to_gaussian",
    "montecarlo.empirical_kappa4",
)


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    import spans

    table = tracer.table()

    def field_of(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    out = {}
    for metric, (name, key) in LAYER_SPANS.items():
        out[metric] = (field_of(name, key), "count" if key == "calls" else "s")
    out["montecarlo.estimators_s"] = (
        sum(field_of(name, "total_s") for name in ESTIMATORS),
        "s",
    )
    for metric, key in LAYER_COUNTS.items():
        out[metric] = (tracer.counts.get(key, 0), "count")
    out["wick.moment_cache_entries"] = (spans.moment_cache_entries(), "count")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    return dict(sorted(out.items()))


def print_trace_tables(tracer, labels) -> None:
    print("trace: span calls total_s self_s (one traced round)")
    for name, row in sorted(tracer.table().items(), key=lambda kv: -kv[1]["total_s"]):
        print(
            f"span {name:<42} {row['calls']:>9} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f}"
        )
    names = (
        "montecarlo.sample_gaussian_polynomial",
        "montecarlo.normal_quantile",
        "chaos.compile",
    )
    print("trace: per operation seconds: total sampling normal_quantile compile")
    for label, (_, total, parts) in zip(labels, tracer.per_root(names)):
        sampling, quantile, compile_ = (parts[n] for n in names)
        print(
            f"op {label:<44} {total:>9.4f} {sampling:>9.4f} {quantile:>9.4f} "
            f"{compile_:>9.4f}"
        )


def load_golden(workload: str, seed: int, tiny: bool):
    """Recorded digests for this workload, when the run uses the recorded
    seed at full size; None otherwise."""
    import workloads

    if tiny or seed != workloads.RECORDED_SEED:
        return None
    recorded = json.loads((HERE / "golden.json").read_text())
    return recorded["ops"][workload]


def stream_check(ck, m: Measurement) -> None:
    """First v1 chunk of the recorded seed, while GENERATOR_ID is unchanged."""
    import workloads

    recorded = json.loads((HERE / "golden.json").read_text())
    if ck.GENERATOR_ID != recorded["generator_id"]:
        print(f"note: GENERATOR_ID is {ck.GENERATOR_ID}; v1 stream digest not checked")
        return
    m.attempted += 1
    if workloads.first_chunk_digest() != recorded["first_chunk_sha256"]:
        m.failures.append(("first_chunk", "v1 sample stream digest differs"))


def emit(metrics: dict, m: Measurement, extra_lines=()) -> int:
    for label, problem in m.failures[:20]:
        print(f"FAIL {label}: {problem}")
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    failed = len(m.failures)
    result = {
        "correct": failed == 0,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload",
        required=True,
        choices=("mc_clt", "exact_dense", "symbolic_suites"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload; ``tiny`` shrinks every workload for the self-test."""
    args = parse_args(argv)
    threads = pin_threads()
    ck = import_chaoskit()
    import spans
    import workloads

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance(ck, args.seed, threads)))
    if not args.trace:
        probes = 1 if tiny else SETUP_PROBES
        setup_s = setup_seconds(args.workload, args.seed, probes, tiny)

    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH)
    try:
        ops = workloads.build(args.workload, args.seed, scratch, tiny)
        golden = load_golden(args.workload, args.seed, tiny)
        m = Runner(golden).measure(ops, args.seconds)
        if not args.trace:
            if args.workload == "mc_clt":
                stream_check(ck, m)
            extras = workload_extras(args.workload, m)
            return emit(
                end_to_end(m, setup_s),
                m,
                [f"figure {k} {v!r} {u}" for k, (v, u) in extras.items()],
            )
        # The traced round runs after the untraced rounds, which are the
        # baseline for trace.overhead_frac and also warm the caches.
        with spans.Tracer() as tracer:
            traced = Runner(golden, tracer).measure(ops, 0, rounds=1, traced=True)
        m.attempted += traced.attempted
        m.failures += traced.failures
        metrics = per_layer(tracer, traced.round_s[0], statistics.median(m.round_s))
        print_trace_tables(tracer, [op.label for op in ops])
        return emit(metrics, m)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
