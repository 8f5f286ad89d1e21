"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and asserts that every
metric BENCHMARK.json declares is printed by name with its unit, in the
result object and on a ``metric`` line, along with the workload's printed
figures.  Then corrupts one expected value and asserts that the run counts
the failure in ``failed`` and ``fail_frac`` and exits nonzero.
"""

import contextlib
import io
import json
import sys

import run

FIGURES = {
    "mc_clt": ("samples_per_s",),
    "exact_dense": ("kappa4_s", "gamma_var_s", "contract_s"),
    "symbolic_suites": ("op_p90_s",),
}
COMMON_FIGURES = ("op_p50_s", "ops_timed", "cold_round_s", "fail_frac")


def run_tiny(workload: str, trace: int):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.5"]
    argv += ["--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny=True)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics(workload, trace, declared, lines, result) -> None:
    where = f"{workload} --trace {trace}"
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{where}: result keys {sorted(result)}",
    )
    expect(set(result["metrics"]) == set(declared), f"{where}: metric names differ")
    for name, unit in declared.items():
        got = result["metrics"][name]
        expect(got["unit"] == unit, f"{where}: {name} has unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)), f"{where}: {name} not a number")
        printed = [line for line in lines if line.startswith(f"metric {name} ")]
        expect(
            len(printed) == 1 and printed[0].endswith(f" {unit}"),
            f"{where}: no metric line for {name}",
        )


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            code, lines, result = run_tiny(workload, trace)
            expect(code == 0 and result["correct"], f"{workload}: checks failed")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            check_metrics(workload, trace, declared, lines, result)
            if trace == 0:
                for name in COMMON_FIGURES + FIGURES[workload]:
                    expect(
                        any(line.startswith(f"figure {name} ") for line in lines),
                        f"{workload}: no figure line for {name}",
                    )
        print(f"ok {workload}: every metric printed with its unit")

    import workloads

    saved = workloads.H1H5_KAPPA4
    workloads.H1H5_KAPPA4 = saved[:2] + (saved[2] + 1,)
    try:
        code, lines, result = run_tiny("symbolic_suites", 0)
    finally:
        workloads.H1H5_KAPPA4 = saved
    fail_frac = next(
        float(line.split()[2]) for line in lines if line.startswith("figure fail_frac ")
    )
    expect(code != 0, "a corrupted expected value must make the run exit nonzero")
    expect(not result["correct"] and result["failed"] >= 1, "corruption not counted")
    expect(fail_frac == result["failed"] / result["attempted"] > 0, "bad fail_frac")
    print(f"ok corrupted value: failed={result['failed']}, fail_frac={fail_frac}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
