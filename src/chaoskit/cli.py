"""Command-line front end: named verification suites with file reports.

Five commands: ``counterexample``, ``lemma-suite``, ``bounds-suite``, ``clt``
and ``positivity``.  Each runs one suite, writes exactly one CSV or JSON
report, prints a human-readable summary table, and exits 0 when every verdict
in the report is true.  Exit codes: 0 all verdicts pass, 2 invalid usage or
configuration, 3 at least one verdict failed.

Reports are deterministic: given the same seed the emitted file is
byte-identical across runs.  The default seed can be overridden with the
``CHAOSKIT_SEED`` environment variable; explicit ``--seed`` wins over both.
CSV columns are fixed: suite, quantity, n, exact_value, estimate, std_error,
bound, verdict.  Exact rationals are written as decimal strings when the
denominator divides a power of ten (full precision), otherwise the decimal
field degrades to the closest double and the exact value rides along as
num/den.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .algebra import ParamPoly, _as_index, param_eval
from .chaos import (
    ChaosElement,
    SymTensor,
    gamma,
    kappa4_decomposition,
    mixed_term_bound_check,
    stein_bound,
)
from .counterexamples import (
    KAPPA4_AT_ROOT_TOL,
    ROOT_AGREEMENT_TOL,
    counterexample_h1h3,
    h1h5_positivity_certificate,
    h1h5_second_moment,
)
from .montecarlo import FAMILY_NAMES, GENERATOR_ID, ExperimentReport, clt_experiment
from .wick import expectation

__all__ = ["RunConfig", "run", "main", "SEED_ENV_VAR"]

SEED_ENV_VAR = "CHAOSKIT_SEED"
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SUITE_FAILURE = 3

COMMANDS = ("counterexample", "lemma-suite", "bounds-suite", "clt", "positivity")


@dataclass
class RunConfig:
    command: str
    seed: int = DEFAULT_SEED
    n_grid: list[int] = field(default_factory=lambda: [4, 16, 64])
    samples: int = 100_000
    output_path: str | None = None
    format: str = "csv"
    family: str = "dyadic_p2"
    pairs: int = 50
    grid_points: int = 201


@dataclass
class Row:
    suite: str
    quantity: str
    n: int | str | None = None
    exact_value: object = None
    estimate: float | None = None
    std_error: float | None = None
    bound: float | None = None
    verdict: bool | None = None


CSV_COLUMNS = tuple(f.name for f in fields(Row))


# ---------------------------------------------------------------------------
# Serialization helpers.
# ---------------------------------------------------------------------------


def _decimal_str(value: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a * 5^b, else the
    closest double (the num/den pair preserves exactness in that case)."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return repr(float(value))
    shift = max(twos, fives)
    scaled = abs(value.numerator) * 10**shift // value.denominator
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if value < 0 else ""
    if shift == 0:
        return sign + digits
    whole, frac = digits[:-shift], digits[-shift:]
    frac = frac.rstrip("0")
    return sign + whole + ("." + frac if frac else "")


def _exact_to_json(value):
    if isinstance(value, Fraction):
        return {
            "decimal": _decimal_str(value),
            "num": value.numerator,
            "den": value.denominator,
        }
    if isinstance(value, ParamPoly):
        return str(value)
    return value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return _decimal_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Reference polynomials used by suite verdicts.
# ---------------------------------------------------------------------------


def _poly_in_rho(*coeffs: int) -> ParamPoly:
    """Polynomial sum(coeffs[k] * rho^k) ordered by ascending power."""
    return ParamPoly(("rho",), {(k,): c for k, c in enumerate(coeffs)})


_E4_REFERENCE = _poly_in_rho(36948, 12960, 21600, 24000)
_KAPPA4_REFERENCE = _poly_in_rho(3240, 12960, 21600, 24000)
_E6_REFERENCE = _poly_in_rho(34330920, 62596800, 104328000, 102960000, 32400000)
_RHO_STAR_PRINTED = -0.39665
_RHO_STAR_PRINTED_TOL = 1e-4
# Lower bound on E[X^6] - 15 E[X^2]^3 at rho*, recorded as written.
_SIXTH_MOMENT_GAP_MIN = "2.4e6"


# ---------------------------------------------------------------------------
# Random inputs for the seeded suites.
# ---------------------------------------------------------------------------


def _random_sym_tensor(rng: random.Random, d: int, order: int) -> SymTensor:
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.randrange(d) for _ in range(order)))
            coeffs[idx] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        tensor = SymTensor(d, order, coeffs)
        if not tensor.is_zero:
            return tensor


def _random_mixed_parity_pair(rng: random.Random) -> tuple[SymTensor, SymTensor]:
    d = rng.randint(2, 4)
    p = rng.randint(1, 4)
    q = rng.choice([o for o in (1, 2, 3, 4) if (o - p) % 2 == 1])
    return _random_sym_tensor(rng, d, p), _random_sym_tensor(rng, d, q)


def _random_chaos_element(rng: random.Random) -> ChaosElement:
    d = rng.randint(2, 3)
    orders = rng.sample((1, 2, 3), k=rng.randint(1, 2))
    return ChaosElement(d, {p: _random_sym_tensor(rng, d, p) for p in orders})


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


# (quantity, verdict name) per row: the value is report.exact_values[quantity]
# (a float goes to the estimate column) and the verdict report.verdicts[name].
_COUNTEREXAMPLE_ROWS = (
    ("e2", "e2_value"),
    ("three_e2_squared", None),
    ("e4_poly", "e4_poly"),
    ("kappa4_poly", "kappa4_poly"),
    ("e6_poly", "e6_poly"),
    ("rho_star_numeric", "rho_star_printed"),
    ("rho_star_closed_form", "root_agreement"),
    ("kappa4_at_rho_star", "kappa4_zero_at_root"),
    ("gaussian_sixth", None),
    ("e6_at_rho_star", "sixth_moment_gap"),
    ("sixth_moment_gap", None),
)
_POSITIVITY_ROWS = (
    ("kappa4_poly", None),
    ("second_moment_poly", "second_moment"),
    ("discriminant_poly", "discriminant_nonpositive"),
    ("radicand_poly", None),
    ("kappa4_at_a0", "kappa4_at_a0"),
    ("grid_min", "grid_min_positive"),
    ("certificate", "certificate"),
)


def _rows_from_report(report: ExperimentReport, table) -> list[Row]:
    rows = []
    for quantity, verdict in table:
        value = report.exact_values.get(quantity)
        column = "estimate" if isinstance(value, float) else "exact_value"
        verdict = None if verdict is None else report.verdicts[verdict]
        rows.append(Row(report.name, quantity, verdict=verdict, **{column: value}))
    return rows


def _suite_counterexample(config: RunConfig) -> tuple[ExperimentReport, list[Row]]:
    rep = counterexample_h1h3()
    report = ExperimentReport(name="counterexample")
    report.parameters.update(
        {
            "seed": config.seed,
            "tolerance.e2_value": "exact",
            "tolerance.e4_poly": "exact",
            "tolerance.kappa4_poly": "exact",
            "tolerance.e6_poly": "exact",
            "tolerance.rho_star_printed": _RHO_STAR_PRINTED_TOL,
            "tolerance.root_agreement": ROOT_AGREEMENT_TOL,
            "tolerance.kappa4_zero_at_root": KAPPA4_AT_ROOT_TOL,
            "tolerance.sixth_moment_gap": f"> {_SIXTH_MOMENT_GAP_MIN}",
        }
    )
    three_e2_sq = 3 * rep.e2**2
    kappa4_at_root = param_eval(rep.kappa4_poly, {"rho": rep.rho_star_numeric})
    report.exact_values.update(
        {
            "e2": rep.e2,
            "three_e2_squared": three_e2_sq,
            "e4_poly": rep.e4_poly,
            "kappa4_poly": rep.kappa4_poly,
            "e6_poly": rep.e6_poly,
            "gaussian_sixth": rep.gaussian_sixth,
            "rho_star_closed_form": rep.rho_star_closed_form,
            "rho_star_numeric": rep.rho_star_numeric,
            "e6_at_rho_star": rep.e6_at_rho_star,
            "kappa4_at_rho_star": kappa4_at_root,
            "sixth_moment_gap": rep.sixth_moment_gap,
        }
    )
    report.verdicts.update(
        {
            "e2_value": rep.e2 == 106,
            "e4_poly": rep.e4_poly == _E4_REFERENCE,
            "kappa4_poly": rep.kappa4_poly == _KAPPA4_REFERENCE,
            "e6_poly": rep.e6_poly == _E6_REFERENCE,
            "rho_star_printed": abs(rep.rho_star_numeric - _RHO_STAR_PRINTED)
            <= _RHO_STAR_PRINTED_TOL,
            "root_agreement": abs(rep.rho_star_numeric - rep.rho_star_closed_form)
            <= ROOT_AGREEMENT_TOL,
            "kappa4_zero_at_root": abs(kappa4_at_root) <= KAPPA4_AT_ROOT_TOL,
            "sixth_moment_gap": rep.sixth_moment_gap > float(_SIXTH_MOMENT_GAP_MIN),
        }
    )
    return report, _rows_from_report(report, _COUNTEREXAMPLE_ROWS)


def _suite_positivity(config: RunConfig) -> tuple[ExperimentReport, list[Row]]:
    cert = h1h5_positivity_certificate(config.grid_points)
    report = ExperimentReport(name="positivity")
    report.parameters.update(
        {
            "seed": config.seed,
            "grid_points": config.grid_points,
            "tolerance.second_moment": "exact",
            "tolerance.kappa4_at_a0": "exact",
            "tolerance.discriminant_nonpositive": "exact symbolic",
            "tolerance.grid_min_positive": "> 0",
            "tolerance.certificate": "all of the above",
        }
    )
    second = h1h5_second_moment()
    a = ParamPoly.variable("a")
    second_ok = second == a * a + 120
    at_a0 = cert.kappa4_poly.substitute("a", 0)
    at_a0_value = at_a0.constant_value() if at_a0.is_constant else at_a0
    at_a0_ok = at_a0_value == 66960000
    report.exact_values.update(
        {
            "kappa4_poly": cert.kappa4_poly,
            "second_moment_poly": second,
            "discriminant_poly": cert.discriminant_poly,
            "radicand_poly": cert.radicand_poly,
            "kappa4_at_a0": at_a0_value,
            "grid_min": cert.grid_min,
        }
    )
    report.verdicts.update(
        {
            "second_moment": second_ok,
            "kappa4_at_a0": at_a0_ok,
            "discriminant_nonpositive": cert.symbolic_nonpositive,
            "grid_min_positive": cert.grid_min > 0,
            "certificate": cert.holds,
        }
    )
    return report, _rows_from_report(report, _POSITIVITY_ROWS)


def _suite_lemma(config: RunConfig) -> tuple[ExperimentReport, list[Row]]:
    rng = random.Random(config.seed)
    report = ExperimentReport(name="lemma-suite")
    report.parameters.update(
        {
            "seed": config.seed,
            "pairs": config.pairs,
            "tolerance.decomposition_identity": "exact",
            "tolerance.kappa4_monotone": "exact",
            "tolerance.kappa4_positive": "exact, strict",
        }
    )
    rows: list[Row] = []
    identity_ok = monotone_ok = positive_ok = True
    for k in range(config.pairs):
        y, z = _random_mixed_parity_pair(rng)
        try:
            dec = kappa4_decomposition(y, z)
        except RuntimeError:
            identity_ok = False
            rows.append(Row("lemma", "kappa4_x", n=k, verdict=False))
            continue
        monotone = dec.k4x >= dec.k4y and dec.k4x >= dec.k4z
        positive = dec.k4x > 0
        monotone_ok &= monotone
        positive_ok &= positive
        rows.append(
            Row(
                "lemma",
                "kappa4_x",
                n=k,
                exact_value=dec.k4x,
                verdict=monotone and positive,
            )
        )
        report.exact_values[f"kappa4_x[pair={k}]"] = dec.k4x
        report.exact_values[f"cov_sq[pair={k}]"] = dec.cov_sq
    report.verdicts.update(
        {
            "decomposition_identity": identity_ok,
            "kappa4_monotone": monotone_ok,
            "kappa4_positive": positive_ok,
        }
    )
    rows.extend(
        Row("lemma", name, verdict=value) for name, value in report.verdicts.items()
    )
    return report, rows


def _suite_bounds(config: RunConfig) -> tuple[ExperimentReport, list[Row]]:
    rng = random.Random(config.seed)
    report = ExperimentReport(name="bounds-suite")
    mixed_pairs = max(1, config.pairs // 2)
    report.parameters.update(
        {
            "seed": config.seed,
            "gamma_elements": 10,
            "mixed_pairs": mixed_pairs,
            "tolerance.gamma_mean_is_variance": "exact",
            "tolerance.mixed_term_bound": "exact comparison",
            "tolerance.equality_witness": "exact",
            "tolerance.stein_reference": "exact",
        }
    )
    rows: list[Row] = []

    gamma_ok = True
    for k in range(10):
        x = _random_chaos_element(rng)
        mean = expectation(gamma(x)).constant_value()
        ok = mean == x.variance()
        gamma_ok &= ok
        rows.append(Row("bounds", "gamma_mean", n=k, exact_value=mean, verdict=ok))
    report.verdicts["gamma_mean_is_variance"] = gamma_ok

    witness = mixed_term_bound_check(
        SymTensor(1, 1, {(0,): 1}), SymTensor(1, 2, {(0, 0): 1})
    )
    witness_ok = witness.holds and witness.lhs == 1 and witness.rhs == 1.0
    report.verdicts["equality_witness"] = witness_ok
    report.exact_values["witness_lhs"] = witness.lhs
    report.exact_values["witness_rhs"] = witness.rhs
    rows.append(
        Row(
            "bounds",
            "mixed_term_witness",
            exact_value=witness.lhs,
            bound=witness.rhs,
            verdict=witness_ok,
        )
    )

    mixed_ok = True
    for k in range(mixed_pairs):
        d = rng.randint(2, 4)
        p = rng.randint(1, 3)
        q = rng.randint(p + 1, 4)
        u = _random_sym_tensor(rng, d, p)
        v = _random_sym_tensor(rng, d, q)
        result = mixed_term_bound_check(u, v)
        mixed_ok &= result.holds
        rows.append(
            Row(
                "bounds",
                f"mixed_term[p={p},q={q}]",
                n=k,
                exact_value=result.lhs,
                bound=result.rhs,
                verdict=result.holds,
            )
        )
        report.exact_values[f"mixed_lhs[pair={k}]"] = result.lhs
    report.verdicts["mixed_term_bound"] = mixed_ok

    h2 = ChaosElement(1, {2: SymTensor(1, 2, {(0, 0): 1})})
    combined = stein_bound(h2, "combined")
    stein_ok = combined == 4.0
    report.exact_values["stein_combined_h2"] = combined
    report.verdicts["stein_reference"] = stein_ok
    rows.append(
        Row("bounds", "stein_combined_h2", bound=combined, verdict=stein_ok)
    )

    rows.extend(
        Row("bounds", name, verdict=value)
        for name, value in report.verdicts.items()
        if name not in ("equality_witness",)
    )
    return report, rows


def _suite_clt(config: RunConfig) -> tuple[ExperimentReport, list[Row]]:
    report = clt_experiment(
        config.family, config.n_grid, config.samples, config.seed
    )
    slack = report.parameters["band_multiplier"] * report.parameters["error_band"]
    rows: list[Row] = []
    for n in config.n_grid:
        stein = report.exact_values[f"stein_w[n={n}]"]
        w1, w1_band = report.estimates[f"w1[n={n}]"]
        ks, ks_band = report.estimates[f"ks[n={n}]"]
        k4_hat, k4_se = report.estimates[f"kappa4_hat[n={n}]"]
        rows.append(
            Row(
                "clt",
                "kappa4",
                n=n,
                exact_value=report.exact_values[f"kappa4[n={n}]"],
                estimate=k4_hat,
                std_error=k4_se,
            )
        )
        rows.append(
            Row(
                "clt",
                "var_gamma",
                n=n,
                exact_value=report.exact_values[f"var_gamma[n={n}]"],
            )
        )
        rows.append(
            Row(
                "clt",
                "w1",
                n=n,
                estimate=w1,
                std_error=w1_band,
                bound=stein + slack,
                verdict=report.verdicts[f"w1_within_bound[n={n}]"],
            )
        )
        rows.append(Row("clt", "ks", n=n, estimate=ks, std_error=ks_band))
        key = f"max_contraction[n={n}]"
        if key in report.exact_values:
            rows.append(
                Row("clt", "max_contraction", n=n, estimate=report.exact_values[key])
            )
    rows.extend(
        Row("clt", name, verdict=value)
        for name, value in report.verdicts.items()
        if "[n=" not in name
    )
    return report, rows


_SUITES = {
    "counterexample": _suite_counterexample,
    "lemma-suite": _suite_lemma,
    "bounds-suite": _suite_bounds,
    "clt": _suite_clt,
    "positivity": _suite_positivity,
}


# ---------------------------------------------------------------------------
# Report writers and the runner.
# ---------------------------------------------------------------------------


def _report_to_json(report: ExperimentReport) -> str:
    payload = {
        "name": report.name,
        "parameters": {k: _exact_to_json(v) for k, v in report.parameters.items()},
        "exact_values": {
            k: _exact_to_json(v) for k, v in report.exact_values.items()
        },
        "estimates": {
            k: {"point": point, "std_error": se}
            for k, (point, se) in report.estimates.items()
        },
        "verdicts": dict(report.verdicts),
    }
    return json.dumps(payload, indent=2) + "\n"


def _rows_to_csv(rows: list[Row]) -> str:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(getattr(row, name)) for name in CSV_COLUMNS])
    return buffer.getvalue()


def _print_summary(report: ExperimentReport, rows: list[Row], path: str) -> None:
    print(f"suite: {report.name}   (report written to {path})")
    print(f"generator: {report.parameters.get('generator_id', GENERATOR_ID)}")
    header = f"{'quantity':<36} {'n':>6} {'exact':>22} {'estimate':>14} {'bound':>12} verdict"
    print(header)
    print("-" * len(header))
    for row in rows:
        exact = _csv_cell(row.exact_value)
        if len(exact) > 22:
            exact = exact[:19] + "..."
        estimate = "" if row.estimate is None else f"{row.estimate:.6g}"
        if row.std_error is not None:
            estimate += f" ±{row.std_error:.2g}"
        bound = "" if row.bound is None else f"{row.bound:.6g}"
        verdict = "" if row.verdict is None else ("PASS" if row.verdict else "FAIL")
        n = "" if row.n is None else str(row.n)
        print(f"{row.quantity:<36} {n:>6} {exact:>22} {estimate:>14} {bound:>12} {verdict}")
    passed = sum(bool(v) for v in report.verdicts.values())
    total = len(report.verdicts)
    status = "PASS" if report.all_pass else "FAIL"
    print(f"verdicts: {passed}/{total} passed -> {status}")


def _emit(report: ExperimentReport, rows: list[Row], config: RunConfig) -> int:
    if config.format == "json":
        content = _report_to_json(report)
    else:
        content = _rows_to_csv(rows)
    path = config.output_path
    if path is None:
        stem = config.command.replace("-", "_")
        path = f"chaoskit_{stem}.{config.format}"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)
    _print_summary(report, rows, path)
    return EXIT_OK if report.all_pass else EXIT_SUITE_FAILURE


def _is_int(value) -> bool:
    try:
        _as_index(value)
    except TypeError:
        return False
    return True


def _check_config(config: RunConfig) -> None:
    """Raise TypeError when a setting of ``config`` has the wrong type, else
    ValueError when one is out of range."""
    for name in ("seed", "samples", "pairs", "grid_points"):
        value = getattr(config, name)
        if not _is_int(value):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if not isinstance(config.n_grid, list) or not all(map(_is_int, config.n_grid)):
        raise TypeError(f"n_grid must be a list of integers, got {config.n_grid!r}")
    if config.output_path is not None and not isinstance(config.output_path, str):
        raise TypeError(f"output_path must be a string, got {config.output_path!r}")
    if not 0 <= config.seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if config.format not in ("csv", "json"):
        raise ValueError(f"unknown format {config.format!r}")
    if config.family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {config.family!r}")
    if config.pairs < 1:
        raise ValueError("pairs must be positive")
    if config.grid_points < 2:
        raise ValueError("grid-points must be at least 2")
    if config.command == "clt":
        if not config.n_grid or any(
            b <= a for a, b in zip(config.n_grid, config.n_grid[1:])
        ):
            raise ValueError("n-grid must be strictly increasing")
        if any(n < 1 for n in config.n_grid):
            raise ValueError("n-grid entries must be positive")
        if config.samples < 100:
            raise ValueError("samples must be at least 100 for simulation commands")


def run(config: RunConfig) -> int:
    """Execute one suite and write its report; returns the process exit code."""
    if config.command not in _SUITES:
        raise ValueError(f"unknown command {config.command!r}")
    _check_config(config)
    report, rows = _SUITES[config.command](config)
    report.parameters.setdefault("generator_id", GENERATOR_ID)
    return _emit(report, rows, config)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _parse_n_grid(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-grid {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoskit",
        description="Exact and simulated verification suites for Gaussian "
        "polynomial functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--output", dest="output_path", default=None, help="report path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "clt":
            p.add_argument("--family", choices=FAMILY_NAMES, default=None)
            p.add_argument("--n-grid", type=_parse_n_grid, default=None)
            p.add_argument("--samples", type=int, default=None)
        if name in ("lemma-suite", "bounds-suite"):
            p.add_argument("--pairs", type=int, default=None)
        if name == "positivity":
            p.add_argument("--grid-points", type=int, default=None)
    return parser


def _build_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(file_values, dict):
            parser.error("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)} - {"command"}
        unknown = sorted(set(file_values) - known)
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")

    config = RunConfig(args.command)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            value = file_values.get(f.name, getattr(config, f.name))
        setattr(config, f.name, value)
    try:
        _check_config(config)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    return config


def main(argv=None) -> None:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _build_config(args, parser)
    try:
        code = run(config)
    except OSError as exc:
        # the suites compute in memory; the only file they touch is the report
        parser.error(f"cannot write report: {exc}")
    sys.exit(code)


if __name__ == "__main__":
    main()
