"""Command-line behavior: configs, serialization, determinism, exit codes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chaoskit import cli

from chaoskit.cli import (
    CSV_COLUMNS,
    EXIT_OK,
    EXIT_SUITE_FAILURE,
    RunConfig,
    Row,
    _decimal_str,
    _emit,
    main,
    run,
)
from chaoskit.montecarlo import ExperimentReport

# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(106), "106"),
        (Fraction(3, 2), "1.5"),
        (Fraction(3, 32), "0.09375"),
        (Fraction(-7, 4), "-1.75"),
        (Fraction(1, 10**6), "0.000001"),
        (Fraction(0), "0"),
    ],
)
def test_decimal_str_terminating(value, text):
    assert _decimal_str(value) == text


def test_decimal_str_non_terminating_falls_back_to_float():
    assert _decimal_str(Fraction(1, 3)) == repr(1 / 3)
    assert _decimal_str(Fraction(-2, 7)) == repr(-2 / 7)


# ---------------------------------------------------------------------------
# suites through run()
# ---------------------------------------------------------------------------


def test_counterexample_json_report(tmp_path):
    out = tmp_path / "ce.json"
    code = run(RunConfig(command="counterexample", format="json", output_path=str(out)))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["name"] == "counterexample"
    assert payload["exact_values"]["e2"] == {"decimal": "106", "num": 106, "den": 1}
    assert payload["exact_values"]["gaussian_sixth"]["num"] == 17865240
    assert payload["exact_values"]["three_e2_squared"]["num"] == 33708
    assert all(payload["verdicts"].values())
    # every verdict has a named tolerance in parameters
    for name in payload["verdicts"]:
        assert f"tolerance.{name}" in payload["parameters"] or name in (
            "root_agreement",
            "kappa4_zero_at_root",
        )


def test_counterexample_csv_columns(tmp_path):
    out = tmp_path / "ce.csv"
    code = run(RunConfig(command="counterexample", format="csv", output_path=str(out)))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    e2_line = next(line for line in lines if line.startswith("counterexample,e2,"))
    assert ",106," in e2_line
    assert e2_line.endswith("true")


def test_lemma_suite_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(RunConfig(command="lemma-suite", seed=42, output_path=str(a))) == EXIT_OK
    assert run(RunConfig(command="lemma-suite", seed=42, output_path=str(b))) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run(RunConfig(command="lemma-suite", seed=43, output_path=str(c))) == EXIT_OK
    assert a.read_bytes() != c.read_bytes()


def test_lemma_suite_json_round(tmp_path):
    out = tmp_path / "lemma.json"
    code = run(
        RunConfig(command="lemma-suite", seed=9, pairs=12, format="json", output_path=str(out))
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["verdicts"]["decomposition_identity"]
    assert payload["verdicts"]["kappa4_monotone"]
    assert payload["verdicts"]["kappa4_positive"]
    assert payload["parameters"]["pairs"] == 12


def test_bounds_suite(tmp_path):
    out = tmp_path / "bounds.json"
    code = run(RunConfig(command="bounds-suite", seed=7, format="json", output_path=str(out)))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["verdicts"]["gamma_mean_is_variance"]
    assert payload["verdicts"]["equality_witness"]
    assert payload["verdicts"]["mixed_term_bound"]
    assert payload["exact_values"]["witness_lhs"]["num"] == 1


def test_positivity_suite(tmp_path):
    out = tmp_path / "pos.json"
    code = run(RunConfig(command="positivity", format="json", output_path=str(out)))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["verdicts"]["certificate"]
    assert payload["verdicts"]["discriminant_nonpositive"]
    assert payload["verdicts"]["grid_min_positive"]
    assert payload["exact_values"]["radicand_poly"] == "-5700*a^2"


def test_positivity_csv_writes_computed_kappa4_at_a0(tmp_path, monkeypatch):
    real = cli.h1h5_positivity_certificate

    def shifted(grid_points):
        cert = real(grid_points)
        return dataclasses.replace(cert, kappa4_poly=cert.kappa4_poly + 1)

    monkeypatch.setattr(cli, "h1h5_positivity_certificate", shifted)
    out = tmp_path / "pos.csv"
    code = run_main(["positivity", "--grid-points", "11", "--output", str(out)])
    assert code == EXIT_SUITE_FAILURE
    row = next(
        line for line in out.read_text().splitlines() if ",kappa4_at_a0," in line
    )
    assert row == "positivity,kappa4_at_a0,,66960001,,,,false"


def test_clt_exact_kappa4_column(tmp_path):
    out = tmp_path / "clt.csv"
    config = RunConfig(
        command="clt",
        family="dyadic_p2",
        n_grid=[4, 16, 64],
        samples=2000,
        seed=42,
        output_path=str(out),
    )
    assert run(config) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    kappa4_rows = [r for r in rows if r[1] == "kappa4"]
    assert [(r[2], r[3]) for r in kappa4_rows] == [
        ("4", "1.5"),
        ("16", "0.375"),
        ("64", "0.09375"),
    ]


def test_clt_json_structure(tmp_path):
    out = tmp_path / "clt.json"
    config = RunConfig(
        command="clt",
        family="independent_blocks_M3",
        n_grid=[2, 8],
        samples=1000,
        seed=5,
        format="json",
        output_path=str(out),
    )
    run(config)
    payload = json.loads(out.read_text())
    assert payload["name"] == "clt:independent_blocks_M3"
    assert payload["parameters"]["seed"] == 5
    assert "w1[n=2]" in payload["estimates"]
    point = payload["estimates"]["w1[n=2]"]
    assert set(point) == {"point", "std_error"}


# SHA-256 of the report bytes at seed 42; clt runs its default family and
# grid at 2000 samples.
REPORT_SHA256 = {
    ("counterexample", "csv"): "98ccfdd6917b524af4535f5612cedb8756749644bf8f5d67596d58b0b9d790b9",
    ("counterexample", "json"): "5336eeae8fa8052b5c94e49a156b4814d4abb7fdbb21d9eaa4f1b5101a9393fe",
    ("lemma-suite", "csv"): "4b099da95ba0113ec78e6ccc49c47bd481c7f3b51f541d391f6d18024e17aa3c",
    ("lemma-suite", "json"): "4c7e6763b334be69e8239f64a92552e65ef78a59a977f5980fbbc0c54c997684",
    ("bounds-suite", "csv"): "8127a57dc00008e2683f1f6f079e1c8ba7c81725f1f01ef1d4c2f8aab48aaacd",
    ("bounds-suite", "json"): "fdc483194b6ec171b47bee178f189b37b4d3a1808a371f094b272e29ddd01bfc",
    ("clt", "csv"): "30a104223bd87491c689c0d9872aef87a4caae7871d9803ab5b32d289f0898a0",
    ("clt", "json"): "647dfce9e5ffa04fcc76eb50d6b1ed982bb13a4a7e154ad537d43792d1f70ca1",
    ("positivity", "csv"): "d428720777e880333ae92c770be1e527bf6678f7b1d7fa343ec93cbe8f612880",
    ("positivity", "json"): "c865d9dab293b3066e38e2d5a0e7151f8eaac684537ecd212742f643879e5942",
}


@pytest.mark.parametrize("command,fmt", list(REPORT_SHA256))
def test_report_bytes_golden(tmp_path, command, fmt):
    out = tmp_path / f"report.{fmt}"
    config = RunConfig(command=command, seed=42, format=fmt, output_path=str(out))
    if command == "clt":
        config.samples = 2000
    assert run(config) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[(command, fmt)]


def test_unknown_command_rejected():
    with pytest.raises(ValueError):
        run(RunConfig(command="mystery"))


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"seed": -1}, "seed must fit in 64 unsigned bits"),
        ({"seed": 2**64}, "seed must fit in 64 unsigned bits"),
        ({"format": "xml"}, "unknown format"),
        ({"family": "nope"}, "unknown family"),
        ({"pairs": 0}, "pairs must be positive"),
        ({"grid_points": 1}, "grid-points must be at least 2"),
        ({"command": "clt", "n_grid": []}, "n-grid must be strictly increasing"),
        ({"command": "clt", "n_grid": [4, 4]}, "n-grid must be strictly increasing"),
        ({"command": "clt", "n_grid": [0, 4]}, "n-grid entries must be positive"),
        ({"command": "clt", "samples": 50}, "samples must be at least 100"),
    ],
)
def test_run_rejects_bad_config_and_writes_nothing(tmp_path, changes, message):
    out = tmp_path / "report.out"
    config = dataclasses.replace(
        RunConfig("lemma-suite", pairs=2, output_path=str(out)), **changes
    )
    with pytest.raises(ValueError, match=message):
        run(config)
    assert not out.exists()


@pytest.mark.parametrize(
    "changes",
    [{"seed": 1.5}, {"pairs": 2.5}, {"n_grid": [4.0]}, {"output_path": 5}],
)
def test_run_rejects_mistyped_config_and_writes_nothing(tmp_path, monkeypatch, changes):
    monkeypatch.chdir(tmp_path)
    config = dataclasses.replace(
        RunConfig("lemma-suite", pairs=2, output_path="report.out"), **changes
    )
    with pytest.raises(TypeError, match="must be"):
        run(config)
    assert list(tmp_path.iterdir()) == []


def test_emit_failure_exit_code(tmp_path, capsys):
    report = ExperimentReport(name="synthetic")
    report.parameters["tolerance.broken"] = "exact"
    report.verdicts["broken"] = False
    rows = [Row("synthetic", "broken", verdict=False)]
    config = RunConfig(command="counterexample", output_path=str(tmp_path / "x.csv"))
    assert _emit(report, rows, config) == EXIT_SUITE_FAILURE
    printed = capsys.readouterr().out
    assert "0/1 passed" in printed
    assert "FAIL" in printed


# ---------------------------------------------------------------------------
# argument parsing via main()
# ---------------------------------------------------------------------------


def run_main(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


def test_main_happy_path(tmp_path):
    out = tmp_path / "r.json"
    code = run_main(
        ["counterexample", "--format", "json", "--output", str(out), "--seed", "1"]
    )
    assert code == EXIT_OK
    assert out.exists()


def test_main_rejects_bad_grid(tmp_path):
    code = run_main(
        ["clt", "--n-grid", "16,4", "--samples", "1000", "--output", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_main_rejects_nonpositive_grid(tmp_path, capsys):
    code = run_main(["clt", "--n-grid", "0", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n-grid entries must be positive" in capsys.readouterr().err


def test_main_rejects_small_samples(tmp_path):
    code = run_main(
        ["clt", "--samples", "50", "--output", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_main_rejects_unknown_family():
    assert run_main(["clt", "--family", "nonesuch"]) == 2


def test_main_rejects_bad_seed(tmp_path):
    code = run_main(
        ["lemma-suite", "--seed", "-3", "--output", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_non_integer_env_seed_and_grid_exit_2(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "x.csv")
    monkeypatch.setenv("CHAOSKIT_SEED", "4.5")
    assert run_main(["lemma-suite", "--output", out]) == 2
    assert "CHAOSKIT_SEED must be an integer" in capsys.readouterr().err
    monkeypatch.delenv("CHAOSKIT_SEED")
    assert run_main(["clt", "--n-grid", "4,x", "--output", out]) == 2
    assert "bad n-grid" in capsys.readouterr().err


def test_env_seed_override(tmp_path, monkeypatch):
    env_file = tmp_path / "env.csv"
    flag_file = tmp_path / "flag.csv"
    monkeypatch.setenv("CHAOSKIT_SEED", "99")
    assert run_main(["lemma-suite", "--pairs", "5", "--output", str(env_file)]) == EXIT_OK
    monkeypatch.delenv("CHAOSKIT_SEED")
    assert (
        run_main(["lemma-suite", "--pairs", "5", "--seed", "99", "--output", str(flag_file)])
        == EXIT_OK
    )
    assert env_file.read_bytes() == flag_file.read_bytes()


def test_flag_beats_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAOSKIT_SEED", "99")
    flagged = tmp_path / "flagged.csv"
    assert (
        run_main(["lemma-suite", "--pairs", "5", "--seed", "1", "--output", str(flagged)])
        == EXIT_OK
    )
    plain = tmp_path / "plain.csv"
    monkeypatch.delenv("CHAOSKIT_SEED")
    assert run_main(["lemma-suite", "--pairs", "5", "--seed", "1", "--output", str(plain)]) == EXIT_OK
    assert flagged.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_no_flags_parse_to_run_config_defaults(command, monkeypatch):
    monkeypatch.delenv("CHAOSKIT_SEED", raising=False)
    parser = cli._build_parser()
    assert cli._build_config(parser.parse_args([command]), parser) == RunConfig(command)


def test_package_surface_is_the_module_surfaces():
    import chaoskit
    from chaoskit import algebra, chaos, counterexamples, montecarlo, wick

    modules = (algebra, wick, chaos, counterexamples, montecarlo, cli)
    assert chaoskit.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(chaoskit.__all__)) == len(chaoskit.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(chaoskit, name) is getattr(m, name)


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "conf.json"
    config_path.write_text(
        json.dumps({"seed": 4, "pairs": 6, "format": "json", "output_path": str(tmp_path / "from_file.json")})
    )
    assert run_main(["lemma-suite", "--config", str(config_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "from_file.json").read_text())
    assert payload["parameters"]["seed"] == 4
    assert payload["parameters"]["pairs"] == 6
    # flag wins over the file
    out2 = tmp_path / "override.json"
    assert (
        run_main(
            ["lemma-suite", "--config", str(config_path), "--seed", "8", "--output", str(out2)]
        )
        == EXIT_OK
    )
    assert json.loads(out2.read_text())["parameters"]["seed"] == 8


def test_config_file_must_be_object(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run_main(["lemma-suite", "--config", str(bad)]) == 2
    assert run_main(["lemma-suite", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "values,message",
    [
        ({"samples": "abc"}, "samples must be an integer"),
        ({"n_grid": "4,16"}, "n_grid must be a list of integers"),
        ({"n_grid": [4, "x"]}, "n_grid must be a list of integers"),
        ({"seed": None}, "seed must be an integer"),
        ({"output_path": 5}, "output_path must be a string"),
        ({"n_grid": [0, 4]}, "n-grid entries must be positive"),
        ({"pairs": 2.9}, "pairs must be an integer"),
        ({"seed": 7.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"samples": 1000.0}, "samples must be an integer"),
        ({"grid_points": False}, "grid_points must be an integer"),
        ({"n_grid": [4, 16.0]}, "n_grid must be a list of integers"),
        ({"n_grid": [True, 4]}, "n_grid must be a list of integers"),
        ({"pairs": 0}, "pairs must be positive"),
        ({"grid_points": 1}, "grid-points must be at least 2"),
        ({"format": "xml"}, "unknown format"),
        ({"family": "nope"}, "unknown family"),
    ],
)
def test_config_file_bad_values_exit_2(tmp_path, capsys, values, message):
    config_path = tmp_path / "conf.json"
    config_path.write_text(json.dumps(values))
    assert run_main(["clt", "--config", str(config_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "values,keys",
    [
        ({"pair": 3}, "pair"),
        ({"command": "clt", "pairs": 3}, "command"),
        ({"seeds": 1, "output": "x.csv"}, "output, seeds"),
    ],
)
def test_config_file_unknown_keys_exit_2(tmp_path, monkeypatch, capsys, values, keys):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "conf.json"
    config_path.write_text(json.dumps(values))
    assert run_main(["lemma-suite", "--pairs", "2", "--config", str(config_path)]) == 2
    assert f"unknown config keys: {keys}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config_path]


@pytest.mark.parametrize("where", ["missing_dir/r.csv", "."])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    target = tmp_path / where
    assert run_main(["positivity", "--grid-points", "3", "--output", str(target)]) == 2
    assert "cannot write report" in capsys.readouterr().err


def test_default_output_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_main(["positivity"]) == EXIT_OK
    assert (tmp_path / "chaoskit_positivity.csv").exists()


def _fresh_process(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_exact_commands_start_without_numpy(tmp_path):
    code = f"""
import sys
import chaoskit
from chaoskit import algebra, chaos, counterexamples, wick
from chaoskit.cli import main
for argv in (
    ["counterexample", "--output", {str(tmp_path / "c.csv")!r}],
    ["positivity", "--grid-points", "11", "--output", {str(tmp_path / "p.csv")!r}],
):
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
print(sorted({{"numpy", "scipy"}} & set(sys.modules)))
"""
    proc = _fresh_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "c.csv").exists() and (tmp_path / "p.csv").exists()


def test_montecarlo_import_leaves_scipy_special_unloaded():
    proc = _fresh_process(
        "-c", "import sys, chaoskit.montecarlo; print('scipy.special' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chaoskit.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("counterexample", "lemma-suite", "bounds-suite", "clt", "positivity"):
        assert name in proc.stdout


def test_python_dash_m_runs_without_warnings(tmp_path):
    out = tmp_path / "c.csv"
    proc = _fresh_process(
        "-W", "error", "-m", "chaoskit", "counterexample", "--output", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.exists()
