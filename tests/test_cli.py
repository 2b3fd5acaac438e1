"""Command line interface: artifacts, exit codes, configuration handling."""

import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sharmonic as sh
from conftest import write_grid_csv
from sharmonic.cli import main


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("sharmonic ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


# ---------------------------------------------------------------------------
# fraclap command


def test_fraclap_block_writes_artifacts(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    rc = main(["fraclap", "--target", "block:t=1", "--s", "0.6", "--grid", "21",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    header, rows = _read_csv(csv_path)
    assert header == ["x", "value", "fraclap_value", "tail_halfwidth"]
    assert len(rows) == 21
    for row in rows:
        assert abs(row[2]) <= 1e-4  # annihilated on (-0.9, 0.9)
        assert row[3] >= 0.0
    payload = json.loads(json_path.read_text())
    assert payload["command"] == "fraclap"
    assert len(payload["rows"]) == 21
    out = capsys.readouterr().out
    assert "fraclap target=block:t=1.0" in out
    assert "max|result|=" in out


def test_fraclap_constant_gives_exact_zero_column(tmp_path):
    csv_path = tmp_path / "c.csv"
    rc = main(["fraclap", "--target", "const:1", "--grid", "7",
               "--out-csv", str(csv_path)])
    assert rc == 0
    _, rows = _read_csv(csv_path)
    assert all(row[2] == 0.0 for row in rows)


def test_fraclap_pv_route(tmp_path):
    csv_path = tmp_path / "pv.csv"
    rc = main(["fraclap", "--target", "sin", "--method", "pv", "--grid", "3",
               "--out-csv", str(csv_path)])
    assert rc == 0
    header, rows = _read_csv(csv_path)
    assert header == ["x", "value", "fraclap_value"]
    assert len(rows) == 3


def test_fraclap_unknown_target_exits_2(capsys):
    rc = main(["fraclap", "--target", "cubic"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_fraclap_missing_csv_exits_2_and_names_path(capsys):
    rc = main(["fraclap", "--target", "csv:no/such/grid.csv"])
    assert rc == 2
    assert "no/such/grid.csv" in capsys.readouterr().err


def test_fraclap_csv_with_inconsistent_deriv1_exits_2(tmp_path, capsys):
    # a CSV operand is read as the same target approximate reads, so a
    # deriv1 column that disagrees with the values is refused here too
    xs = np.linspace(-2.0, 2.0, 401)
    path = tmp_path / "bad.csv"
    write_grid_csv(path, -2.0, 2.0, np.exp(-xs**2), 5.0 * np.cos(xs))
    rc = main(["fraclap", "--target", f"csv:{path}", "--grid", "3"])
    assert rc == 2
    assert "deriv1" in capsys.readouterr().err


def test_approximate_csv_with_inconsistent_deriv2_exits_2(tmp_path, capsys):
    # deriv2 is checked against the divided differences of deriv1, so a
    # column five times too large is refused as input, not left to fail
    # the degree search (exit 4)
    xs = np.linspace(-2.0, 2.0, 401)
    g = np.exp(-xs**2)
    path = tmp_path / "bad2.csv"
    write_grid_csv(path, -2.0, 2.0, g, -2.0 * xs * g, 5.0 * (4.0 * xs**2 - 2.0) * g)
    rc = main(["approximate", "--target", f"csv:{path}", "--epsilon", "1e-2"])
    assert rc == 2
    assert "deriv2" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"x,value\n0,1\n1,2\n", "at least three rows"),
    (b"x,value\n0,1\n0.5,\xff\n1,2\n", "cannot read CSV target")])
def test_unreadable_csv_target_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "grid.csv"
    path.write_bytes(content)
    assert main(["approximate", "--target", f"csv:{path}"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("row", [0, 20, 40])
@pytest.mark.parametrize("argv", [["fraclap", "--grid", "3"],
                                  ["approximate", "--epsilon", "0.1"]])
def test_nan_abscissa_in_csv_target_exits_2(tmp_path, capsys, row, argv):
    # NaN fails every comparison, so a spacing check that only looks for a
    # bad gap would let it through and read the grid as linspace
    xs = np.linspace(-2.0, 2.0, 41)
    lines = ["x,value"] + [f"{float(x)!r},{float(np.exp(-x * x))!r}" for x in xs]
    lines[row + 1] = "nan" + lines[row + 1][lines[row + 1].index(","):]
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert main([argv[0], "--target", f"csv:{path}"] + argv[1:]) == 2
    assert "finite and uniformly increasing" in capsys.readouterr().err


def test_fraclap_rejects_growing_target(capsys):
    rc = main(["fraclap", "--target", "x2", "--grid", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_flag_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as info:
        main(["fraclap", "--target", "sin", "--s", "abc",
              "--out-csv", str(out)])
    assert info.value.code == 2
    assert not out.exists()


def test_out_of_range_order_exits_2(capsys):
    rc = main(["fraclap", "--target", "sin", "--s", "1.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# approximate command


def test_approximate_writes_report_trace_and_readable_combo(tmp_path):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "report.json"
    rc = main(["approximate", "--target", "x2", "--epsilon", "0.0625",
               "--grid", "9", "--out-csv", str(csv_path),
               "--out-json", str(json_path)])
    assert rc == 0
    header, rows = _read_csv(csv_path)
    assert header == ["x", "target", "v_eps", "diff", "residual"]
    for row in rows:
        assert abs(row[3]) <= 0.0625
        assert 0.0 <= row[4] <= 1e-3
    payload = json.loads(json_path.read_text())
    assert payload["report"]["epsilon_total"] <= 0.0625
    assert payload["report"]["n_blocks"] == len(payload["combo"]["blocks"]) > 0

    # the artifact must reproduce the function it describes
    combo = sh.combo_from_json(json_path.read_text())
    xs = np.array([row[0] for row in rows])
    got = sh.combo_eval(combo, xs)
    want = np.array([row[2] for row in rows])
    assert np.max(np.abs(got - want)) <= 1e-9


def test_defect_certificate_over_budget_exits_4(capsys, monkeypatch):
    # the proved block-stage certificate stays far below its budget on every
    # shipped target, so an over-budget value is injected to reach the refusal
    module = importlib.import_module("sharmonic.approximate")
    match = module.match_polynomial
    monkeypatch.setattr(module, "match_polynomial",
                        lambda *args: (match(*args)[0], np.ones(3)))
    rc = main(["approximate", "--target", "sin", "--epsilon", "0.1"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "proved defect certificate 1.000e+00" in err and "budget 5.000e-02" in err
    assert "raise epsilon or lower --degree-cap" in err


def test_approximate_impossible_budget_exits_4_with_diagnostic(tmp_path, capsys):
    json_path = tmp_path / "fail.json"
    rc = main(["approximate", "--target", "exp", "--epsilon", "1e-8",
               "--degree-cap", "5", "--out-json", str(json_path)])
    assert rc == 4
    assert "error:" in capsys.readouterr().err
    payload = json.loads(json_path.read_text())
    assert "error" in payload
    assert payload["target"] == "exp"


@pytest.mark.parametrize("argv, flag", [
    (["approximate", "--target", "x2"], "--out-json"),
    (["fraclap", "--target", "sin", "--grid", "3"], "--out-csv"),
    # the diagnostics of a failed approximation are an artifact too
    (["approximate", "--target", "exp", "--epsilon", "1e-8", "--degree-cap", "5"],
     "--out-json")])
def test_artifact_in_a_missing_directory_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "no_such_dir" / "out"
    assert main(argv + [flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err
    assert "check that its directory exists" in err


def test_approximate_zero_target_emits_empty_block_list(tmp_path):
    json_path = tmp_path / "zero.json"
    rc = main(["approximate", "--target", "const:0", "--grid", "5",
               "--out-json", str(json_path)])
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["combo"]["blocks"] == []
    assert payload["report"]["n_blocks"] == 0


def test_approximate_negative_epsilon_exits_2(capsys):
    rc = main(["approximate", "--target", "sin", "--epsilon", "-0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# demo commands


def test_demo_harnack_artifacts(tmp_path):
    csv_path = tmp_path / "h.csv"
    json_path = tmp_path / "h.json"
    rc = main(["demo", "harnack", "--grid", "101",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    _, rows = _read_csv(csv_path)
    assert all(row[1] >= 0.0 for row in rows)
    payload = json.loads(json_path.read_text())
    report = payload["report"]
    assert report["nonneg_margin"] >= 0.0
    assert report["inf_inner"] <= 1e-10
    assert report["sup_inner"] >= 0.125
    assert report["harnack_ratio"] is None or report["harnack_ratio"] >= 1e10
    assert report["negative_site"] is None or report["negative_site"][1] < 0.0
    assert payload["combo"]["blocks"]


def test_demo_json_report_keys(tmp_path):
    # the reports are built from the witness fields; pin their key sets
    expected = {
        "harnack": {"command", "s", "epsilon", "iota", "argmin", "inf_inner",
                    "sup_inner", "inf_outer", "sup_outer_complement",
                    "nonneg_margin", "value_origin", "boundary_level",
                    "negative_site", "max_residual", "harnack_ratio"},
        "logistic": {"command", "s", "epsilon", "epsilon_inner", "mu_norm",
                     "sigma", "mu", "sigma_error", "feasibility_margin",
                     "residual_equation", "residual_reaction"},
    }
    for which, keys in expected.items():
        json_path = tmp_path / f"{which}.json"
        assert main(["demo", which, "--out-json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"combo", "report"}
        assert set(payload["report"]) == keys
        assert payload["report"]["command"] == f"demo {which}"


def test_demo_logistic_artifacts(tmp_path):
    csv_path = tmp_path / "l.csv"
    json_path = tmp_path / "l.json"
    rc = main(["demo", "logistic", "--grid", "11",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    header, rows = _read_csv(csv_path)
    assert header == ["x", "u", "sigma", "sigma_eps", "residual"]
    assert len(rows) == 11
    payload = json.loads(json_path.read_text())
    report = payload["report"]
    assert report["feasibility_margin"] == 0.0
    assert report["residual_reaction"] == 0.0
    assert report["sigma_error"] <= 0.05


def test_demo_meanvalue_table(tmp_path, capsys):
    csv_path = tmp_path / "mv.csv"
    json_path = tmp_path / "mv.json"
    rc = main(["demo", "meanvalue", "--target", "x2",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho,ball,sphere,ball_error,sphere_error" in out
    assert "observed orders" in out
    assert "exact" in out  # sphere rule is exact on quadratics
    _, rows = _read_csv(csv_path)
    assert len(rows) == 3
    payload = json.loads(json_path.read_text())
    assert payload["orders"]["sphere"] == [None, None]


def test_demo_meanvalue_rejects_bad_radii(capsys):
    assert main(["demo", "meanvalue", "--rhos", "0.1,abc"]) == 2
    assert main(["demo", "meanvalue", "--rhos=-0.1,0.01"]) == 2
    assert "error:" in capsys.readouterr().err
    # a repeated radius gives no order, and one whose square underflows no deficit
    for rhos, radius in [("0.1,0.1", "0.1"), ("1e-200,1e-201", "1e-200")]:
        assert main(["demo", "meanvalue", "--rhos", rhos]) == 2
        assert f"radius {radius} " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration files


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ns = 0.6\ngrid=7\n\n")
    j1 = tmp_path / "a.json"
    rc = main(["fraclap", "--target", "block:t=2", "--config", str(cfg),
               "--out-json", str(j1)])
    assert rc == 0
    payload = json.loads(j1.read_text())
    assert payload["s"] == 0.6
    assert len(payload["rows"]) == 7

    j2 = tmp_path / "b.json"
    rc = main(["fraclap", "--target", "block:t=2", "--config", str(cfg),
               "--s", "0.7", "--out-json", str(j2)])
    assert rc == 0
    assert json.loads(j2.read_text())["s"] == 0.7


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=3\n")
    rc = main(["fraclap", "--target", "sin", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "wibble" in err
    assert ":1:" in err


def test_config_file_malformed_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just nonsense\n")
    rc = main(["fraclap", "--target", "sin", "--config", str(cfg)])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_config_file_missing_exits_2(capsys):
    rc = main(["fraclap", "--target", "sin", "--config", "/no/such.cfg"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# r\u00e9glages\ns=0.5\n".encode("latin-1"))
    rc = main(["approximate", "--target", "x2", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "latin1.cfg" in err


def test_config_file_non_numeric_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("s=half\n")
    rc = main(["fraclap", "--target", "sin", "--config", str(cfg)])
    assert rc == 2
    assert "not a number" in capsys.readouterr().err


def test_config_file_non_integer_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid=1e3\n")
    rc = main(["approximate", "--target", "x2", "--config", str(cfg)])
    assert rc == 2
    assert "option grid='1e3' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["demo", "harnack", "--xmax", "inf", "--grid", "3"], "xmin and xmax must be finite"),
    (["approximate", "--target", "x2", "--xmin=-inf"], "xmin and xmax must be finite"),
    (["fraclap", "--target", "sin", "--xmax", "nan", "--grid", "3"],
     "xmin and xmax must be finite"),
    (["fraclap", "--target", "sin", "--tail-growth", "nan", "--grid", "3"],
     "tail_growth must be finite"),
    # below the degree floor no degree would be tried at all
    (["approximate", "--target", "x2", "--degree-cap", "2"],
     "degree cap 2 lies outside the supported range 3..30"),
    (["demo", "meanvalue", "--x", "nan"], "x must be finite")])
def test_nonfinite_or_out_of_range_option_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out-csv", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# determinism


def test_artifacts_are_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACLAP_SEEDLESS", "20260823")
    pairs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        rc = main(["approximate", "--target", "sin", "--epsilon", "0.1",
                   "--grid", "17", "--out-csv", str(csv_path),
                   "--out-json", str(json_path)])
        assert rc == 0
        pairs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]


@pytest.mark.parametrize("argv", [
    ["approximate", "--target", "sin", "--epsilon", "0.01"],
    ["demo", "logistic", "--sigma", "exp"],
])
def test_json_artifact_does_not_depend_on_csv(tmp_path, argv):
    # the CSV grid is computed only when asked for, and feeds nothing else
    csv_path = tmp_path / "grid.csv"
    blobs = []
    for tag, extra in (("plain", []), ("csv", ["--out-csv", str(csv_path)])):
        json_path = tmp_path / f"{tag}.json"
        assert main(argv + ["--grid", "11", "--out-json", str(json_path)] + extra) == 0
        blobs.append(json_path.read_bytes())
    assert blobs[0] == blobs[1]
    assert len(_read_csv(csv_path)[1]) == 11


def test_fraclap_byte_identical_across_runs(tmp_path):
    blobs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        rc = main(["fraclap", "--target", "block:t=1", "--grid", "9",
                   "--out-csv", str(csv_path)])
        assert rc == 0
        blobs.append(csv_path.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sharmonic", "fraclap", "--target", "const:1",
         "--grid", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "max|result|=0" in proc.stdout
    assert "elapsed:" in proc.stderr


_COMMANDS = [
    ["approximate", "--target", "sin", "--epsilon", "1e-6", "--out-json", "{out}",
     "--out-csv", "{out}.csv"],
    ["demo", "harnack", "--out-json", "{out}"],
    ["demo", "logistic", "--sigma", "sin", "--mu", "exp", "--out-json", "{out}"],
    ["fraclap", "--target", "sin", "--out-json", "{out}"]]


# the modules the guards below watch, and each command's run in a fresh
# interpreter: (exit code, the watched modules it loaded), run once per command
_WATCHED = ("mpmath", "fractions", "decimal", "numpy.polynomial", "numpy.ma")
_RUNS: dict[tuple[str, ...], tuple[str, ...]] = {}


def _exit_code_and_whether_loaded(tmp_path, argv, module) -> list[str]:
    """main(argv) in a fresh interpreter: its exit code and whether module
    was loaded afterwards."""
    assert module in _WATCHED
    if tuple(argv) not in _RUNS:
        args = [a.replace("{out}", str(tmp_path / "out.json")) for a in argv]
        code = (f"import sys\nfrom sharmonic.cli import main\nrc = main({args!r})\n"
                f"print(rc, *[m for m in {_WATCHED!r} if m in sys.modules])\n")
        src = str(Path(sh.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        lines = proc.stdout.splitlines()
        _RUNS[tuple(argv)] = tuple(lines[-1].split()) if lines else (proc.stderr,)
    rc, *loaded = _RUNS[tuple(argv)]
    return [rc, str(module in loaded)]


@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[0])
def test_commands_never_import_mpmath(tmp_path, argv):
    # mpmath costs about 40 ms to import; the exact arithmetic is in integers
    assert _exit_code_and_whether_loaded(tmp_path, argv, "mpmath") == ["0", "False"]


@pytest.mark.parametrize("module", ["fractions", "decimal"])
@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[0])
def test_commands_never_import_fractions_or_decimal(tmp_path, argv, module):
    # fractions, with the decimal it imports, costs 2-3.5 ms: exact values
    # are integer pairs and ratios (_dyadic.exact_sum, as_integer_ratio)
    assert _exit_code_and_whether_loaded(tmp_path, argv, module) == ["0", "False"]


@pytest.mark.parametrize("argv", _COMMANDS[:3], ids=lambda argv: argv[0])
def test_approximate_and_demos_never_import_numpy_polynomial(tmp_path, argv):
    # numpy.polynomial costs 3-4 ms to import: the Chebyshev stage builds
    # its own nodes, Vandermonde rows and derivative matrices, which
    # ChebPoly.eval uses too; only fraclap's Gauss rules load it
    assert _exit_code_and_whether_loaded(tmp_path, argv, "numpy.polynomial") == ["0", "False"]


def test_approximate_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs 10-30 ms to import, and np.unique would load it
    argv = ["approximate", "--target", "x2", "--epsilon", "0.0625", "--out-json", "{out}"]
    assert _exit_code_and_whether_loaded(tmp_path, argv, "numpy.ma") == ["0", "False"]
