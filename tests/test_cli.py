"""CLI contract: exit codes, config validation, report schema, determinism."""

import csv
import dataclasses
import errno
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest

import gqem
from gqem import cli, quadrature
from gqem.cli import ConfigError, main, parse_config_text
from gqem.identities import CATALOG


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SPHERE_CFG = """
# small but complete run
family = sphere
n = 2
tau = 1.0
m = 2
points = 10
seed = 42
"""


def test_verify_pass_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["overall_pass"] is True
    assert report["seed"] == 42
    assert report["tool"]["name"] == "gqem"
    for entry in report["pointwise"]:
        assert set(entry) == {
            "id", "formula", "n_points", "max_residual",
            "mean_residual", "tolerance", "pass",
        }
        assert entry["formula"].strip()


def test_verify_parameter_constraint_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "family = sphere\nn = 2\ntau = 0.4\nm = 2\n")
    out = tmp_path / "never.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 2
    assert not out.exists()  # no partial report
    assert "tau > r/n" in capsys.readouterr().err


def test_unknown_key_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG + "typo_key = 1\n")
    assert main(["verify", "--config", cfg]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_unknown_identity_in_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG + "suite = defining_equation,nope\n")
    assert main(["verify", "--config", cfg]) == 2
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("suite =", "empty identity id"),
    ("suite = ,", "empty identity id"),
    ("suite = bochner,", "empty identity id"),
    ("suite = bochner,bochner", "duplicate identity id 'bochner'"),
])
def test_empty_or_repeated_suite_id_exits_two_without_a_report(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, SPHERE_CFG + line + "\n")
    out = tmp_path / "never.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("n", "2,2", "duplicate value 2 in 'n' = '2,2'"),
    ("tau", "1.5,3,1.50", "duplicate value 1.5 in 'tau'"),
    ("m", "inf,2,infinity", "duplicate value inf in 'm'"),
])
def test_scan_with_a_repeated_n_tau_or_m_exits_two_before_any_structure(
        tmp_path, capsys, monkeypatch, key, value, message):
    keys = {"family": "sphere", "n": "2", "tau": "1.5", "m": "2", "points": "4",
            "suite": "bochner", key: value}
    cfg = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))

    def refuse(*args):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(cli, "_build_structure", refuse)
    out = tmp_path / "never.csv"
    assert main(["scan", "--config", cfg, "--csv", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_verify_with_no_applicable_row_exits_two_naming_the_skipped_ids(tmp_path, capsys):
    # einstein_hessian needs n >= 3, so on n = 2 nothing selected would run,
    # which must not read as a pass
    cfg = write_config(tmp_path, SPHERE_CFG + "suite = einstein_hessian\n")
    out = tmp_path / "never.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 2
    assert not out.exists()
    assert "skipped: einstein_hessian" in capsys.readouterr().err
    cfg = write_config(tmp_path, SPHERE_CFG + "suite = einstein_hessian,bochner\n")
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 0
    assert [row["id"] for row in json.loads(out.read_text())["pointwise"]] == ["bochner"]


def test_scan_with_a_combination_no_row_applies_to_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "family = sphere\nn = 3,2\ntau = 1.5\nm = 2\npoints = 4\n"
                                 "suite = einstein_hessian\n")
    out = tmp_path / "never.csv"
    assert main(["scan", "--config", cfg, "--csv", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "n=2" in err and "skipped: einstein_hessian" in err


def test_missing_config_flag(capsys):
    assert main(["verify"]) == 2


def test_integrate_on_noncompact_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "family = euclidean\nn = 2\ntau = 1.0\nm = 2\n")
    assert main(["integrate", "--config", cfg]) == 2
    assert "compact" in capsys.readouterr().err


def test_integrate_small_grid(tmp_path):
    cfg = write_config(
        tmp_path, "family = sphere\nn = 2\ntau = 1.0\nm = 2\ngrid = 16,32\n"
    )
    out = tmp_path / "int.json"
    assert main(["integrate", "--config", cfg, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["overall_pass"] is True
    ids = {r["id"] for r in report["integrals"]}
    assert "stokes_sanity" in ids and "bochner_integral_balance" in ids


def test_integrate_runs_only_on_the_polar_chart(tmp_path, capsys):
    text = "family = sphere\nn = 2\ntau = 1.0\nm = 2\ngrid = 16,32\n"
    out = tmp_path / "never.json"
    cfg = write_config(tmp_path, text + "chart = stereographic\n")
    assert main(["integrate", "--config", cfg, "--json", str(out)]) == 2
    assert not out.exists()
    assert "'chart' is 'stereographic'" in capsys.readouterr().err
    cfg = write_config(tmp_path, text + "chart = polar\n", name="polar.txt")
    assert main(["integrate", "--config", cfg, "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["chart"] == "polar"


def test_integrate_grid_mismatch(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "family = sphere\nn = 3\ntau = 1.0\nm = 2\ngrid = 16,32\n"
    )
    assert main(["integrate", "--config", cfg]) == 2
    assert "grid" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--config", cfg, "--json", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--json", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_sample_but_not_schema(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--config", cfg, "--json", str(out1), "--seed", "1"])
    main(["verify", "--config", cfg, "--json", str(out2), "--seed", "2"])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["seed"] == 1 and b["seed"] == 2
    assert [e["id"] for e in a["pointwise"]] == [e["id"] for e in b["pointwise"]]


def test_scan_cardinality_and_columns(tmp_path):
    cfg = write_config(
        tmp_path,
        "family = sphere\nn = 2,3\ntau = 0.8,1.5,3.0\nm = 1,2\npoints = 4\n"
        "suite = defining_equation,radial_identity\n",
    )
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", cfg, "--csv", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["n", "m", "tau", "identity", "max_residual", "pass"]
    # 2 * 3 * 2 combinations x 2 identities
    assert len(rows) - 1 == 2 * 3 * 2 * 2
    assert all(r[5] == "true" for r in rows[1:])


def test_scan_rejects_empty_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, "family = sphere\nn = 2\ntau = \nm = 1\n")
    assert main(["scan", "--config", cfg]) == 2


@pytest.mark.parametrize("command, key, value", [
    ("verify", "n", "2,"),
    ("verify", "tau", "1.5,,"),
    ("scan", "m", "1,,2"),
    ("scan", "n", ",2"),
    ("integrate", "grid", "16,,32"),
    ("verify", "suite", "bochner,,defining_equation"),
])
def test_an_empty_entry_in_a_comma_list_exits_two_without_a_report(
        tmp_path, capsys, command, key, value):
    keys = {"family": "sphere", "n": "2", "tau": "1.5", "m": "2"}
    keys[key] = value
    cfg = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
    flag, out = ("--csv", tmp_path / "never.csv") if command == "scan" else (
        "--json", tmp_path / "never.json")
    assert main([command, "--config", cfg, flag, str(out)]) == 2
    assert not out.exists()
    assert f"in '{key}' = '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("tau", "abc", "cannot parse number 'abc'"),
    ("n", "x", "cannot parse integer 'x'"),
    ("n", None, "missing required key 'n'"),
    ("family", "torus", "unknown family 'torus'"),
])
def test_malformed_or_missing_values_exit_two_without_a_report(
        tmp_path, capsys, key, value, message):
    keys = {"family": "sphere", "n": "2", "tau": "1.5", "m": "2", key: value}
    text = "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)
    out = tmp_path / "never.json"
    assert main(["verify", "--config", write_config(tmp_path, text), "--json", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_nonexistent_config_path_exits_two(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main(["verify", "--config", str(tmp_path / "absent.txt"), "--json", str(out)]) == 2
    assert not out.exists()
    assert "cannot read config" in capsys.readouterr().err


def test_v_axis_is_read_and_echoed(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG + "v_axis = 1\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["v_axis"] == "1"
    assert parse_config_text(pathlib.Path(cfg).read_text()).v_axis == 1


@pytest.mark.parametrize("line, message", [
    ("r = 7", "euclidean model has no radius"),
    ("v_axis = 3", "euclidean model has no height function"),
])
def test_euclidean_refuses_a_key_its_model_never_reads(tmp_path, capsys, line, message):
    # the results would equal the defaults', yet the report would echo the key
    cfg = write_config(tmp_path, f"family = euclidean\nn = 3\ntau = 1.0\nm = 2\npoints = 5\n{line}\n")
    out = tmp_path / "never.out"
    for command, flag in (("verify", "--json"), ("scan", "--csv")):
        assert main([command, "--config", cfg, flag, str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err


def test_scan_single_value_verify_requires_scalars(tmp_path, capsys):
    cfg = write_config(tmp_path, "family = sphere\nn = 2,3\ntau = 1.0\nm = 2\n")
    assert main(["verify", "--config", cfg]) == 2
    assert "single value" in capsys.readouterr().err


def test_catalog_lists_every_verifier(capsys):
    assert main(["catalog"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == len(CATALOG)
    by_id = {e["id"]: e for e in entries}
    assert by_id["curvature_laplacian"]["orders"] == {"g": 4, "f": 3, "lambda": 2, "u": None}
    assert by_id["u_conformality"]["orders"] == {"g": 1, "f": None, "lambda": None, "u": 2}
    for e in entries:
        assert e["formula"].strip()


@pytest.mark.parametrize(
    "flag, value",
    [("--config", "cfg.txt"), ("--json", "cat.json"), ("--csv", "cat.csv"),
     ("--seed", "3"), ("--tol-scale", "1"), ("--tol-scale", "nan")],
)
def test_catalog_rejects_flags_it_does_not_read(tmp_path, capsys, flag, value):
    if flag == "--config":
        value = write_config(tmp_path, SPHERE_CFG)
    elif flag in ("--json", "--csv"):
        value = str(tmp_path / value)
    assert main(["catalog", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["config.txt"] if flag == "--config" else [])


def test_python_dash_m_gqem_runs_the_cli():
    src = pathlib.Path(gqem.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", "gqem", "catalog"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [e["id"] for e in json.loads(done.stdout)] == [i.identity_id for i in CATALOG]


def test_infinite_m_config(tmp_path):
    cfg = write_config(
        tmp_path,
        "family = euclidean\nn = 2\ntau = 1.0\nm = inf\npoints = 5\n"
        "suite = contracted_bianchi,bochner\n",
    )
    out = tmp_path / "inf.json"
    # the euclidean closed form needs finite m, so this is a config-level error
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 2


def test_tol_scale_can_force_failure(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out = tmp_path / "strict.json"
    code = main(
        ["verify", "--config", cfg, "--json", str(out), "--tol-scale", "1e-10"]
    )
    assert code == 1  # machine-precision residuals cannot meet 1e-18
    report = json.loads(out.read_text())
    assert report["overall_pass"] is False


def test_hyperbolic_note_in_report(tmp_path):
    cfg = write_config(
        tmp_path, "family = hyperbolic\nn = 2\ntau = 0.5\nm = 2\npoints = 5\n"
    )
    out = tmp_path / "hyp.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert any("cosh" in note for note in report["notes"])


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("family sphere")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("family = sphere\nfamily = sphere\nn=2\ntau=1\nm=1")
    with pytest.raises(ConfigError, match="family"):
        parse_config_text("n = 2\ntau = 1\nm = 1")
    cfg = parse_config_text("family = sphere\nn = 2\ntau = 1\nm = inf")
    assert math.isinf(cfg.m_list[0])


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau", "inf"),
        ("tau", "-inf"),
        ("tau", "nan"),
        ("r", "inf"),
        ("r", "nan"),
        ("m", "nan"),
        ("tol.order2", "nan"),
        ("tol.order3", "0"),
        ("tol.order4", "-1e-6"),
        ("tol.integral", "nan"),
    ],
)
def test_nonfinite_and_nonpositive_values_exit_two(tmp_path, capsys, key, value):
    keys = {"family": "sphere", "n": "2", "tau": "1.0", "m": "2", "points": "5"}
    keys[key] = value
    cfg = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "never.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 2
    assert not out.exists()
    assert f"'{key}'" in capsys.readouterr().err


def test_nonfinite_tau_in_scan_list_exit_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "family = sphere\nn = 2\ntau = 1.0, inf\nm = 2\npoints = 5\n"
    )
    assert main(["scan", "--config", cfg]) == 2
    assert "'tau' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
def test_tol_scale_must_be_positive_and_finite(tmp_path, capsys, scale):
    cfg = write_config(tmp_path, SPHERE_CFG + "grid = 4,8\n")
    out = tmp_path / "never.out"
    for command, flag in (("verify", "--json"), ("integrate", "--json"), ("scan", "--csv")):
        assert main([command, "--config", cfg, flag, str(out), "--tol-scale", scale]) == 2
        assert not out.exists()
        assert "--tol-scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, line",
    [
        ("verify", "--json", "grid = 16,32"),
        ("scan", "--csv", "tol.integral = 1e-6"),
        ("integrate", "--json", "suite = bochner"),
    ],
)
def test_command_rejects_keys_it_does_not_read(tmp_path, capsys, command, flag, line):
    base = "family = sphere\nn = 2\ntau = 1.0\nm = 2\n"
    base += "grid = 16,32\nseed = 3\n" if command == "integrate" else "points = 4\n"
    out = tmp_path / "never.out"
    assert main([command, "--config", write_config(tmp_path, base), flag, str(out)]) == 0
    cfg = write_config(tmp_path, base + line + "\n", name="extra.txt")
    out.unlink()
    assert main([command, "--config", cfg, flag, str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert f"'{key}'" in err and f"'{command}'" in err


@pytest.mark.parametrize(
    "command, flag, line, scale, message",
    [
        ("verify", "--json", "tol.order2 = inf", "1", "'tol.order2'"),
        ("integrate", "--json", "tol.integral = inf", "1", "'tol.integral'"),
        ("scan", "--csv", "tol.order3 = inf", "1", "'tol.order3'"),
        ("verify", "--json", "tol.order2 = 1e300", "1e10", "--tol-scale"),
        ("integrate", "--json", "tol.integral = 1e300", "1e10", "--tol-scale"),
        ("scan", "--csv", "tol.order4 = 1e300", "1e10", "--tol-scale"),
        ("verify", "--json", "tol.order2 = 1e-8", "1e-320", "--tol-scale"),
    ],
)
def test_infinite_or_overflowing_tolerance_exits_two(tmp_path, capsys, monkeypatch,
                                                     command, flag, line, scale, message):
    base = "family = sphere\nn = 2\ntau = 1.0\nm = 2\n"
    base += "grid = 16,32\n" if command == "integrate" else "points = 4\n"
    cfg = write_config(tmp_path, base + line + "\n")
    out = tmp_path / "never.out"
    if scale != "1":  # the same config runs unscaled
        assert main([command, "--config", cfg, flag, str(out)]) == 0
        out.unlink()

    def refuse(spec):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(cli, "example_structure", refuse)
    assert main([command, "--config", cfg, flag, str(out), "--tol-scale", scale]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("verify", "--csv"), ("integrate", "--csv"),
                                           ("scan", "--json")])
def test_output_flag_the_command_does_not_write_exits_two(tmp_path, capsys, command, flag):
    text = "family = sphere\nn = 2\ntau = 1.0\nm = 2\n"
    text += "grid = 16,32\n" if command == "integrate" else "points = 4\n"
    out = tmp_path / "never.out"
    assert main([command, "--config", write_config(tmp_path, text), flag, str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{command}' does not write {flag}" in captured.err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_residuals_exit_three_with_null_rows(tmp_path):
    # 1/m = 1e308 is finite, but the terms it scales overflow, so some residuals are NaN or inf
    cfg = write_config(tmp_path, "family = hyperbolic\nn = 2\ntau = 0.5\nm = 1e-308\npoints = 5\n")
    out = tmp_path / "nan.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 3
    rows = _strict_json(out.read_text())["pointwise"]
    marked = [r for r in rows if "status" in r]
    assert marked and len(marked) < len(rows)
    for r in rows:
        values = (r["max_residual"], r["mean_residual"])
        if "status" in r:
            assert r["status"] == "nan" and None in values and r["pass"] is False
        else:
            assert all(math.isfinite(v) for v in values)
    assert main(["scan", "--config", cfg, "--csv", str(tmp_path / "nan.csv")]) == 3


def test_overflow_exits_three_without_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "family = sphere\nn = 2\nr = 1e100\ntau = 1e100\nm = 2\n")
    out = tmp_path / "never.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "numerical failure (OverflowError)" in err


def test_m_whose_reciprocal_overflows_exits_two(tmp_path, capsys):
    out = tmp_path / "never.out"
    for command, flag, m in (("verify", "--json", "1e-320"), ("scan", "--csv", "2, 5e-324")):
        cfg = write_config(tmp_path, f"family = hyperbolic\nn = 2\ntau = 0.5\nm = {m}\npoints = 5\n")
        assert main([command, "--config", cfg, flag, str(out)]) == 2
        assert not out.exists()
        assert "'m' is too small" in capsys.readouterr().err


@pytest.mark.parametrize("n, m, message", [
    ("3,2", "2", "tau > r/n"),  # n = 3 admits tau = 0.5; n = 2 does not (r/n = 0.5)
    ("3", "2,inf", "undefined for m = inf"),
])
def test_scan_checks_every_model_before_it_builds_the_first(tmp_path, capsys, monkeypatch,
                                                            n, m, message):
    cfg = write_config(tmp_path, f"family = sphere\nn = {n}\ntau = 0.5\nm = {m}\npoints = 4\n")

    def refuse(spec):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(cli, "example_structure", refuse)
    out = tmp_path / "never.csv"
    assert main(["scan", "--config", cfg, "--csv", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", ["n = 7", "n = 2, 7", "points = 0", "points = 1001"])
def test_n_and_points_are_capped(tmp_path, capsys, line):
    keys = {"family": "sphere", "n": "2", "tau": "1.0", "m": "2", "points": "5"}
    key, value = (t.strip() for t in line.split("="))
    keys[key] = value
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config_text(text)
    out = tmp_path / "never.csv"
    assert main(["scan", "--config", write_config(tmp_path, text), "--csv", str(out)]) == 2
    assert not out.exists()
    keys[key] = str(cli.MAX_N if key == "n" else cli.MAX_POINTS)
    cfg = parse_config_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert (cfg.n_list[0], cfg.points) == (int(keys["n"]), int(keys["points"]))


@pytest.mark.parametrize("grid", ["100000,2", "1025,2", "1,8", "64,64,65"])
def test_grid_is_capped_before_any_node_is_built(tmp_path, capsys, monkeypatch, grid):
    def refuse(count):
        raise AssertionError(f"leggauss({count}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    n = len(grid.split(","))
    text = f"family = sphere\nn = {n}\ntau = 1.0\nm = 2\ngrid = {grid}\n"
    with pytest.raises(ConfigError, match="'grid'"):
        parse_config_text(text)
    out = tmp_path / "never.json"
    assert main(["integrate", "--config", write_config(tmp_path, text), "--json", str(out)]) == 2
    assert not out.exists()
    assert "'grid'" in capsys.readouterr().err


def test_grid_caps_admit_their_limits():
    # the node cap is S^3 32x64x128, the largest grid in use; parsing builds no node
    assert 32 * 64 * 128 == cli.MAX_GRID_NODES
    for grid in (f"{cli.MAX_GRID_ENTRY},2", "32,64,128", "2,2"):
        cfg = parse_config_text(f"family = sphere\nn = 2\ntau = 1.0\nm = 2\ngrid = {grid}\n")
        assert cfg.grid == [int(k) for k in grid.split(",")]


def test_degenerate_metric_at_a_quadrature_node_exits_three(tmp_path, capsys, monkeypatch):
    def singular_at_a_node(chart, resolution):
        # g_00 vanishes on the second polar node row, so det g = 0 at those nodes
        theta = quadrature.make_sphere_grid(chart, resolution).nodes[resolution[-1], 0]

        def metric(c):
            g = np.asarray(chart.metric_fn(c), dtype=object)
            g[0, 0] = g[0, 0] * (c[0] - theta) * (c[0] - theta)
            return g

        return quadrature.make_sphere_grid(dataclasses.replace(chart, metric_fn=metric), resolution)

    cfg = write_config(tmp_path, "family = sphere\nn = 2\ntau = 1.0\nm = 2\ngrid = 32,64\n")
    out = tmp_path / "never.json"
    assert main(["integrate", "--config", cfg, "--json", str(out)]) == 0
    out.unlink()
    monkeypatch.setattr(cli, "make_sphere_grid", singular_at_a_node)
    assert main(["integrate", "--config", cfg, "--json", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "DegenerateMetricError" in err and "quadrature node" in err


def _report_without_time(path):
    report = json.loads(pathlib.Path(path).read_text())
    report.pop("wall_time_s")
    return report


def test_rewrite_puts_the_report_on_a_fresh_inode(tmp_path):
    # a fresh inode is what spares ext4 the flush that truncation forces
    cfg = write_config(tmp_path, SPHERE_CFG)
    out, fresh = tmp_path / "report.json", tmp_path / "fresh.json"
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 0
    first = out.stat().st_ino
    assert main(["verify", "--config", cfg, "--json", str(out)]) == 0
    assert out.stat().st_ino != first
    assert main(["verify", "--config", cfg, "--json", str(fresh)]) == 0
    assert _report_without_time(out) == _report_without_time(fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.txt", "fresh.json", "report.json"]


def test_report_mode_follows_the_umask(tmp_path):
    out = tmp_path / "report.txt"
    old = os.umask(0o022)
    try:
        cli._emit_text("first\n", str(out))
        before = stat.S_IMODE(out.stat().st_mode)
        cli._emit_text("second\n", str(out))
        after = stat.S_IMODE(out.stat().st_mode)
    finally:
        os.umask(old)
    assert before == after == 0o644
    assert out.read_text() == "second\n"


@pytest.mark.parametrize("command, flag",
                         [("verify", "--json"), ("integrate", "--json"), ("scan", "--csv")])
@pytest.mark.parametrize("where", ["missing directory", "directory", "empty"])
def test_unwritable_output_path_exits_two_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, flag, where):
    def refuse(*args):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(cli, "_build_structure", refuse)
    cfg = write_config(tmp_path, SPHERE_CFG)
    out = {"missing directory": tmp_path / "no" / "such" / "out", "directory": tmp_path,
           "empty": ""}[where]
    assert main([command, "--config", cfg, flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: output") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt"]


@pytest.mark.parametrize("command, flag, text", [
    ("verify", "--json", SPHERE_CFG),
    ("integrate", "--json", "family = sphere\nn = 2\ntau = 1.0\nm = 2\ngrid = 16,32\n"),
    ("scan", "--csv", SPHERE_CFG),
])
def test_report_goes_to_stdout_without_an_output_path(tmp_path, capsys, command, flag, text):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "report"
    assert main([command, "--config", cfg, flag, str(out)]) == 0
    assert main([command, "--config", cfg]) == 0
    printed = capsys.readouterr().out
    if command == "scan":
        assert printed == out.read_text()
        return

    def strict(doc):
        def refuse(constant):
            raise ValueError(f"non-strict JSON constant {constant}")
        report = json.loads(doc, parse_constant=refuse)
        report.pop("wall_time_s")
        return report

    assert strict(printed) == strict(out.read_text())


@pytest.mark.parametrize("command, flag", [("verify", "--json"), ("scan", "--csv")])
def test_failed_write_exits_two_and_leaves_no_temporary(tmp_path, capsys, monkeypatch,
                                                        command, flag):
    real_open = open

    def open_failing_writes(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            def write(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = write
        return fh

    cfg = write_config(tmp_path, SPHERE_CFG)
    out = tmp_path / "out"
    out.write_text("previous report\n")
    monkeypatch.setattr(cli, "open", open_failing_writes, raising=False)
    assert main([command, "--config", cfg, flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert os.strerror(errno.ENOSPC) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt", "out"]
    assert out.read_text() == "previous report\n"


@pytest.mark.parametrize("kind", ["symlink", "fifo"])
def test_non_regular_report_path_is_written_through(tmp_path, monkeypatch, kind):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out, target = tmp_path / "report.json", tmp_path / "target.json"
    if kind == "symlink":
        target.write_text("previous report\n")
        out.symlink_to(target)
    else:
        os.mkfifo(out)
        # a reader opened first lets the writer's open return; the report fits the pipe
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
    unlinked = []
    monkeypatch.setattr(os, "unlink", lambda path, *args, **kwargs: unlinked.append(path))
    try:
        assert main(["verify", "--config", cfg, "--json", str(out)]) == 0
        if kind == "fifo":
            target.write_bytes(os.read(reader, 1 << 16))
    finally:
        if kind == "fifo":
            os.close(reader)
    assert unlinked == []
    if kind == "symlink":
        assert out.is_symlink() and os.readlink(out) == str(target)
    else:
        assert stat.S_ISFIFO(out.lstat().st_mode)
    assert json.loads(target.read_text())["overall_pass"] is True
