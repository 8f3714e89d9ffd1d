"""CLI contract: exit codes, config validation, report schema, determinism."""

import csv
import io
import json
import math

import pytest

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


def test_scan_single_value_verify_requires_scalars(tmp_path, capsys):
    cfg = write_config(tmp_path, "family = sphere\nn = 2,3\ntau = 1.0\nm = 2\n")
    assert main(["verify", "--config", cfg]) == 2
    assert "single value" in capsys.readouterr().err


def test_catalog_lists_every_verifier(capsys):
    assert main(["catalog"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == len(CATALOG)
    by_id = {e["id"]: e for e in entries}
    assert by_id["curvature_laplacian"]["orders"] == {"g": 4, "f": 3, "lambda": 2}
    for e in entries:
        assert e["formula"].strip()


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


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_residuals_exit_three_with_null_rows(tmp_path):
    # 1/m overflows to inf for a subnormal m, so most residuals are NaN or inf
    cfg = write_config(tmp_path, "family = hyperbolic\nn = 2\ntau = 0.5\nm = 1e-320\npoints = 5\n")
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
