"""Batch driver: configure a model structure, run verification suites, emit reports.

Commands:
    verify     pointwise identity suite on one configured structure
    integrate  integral-identity suite on a compact (sphere) model
    scan       pointwise suite over an (n, m, tau) parameter grid, CSV output
    catalog    machine-readable listing of every identity verifier

Configs are flat key-value files (``key = value``, ``#`` comments). Unknown
keys, and keys the command does not read (`COMMAND_KEYS`), are hard errors, as
is an output flag the command does not write (``--json`` on scan, ``--csv``
on verify or integrate).
Exit codes: 0 all checks passed, 1 a tolerance failed, 2 configuration or
usage error, 3 numerical failure: a non-finite residual (written as null, its
row marked ``"status": "nan"``) or an arithmetic error, which writes no report.
No partial reports are written on exit 2. A comma list (``n``, ``tau``, ``m``,
``grid``, ``suite``) with an empty entry exits 2, as does a repeated entry in
``n``, ``tau``, ``m`` or ``suite`` (equal after parsing, so ``tau = 1.5,1.50``
repeats), and a ``suite`` of which no row applies to a structure. An output path
that is empty, whose directory does not exist, or that is a directory exits 2
before any structure is built; an ``OSError`` while writing the report exits 2
and leaves no temporary file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from . import __version__
from .identities import CATALOG, CATALOG_BY_ID, run_pointwise_suite
from .jets import OrderCapabilityError
from .models import (
    CHART_KINDS,
    ModelSpec,
    example_structure,
    sample_points,
)
from .quadrature import make_sphere_grid, run_integral_suite

CONFIG_KEYS = {
    "family": "model family: euclidean | sphere | hyperbolic",
    "n": "dimension (>= 2); comma list allowed for scan",
    "r": "sphere radius (default 1)",
    "chart": "chart kind (default: cartesian / stereographic / poincare_ball)",
    "tau": "potential parameter; comma list allowed for scan",
    "m": "weight, positive real or 'inf'; comma list allowed for scan",
    "v_axis": "ambient axis of the height function (default 0)",
    "suite": "comma list of identity ids or 'all' (default all)",
    "points": "random sample size (default 100)",
    "seed": "sampling seed (default 0)",
    "grid": "quadrature resolution per angle, e.g. 64,128",
    "tol.order2": "tolerance for second-order identities (default 1e-8)",
    "tol.order3": "tolerance for third-order identities (default 1e-7)",
    "tol.order4": "tolerance for fourth-order identities (default 1e-6)",
    "tol.integral": "tolerance for integral identities (default 1e-6)",
}

_COMMON_KEYS = {"family", "n", "r", "chart", "tau", "m", "v_axis", "seed"}
_POINTWISE_KEYS = _COMMON_KEYS | {"suite", "points", "tol.order2", "tol.order3", "tol.order4"}
# the config keys each command reads; `seed` is echoed in the integrate report
COMMAND_KEYS = {
    "verify": _POINTWISE_KEYS,
    "scan": _POINTWISE_KEYS,
    "integrate": _COMMON_KEYS | {"grid", "tol.integral"},
}

HYPERBOLIC_NOTE = (
    "hyperbolic convention: the height function is cosh of the geodesic distance "
    "(h >= 1), so u = tau + h stays positive; lambda = -(n-1) - m(u-tau)/u, the "
    "sign consistent with hess f - (1/m)df(x)df = -m(u-tau)/u g"
)


class ConfigError(Exception):
    pass


# Largest dimension and sample size a config may ask for. n = 6 is the largest
# dimension measured: on the stereographic sphere 100 points take about 0.3 s
# in the suite and 0.43 s as a whole `gqem verify` process (2-vCPU Linux host,
# Python 3.11, numpy 2.4). The pointwise suite runs the sample in chunks of
# `qem._CHUNK` points, about 0.4 MB per point at n = 6.
MAX_N = 6
MAX_POINTS = 1000
# Largest quadrature grid: node count per angle and in total. `leggauss(k)`
# builds a k x k matrix and `make_sphere_grid` holds every node; the total is
# that of S^3 32x64x128, the largest grid measured.
MAX_GRID_ENTRY = 1024
MAX_GRID_NODES = 262_144


@dataclass
class RunConfig:
    family: str
    n_list: list[int]
    tau_list: list[float]
    m_list: list[float]
    r: float = 1.0
    chart: str = ""
    v_axis: int = 0
    suite: Optional[list[str]] = None  # None = all
    points: int = 100
    seed: int = 0
    grid: list[int] = field(default_factory=lambda: [64, 128])
    tolerances: dict = field(
        default_factory=lambda: {2: 1e-8, 3: 1e-7, 4: 1e-6, "integral": 1e-6}
    )
    raw: dict = field(default_factory=dict)

    def single(self, key: str):
        values = {"n": self.n_list, "tau": self.tau_list, "m": self.m_list}[key]
        if len(values) != 1:
            raise ConfigError(
                f"key '{key}' must be a single value for this command, got {values}"
            )
        return values[0]


def parse_config_text(text: str) -> RunConfig:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        if key in raw:
            raise ConfigError(f"duplicate config key '{key}'")
        raw[key] = value
    if "family" not in raw:
        raise ConfigError("missing required key 'family'")

    def parse_float(token: str) -> float:
        token = token.strip()
        if token.lower() in ("inf", "infinity"):
            return math.inf
        try:
            return float(token)
        except ValueError as exc:
            raise ConfigError(f"cannot parse number {token!r}") from exc

    def parse_list(key: str, cast, entry: str = "value", distinct: bool = True) -> list:
        """The comma list under `key`, each entry cast.

        An empty entry is an error, and so is, if `distinct`, one equal to an
        earlier entry once cast.
        """
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
        items = [t.strip() for t in raw[key].split(",")]
        if not all(items):
            raise ConfigError(f"empty {entry} in '{key}' = {raw[key]!r}")
        values = [cast(t) for t in items]
        if distinct:
            for k, value in enumerate(values):
                if value in values[:k]:
                    raise ConfigError(f"duplicate {entry} {value!r} in '{key}' = {raw[key]!r}")
        return values

    def parse_int(token: str) -> int:
        try:
            return int(token)
        except ValueError as exc:
            raise ConfigError(f"cannot parse integer {token!r}") from exc

    def parse_id(token: str) -> str:
        if token not in CATALOG_BY_ID:
            raise ConfigError(f"unknown identity id {token!r} in 'suite'")
        return token

    cfg = RunConfig(
        family=raw["family"],
        n_list=parse_list("n", parse_int),
        tau_list=parse_list("tau", parse_float),
        m_list=parse_list("m", parse_float),
        raw=dict(raw),
    )
    if cfg.family not in CHART_KINDS:
        raise ConfigError(
            f"unknown family {cfg.family!r}; choose from {sorted(CHART_KINDS)}"
        )
    if "r" in raw:
        cfg.r = parse_float(raw["r"])
    for key, values in (("tau", cfg.tau_list), ("r", [cfg.r])):
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"'{key}' must be finite, got {raw[key]!r}")
    if any(math.isnan(v) for v in cfg.m_list):
        raise ConfigError(f"'m' must be a positive number or 'inf', got {raw['m']!r}")
    if any(0 < v < math.inf and not math.isfinite(1.0 / v) for v in cfg.m_list):
        raise ConfigError(f"'m' is too small: 1/m overflows, got {raw['m']!r}")
    if any(n > MAX_N for n in cfg.n_list):
        raise ConfigError(f"'n' must be at most {MAX_N}, got {raw['n']!r}")
    if "chart" in raw:
        cfg.chart = raw["chart"]
    if "v_axis" in raw:
        cfg.v_axis = parse_int(raw["v_axis"])
    if "points" in raw:
        cfg.points = parse_int(raw["points"])
        if not 1 <= cfg.points <= MAX_POINTS:
            raise ConfigError(f"'points' must be in 1..{MAX_POINTS}, got {cfg.points}")
    if "seed" in raw:
        cfg.seed = parse_int(raw["seed"])
    if "grid" in raw:
        cfg.grid = parse_list("grid", parse_int, distinct=False)
        if not all(2 <= k <= MAX_GRID_ENTRY for k in cfg.grid):
            raise ConfigError(
                f"'grid' entries must be in 2..{MAX_GRID_ENTRY}, got {raw['grid']!r}")
        if math.prod(cfg.grid) > MAX_GRID_NODES:
            raise ConfigError(
                f"'grid' must have at most {MAX_GRID_NODES} nodes, got {raw['grid']!r}")
    if "suite" in raw and raw["suite"].strip() != "all":
        cfg.suite = parse_list("suite", parse_id, "identity id")
    for key, slot in (
        ("tol.order2", 2),
        ("tol.order3", 3),
        ("tol.order4", 4),
        ("tol.integral", "integral"),
    ):
        if key in raw:
            cfg.tolerances[slot] = parse_float(raw[key])
            if not 0 < cfg.tolerances[slot] < math.inf:
                raise ConfigError(
                    f"'{key}' must be a positive finite number, got {raw[key]!r}")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _build_structure(cfg: RunConfig, n: int, tau: float, m: float):
    spec = ModelSpec(
        cfg.family,
        n,
        tau=tau,
        m=m,
        radius=cfg.r,
        chart_kind=cfg.chart,
        v_axis=cfg.v_axis,
    )
    return example_structure(spec)


def _report_skeleton(cfg: RunConfig, seed: int) -> dict:
    report = {
        "tool": {"name": "gqem", "version": __version__},
        "config": dict(sorted(cfg.raw.items())),
        "seed": seed,
        "notes": [HYPERBOLIC_NOTE] if cfg.family == "hyperbolic" else [],
    }
    return report


def _check_output_path(path: Optional[str]) -> None:
    """Reject an output path that cannot be written, before any work is done."""
    if path is None:
        return
    if not path:
        raise ConfigError("output path is empty")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory {parent!r} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")


def _emit_text(text: str, path: Optional[str]) -> None:
    """Write `text` to `path`, or to stdout when no path is given.

    A missing or regular-file path gets a fresh inode: the text goes to a
    temporary file in the same directory, the old file is unlinked and the
    temporary renamed into its name. On ext4 (default ``auto_da_alloc``),
    truncating a just-written file or renaming over it forces its blocks to be
    allocated first, about 55 ms per report; a rename into a free name does
    not. Any other path (a symlink, ``/dev/stdout``, a FIFO) is written through
    in place and never unlinked. An ``OSError`` becomes a `ConfigError`.
    """
    if path is None:
        sys.stdout.write(text)
        return
    try:
        try:
            regular = stat.S_ISREG(os.lstat(path).st_mode)
        except FileNotFoundError:
            regular = True
        if not regular:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        # mode 0o666 under the umask: the permissions `open(path, "w")` gives
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            os.rename(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _finish_report(report: dict, rows: list, json_path: Optional[str], start: float) -> int:
    """Write the report: exit 3 if a row held a non-finite number, else 0 or 1.

    A non-finite number is written as null and its row gets ``"status": "nan"``.
    """
    nonfinite = False
    for row in rows:
        bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
        for k in bad:
            row[k] = None
        if bad:
            row["status"] = "nan"
            nonfinite = True
    report["overall_pass"] = all(r["pass"] for r in rows)
    report["wall_time_s"] = time.perf_counter() - start
    _emit_text(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False,
                          allow_nan=False) + "\n", json_path)
    return 3 if nonfinite else 0 if report["overall_pass"] else 1


def cmd_verify(cfg: RunConfig, json_path: Optional[str], seed: int, tols: dict) -> int:
    n = cfg.single("n")
    tau = cfg.single("tau")
    m = cfg.single("m")
    s = _build_structure(cfg, n, tau, m)
    points = sample_points(s.chart, cfg.points, seed)
    start = time.perf_counter()
    entries = run_pointwise_suite(s, points, tols, ids=cfg.suite)
    report = _report_skeleton(cfg, seed)
    report["pointwise"] = [
        {
            "id": e.identity_id,
            "formula": e.formula,
            "n_points": e.n_points,
            "max_residual": e.max_residual,
            "mean_residual": e.mean_residual,
            "tolerance": e.tolerance,
            "pass": e.passed,
        }
        for e in sorted(entries, key=lambda e: e.identity_id)
    ]
    report["integrals"] = []
    return _finish_report(report, report["pointwise"], json_path, start)


def cmd_integrate(cfg: RunConfig, json_path: Optional[str], seed: int, tols: dict) -> int:
    n = cfg.single("n")
    tau = cfg.single("tau")
    m = cfg.single("m")
    if cfg.family != "sphere":
        raise ConfigError(
            f"the integral suite needs a compact model (sphere); family is {cfg.family!r}"
        )
    if len(cfg.grid) != n:
        raise ConfigError(
            f"'grid' needs {n} entries for a {n}-sphere, got {cfg.grid}"
        )
    if cfg.chart not in ("", "polar"):
        raise ConfigError(
            f"the integral suite runs on the polar chart; 'chart' is {cfg.chart!r}"
        )
    s = _build_structure(replace(cfg, chart="polar"), n, tau, m)
    start = time.perf_counter()
    grid = make_sphere_grid(s.chart, cfg.grid)
    rows = run_integral_suite(grid, s, tols["integral"])
    report = _report_skeleton(cfg, seed)
    report["pointwise"] = []
    report["integrals"] = sorted(rows, key=lambda r: r["id"])
    return _finish_report(report, report["integrals"], json_path, start)


def cmd_scan(cfg: RunConfig, csv_path: Optional[str], seed: int, tols: dict) -> int:
    combos = [
        (n, m, tau) for n in cfg.n_list for m in cfg.m_list for tau in cfg.tau_list
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "m", "tau", "identity", "max_residual", "pass"])
    all_pass, all_finite = True, True
    for n, m, tau in combos:
        s = _build_structure(cfg, n, tau, m)
        points = sample_points(s.chart, cfg.points, seed)
        for e in run_pointwise_suite(s, points, tols, ids=cfg.suite):
            writer.writerow(
                [n, f"{m:g}", f"{tau:g}", e.identity_id,
                 f"{e.max_residual:.6e}", str(e.passed).lower()]
            )
            all_pass = all_pass and e.passed
            all_finite = all_finite and math.isfinite(e.max_residual)
    _emit_text(buf.getvalue(), csv_path)
    return 3 if not all_finite else 0 if all_pass else 1


def cmd_catalog() -> int:
    entries = [
        {
            "id": info.identity_id,
            "formula": info.formula,
            "orders": dict(info.orders),
            "order_class": info.order_class,
            "kind": info.kind,
            "needs_finite_m": info.needs_finite_m,
            "needs_einstein_base": info.needs_einstein_base,
            "min_dim": info.min_dim,
        }
        for info in CATALOG
    ]
    sys.stdout.write(json.dumps(entries, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqem",
        description="Verification suites for generalized quasi-Einstein model structures",
    )
    parser.add_argument("command", choices=["verify", "integrate", "scan", "catalog"])
    parser.add_argument("--config", help="path to a flat key=value config file")
    parser.add_argument("--json", help="verify, integrate: write the JSON report here "
                        "(default: stdout)")
    parser.add_argument("--csv", help="scan: write the CSV here (default: stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--tol-scale", type=float, default=None, help="multiply every tolerance (default 1)"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        given = [name for name, value in vars(args).items()
                 if name != "command" and value is not None]
        if given:
            print(f"error: 'catalog' reads no flags, got --{given[0].replace('_', '-')}",
                  file=sys.stderr)
            return 2
        return cmd_catalog()
    if not args.config:
        print(f"error: command '{args.command}' needs --config", file=sys.stderr)
        return 2
    try:
        flag, path = ("--json", args.json) if args.command == "scan" else ("--csv", args.csv)
        if path is not None:
            raise ConfigError(f"'{args.command}' does not write {flag}")
        _check_output_path(args.csv if args.command == "scan" else args.json)
        cfg = load_config(args.config)
        scale = 1.0 if args.tol_scale is None else args.tol_scale
        tols = {k: v * scale for k, v in cfg.tolerances.items()}
        if not all(0 < v < math.inf for v in tols.values()):
            raise ConfigError(
                f"--tol-scale {scale:g} must leave every tolerance positive and finite")
        unread = sorted(set(cfg.raw) - COMMAND_KEYS[args.command])
        if unread:
            raise ConfigError(f"config key '{unread[0]}' is not read by '{args.command}'")
        seed = cfg.seed if args.seed is None else args.seed
        if args.command == "verify":
            return cmd_verify(cfg, args.json, seed, tols)
        if args.command == "integrate":
            return cmd_integrate(cfg, args.json, seed, tols)
        return cmd_scan(cfg, args.csv, seed, tols)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OrderCapabilityError) as exc:
        print(f"error: numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
