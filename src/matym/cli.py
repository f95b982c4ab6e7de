"""Command-line front end: verify, solve, spectrum.

One JSON config document describes a run; command-line flags override
individual fields. Reports are deterministic for a fixed config and
seed, with wall-clock data quarantined in a separate top-level field so
files stay comparable.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import math
import sys
import time
from decimal import Decimal

import numpy as np

from . import fields as fd
from . import qbundle as qb
from . import qriemann as qr
from .matforms import (CONVENTIONS_ID, DerivationCalculus, matrix_from_json,
                       matrix_to_json)
from .verify import run_verification

MODES = ("verify", "solve", "spectrum")

_DEFAULTS = {
    "mode": "verify",
    "N": 2,
    "seed": 0,
    "charge": 0,
    "potential": [0.0],
    "tol": 1e-8,
    "max_iter": 100_000,
    "method": "gauss_newton",
    "grade": None,
    "out": None,
    "strict_conventions": False,
    "connection": None,
    "left": None,
    "right": None,
    "vary_connection": True,
    "vary_left": True,
    "vary_right": True,
}


# Largest dense matrix one run may build. The spectrum path holds the
# Laplacian L_k beside two factor operands of its assembly (each no larger
# than L_k), then beside the hermiticity check's and the eigensolver's
# copies of it, so a run at the limit peaks at a few GiB. A solve holds its
# Jacobian beside the residual's operator tables, of which D_1 and Delta_2
# are the largest. Every N=3 run fits; N=4 over all grades would need
# 158 GiB for its grade-7 operator alone, and a solve at N=7 1.94 GiB for D_1.
MAX_DENSE_BYTES = 2**30


class ConfigError(Exception):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _parse_potential(value):
    if isinstance(value, str):
        parts = [s.strip() for s in value.split(",") if s.strip()]
        if not parts:
            raise ConfigError("potential", "no coefficients given")
        try:
            value = [float(s) for s in parts]
        except ValueError as exc:
            raise ConfigError("potential", f"bad coefficient: {exc}") from None
    if not isinstance(value, (list, tuple)):
        raise ConfigError("potential", "expected a list of coefficients")
    coeffs = []
    for c in value:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ConfigError("potential", f"coefficient {c!r} is not a real number")
        if not np.isfinite(c):
            raise ConfigError("potential", "coefficients must be finite")
        coeffs.append(float(c))
    return coeffs


def _require_int(cfg, field, minimum=None):
    v = cfg[field]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(field, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(field, f"must be >= {minimum}, got {v}")
    return v


def _require_float(cfg, field, positive=False):
    v = cfg[field]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(field, f"expected a number, got {v!r}")
    v = float(v)
    if not np.isfinite(v):
        raise ConfigError(field, "must be finite")
    if positive and v <= 0:
        raise ConfigError(field, f"must be > 0, got {v}")
    cfg[field] = v
    return v


def _require_bool(cfg, field):
    if not isinstance(cfg[field], bool):
        raise ConfigError(field, f"expected true/false, got {cfg[field]!r}")
    return cfg[field]


def validate_config(cfg):
    """Normalize a merged config dict in place; raise ConfigError on the
    first offending field."""
    for key in cfg:
        if key not in _DEFAULTS:
            raise ConfigError(key, "unknown field")
    if cfg["mode"] not in MODES:
        raise ConfigError("mode", f"expected one of {MODES}, got {cfg['mode']!r}")
    N = _require_int(cfg, "N", minimum=2)
    _require_int(cfg, "seed", minimum=0)
    _require_int(cfg, "charge")
    _require_int(cfg, "max_iter", minimum=1)
    cfg["potential"] = _parse_potential(cfg["potential"])
    _require_float(cfg, "tol", positive=True)
    if cfg["method"] not in fd.METHODS:
        raise ConfigError("method", f"expected one of {fd.METHODS}, got {cfg['method']!r}")
    if cfg["grade"] is not None:
        g = _require_int(cfg, "grade", minimum=0)
        if g > N * N - 1:
            raise ConfigError("grade", f"must be <= {N * N - 1} for N={N}, got {g}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("out", "expected a path string")
    for key in ("strict_conventions", "vary_connection", "vary_left", "vary_right"):
        _require_bool(cfg, key)
    for key in ("connection", "left", "right"):
        if cfg[key] is not None and cfg["mode"] != "solve":
            raise ConfigError(key, "only meaningful in solve mode")
    size = dense_matrix_bytes(cfg)
    if size > MAX_DENSE_BYTES:
        raise ConfigError("N", f"the run would build a dense matrix of "
                               f"{Decimal(size) / 2**30:.3g} GiB, over the "
                               f"{MAX_DENSE_BYTES // 2**30} GiB limit")
    return cfg


def dense_matrix_bytes(cfg):
    """Bytes of the largest dense matrix a validated config would build,
    computed without building anything.

    spectrum and verify: the complex Laplacian on grade k has C(d, k) N^2
    rows (d = N^2 - 1), for the requested grade or the largest of all. solve:
    the larger of the real Jacobian, at most 2 (d + 2) N^2 rows and as many
    columns (the connection and both sections in real and imaginary parts),
    and the complex residual tables D_1 and Delta_2, C(d, 2) N^2 by d N^2.
    Once the grade-0 operator alone (N^2 rows) is over the limit, its size
    is returned, sparing a binomial coefficient of millions of digits.
    """
    N = cfg["N"]
    d = N * N - 1
    if cfg["mode"] == "solve":
        jacobian = (2 * (d + 2) * N * N) ** 2 * 8
        return max(jacobian, math.comb(d, 2) * N * N * d * N * N * 16)
    if N**4 * 16 > MAX_DENSE_BYTES:
        rows, entry = N * N, 16
    else:
        k = cfg["grade"] if cfg["mode"] == "spectrum" and cfg["grade"] is not None else d // 2
        rows, entry = math.comb(d, k) * N * N, 16
    return rows * rows * entry


def _decode(field, parse, *args):
    """Run a payload reader, reporting any failure as a ConfigError."""
    try:
        return parse(*args)
    except Exception as exc:
        raise ConfigError(field, str(exc)) from None


def _build_solve_configuration(cfg, calc, rng):
    if cfg["connection"] is not None:
        if not isinstance(cfg["connection"], dict):
            raise ConfigError("connection", "expected a connection payload object")
        conn = _decode("connection", qb.GaugeConnection.from_payload, calc, cfg["connection"])
    else:
        conn = qb.GaugeConnection(calc.random_form(1, rng))
    n = cfg["charge"]
    with_sections = n != 0 or cfg["left"] is not None or cfg["right"] is not None
    if not with_sections:
        return fd.FieldConfiguration(conn)
    a, b = (calc.random_matrix(rng) if cfg[side] is None
            else _decode(side, matrix_from_json, calc, cfg[side])
            for side in ("left", "right"))
    return fd.FieldConfiguration(
        conn,
        qb.ChargedSection(calc, n, "left", a),
        qb.ChargedSection(calc, -n, "right", b),
        fd.PolynomialPotential(cfg["potential"]))


def _config_echo(cfg):
    # the output path does not influence results, so it stays out of the
    # reproducibility-relevant echo
    echo = {k: v for k, v in cfg.items() if v != _DEFAULTS[k] and k != "out"}
    echo["mode"] = cfg["mode"]
    echo["N"] = cfg["N"]
    echo["seed"] = cfg["seed"]
    return echo


def _run_verify(cfg, timing):
    timing["checks"] = {}
    body = run_verification(cfg["seed"], cfg["N"], cfg["strict_conventions"],
                            check_seconds=timing["checks"])
    body["config"] = _config_echo(cfg)
    summary = body["summary"]
    line = (f"verify: {summary['passed']}/{summary['total']} checks passed, "
            f"{summary['failed']} failed, {summary['warned']} warnings")
    return body, line, 0 if body["ok"] else 1


def _run_solve(cfg):
    calc = DerivationCalculus(cfg["N"])
    rng = np.random.default_rng(cfg["seed"])
    cfg0 = _build_solve_configuration(cfg, calc, rng)
    options = fd.SolverOptions(
        tol=cfg["tol"], max_iter=cfg["max_iter"], method=cfg["method"],
        vary_connection=cfg["vary_connection"], vary_left=cfg["vary_left"],
        vary_right=cfg["vary_right"])
    initial_actions = fd.action_summary(cfg0)
    solved, report = fd.solve_stationary(cfg0, options)
    report.seed = cfg["seed"]
    curv_norm = solved.connection.curvature().frobenius()
    body = {
        "mode": "solve",
        "config": _config_echo(cfg),
        "conventions_id": CONVENTIONS_ID,
        "initial_actions": initial_actions,
        "solver": report.to_dict(),
        "curvature_norm": curv_norm,
        "solution": {
            "connection": solved.connection.to_payload(),
            "left": None if solved.left is None else matrix_to_json(calc, solved.left.p),
            "right": None if solved.right is None else matrix_to_json(calc, solved.right.p),
        },
    }
    status = "converged" if report.converged else "did not converge"
    worst = max(report.residual_norms.values())
    line = (f"solve: {status} after {report.iterations} iterations, "
            f"max residual norm {worst:.3e}, |dA| = {curv_norm:.3e}")
    return body, line, 0 if report.converged else 1


def _run_spectrum(cfg):
    calc = DerivationCalculus(cfg["N"])
    grades = [cfg["grade"]] if cfg["grade"] is not None else list(range(calc.dim + 1))
    buf = io.StringIO()
    count = qr.write_spectrum_csv(calc, buf, grades=grades)
    return buf.getvalue(), f"spectrum: wrote {count} eigenvalues for grades {grades}", 0


def _emit(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matym",
        description="Derivation-calculus gauge fields over matrix algebras: "
                    "verification suite, stationary-point solver, spectrum export.")
    parser.add_argument("--mode", choices=MODES, help="what to run")
    parser.add_argument("--config", metavar="FILE", help="JSON config document")
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument("--tol", type=float, help="solver residual tolerance")
    parser.add_argument("--charge", type=int, help="section charge n")
    parser.add_argument("--potential", metavar="c0,c1,...",
                        help="polynomial potential coefficients")
    parser.add_argument("--out", metavar="PATH", help="output file (default "
                        "report.json / spectrum.csv)")
    parser.add_argument("--grade", type=int, help="restrict spectrum mode to one grade")
    parser.add_argument("--N", type=int, dest="N", help="matrix algebra size")
    parser.add_argument("--max-iter", type=int, dest="max_iter", help="iteration budget")
    parser.add_argument("--method", choices=fd.METHODS, help="solver method")
    parser.add_argument("--strict-conventions", action="store_true", default=None,
                        dest="strict_conventions",
                        help="fail (instead of warn) on convention-sensitive checks")
    return parser


def load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError as exc:
        raise ConfigError("config", str(exc)) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return data


def merge_config(args):
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        cfg.update(load_config_file(args.config))
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            cfg[key] = value
    return validate_config(cfg)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
    except ConfigError as exc:
        print(f"matym: config error: {exc}", file=sys.stderr)
        return 2

    started = time.time()
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    timing = {"generated_at": stamp}
    try:
        if cfg["mode"] == "verify":
            body, line, code = _run_verify(cfg, timing)
        elif cfg["mode"] == "solve":
            body, line, code = _run_solve(cfg)
        else:
            text, line, code = _run_spectrum(cfg)
            _emit(cfg["out"] or "spectrum.csv", text)
            print(line)
            return code
    except ConfigError as exc:
        print(f"matym: config error: {exc}", file=sys.stderr)
        return 2
    except fd.SolverAbort as exc:
        print(f"matym: solver aborted: {exc}", file=sys.stderr)
        return 1

    timing["elapsed_seconds"] = time.time() - started
    document = {"report": body, "timing": timing}
    _emit(cfg["out"] or "report.json",
          json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
