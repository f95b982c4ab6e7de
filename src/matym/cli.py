"""Command-line front end: verify, solve, spectrum.

One JSON config document describes a run; command-line flags override
individual fields. Reports are deterministic for a fixed config and
seed, with wall-clock data quarantined in a separate top-level field so
files stay comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
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

# Every config field: its default and the modes that read it. A mode
# refuses a field it does not read unless the field keeps its default.
_SOLVE = ("solve",)
_FIELDS = {
    "mode": ("verify", MODES),
    "N": (2, MODES),
    "seed": (0, ("verify", "solve")),
    "charge": (0, _SOLVE),
    "potential": ([0.0], _SOLVE),
    **{f.name: (f.default, _SOLVE) for f in dataclasses.fields(fd.SolverOptions)},
    "grade": (None, ("spectrum",)),
    "out": (None, MODES),
    "strict_conventions": (False, ("verify",)),
    "connection": (None, _SOLVE),
    "left": (None, _SOLVE),
    "right": (None, _SOLVE),
}
_DEFAULTS = {key: default for key, (default, _) in _FIELDS.items()}


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
    if not coeffs:
        raise ConfigError("potential", "no coefficients given")
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
    if cfg["out"] == "":
        raise ConfigError("out", "empty path")
    for key in ("strict_conventions", "vary_connection", "vary_left", "vary_right"):
        _require_bool(cfg, key)
    for key, (default, modes) in _FIELDS.items():
        if cfg["mode"] not in modes and cfg[key] != default:
            raise ConfigError(key, f"not read in {cfg['mode']} mode")
    sections = _has_sections(cfg)
    if not cfg["vary_connection"] and not (
            sections and (cfg["vary_left"] or cfg["vary_right"])):
        raise ConfigError("vary_connection", "no field is varied (" + (
            "vary_left and vary_right are false too)" if sections else
            "with charge 0 and no section the connection is the only field)"))
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
        k = d // 2 if cfg["grade"] is None else cfg["grade"]
        rows, entry = math.comb(d, k) * N * N, 16
    return rows * rows * entry


def _decode(field, parse, *args):
    """Run a payload reader, reporting any failure as a ConfigError."""
    try:
        return parse(*args)
    except Exception as exc:
        raise ConfigError(field, str(exc)) from None


def _has_sections(cfg):
    return cfg["charge"] != 0 or cfg["left"] is not None or cfg["right"] is not None


def _build_solve_configuration(cfg, calc, rng):
    if cfg["connection"] is not None:
        if not isinstance(cfg["connection"], dict):
            raise ConfigError("connection", "expected a connection payload object")
        conn = _decode("connection", qb.GaugeConnection.from_payload, calc, cfg["connection"])
    else:
        conn = qb.GaugeConnection(calc.random_form(1, rng))
    n = cfg["charge"]
    if not _has_sections(cfg):
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
    options = fd.SolverOptions(**{f.name: cfg[f.name]
                                  for f in dataclasses.fields(fd.SolverOptions)})
    # solve first: a non-finite start aborts there, before its actions are evaluated
    solved, report = fd.solve_stationary(cfg0, options)
    initial_actions = fd.action_summary(cfg0)
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
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError("out", str(exc)) from None


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
    except (OSError, UnicodeDecodeError) as exc:
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
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        started = time.time()
        timing = {"generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        if cfg["mode"] == "spectrum":
            text, line, code = _run_spectrum(cfg)
        else:
            body, line, code = (_run_verify(cfg, timing) if cfg["mode"] == "verify"
                                else _run_solve(cfg))
            timing["elapsed_seconds"] = time.time() - started
            text = json.dumps({"report": body, "timing": timing}, indent=2, sort_keys=True) + "\n"
        _emit(cfg["out"] or ("spectrum.csv" if cfg["mode"] == "spectrum" else "report.json"), text)
    except ConfigError as exc:
        print(f"matym: config error: {exc}", file=sys.stderr)
        return 2
    except fd.SolverAbort as exc:
        print(f"matym: solver aborted: {exc}", file=sys.stderr)
        return 1
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
