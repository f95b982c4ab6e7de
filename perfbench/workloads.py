"""The benchmark's workloads: inputs drawn from a seed, the timed
operations, and the checks on their outputs.

A workload is a list of `Op`s. `Op.run` is the timed call into matym;
`Op.check` turns its result into the output body (compared byte for byte
between passes) and a list of problems (empty when the output is right).
Every call into matym goes through a module attribute looked up at call
time (`cli.main`, `fd.ymsm_action`, ...), so the traced run sees it.
README.md next to this file says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from matym import cli
from matym import fields as fd
from matym import qbundle as qb
from matym import qriemann as qr
from matym.exact import GaussianRational
from matym.matforms import DerivationCalculus

# Perturbation size and solver options of verify's
# solver_recovers_flat_section_triplet check.
TRIPLET_SCALE = 0.05
TRIPLET_TOL = 1e-9
TRIPLET_MAX_ITER = 150
ACTION_TOL = 1e-6
# Options of verify's solver_ym_reaches_flat check.
YM_TOL = 1e-10
YM_MAX_ITER = 200
FLAT_TOL = 1e-8
SPECTRUM_TOL = 1e-9
EXACT_ROUNDS = 12
# Unit-modulus Gaussian rationals used by verify's exact phase check.
PHASE_LEFT = GaussianRational("3/5", "4/5")
PHASE_RIGHT = GaussianRational("-4/5", "3/5")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, list[str]]]


# -- output checks (pure, so the tests can feed them wrong results) ---------

def check_solve_report(report, tol, action=None, flat=False):
    """Problems with a solve report: not converged, a residual norm above
    `tol`, total action off `action`, or (`flat`) curvature above FLAT_TOL."""
    solver = report["solver"]
    problems = []
    if not solver["converged"]:
        problems.append(f"did not converge after {solver['iterations']} "
                        f"iterations ({solver['notes']})")
    worst = max(solver["residual_norms"].values())
    if not worst <= tol:
        problems.append(f"residual norm {worst:.3e} above tol {tol:.1e}")
    if action is not None:
        gap = abs(complex(*solver["actions"]["total"]) - action)
        if not gap < ACTION_TOL:
            problems.append(f"action gap {gap:.3e} from the reference triplet")
    if flat and not report["curvature_norm"] <= FLAT_TOL:
        problems.append(f"curvature norm {report['curvature_norm']:.3e} above {FLAT_TOL}")
    return problems


def check_verify_report(report):
    summary = report["summary"]
    if summary["failed"] or not report["ok"]:
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        return [f"{summary['failed']} verify checks failed: {failing}"]
    return []


def parse_spectrum_csv(text):
    """{grade: eigenvalues in file order} from the spectrum CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != "grade,index,eigenvalue":
        raise ValueError("spectrum CSV lacks its header")
    spectra = {}
    for line in lines[1:]:
        grade, _, value = line.split(",")
        spectra.setdefault(int(grade), []).append(float(value))
    return spectra


def check_spectrum(spectra, N):
    """Grade 0 is {0} plus N with multiplicity N^2 - 1 ({0, 3 x 8} at N=3),
    spec(k) = spec(d - k), and no eigenvalue is negative."""
    d = N * N - 1
    problems = []
    if sorted(spectra) != list(range(d + 1)):
        return [f"grades {sorted(spectra)} instead of 0..{d}"]
    expected0 = np.array([0.0] + [float(N)] * d)
    got0 = np.sort(spectra[0])
    if got0.shape != expected0.shape or np.max(np.abs(got0 - expected0)) > SPECTRUM_TOL:
        problems.append(f"grade-0 spectrum {got0.tolist()} is not {{0, {N} x {d}}}")
    for k in range(d // 2 + 1):
        a, b = np.sort(spectra[k]), np.sort(spectra[d - k])
        if a.shape != b.shape or np.max(np.abs(a - b)) > SPECTRUM_TOL:
            problems.append(f"spec({k}) differs from spec({d - k})")
    low = min(min(v) for v in spectra.values())
    if low < -SPECTRUM_TOL:
        problems.append(f"negative eigenvalue {low:.3e}")
    return problems


# -- CLI operations ----------------------------------------------------------

def _call_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _take_output(path):
    """Read and remove what the CLI wrote, so a later failing call cannot
    pass off a stale file as its own."""
    path = Path(path)
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def cli_op(name, argv, out, body_and_problems):
    """Run `matym <argv> --out <out>`; check the exit code and the file."""
    argv = [*argv, "--out", str(out)]

    def check(code):
        text = _take_output(out)
        if text is None:
            return "", [f"exit code {code}, no output written"]
        body, problems = body_and_problems(text)
        if code != 0:
            problems = [f"exit code {code}", *problems]
        return body, problems

    return Op(name, lambda: _call_cli(argv), check)


def _report_checker(check_report):
    def check(text):
        report = json.loads(text)["report"]
        return json.dumps(report, sort_keys=True), check_report(report)
    return check


def _write_config(workdir, name, doc):
    path = Path(workdir) / f"{name}.config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _matrix_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def reference_triplet(calc):
    """Zero connection with both sections at a = S1 + S2 + S3, V = 2q."""
    S = calc.generators
    a = S[0] + S[1] + S[2]
    V = fd.PolynomialPotential([0, 2])
    return fd.FieldConfiguration(
        qb.GaugeConnection.zero(calc),
        qb.ChargedSection(calc, 1, "left", a),
        qb.ChargedSection(calc, -1, "right", a), V)


def triplet_op(calc, workdir, seed, direction_seed):
    """verify's triplet start for `direction_seed` at scale 0.05, with unit
    phases drawn from `seed` on the sections. The action and the solver's
    path are invariant under those phases, so the work does not depend on
    `seed` while the input does."""
    ref = reference_triplet(calc)
    action = complex(fd.ymsm_action(ref))
    a = ref.left.p
    rng = np.random.default_rng([direction_seed, 61])  # verify's generator
    dA = calc.random_form(1, rng)
    du, dv = calc.random_matrix(rng), calc.random_matrix(rng)
    u, v = np.exp(1j * np.random.default_rng([seed, 1]).uniform(0, 2 * np.pi, 2))
    s = TRIPLET_SCALE
    name = f"triplet_verify_seed{direction_seed}"
    config = _write_config(workdir, name, {
        "mode": "solve", "N": 2, "charge": 1, "potential": [0, 2],
        "connection": qb.GaugeConnection(s * dA).to_payload(),
        "left": _matrix_json(u * (a + s * du)),
        "right": _matrix_json(v * (a + s * dv)),
        "tol": TRIPLET_TOL, "method": "gauss_newton", "max_iter": TRIPLET_MAX_ITER,
    })
    return cli_op(name, ["--config", str(config)], Path(workdir) / f"{name}.json",
                  _report_checker(lambda r: check_solve_report(r, TRIPLET_TOL, action=action)))


def solve_ops(workdir, seed):
    workdir = Path(workdir)
    calc2, calc3 = DerivationCalculus(2), DerivationCalculus(3)
    # README's two examples, exactly as documented there.
    readme_gd = ["--mode", "solve", "--seed", "42", "--tol", "1e-9"]
    readme_gn = ["--mode", "solve", "--seed", "8", "--charge", "1",
                 "--potential", "0,2", "--method", "gauss_newton"]
    rng = np.random.default_rng([seed, 2])
    ym3 = _write_config(workdir, "ym_n3", {
        "mode": "solve", "N": 3,
        "connection": qb.GaugeConnection(calc3.random_form(1, rng)).to_payload(),
        "tol": YM_TOL, "method": "gauss_newton", "max_iter": YM_MAX_ITER,
    })
    return [
        cli_op("readme_gd", readme_gd, workdir / "readme_gd.json",
               _report_checker(lambda r: check_solve_report(r, 1e-9, flat=True))),
        cli_op("readme_gauss_newton", readme_gn, workdir / "readme_gn.json",
               _report_checker(lambda r: check_solve_report(r, 1e-8))),
        triplet_op(calc2, workdir, seed, direction_seed=0),
        cli_op("ym_n3", ["--config", str(ym3)], workdir / "ym_n3.json",
               _report_checker(lambda r: check_solve_report(r, YM_TOL, flat=True))),
    ]


def solve_stagnation_ops(workdir, seed):
    # verify's seed-3 direction: the Gauss-Newton solve stagnates at the
    # parent commit, so every operation of this workload fails there.
    return [triplet_op(DerivationCalculus(2), workdir, seed, direction_seed=3)]


def spectrum_ops(workdir, seed):
    def check(text):
        return text, check_spectrum(parse_spectrum_csv(text), 3)
    return [cli_op("spectrum_n3", ["--mode", "spectrum", "--N", "3"],
                   Path(workdir) / "spectrum_n3.csv", check)]


def verify_ops(workdir, seed):
    return [cli_op("verify_n2", ["--mode", "verify", "--seed", "0"],
                   Path(workdir) / "verify_n2.json", _report_checker(check_verify_report))]


# -- exact Gaussian-rational calculus ------------------------------------------

def _text(x):
    """Canonical text of exact results: forms, sections, matrices, scalars."""
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_text(v) for v in x) + "]"
    if isinstance(x, qb.QvbForm):
        x = x.form
    if hasattr(x, "terms"):
        return "{" + ",".join(f"{I}:{_text(p)}" for I, p in sorted(x.terms.items())) + "}"
    if isinstance(x, np.ndarray):
        return _text(x.tolist())
    return str(x)


def _exact_op(name, r, compute, holds):
    """`compute` is timed; `holds(result)` is the exact identity checked."""
    def check(result):
        return _text(result), [] if holds(result) else [f"identity fails in round {r}"]
    return Op(name, compute, check)


def exact_ops(workdir, seed):
    xc = DerivationCalculus(2, exact=True)
    ops = []
    for r in range(EXACT_ROUNDS):
        rng = np.random.default_rng([seed, 3, r])
        w0, w1, w2 = (xc.random_form(k, rng) for k in range(3))
        cfg = fd.FieldConfiguration(
            qb.GaugeConnection(xc.random_form(1, rng)),
            qb.ChargedSection(xc, 1, "left", xc.random_matrix(rng)),
            qb.ChargedSection(xc, -1, "right", xc.random_matrix(rng)),
            fd.PolynomialPotential([1, 2]))
        moved = cfg.replace(left_p=PHASE_LEFT * cfg.left.p,
                            right_p=PHASE_RIGHT * cfg.right.p)
        ops += [
            _exact_op("dd_zero", r,
                      lambda w0=w0, w1=w1: (w0.d().d(), w1.d().d()),
                      lambda res: not res[0].terms and not res[1].terms),
            _exact_op("codifferential_2form", r,
                      lambda w1=w1, w2=w2: (qr.hodge_inner(w1.d(), w2),
                                            qr.hodge_inner(w1, qr.codifferential(w2))),
                      lambda res: res[0] == res[1]),
            _exact_op("laplacian_mixed", r,
                      lambda w0=w0, w1=w1: (qr.laplacian(w0 + w1),
                                            qr.laplacian(w0) + qr.laplacian(w1)),
                      lambda res: res[0] == res[1] and set(res[0].grades()) <= {0, 1}),
            _exact_op("action_phase_invariance", r,
                      lambda cfg=cfg, moved=moved: (fd.ymsm_action(cfg), fd.ymsm_action(moved)),
                      lambda res: res[0] == res[1]),
            _exact_op("residual_phase_covariance", r,
                      lambda cfg=cfg, moved=moved: (
                          fd.ymsm_connection_residual(cfg), fd.ymsm_connection_residual(moved),
                          *fd.ymsm_section_residuals(cfg), *fd.ymsm_section_residuals(moved)),
                      _residuals_covariant),
        ]
    return ops


def _residuals_covariant(res):
    """The connection equation is phase invariant; each section equation
    picks up its section's phase."""
    conn, conn_moved, left, right, left_moved, right_moved = res
    return (conn == conn_moved
            and left_moved.form == left.form * PHASE_LEFT
            and right_moved.form == right.form * PHASE_RIGHT)


# name -> (build(workdir, seed) -> [Op], calculi the workload constructs
# as "N" or "Nx" for exact mode, listed for the set-up measurement)
WORKLOADS = {
    "solve": (solve_ops, ("2", "3")),
    "spectrum_n3": (spectrum_ops, ("3",)),
    "exact_n2": (exact_ops, ("2x",)),
    "verify_n2": (verify_ops, ("2", "2x")),
    "solve_stagnation": (solve_stagnation_ops, ("2",)),
}
