"""Tests of the benchmark itself: tracing leaves matym as it found it and
changes no output, the solver counters add up, and every output check
rejects a wrong result.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import tracer as tracing
import workloads as wl
from matym import fields as fd
from matym import qbundle as qb
from matym.exact import GaussianRational
from matym.matforms import DerivationCalculus


def _bindings():
    """Every attribute a Tracer may replace, with its current value."""
    found = {}
    for module_name, class_name, attrs, _, _ in tracing.TARGETS:
        module = sys.modules[module_name]
        for attr in attrs:
            if class_name is not None:
                owner = getattr(module, class_name)
                found[(owner, attr)] = owner.__dict__[attr]
                continue
            original = getattr(module, attr)
            for name, mod in list(sys.modules.items()):
                if name == "matym" or name.startswith("matym."):
                    for key, value in vars(mod).items():
                        if value is original:
                            found[(mod, key)] = value
    return found


def _spectrum_n2_op(tmp_path):
    def check(text):
        return text, wl.check_spectrum(wl.parse_spectrum_csv(text), 2)
    return wl.cli_op("spectrum_n2", ["--mode", "spectrum", "--N", "2"],
                     tmp_path / "spectrum_n2.csv", check)


def _exact_round(tmp_path):
    return wl.exact_ops(tmp_path, seed=5)[:5]


def test_tracer_restores_every_attribute(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not value for (owner, attr), value in before.items())
        passes = run.Passes()
        passes.run(_exact_round(tmp_path) + [_spectrum_n2_op(tmp_path)], 0, 1, tracer)
    finally:
        tracer.restore()
    assert passes.failed == 0
    assert tracer.calls["exact"] > 0 and tracer.calls["qriemann.eigensolve"] == 4
    assert all(getattr(owner, attr) is value for (owner, attr), value in before.items())


def test_traced_and_untraced_passes_agree(tmp_path):
    ops = _exact_round(tmp_path) + [_spectrum_n2_op(tmp_path)]
    passes = run.Passes()
    passes.run(ops, 0, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes.run(ops, 0, 1, tracer)
    finally:
        tracer.restore()
    assert passes.failed == 0, passes.problems
    assert len(passes.walls) == 2
    spans = [s for s in tracer.spans if s is not None]
    assert spans and all(s[5] == 1 for s in spans)


def test_changed_output_between_passes_fails():
    outputs = iter(["a", "b"])
    op = wl.Op("flaky", lambda: next(outputs), lambda out: (out, []))
    passes = run.Passes()
    passes.run([op], 0, 2)
    assert passes.failed == 1 and "differs from the first pass" in passes.problems[0]


def test_line_search_trials_on_hand_checked_solves():
    calc = DerivationCalculus(2)
    conn = qb.GaugeConnection(calc.random_form(1, np.random.default_rng(4)))
    cfg0 = fd.FieldConfiguration(conn)
    # pure Yang-Mills at N=2: 3 coefficient matrices of 2x2 complex entries,
    # so m = 24 real coordinates and 2m = 48 evaluations per Jacobian
    options = fd.SolverOptions(tol=1e-10, method="gauss_newton", max_iter=1)
    assert tracing.solver_coordinates(cfg0, options) == 24
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # already within tolerance: the initial and the report evaluation only
        fd.solve_stationary(cfg0, fd.SolverOptions(tol=1e6, method="gauss_newton"))
        assert tracer.counts["fields.residual_evals"] == 2
        assert tracer.counts["fields.line_search_trials"] == 0
        # one Gauss-Newton iteration whose full step is accepted at once:
        # 1 + 1 * 48 + 1 + 1 = 51 evaluations, one of them a trial
        _, report = fd.solve_stationary(cfg0, options)
    finally:
        tracer.restore()
    assert report.iterations == 1
    assert tracer.counts["fields.iterations"] == 1
    assert tracer.counts["fields.residual_evals"] == 2 + 51
    assert tracer.counts["fields.line_search_trials"] == 1
    assert tracer.calls["fields.solve"] == 2


# -- each output check rejects a wrong result ---------------------------------

def _solve_report(action=0.0, residual=1e-12, converged=True, curvature=1e-12):
    return {
        "solver": {"converged": converged, "iterations": 3, "notes": "",
                   "residual_norms": {"connection": residual, "left": residual / 2},
                   "actions": {"total": [action, 0.0]}},
        "curvature_norm": curvature,
    }


def test_solve_check_rejects_wrong_reports():
    assert wl.check_solve_report(_solve_report(), 1e-9, action=0j, flat=True) == []
    assert wl.check_solve_report(_solve_report(action=1e-5), 1e-9, action=0j)
    assert wl.check_solve_report(_solve_report(residual=2e-9), 1e-9)
    assert wl.check_solve_report(_solve_report(residual=float("nan")), 1e-9)
    assert wl.check_solve_report(_solve_report(converged=False), 1e-9)
    assert wl.check_solve_report(_solve_report(curvature=1e-6), 1e-9, flat=True)


def _valid_spectra():
    rng = np.random.default_rng(0)
    spectra = {0: [0.0] + [3.0] * 8}
    for k in range(1, 5):
        spectra[k] = sorted(rng.uniform(0.5, 9.0, 9 * 9 * (k + 1)).tolist())
    for k in range(5, 9):
        spectra[k] = list(spectra[8 - k])
    return spectra


def test_spectrum_check_rejects_perturbed_eigenvalues():
    spectra = _valid_spectra()
    assert wl.check_spectrum(spectra, 3) == []
    for grade, index, delta in ((0, 4, 1e-6), (2, 7, 1e-6), (8, 0, -1e-6)):
        wrong = copy.deepcopy(spectra)
        wrong[grade][index] += delta
        assert wl.check_spectrum(wrong, 3), (grade, index)
    negative = copy.deepcopy(spectra)
    negative[3][0] = negative[5][0] = -1e-6
    assert wl.check_spectrum(negative, 3)
    missing = copy.deepcopy(spectra)
    del missing[8]
    assert wl.check_spectrum(missing, 3)


def test_verify_check_rejects_a_failed_check():
    report = {"ok": True, "summary": {"failed": 0},
              "checks": [{"name": "dd_zero", "status": "pass"}]}
    assert wl.check_verify_report(report) == []
    report = {"ok": False, "summary": {"failed": 1},
              "checks": [{"name": "dd_zero", "status": "fail"}]}
    assert wl.check_verify_report(report)


def test_exact_checks_reject_wrong_results(tmp_path):
    for op in _exact_round(tmp_path):
        result = op.run()
        assert op.check(result)[1] == [], op.name
    dd, codiff, lap, action, residuals = _exact_round(tmp_path)
    w = dd.run()[0]
    nonzero = w.calc.scalar_form(w.calc.identity())
    assert dd.check((nonzero, w))[1]
    a, b = codiff.run()
    assert codiff.check((a, b + GaussianRational(1)))[1]
    lhs, rhs = lap.run()
    assert lap.check((lhs, rhs + nonzero))[1]
    s0, s1 = action.run()
    assert action.check((s0, s1 * wl.PHASE_LEFT))[1]
    conn, conn_moved, left, right, left_moved, right_moved = residuals.run()
    assert residuals.check((conn, conn_moved, left, right, right_moved, left_moved))[1]


def test_cli_op_rejects_missing_output_and_bad_exit_code(tmp_path):
    out = tmp_path / "report.json"
    op = wl.cli_op("solve", ["--mode", "solve", "--tol", "-1"], out, lambda t: (t, []))
    assert op.check(op.run())[1]  # config error: exit 2, nothing written
    out.write_text(json.dumps({"report": {}}))
    assert op.check(1)[1] == ["exit code 1"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    build, _ = wl.WORKLOADS[name]
    configs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        build(tmp_path / sub, 7)
        configs.append(sorted(p.read_text() for p in (tmp_path / sub).glob("*.config.json")))
    assert configs[0] == configs[1]


def test_benchmark_json_lists_the_metrics_a_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    setup = {"import_s": 0.1, "calculus_s": 0.1, "total_s": 0.2}
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert listed == {k: u for k, (_, u) in run.end_to_end_metrics([1.0], setup).items()}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = run.per_layer_metrics(tracing.Tracer(), setup, [1.0], [1.0])
    assert listed == {k: u for k, (_, u) in printed.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def test_reference_samples_are_left_out_of_operation_time():
    # time.sleep keeps its deadline across the signal handler, so the op
    # spans 1.3 s of which the samples took paused_s
    op = wl.Op("sleep", lambda: time.sleep(1.3), lambda _: ("", []))
    passes = run.Passes()
    with passes.clock:
        passes.run([op], 0, 1)
    assert len(passes.samples[0]) >= 2
    assert passes.clock.paused_s > 0.05
    assert abs(passes.walls[0] + passes.clock.paused_s - 1.3) < 0.02
    assert passes.ref_walls()[0] == passes.walls[0] / statistics.fmean(passes.samples[0])
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
