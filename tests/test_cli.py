"""Front-end behavior: config handling, exit codes, report layout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matym.cli import (_DEFAULTS, MODES, ConfigError, build_parser, dense_matrix_bytes,
                        main, merge_config, validate_config)


def read_report(path):
    with open(path) as f:
        doc = json.load(f)
    assert set(doc) == {"report", "timing"}
    assert "generated_at" in doc["timing"]
    return doc


# -- config plumbing ---------------------------------------------------------

def test_unknown_mode_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"mode": "explode"}')
    assert main(["--config", str(cfg)]) == 2
    assert "mode" in capsys.readouterr().err


def test_malformed_json_names_line(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{\n  "mode": "verify",\n  oops\n}')
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 2


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    for field in ("tolerance", "initial_step", "fd_step"):
        cfg.write_text(json.dumps({field: 1e-8}))
        assert main(["--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("doc,field", [
    ('{"N": 1}', "N"),
    ('{"tol": 0}', "tol"),
    ('{"tol": "tight"}', "tol"),
    ('{"max_iter": 0}', "max_iter"),
    ('{"potential": [1, "x"]}', "potential"),
    ('{"method": "sgd"}', "method"),
    ('{"grade": 9}', "grade"),
    ('{"seed": -1}', "seed"),
    ('{"charge": 1.5}', "charge"),
    ('{"vary_left": "yes"}', "vary_left"),
    ('{"mode": "verify", "left": [[1]]}', "left"),
])
def test_invalid_values_exit_2(tmp_path, capsys, doc, field):
    cfg = tmp_path / "c.json"
    cfg.write_text(doc)
    assert main(["--config", str(cfg)]) == 2
    assert field in capsys.readouterr().err


def test_dense_matrix_estimate():
    def cfg(**fields):
        return dict(_DEFAULTS, **fields)
    # C(d, k) N^2 rows of complex entries; d = 8 at N=3, 15 at N=4
    assert dense_matrix_bytes(cfg(mode="spectrum", N=3)) == (70 * 9) ** 2 * 16
    assert dense_matrix_bytes(cfg(mode="spectrum", N=3, grade=1)) == (8 * 9) ** 2 * 16
    assert dense_matrix_bytes(cfg(mode="verify", N=4)) == 102_960 ** 2 * 16
    assert dense_matrix_bytes(cfg(mode="spectrum", N=4, grade=2)) == (105 * 16) ** 2 * 16
    # the real Jacobian over the connection and both sections
    assert dense_matrix_bytes(cfg(mode="solve", N=2)) == (2 * 5 * 4) ** 2 * 8
    # every N=3 run fits; N=4 over all grades needs 158 GiB and is refused
    for mode in MODES:
        validate_config(cfg(mode=mode, N=3))
    validate_config(cfg(mode="spectrum", N=4, grade=2))
    validate_config(cfg(mode="solve", N=4))
    for doc in (cfg(mode="spectrum", N=4), cfg(mode="verify", N=4),
                cfg(mode="spectrum", N=4, grade=7), cfg(mode="solve", N=9),
                cfg(mode="spectrum", N=10**6)):
        with pytest.raises(ConfigError, match="GiB") as exc:
            validate_config(doc)
        assert exc.value.field == "N"
    with pytest.raises(ConfigError, match="158 GiB"):
        validate_config(cfg(mode="spectrum", N=4))
    # a solve's residual tables D_1 and Delta_2 are C(d, 2) N^2 by d N^2:
    # 0.40 GiB at N=6, 1.94 GiB at N=7, where the Jacobian is 0.18 GiB
    validate_config(cfg(mode="solve", N=6))
    with pytest.raises(ConfigError, match="1.94 GiB") as exc:
        validate_config(cfg(mode="solve", N=7))
    assert exc.value.field == "N"


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "verify", "seed": 1}))
    merged = merge_config(build_parser().parse_args(["--config", str(cfg), "--seed", "9"]))
    assert merged["seed"] == 9 and merged["mode"] == "verify"


def test_potential_flag_parsing(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--mode", "solve", "--seed", "4", "--charge", "1",
                 "--potential", "0, 2.5", "--method", "gauss_newton",
                 "--tol", "1e-9", "--out", str(out)])
    assert code == 0
    assert read_report(out)["report"]["config"]["potential"] == [0.0, 2.5]


# -- verify mode --------------------------------------------------------------

def test_verify_report_shape(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["--mode", "verify", "--seed", "0", "--out", str(out)]) == 0
    doc = read_report(out)
    rep = doc["report"]
    assert rep["mode"] == "verify"
    assert rep["conventions_id"]
    passed = [c for c in rep["checks"] if c["status"] == "pass"]
    assert len(passed) >= 40
    assert rep["summary"]["failed"] == 0
    names = {c["name"] for c in rep["checks"]}
    assert len(names) == len(rep["checks"])  # names are unique
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout
    # per-check wall-clock seconds, outside the deterministic report
    seconds = doc["timing"]["checks"]
    assert set(seconds) == names
    assert all(s >= 0 for s in seconds.values())
    elapsed = doc["timing"]["elapsed_seconds"]
    assert abs(sum(seconds.values()) - elapsed) <= 0.05 * elapsed


def test_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--mode", "verify", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["--mode", "verify", "--seed", "3", "--out", str(out2)]) == 0
    a, b = read_report(out1), read_report(out2)
    dump = lambda d: json.dumps(d["report"], sort_keys=True).encode()
    assert dump(a) == dump(b)


# -- solve mode ----------------------------------------------------------------

def test_solve_pure_ym_seed42(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--mode", "solve", "--seed", "42", "--out", str(out)]) == 0
    rep = read_report(out)["report"]
    assert rep["solver"]["converged"] is True
    assert rep["curvature_norm"] <= 1e-8
    assert rep["solver"]["conventions_id"]
    A = rep["solution"]["connection"]["A"]
    assert np.asarray(A, dtype=float).shape == (3, 2, 2, 2)
    assert rep["solution"]["left"] is None


def test_solve_nonconvergence_exit_1_report_written(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--mode", "solve", "--seed", "3", "--charge", "1",
                 "--potential", "0,2", "--max-iter", "2", "--out", str(out)]) == 1
    rep = read_report(out)["report"]
    assert rep["solver"]["converged"] is False
    assert rep["solver"]["iterations"] == 2


def test_solve_method_gd_matches_default(tmp_path):
    # gd is another name for the Gauss-Newton loop
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--mode", "solve", "--seed", "42", "--tol", "1e-9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--method", "gd", "--out", str(out2)]) == 0
    a, b = read_report(out1)["report"], read_report(out2)["report"]
    assert a["solver"]["method"] == "gauss_newton"
    for key in ("solver", "solution"):
        assert json.dumps(a[key], sort_keys=True) == json.dumps(b[key], sort_keys=True)


def test_solve_coupled_sections_reported(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--mode", "solve", "--seed", "8", "--charge", "1",
                 "--potential", "0,2", "--method", "gauss_newton",
                 "--tol", "1e-9", "--out", str(out)])
    assert code == 0
    rep = read_report(out)["report"]
    assert np.asarray(rep["solution"]["left"], dtype=float).shape == (2, 2, 2)
    assert np.asarray(rep["solution"]["right"], dtype=float).shape == (2, 2, 2)
    assert set(rep["solver"]["residual_norms"]) == {"connection", "left", "right"}
    assert max(rep["solver"]["residual_norms"].values()) <= 1e-9


def test_solve_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--mode", "solve", "--seed", "7", "--charge", "2",
            "--potential", "0,1", "--method", "gauss_newton"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a, b = read_report(out1), read_report(out2)
    assert json.dumps(a["report"], sort_keys=True) == json.dumps(b["report"], sort_keys=True)


def test_solve_from_config_connection(tmp_path):
    # a flat connection given explicitly is already stationary
    from matym import DerivationCalculus, GaugeConnection
    calc = DerivationCalculus(2)
    p = np.array([[0.2, 1.1 - 0.3j], [1.1 + 0.3j, -0.4]])
    conn = GaugeConnection(calc.scalar_form(p).d())
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "mode": "solve",
        "connection": conn.to_payload(),
        "tol": 1e-9,
    }))
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)["report"]
    assert rep["solver"]["iterations"] == 0
    assert rep["curvature_norm"] < 1e-12


def test_solve_bad_connection_payload(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "solve", "connection": {"A": [[1]]}}))
    assert main(["--config", str(cfg)]) == 2
    assert "connection" in capsys.readouterr().err


def test_solve_oversized_connection_payload(tmp_path, capsys):
    # 3x3 coefficient matrices at N=2 are refused, not cut to 2x2 blocks
    from matym import DerivationCalculus, GaugeConnection
    calc3 = DerivationCalculus(3)
    payload = GaugeConnection(calc3.random_form(1, np.random.default_rng(0))).to_payload()
    payload["A"] = payload["A"][:3]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "solve", "connection": payload}))
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "connection" in err and "shape" in err


def test_solve_bad_section_shape(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "mode": "solve", "charge": 1,
        "left": [[[1.0, 0.0]]],
    }))
    assert main(["--config", str(cfg)]) == 2
    assert "left" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"vary_connection": False, "vary_left": False, "vary_right": False, "charge": 1},
    {"vary_connection": False, "charge": 0},
])
def test_solve_varying_nothing_exits_2(tmp_path, capsys, doc):
    cfg, out = tmp_path / "c.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"mode": "solve", **doc}))
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "matym: config error: vary_connection: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["solve", "spectrum"])
def test_unwritable_out_exits_2(tmp_path, capsys, mode):
    # a path in a missing directory, and a directory
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert main(["--mode", mode, "--seed", "42", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("matym: config error: out: ")
    assert not (tmp_path / "missing").exists()


# -- spectrum mode ----------------------------------------------------------------

def test_spectrum_grade0(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["--mode", "spectrum", "--grade", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "grade,index,eigenvalue"
    vals = sorted(float(line.split(",")[2]) for line in lines[1:])
    assert np.allclose(vals, [0, 2, 2, 2], atol=1e-10)


def _check_all_grades_csv(path, N):
    # every grade: 2^d N^2 rows, grade 0 = {0, N x d}, spec(k) = spec(d - k), PSD
    d = N * N - 1
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 ** d * N * N
    assert {int(line.split(",")[0]) for line in lines[1:]} == set(range(d + 1))
    spectra = {g: [] for g in range(d + 1)}
    for line in lines[1:]:
        g, _, val = line.split(",")
        spectra[int(g)].append(float(val))
    spectra = {g: np.sort(vals) for g, vals in spectra.items()}
    assert np.allclose(spectra[0], [0.0] + [float(N)] * d, atol=1e-9)
    for g in range(d + 1):
        assert np.allclose(spectra[g], spectra[d - g], atol=1e-9), g
        assert spectra[g].min() >= -1e-9, g


def test_spectrum_all_grades(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["--mode", "spectrum", "--out", str(out)]) == 0
    _check_all_grades_csv(out, 2)


def test_spectrum_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--mode", "spectrum", "--out", str(out1)]) == 0
    assert main(["--mode", "spectrum", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_n3(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--mode", "spectrum", "--N", "3", "--out", str(out1)]) == 0
    assert main(["--mode", "spectrum", "--N", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _check_all_grades_csv(out1, 3)


# -- start-up ------------------------------------------------------------------

# A fresh interpreter: this one has scipy loaded by the tests' own oracles.
_COLD_START = """
import json
import sys

import numpy as np

import matym
from matym import (DerivationCalculus, PolynomialPotential, cli, qriemann,
                   random_configuration, ymsm_action, ymsm_section_residuals)
from matym.fields import residual_blocks


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


out = {"solve": cli.main(["--mode", "solve", "--seed", "42", "--tol", "1e-9",
                          "--out", sys.argv[1]])}
rng = np.random.default_rng(0)
V = PolynomialPotential([0, 2])
residual_blocks(random_configuration(DerivationCalculus(3), rng, charge=1, potential=V))
xcfg = random_configuration(DerivationCalculus(2, exact=True), rng, charge=1, potential=V)
ymsm_action(xcfg)
ymsm_section_residuals(xcfg)
out["scipy_before_spectrum"] = scipy_modules()
out["spectrum"] = qriemann.spectrum(DerivationCalculus(2), 1).tolist()
out["linalg_after_spectrum"] = "scipy.linalg" in sys.modules
print(json.dumps(out))
"""


def test_cold_start_loads_scipy_only_for_a_spectrum(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path / "r.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["solve"] == 0
    assert out["scipy_before_spectrum"] == []
    assert out["linalg_after_spectrum"] is True
    want = [1.0] * 4 + [2.0] * 3 + [4.0] * 5
    assert np.allclose(np.sort(out["spectrum"]), want, rtol=0, atol=1e-10)
