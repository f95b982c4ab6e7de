"""Every registered verify check, run on its own at N=2 and N=3, seed 0.

The registry in matym.verify states each identity once; this module is
how the suite runs it, so a failure names the check and the N
(test_check[3-laplacian_spectra]). The N=3 cases are marked slow.
"""

from types import SimpleNamespace

import pytest

from matym import qriemann as qr
from matym import verify
from matym.exact import GaussianRational


@pytest.fixture(scope="module")
def ctx(request):
    return verify._Ctx(seed=0, N=request.param)


@pytest.mark.parametrize("ctx, check", [
    pytest.param(N, fn, id=f"{N}-{name}", marks=[pytest.mark.slow] if N == 3 else [])
    for N in (2, 3) for name, _, fn in verify._CHECKS
], indirect=["ctx"])
def test_check(ctx, check):
    ok, detail = check(ctx)
    assert ok, detail


def test_registry_names_56_checks_once():
    names = [name for name, _, _ in verify._CHECKS]
    assert len(names) == len(set(names)) == 56


# Every sweep check's bound as a literal (ADJOINT_TOL and IDENTITY_TOL by
# value). A bound that moves changes what verify certifies, so it must show
# here rather than pass silently.
SWEEP_BOUNDS = {
    "generator_normalization": 1e-13,
    "differential_squares_to_zero": 1e-12,
    "graded_leibniz_rule": 1e-10,
    "involution_graded_antimultiplicative": 1e-10,
    "differential_commutes_with_involution": 1e-11,
    "wedge_associative_and_central_coefficients": 1e-12,
    "hodge_defining_property": 1e-11,
    "hodge_double_application_sign": 1e-12,
    "hodge_module_rules": 1e-11,
    "hodge_pairing_shift": 1e-11,
    "right_structures_by_involution": 1e-12,
    "codifferential_adjoint_to_differential": 1e-10,
    "codifferential_squares_to_zero": 1e-12,
    "codifferential_module_identities": 1e-10,
    "codifferential_closed_form_grade1": 1e-12,
    "laplacian_grade0_closed_form": 1e-12,
    "cov_derivative_matches_total_space_oracle": 1e-11,
    "cov_derivative_charge0_connection_free": 1e-13,
    "cov_codifferential_adjointness": 1e-10,
    "cov_codifferential_decomposition_route": 1e-11,
    "upsilon_roundtrip": 1e-13,
    "displacement_difference_identity": 1e-12,
    "worked_example_flat_sections": 1e-10,
    "connection_equation_operator_route": 1e-10,
    "variational_consistency_connection": 1e-5,
    "variational_consistency_left_section": 1e-5,
    "variational_consistency_right_section": 1e-5,
    "charge_zero_reduction": 1e-11,
    "continuity_equation": 1e-10,
    "flat_reconstruction": 1e-9,
    "exact_numeric_cross_check": 1e-12,
}


def test_sweep_bounds_are_pinned():
    bounds = {name: fn.bound for name, _, fn in verify._CHECKS if hasattr(fn, "bound")}
    assert bounds == SWEEP_BOUNDS


def test_sweep_fails_when_empty_or_nan(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", [])
    draws = {"empty": (), "nan": (0.0, float("nan"), 0.5), "small": (1e-3, 2e-3)}
    for name, devs in draws.items():
        verify._sweep(name, 1e-2, salt=7, label="max |x|", suffix=" over 2")(
            lambda ctx, rng, devs=devs: iter(devs))
    ctx = SimpleNamespace(rng=lambda salt: salt)
    results = {name: fn(ctx) for name, _, fn in verify._CHECKS}
    assert results == {"empty": (False, "max |x|: no draws"),
                       "nan": (False, "max |x| nan over 2"),
                       "small": (True, "max |x| 2.00e-03 over 2")}


# The plain checks that keep an inline maximum (they return early failures)
# must fail on a NaN deviation too: each case poisons the quantity the
# maximum is taken over and leaves the early-failure probes finite.
NAN_POISONS = {
    "boundaryless_integral": ("integral", lambda args, out: not isinstance(out, GaussianRational)),
    "metric_module_and_positivity": ("metric", lambda args, out: args[0] is not args[1]),
    "codifferential_closed_form_grade3": ("codifferential", lambda args, out: True),
}


@pytest.mark.parametrize("name", NAN_POISONS)
def test_plain_check_fails_on_nan(monkeypatch, name):
    attr, poison = NAN_POISONS[name]
    original = getattr(qr, attr)

    def poisoned(*args):
        out = original(*args)
        return float("nan") * out if poison(args, out) else out

    monkeypatch.setattr(qr, attr, poisoned)
    check = {n: fn for n, _, fn in verify._CHECKS}[name]
    ok, detail = check(verify._Ctx(seed=0, N=2))
    assert not ok and detail.endswith(" nan"), detail
