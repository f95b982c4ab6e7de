"""Bundle layer: connections, charged sections, covariant calculus.

The production covariant derivative acts directly on base forms; the
reference evaluator in the package rebuilds the same operator on the
total-space algebra, where the sign content is forced by the product
rule. Tests here lean on that second route plus adjointness, which
together pin every sign choice.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matym import (
    ChargedSection,
    ChargeMismatchError,
    ConnectionDisplacement,
    DerivationCalculus,
    DiffForm,
    GaugeConnection,
    GaussianRational,
    cov_codifferential,
    cov_derivative,
    cov_laplacian,
    displacement_K,
    hodge,
    hodge_inv,
    qvb_inner,
    section_inner,
    upsilon,
    upsilon_inv,
)
from matym.qbundle import QvbForm, reference_cov_derivative, reference_curvature

CHARGES = (-2, -1, 0, 1, 2)


def rand_conn(calc, rng, scale=1.0):
    return GaugeConnection(calc.random_form(1, rng, scale))


# -- GaugeConnection ---------------------------------------------------------

def test_connection_requires_pure_grade1(calc, rng):
    with pytest.raises(ValueError):
        GaugeConnection(calc.random_form(0, rng))
    with pytest.raises(ValueError):
        GaugeConnection(calc.random_form(1, rng) + calc.random_form(2, rng))
    assert GaugeConnection.zero(calc).A.is_zero()


def test_curvature_and_hat(calc, rng):
    conn = rand_conn(calc, rng)
    assert conn.curvature().allclose(conn.A.d())
    hat = conn.hat()
    assert hat.A.allclose(-1 * conn.A.star())
    assert hat.hat().A.allclose(conn.A)
    # curvature of the dual is the conjugated curvature, up to sign
    assert hat.curvature().allclose(-1 * conn.curvature().star(), 1e-13)


def test_reality_predicate(calc, rng):
    p = calc.random_matrix(rng)
    real_coeff = 1j * (p + dagger_np(p))
    conn = GaugeConnection(DiffForm(calc, {(2,): real_coeff}))
    assert conn.hat().A.allclose(conn.A)


def dagger_np(p):
    return np.asarray(p).conj().T


def test_connection_affine_ops(calc, rng):
    conn = rand_conn(calc, rng)
    lam = ConnectionDisplacement(calc.random_form(1, rng))
    assert ((conn + lam) - lam).A.allclose(conn.A)
    assert (conn + lam).A.allclose(conn.A + lam.form)
    two = lam + lam
    assert two.form.allclose(2 * lam.form)


def test_displacement_real_decomposition(calc, rng):
    lam = ConnectionDisplacement(calc.random_form(1, rng))
    lam_r, lam_i = lam.real_decomposition()
    # both parts are real displacements: conjugation-dual equals itself
    assert (lam_r.form.star() + lam_r.form).frobenius() < 1e-13
    assert (lam_i.form.star() + lam_i.form).frobenius() < 1e-13
    assert (lam_r.form + 1j * lam_i.form).allclose(lam.form, 1e-13)


def test_connection_payload_roundtrip(calc, rng):
    conn = rand_conn(calc, rng)
    back = GaugeConnection.from_payload(calc, conn.to_payload())
    assert back.A.allclose(conn.A, 1e-15)
    extra = dict(conn.to_payload())
    extra["charge_tests"] = [0, 1]
    assert GaugeConnection.from_payload(calc, extra).A.allclose(conn.A, 1e-15)


def test_connection_payload_roundtrip_exact(xcalc):
    S = xcalc.generators
    third = GaussianRational(Fraction(1, 3), Fraction(-2, 7))
    conn = GaugeConnection(DiffForm(xcalc, {(1,): S[1], (2,): S[0] + S[2],
                                            (3,): third * S[2]}))
    payload = conn.to_payload()
    assert payload["A"][2][0][0] == ["1/6", "-1/7"]  # rational strings, not floats
    back = GaugeConnection.from_payload(xcalc, json.loads(json.dumps(payload)))
    assert back.A == conn.A


# -- sections and qvb forms --------------------------------------------------

def test_charged_section_and_inner(calc, rng):
    p, q = calc.random_matrix(rng), calc.random_matrix(rng)
    t1 = ChargedSection(calc, 2, "left", p)
    t2 = ChargedSection(calc, 2, "left", q)
    assert np.allclose(section_inner(t1, t2), p @ dagger_np(q))
    r1 = ChargedSection(calc, 2, "right", p)
    r2 = ChargedSection(calc, 2, "right", q)
    assert np.allclose(section_inner(r1, r2), dagger_np(p) @ q)
    with pytest.raises(ChargeMismatchError):
        section_inner(t1, ChargedSection(calc, 1, "left", q))
    with pytest.raises(ChargeMismatchError):
        section_inner(t1, r1)


def test_qvb_arithmetic_guards(calc, rng):
    a = QvbForm(1, "left", calc.random_form(1, rng))
    b = QvbForm(2, "left", calc.random_form(1, rng))
    c = QvbForm(1, "right", calc.random_form(1, rng))
    with pytest.raises(ChargeMismatchError):
        a + b
    with pytest.raises(ChargeMismatchError):
        a - c
    with pytest.raises(ChargeMismatchError):
        qvb_inner(a, b)
    d = a + QvbForm(1, "left", calc.random_form(1, rng))
    assert d.charge == 1 and d.side == "left"


def test_qvb_inner_reduces_to_hodge_inner(calc, rng):
    from matym import hodge_inner
    for side in ("left", "right"):
        f1, f2 = calc.random_form(2, rng), calc.random_form(2, rng)
        a, b = QvbForm(0, side, f1), QvbForm(0, side, f2)
        assert abs(qvb_inner(a, b) - hodge_inner(f1, f2, side)) < 1e-13


def test_upsilon_roundtrip_and_unit(calc, rng):
    for side in ("left", "right"):
        T = ChargedSection(calc, -2, side, calc.random_matrix(rng))
        mu = calc.random_form(2, rng)
        psi = upsilon_inv(mu, T)
        form, unit = upsilon(psi)
        assert np.allclose(unit.p, np.eye(2))
        assert unit.charge == -2 and unit.side == side
        assert upsilon_inv(form, unit).form.allclose(psi.form, 1e-13)


# -- covariant derivative ----------------------------------------------------

def test_cov_derivative_against_reference(calc, calc3, rng):
    for c in (calc, calc3):
        for n in CHARGES:
            for g in range(0, 3):
                for side in ("left", "right"):
                    conn = rand_conn(c, rng)
                    psi = QvbForm(n, side, c.random_form(g, rng))
                    fast = cov_derivative(conn, psi)
                    ref = reference_cov_derivative(conn, psi)
                    assert fast.charge == ref.charge == n
                    assert fast.form.allclose(ref.form, 1e-12)


def test_reference_curvature_matches(calc, rng):
    conn = rand_conn(calc, rng)
    assert reference_curvature(conn).allclose(conn.curvature(), 1e-12)


def test_cov_derivative_unit_sections(calc, rng):
    conn = rand_conn(calc, rng)
    n = 3
    left_unit = ChargedSection(calc, n, "left", calc.identity())
    got = cov_derivative(conn, left_unit)
    assert got.form.allclose(-n * conn.A, 1e-13)
    right_unit = ChargedSection(calc, n, "right", calc.identity())
    got = cov_derivative(conn, right_unit)
    assert got.form.allclose(n * conn.A.star(), 1e-13)


def test_cov_derivative_charge0_is_d(calc, rng):
    conn = rand_conn(calc, rng)
    f = calc.random_form(1, rng)
    for side in ("left", "right"):
        psi = QvbForm(0, side, f)
        assert cov_derivative(conn, psi).form.allclose(f.d(), 1e-13)


def test_cov_derivative_leibniz_over_forms(calc, rng):
    # D(mu ^ psi) = d(mu) ^ psi + (-1)^k mu ^ D(psi) for left modules
    conn = rand_conn(calc, rng)
    n = 2
    for k in range(0, 2):
        mu = calc.random_form(k, rng)
        T = ChargedSection(calc, n, "left", calc.random_matrix(rng))
        psi = QvbForm(n, "left", calc.scalar_form(T.p))
        lhs = cov_derivative(conn, QvbForm(n, "left", mu * psi.form))
        rhs = mu.d() * psi.form + (-1) ** k * (mu * cov_derivative(conn, psi).form)
        assert lhs.form.allclose(rhs, 1e-12)


def test_cov_derivative_squared_closed_form(calc, rng):
    # D(D(T)) = -T (n dA + n^2 A^A); the quadratic term survives because
    # matrix coefficients do not commute
    conn = rand_conn(calc, rng)
    A = conn.A
    for n in (-2, 1, 3):
        T = ChargedSection(calc, n, "left", calc.random_matrix(rng))
        ddt = cov_derivative(conn, cov_derivative(conn, T))
        want = -1 * (calc.scalar_form(T.p) * (n * A.d() + n * n * (A * A)))
        assert ddt.form.allclose(want, 1e-12)


def test_displacement_K(calc, rng):
    lam = ConnectionDisplacement(calc.random_form(1, rng))
    base1 = rand_conn(calc, rng)
    base2 = rand_conn(calc, rng)
    for side in ("left", "right"):
        psi = QvbForm(2, side, calc.random_form(1, rng))
        k1 = (cov_derivative(base1 + lam, psi).form
              - cov_derivative(base1, psi).form)
        k2 = (cov_derivative(base2 + lam, psi).form
              - cov_derivative(base2, psi).form)
        assert k1.allclose(k2, 1e-12)  # base independence
        assert displacement_K(lam, psi).form.allclose(k1, 1e-12)


def test_displacement_K_linearity_by_side(calc, rng):
    z = 0.6 - 1.4j
    lam = ConnectionDisplacement(calc.random_form(1, rng))
    zlam = ConnectionDisplacement(z * lam.form)
    left = QvbForm(1, "left", calc.random_form(0, rng))
    right = QvbForm(1, "right", calc.random_form(0, rng))
    # complex-linear in the displacement on left sections
    assert displacement_K(zlam, left).form.allclose(
        z * displacement_K(lam, left).form, 1e-12)
    # antilinear on right sections: the displacement enters conjugated
    assert displacement_K(zlam, right).form.allclose(
        np.conj(z) * displacement_K(lam, right).form, 1e-12)


# -- covariant codifferential -------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([-2, -1, 1, 2]),
       g=st.integers(0, 2), side=st.sampled_from(["left", "right"]))
def test_cov_codifferential_adjoint(seed, n, g, side):
    calc = DerivationCalculus(2)
    rng = np.random.default_rng(seed)
    conn = GaugeConnection(calc.random_form(1, rng))
    a = QvbForm(n, side, calc.random_form(g, rng))
    b = QvbForm(n, side, calc.random_form(g + 1, rng))
    lhs = qvb_inner(cov_derivative(conn, a), b)
    rhs = qvb_inner(a, cov_codifferential(conn, b))
    assert abs(lhs - rhs) < 1e-10


def test_cov_codifferential_grade0_vanishes(calc, rng):
    conn = rand_conn(calc, rng)
    psi = QvbForm(1, "left", calc.random_form(0, rng))
    assert cov_codifferential(conn, psi).form.is_zero()


def test_cov_codifferential_charge0_reduces(calc, rng):
    from matym import codifferential
    conn = rand_conn(calc, rng)
    f = calc.random_form(2, rng)
    for side in ("left", "right"):
        psi = QvbForm(0, side, f)
        assert cov_codifferential(conn, psi).form.allclose(
            codifferential(f, side), 1e-13)


def test_cov_codifferential_decomposition_route(calc, rng):
    # arbitrary connection handled through its split into real parts
    from matym import codifferential
    for n in (-2, 1):
        for g in (1, 2):
            conn = rand_conn(calc, rng)
            lam_r, lam_i = ConnectionDisplacement(conn.A).real_decomposition()
            conn_r = GaugeConnection(lam_r.form)
            ilam = 1j * lam_i.form
            psi = QvbForm(n, "left", calc.random_form(g, rng))
            direct = cov_codifferential(conn, psi).form
            base = cov_codifferential(conn_r, psi).form
            sign = -n if (g - 1) % 2 == 0 else n
            k_adj = sign * hodge_inv(ilam * hodge(psi.form))
            assert direct.allclose(base + k_adj, 1e-11)


def test_cov_laplacian_consistency(calc, rng):
    conn = rand_conn(calc, rng)
    psi = QvbForm(1, "left", calc.random_form(1, rng))
    got = cov_laplacian(conn, psi)
    want = (cov_codifferential(conn, cov_derivative(conn, psi)).form
            + cov_derivative(conn, cov_codifferential(conn, psi)).form)
    assert got.form.allclose(want, 1e-12)


def test_bianchi(calc, rng):
    for _ in range(10):
        conn = rand_conn(calc, rng)
        assert conn.curvature().d().frobenius() < 1e-12


def test_exact_mode_cov_ops(xcalc):
    S = xcalc.generators
    conn = GaugeConnection(DiffForm(xcalc, {(1,): S[0], (2,): S[1], (3,): S[2]}))
    T = ChargedSection(xcalc, 1, "left", GaussianRational(2) * xcalc.identity())
    got = cov_derivative(conn, T)
    want = xcalc.scalar_form(T.p).d() - 1 * (xcalc.scalar_form(T.p) * conn.A)
    assert got.form == want
    ref = reference_cov_derivative(conn, T.as_qvb())
    assert ref.form == got.form
