"""Actions, field equations, variational pairings, solver.

The load-bearing oracle is finite differencing of the actions: every
analytic residual is checked against a central-difference directional
derivative, which only uses the action (on the operator tables, pinned to
the covariant-operator route below) and the pairing constants documented
in the module header.
"""

import gc
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

from matym import (
    ChargedSection,
    DerivationCalculus,
    DiffForm,
    FieldConfiguration,
    GaugeConnection,
    GaussianRational,
    PolynomialPotential,
    SolverAbort,
    SolverOptions,
    VariationDirection,
    action_gradient_fd,
    analytic_gradient,
    continuity_residual,
    dagger,
    flat_potential,
    gsm_action,
    hodge_inner,
    random_configuration,
    sm_action,
    sm_residuals,
    solve_stationary,
    ym_action,
    ym_residual,
    ymsm_action,
    ymsm_connection_residual,
    ymsm_section_residuals,
)
from matym.fields import (_coefficient_arrays, _table_action, _tables, action_summary,
                          residual_blocks, residual_norms)
from matym.qbundle import cov_codifferential, cov_derivative, section_inner
from matym.qriemann import codifferential, form_to_vec, metric, state


def soliton(calc):
    S = calc.generators
    return GaugeConnection(DiffForm(calc, {(1,): S[0], (2,): S[1], (3,): S[2]}))


def triplet1(calc):
    # the grade-0 Laplacian is N on traceless matrices, so V = Nq
    a = calc.generators[0] + calc.generators[1] + calc.generators[2]
    return FieldConfiguration(
        GaugeConnection.zero(calc),
        ChargedSection(calc, 1, "left", a),
        ChargedSection(calc, -1, "right", a),
        PolynomialPotential([0, calc.N]))


def triplet2(calc):
    return FieldConfiguration(
        soliton(calc),
        ChargedSection(calc, 1, "left", np.sqrt(3) * np.eye(2)),
        ChargedSection(calc, -1, "right", calc.identity()),
        PolynomialPotential([0, -0.75]))


# -- potentials ---------------------------------------------------------------

def test_polynomial_potential_scalar_and_matrix(rng):
    V = PolynomialPotential([1, -2, 0.5])
    for x in (0.3, -1.2 + 0.4j):
        assert abs(V(x) - (1 - 2 * x + 0.5 * x * x)) < 1e-14
    m = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
    assert np.allclose(V(m), np.eye(2) - 2 * m + 0.5 * m @ m)
    dV = V.derivative
    assert np.allclose(dV(m), -2 * np.eye(2) + m)
    assert PolynomialPotential([3.0]).is_constant
    assert not V.is_constant
    assert PolynomialPotential([1, 0, 0]).is_constant  # trailing zeros pruned


def test_polynomial_potential_exact():
    V = PolynomialPotential([GaussianRational(1), GaussianRational(-3, 4)])
    x = GaussianRational("1/2")
    assert V(x) == GaussianRational(1) + GaussianRational(-3, 4) * x


# -- configurations -------------------------------------------------------------

def test_configuration_guards(calc, rng):
    conn = GaugeConnection.zero(calc)
    left = ChargedSection(calc, 1, "left", calc.random_matrix(rng))
    bad_side = ChargedSection(calc, -1, "left", calc.random_matrix(rng))
    with pytest.raises(ValueError):
        FieldConfiguration(conn, left, bad_side, PolynomialPotential([0]))
    wrong_charge = ChargedSection(calc, -2, "right", calc.random_matrix(rng))
    with pytest.raises(ValueError):
        FieldConfiguration(conn, left, wrong_charge, PolynomialPotential([0]))
    cfg = FieldConfiguration(conn)
    assert not cfg.has_sections and cfg.charge == 0


def test_replace_and_shift(calc, rng):
    cfg = random_configuration(calc, rng, charge=2)
    new_p = calc.random_matrix(rng)
    cfg2 = cfg.replace(left_p=new_p)
    assert np.allclose(cfg2.left.p, new_p)
    assert cfg2.right is cfg.right
    # the finite-difference oracle shifts coefficient arrays, as a form shift
    lam = calc.random_form(1, rng)
    moved = cfg.replace(connection=GaugeConnection(cfg.connection.A + 0.5 * lam))
    A, a, b = _coefficient_arrays(cfg)
    A = A + 0.5 * form_to_vec(lam, [1]).reshape(A.shape)
    ref = complex(ymsm_action(moved))
    got = sum(_table_action(cfg, _tables(calc), A, a, b))
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


# -- Yang-Mills action and equation -------------------------------------------

def test_ym_action_frozen_value(calc):
    A = DiffForm(calc, {(1,): calc.generators[1]})
    assert abs(complex(ym_action(GaugeConnection(A))) - (-0.25)) < 1e-14


def test_ym_action_exact(xcalc):
    A = DiffForm(xcalc, {(1,): xcalc.generators[1]})
    v = ym_action(GaugeConnection(A))
    assert v == GaussianRational("-1/4")


def test_ym_action_real_nonpositive_balanced(calc, rng):
    for _ in range(20):
        conn = GaugeConnection(calc.random_form(1, rng))
        v = complex(ym_action(conn))
        assert abs(v.imag) < 1e-12
        assert v.real <= 1e-13
        F, Fh = conn.curvature(), conn.hat().curvature()
        assert abs(hodge_inner(F, F, "left")
                   - hodge_inner(Fh, Fh, "right")) < 1e-11
    assert abs(complex(ym_action(GaugeConnection.zero(calc)))) == 0.0


def test_ym_residual_flat_iff_zero(calc, rng):
    for _ in range(20):
        p = calc.random_matrix(rng)
        flat = GaugeConnection(calc.scalar_form(p).d())
        assert ym_residual(flat).frobenius() < 1e-12
        curved = GaugeConnection(calc.random_form(1, rng))
        if curved.curvature().frobenius() > 1e-6:
            assert ym_residual(curved).frobenius() > 1e-8


def test_soliton_is_eigenvector(calc):
    conn = soliton(calc)
    r = ym_residual(conn)
    mu = hodge_inner(r, conn.A, "left") / hodge_inner(conn.A, conn.A, "left")
    assert abs(mu - 1.0) < 1e-12
    assert (r - mu * conn.A).frobenius() < 1e-12


# -- coupled actions ------------------------------------------------------------

def test_gsm_action_gauge_phase_numeric(calc, rng):
    cfg = random_configuration(calc, rng, charge=1,
                               potential=PolynomialPotential([0.3, 1.1]))
    base = complex(ymsm_action(cfg))
    for t, s in [(0.3, -1.2), (2.0, 0.5)]:
        shifted_cfg = cfg.replace(left_p=np.exp(1j * t) * cfg.left.p,
                                  right_p=np.exp(1j * s) * cfg.right.p)
        assert abs(complex(ymsm_action(shifted_cfg)) - base) < 1e-11


def test_gsm_action_gauge_phase_exact(xcalc):
    S = xcalc.generators
    a = S[0] + S[1] + S[2]
    cfg = FieldConfiguration(
        GaugeConnection(DiffForm(xcalc, {(2,): S[2]})),
        ChargedSection(xcalc, 1, "left", a),
        ChargedSection(xcalc, -1, "right", GaussianRational(2) * a),
        PolynomialPotential([GaussianRational(1), GaussianRational(2)]))
    phase1 = GaussianRational("3/5", "4/5")
    phase2 = GaussianRational("-4/5", "3/5")
    assert phase1 * phase1.conjugate() == GaussianRational(1)
    moved = cfg.replace(left_p=phase1 * cfg.left.p, right_p=phase2 * cfg.right.p)
    assert ymsm_action(moved) == ymsm_action(cfg)


def test_sm_action_multiplet_additivity(calc, rng):
    V = PolynomialPotential([0.2, 0.7])
    ps = [calc.random_matrix(rng) for _ in range(2)]
    qs = [calc.random_matrix(rng) for _ in range(2)]
    total = sm_action(calc, ps, qs, V)
    singles = sum(complex(sm_action(calc, [p], [q], V))
                  for p, q in zip(ps, qs))
    assert abs(complex(total) - singles) < 1e-12
    with pytest.raises(ValueError):
        sm_action(calc, ps, qs[:1], V)


def test_ymsm_action_decomposes(calc, rng):
    cfg = random_configuration(calc, rng, charge=1,
                               potential=PolynomialPotential([0.5]))
    assert abs(complex(ymsm_action(cfg))
               - complex(ym_action(cfg.connection))
               - complex(gsm_action(cfg))) < 1e-13


# -- worked stationary examples -------------------------------------------------

def test_triplet1_all_residuals_vanish(calc):
    cfg = triplet1(calc)
    assert ymsm_connection_residual(cfg).frobenius() < 1e-12
    r1, r2 = ymsm_section_residuals(cfg)
    assert r1.form.frobenius() < 1e-12
    assert r2.form.frobenius() < 1e-12


def test_triplet1_all_residuals_vanish_n3(calc3):
    # with V = 2q instead, both section residuals would be |a|_F = 1.2247
    assert max(residual_norms(triplet1(calc3)).values()) < 1e-12


def flat_family(calc, a):
    """The family F: A = 0, a traceless, b = a+, charge 1 and V = Nq. It
    holds the triplet (a = S1 + S2 + S3) and the vacuum (a = 0)."""
    return FieldConfiguration(
        GaugeConnection.zero(calc),
        ChargedSection(calc, 1, "left", a),
        ChargedSection(calc, -1, "right", dagger(a)),
        PolynomialPotential([0, calc.N]))


def test_flat_family_solves_all_equations(xcalc, calc3, rng):
    a = xcalc.random_matrix(rng)
    cfg = flat_family(xcalc, a - np.trace(a) / 2 * xcalc.identity())
    assert not ymsm_connection_residual(cfg).terms
    r1, r2 = ymsm_section_residuals(cfg)
    assert not r1.form.terms and not r2.form.terms
    assert ymsm_action(cfg) == 0
    a = 2 * calc3.random_matrix(rng)
    a -= np.trace(a) / 3 * np.eye(3)
    norms = residual_norms(flat_family(calc3, a))
    assert max(norms.values()) <= 1e-12 * np.linalg.norm(a)


def test_triplet2_connection_stationary_sections_not(calc):
    cfg = triplet2(calc)
    assert ymsm_connection_residual(cfg).frobenius() < 1e-12
    r1, r2 = ymsm_section_residuals(cfg)
    assert np.allclose(r1.form.component(()), 1.5 * np.sqrt(3) * np.eye(2), atol=1e-12)
    assert np.allclose(r2.form.component(()), 1.5 * np.eye(2), atol=1e-12)


def test_triplet2_analytic_matches_fd(calc, rng):
    cfg = triplet2(calc)
    worst = 0.0
    for _ in range(10):
        for kind in ("connection", "left", "right"):
            if kind == "connection":
                d = VariationDirection.connection(calc.random_form(1, rng))
            elif kind == "left":
                d = VariationDirection.left(calc.random_matrix(rng))
            else:
                d = VariationDirection.right(calc.random_matrix(rng))
            g_fd = action_gradient_fd(cfg, d)
            g_an = complex(analytic_gradient(cfg, d))
            if max(abs(g_fd), abs(g_an)) < 1e-8:
                continue  # both vanish: the stationary connection direction
            worst = max(worst, abs(g_fd - g_an) / max(abs(g_fd), abs(g_an)))
    assert worst < 1e-5


# -- the actions and field equations against the covariant operators ----------
#
# The oracle is the covariant-operator route on DiffForms: the curvature
# and cov_derivative in the Lagrangian, cov_codifferential cov_derivative
# in the section equations, and verify's connection_equation_operator_route
# for the connection equation. Exact cases must agree to the last digit.

def oracle_configuration(request, rng, N, charge, sections):
    calc = request.getfixturevalue({2: "calc", 3: "calc3", "2x": "xcalc"}[N])
    potential = PolynomialPotential([1, 2, Fraction(-1, 2) if calc.exact else -0.5])
    cfg = random_configuration(calc, rng, charge=charge, potential=potential)
    return FieldConfiguration(cfg.connection,
                              cfg.left if sections in ("both", "left") else None,
                              cfg.right if sections in ("both", "right") else None,
                              potential)


def oracle_actions(cfg):
    """(ym, gsm) from the curvature, metric and cov_derivative."""
    conn, V = cfg.connection, cfg.potential
    F, Fh = conn.curvature(), conn.hat().curvature()
    ym = (hodge_inner(F, F, "left") + hodge_inner(Fh, Fh, "right")) * Fraction(-1, 4)
    L = cfg.calc.zero_matrix()
    if cfg.left is not None:
        q1 = cov_derivative(conn, cfg.left).form
        L = L + metric(q1, q1, "left") - V(section_inner(cfg.left, cfg.left))
    if cfg.right is not None:
        q2 = cov_derivative(conn, cfg.right).form
        L = L - metric(q2, q2, "right") + V(section_inner(cfg.right, cfg.right))
    return ym, state(L) * Fraction(1, 4)


def oracle_residuals(cfg):
    """The three equations from the covariant operators, in residual_blocks' keys."""
    conn, n, V = cfg.connection, cfg.charge, cfg.potential
    ym = codifferential(conn.curvature())
    E = -2 * ym if n and cfg.has_sections else ym  # n = 0 drops the section terms
    out = {}
    if cfg.left is not None:
        T, a = cfg.left, cfg.left.p
        q1 = cov_derivative(conn, T)
        E = E - n * q1.form.lmul(dagger(a))
        box = cov_codifferential(conn, q1).form.component(())
        out["left"] = box - dagger(V.derivative(section_inner(T, T))) @ a
    if cfg.right is not None:
        T, b = cfg.right, cfg.right.p
        q2 = cov_derivative(conn, T)
        E = E + n * q2.form.star().lmul(b)
        box = cov_codifferential(conn, q2).form.component(())
        out["right"] = box - b @ dagger(V.derivative(section_inner(T, T)))
    out["connection"] = E.array(1)
    return {key: r.ravel() for key, r in out.items()}


def assert_agrees(got, want):
    if isinstance(want, np.ndarray) and want.dtype == object:
        assert np.array_equal(got, want)
    elif isinstance(want, np.ndarray):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    elif isinstance(want, GaussianRational):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("charge", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("sections", ["both", "left", "right", "none"])
@pytest.mark.parametrize("N", [2, 3, "2x"])
def test_residual_blocks_matches_form_oracle(request, rng, N, charge, sections):
    cfg = oracle_configuration(request, rng, N, charge, sections)
    want = oracle_residuals(cfg)
    got = residual_blocks(cfg)
    assert set(got) == set(want)
    for key in want:
        assert_agrees(got[key], want[key])
    # the form API reads the same blocks
    conn = ymsm_connection_residual(cfg)
    assert conn.grades() in ([], [1])
    assert_agrees(conn.array(1).ravel(), want["connection"])
    for key, r in zip(("left", "right"), ymsm_section_residuals(cfg)):
        assert (r is None) == (key not in want)
        if r is not None:
            assert (r.charge, r.side) == (getattr(cfg, key).charge, key)
            assert_agrees(r.form.component(()).ravel(), want[key])


@pytest.mark.parametrize("charge", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("sections", ["both", "left", "right", "none"])
@pytest.mark.parametrize("N", [2, 3, "2x"])
def test_table_action_matches_form_oracle(request, rng, N, charge, sections):
    cfg = oracle_configuration(request, rng, N, charge, sections)
    ym, gsm = oracle_actions(cfg)
    assert_agrees(ym_action(cfg.connection), ym)
    assert_agrees(gsm_action(cfg), gsm)
    assert_agrees(ymsm_action(cfg), ym + gsm)


def test_actions_and_equations_need_no_form_operators(calc, calc3, xcalc, rng, monkeypatch):
    """Once a calculus has built its operator tables, the actions and the
    field equations run without d, cov_derivative or cov_codifferential,
    in either scalar field: they are stated once, on the tables."""
    cfgs = [random_configuration(c, rng, charge=1, potential=PolynomialPotential([1, 2]))
            for c in (calc, calc3, xcalc)]
    for cfg in cfgs:
        _tables(cfg.calc)

    def refuse(*args, **kwargs):
        raise AssertionError("a form operator ran after the tables were built")

    for name, module in list(sys.modules.items()):
        if name == "matym" or name.startswith("matym."):
            for attr in ("cov_derivative", "cov_codifferential"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(DiffForm, "d", refuse)
    for cfg in cfgs:
        ymsm_action(cfg)
        ymsm_connection_residual(cfg)
        ymsm_section_residuals(cfg)


def test_float_oracles_accept_exact_configurations(calc, xcalc, rng):
    """flat_potential, action_gradient_fd and residual_norms run in complex
    floats on an exact configuration, as on its float copy."""
    def floats(m):
        return np.asarray(m, dtype=complex)

    def float_form(w):
        return DiffForm(calc, {I: floats(m) for I, m in w.terms.items()})

    p = xcalc.random_matrix(rng)
    conn = GaugeConnection(xcalc.scalar_form(p).d())
    prec, defect = flat_potential(conn)
    assert prec.dtype == complex and defect < 1e-12
    assert (calc.scalar_form(prec).d() - float_form(conn.A)).frobenius() < 1e-12
    cfg = random_configuration(xcalc, rng, charge=1, potential=PolynomialPotential([1, 2]))
    lam = xcalc.random_form(1, rng)
    fcfg = FieldConfiguration(
        GaugeConnection(float_form(cfg.connection.A)),
        ChargedSection(calc, 1, "left", floats(cfg.left.p)),
        ChargedSection(calc, -1, "right", floats(cfg.right.p)), cfg.potential)
    flam = float_form(lam)
    norms, fnorms = residual_norms(cfg), residual_norms(fcfg)
    assert set(norms) == set(fnorms)
    assert all(abs(norms[k] - fnorms[k]) <= 1e-12 * fnorms[k] for k in norms)
    for d, fd in [(VariationDirection.connection(lam), VariationDirection.connection(flam)),
                  (VariationDirection.left(p), VariationDirection.left(floats(p)))]:
        g = action_gradient_fd(cfg, d)
        assert type(g) is complex
        assert g == action_gradient_fd(fcfg, fd)
        g_an = complex(analytic_gradient(cfg, d))
        assert abs(g - g_an) <= 1e-5 * max(abs(g_an), 1e-8)


def test_fd_gradient_accepts_exact_potential_coefficients(xcalc, rng):
    """Gaussian-rational potential coefficients enter action_gradient_fd
    as complex floats, giving the gradient of the same integers."""
    coeffs = [1, 2, -3]
    cfg = random_configuration(xcalc, rng, charge=1, potential=PolynomialPotential(
        [GaussianRational(c) for c in coeffs]))
    icfg = FieldConfiguration(cfg.connection, cfg.left, cfg.right, PolynomialPotential(coeffs))
    for d in (VariationDirection.connection(xcalc.random_form(1, rng)),
              VariationDirection.left(xcalc.random_matrix(rng)),
              VariationDirection.right(xcalc.random_matrix(rng))):
        g = action_gradient_fd(cfg, d)
        assert g == action_gradient_fd(icfg, d)
        g_an = complex(analytic_gradient(cfg, d))
        assert abs(g - g_an) < 1e-5 * max(abs(g), abs(g_an), 1e-8)


# -- variational consistency ------------------------------------------------------

def test_pure_ym_gradient_pairing(calc, rng):
    cfg = FieldConfiguration(GaugeConnection(calc.random_form(1, rng)))
    lam = calc.random_form(1, rng)
    d = VariationDirection.connection(lam)
    g_fd = action_gradient_fd(cfg, d)
    want = hodge_inner(lam, -0.5 * ym_residual(cfg.connection), "left")
    assert abs(g_fd - want) / max(abs(want), 1e-9) < 1e-6


@pytest.mark.parametrize("charge,sections", [(0, "both"), (1, "both"), (2, "both"), (1, "none")])
@pytest.mark.parametrize("N", ["2x", 3])
def test_analytic_gradient_is_the_form_pairing(request, rng, N, charge, sections):
    """analytic_gradient pairs each direction with its field equation by the
    module header's constants: the DiffForm pairing of the form residuals,
    equal to the last digit in exact mode, within 1e-12 relative in floats."""
    cfg = oracle_configuration(request, rng, N, charge, sections)
    calc, sc = cfg.calc, cfg.calc.scalars
    if charge and cfg.has_sections:
        G = ymsm_connection_residual(cfg) * sc.frac(1, 4)
    else:
        G = ym_residual(cfg.connection) * sc.frac(-1, 2)
    lam = calc.random_form(1, rng)
    cases = [(VariationDirection.connection(lam), hodge_inner(lam, G, "left"))]
    if cfg.has_sections:
        r1, r2 = ymsm_section_residuals(cfg)
        u, v = (calc.scalar_form(calc.random_matrix(rng)) for _ in range(2))
        cases += [(VariationDirection.left(u.component(())),
                   sc.frac(1, 4) * hodge_inner(u, r1.form, "left")),
                  (VariationDirection.right(v.component(())),
                   sc.frac(-1, 4) * hodge_inner(r2.form, v, "right"))]
    for direction, want in cases:
        got = analytic_gradient(cfg, direction)
        if calc.exact:
            assert got == want, direction.kind
        else:
            assert abs(got - want) <= 1e-12 * abs(want), direction.kind


def test_operator_tables_die_with_their_calculus(rng):
    """The tables are built once per calculus and dropped with it."""
    calc = DerivationCalculus(2)
    residual_blocks(random_configuration(calc, rng, charge=1))
    assert _tables(calc) is _tables(calc)
    ref = weakref.ref(calc)
    del calc
    gc.collect()
    assert ref() is None


# -- field equation structure -----------------------------------------------------

def test_charge0_reduction(calc, rng):
    cfg = random_configuration(calc, rng, charge=0,
                               potential=PolynomialPotential([0.5, 0.8]))
    assert (ymsm_connection_residual(cfg)
            - ym_residual(cfg.connection)).frobenius() < 1e-13
    ls, rs = sm_residuals(calc, [cfg.left.p], [cfg.right.p], cfg.potential)
    r1, r2 = ymsm_section_residuals(cfg)
    assert np.allclose(r1.form.component(()), ls[0], atol=1e-12)
    # the multiplet operator returns the conjugated right equation
    assert np.allclose(dagger(r2.form.component(())), rs[0], atol=1e-12)


def test_sm_constant_potential_central_sections(calc, xcalc):
    V = PolynomialPotential([4.0])
    ls, rs = sm_residuals(calc, [0.3 * np.eye(2)], [(1 - 2j) * np.eye(2)], V)
    assert np.allclose(ls[0], 0) and np.allclose(rs[0], 0)
    Vx = PolynomialPotential([GaussianRational(4)])
    lam = GaussianRational("1/3", "-2/7")
    lsx, rsx = sm_residuals(xcalc, [lam * xcalc.identity()],
                            [lam * xcalc.identity()], Vx)
    assert not np.any(lsx[0]) and not np.any(rsx[0])


def test_sm_noncentral_not_stationary(calc):
    V = PolynomialPotential([4.0])
    ls, _ = sm_residuals(calc, [calc.generators[0]], [np.eye(2)], V)
    assert np.linalg.norm(ls[0]) > 0.1


def test_continuity_residual(calc, rng):
    for _ in range(30):
        conn = GaugeConnection(calc.random_form(1, rng))
        assert continuity_residual(conn).frobenius() < 1e-11


def test_flat_potential_reconstruction(calc, rng):
    p = calc.random_matrix(rng)
    conn = GaugeConnection(calc.scalar_form(p).d())
    prec, defect = flat_potential(conn)
    assert defect < 1e-12
    assert (calc.scalar_form(prec).d() - conn.A).frobenius() < 1e-12
    curved = soliton(calc)
    _, defect = flat_potential(curved)
    assert defect > 0.1


# -- solver -----------------------------------------------------------------------

def test_solver_pure_ym_gauss_newton(calc, rng):
    cfg0 = FieldConfiguration(GaugeConnection(calc.random_form(1, rng)))
    cfg, rep = solve_stationary(cfg0, SolverOptions(tol=1e-10, method="gauss_newton"))
    assert rep.converged
    assert rep.iterations <= 10
    assert cfg.connection.curvature().frobenius() < 1e-8
    assert flat_potential(cfg.connection)[1] < 1e-9
    assert rep.residual_norms["connection"] <= 1e-10


def test_solver_sm_to_central(calc, rng):
    cfg0 = FieldConfiguration(
        GaugeConnection.zero(calc),
        ChargedSection(calc, 0, "left", calc.random_matrix(rng)),
        ChargedSection(calc, 0, "right", calc.random_matrix(rng)),
        PolynomialPotential([2.5]))
    cfg, rep = solve_stationary(
        cfg0, SolverOptions(tol=1e-10, method="gauss_newton", vary_connection=False))
    assert rep.converged
    p = np.asarray(cfg.left.p, dtype=complex)
    assert np.linalg.norm(p - np.trace(p) / 2 * np.eye(2)) < 1e-8


def test_solver_ymsm_near_triplet1(calc, rng):
    ref = triplet1(calc)
    cfg0 = FieldConfiguration(
        GaugeConnection(calc.random_form(1, rng, 0.05)),
        ChargedSection(calc, 1, "left", ref.left.p + 0.05 * calc.random_matrix(rng)),
        ChargedSection(calc, -1, "right", ref.right.p + 0.05 * calc.random_matrix(rng)),
        ref.potential)
    cfg, rep = solve_stationary(cfg0, SolverOptions(tol=1e-9, method="gauss_newton"))
    assert rep.converged
    assert max(residual_norms(cfg).values()) < 1e-9
    assert abs(complex(ymsm_action(cfg)) - complex(ymsm_action(ref))) < 1e-6


def test_solver_non_convergence_reported(calc, rng):
    cfg0 = FieldConfiguration(GaugeConnection(calc.random_form(1, rng)))
    _, rep = solve_stationary(cfg0, SolverOptions(tol=1e-12, max_iter=1))
    assert not rep.converged
    assert rep.iterations == 1


def test_solver_rejects_bad_options(calc, rng):
    cfg0 = FieldConfiguration(GaugeConnection(calc.random_form(1, rng)))
    with pytest.raises(ValueError):
        solve_stationary(cfg0, SolverOptions(method="newton"))
    with pytest.raises(ValueError):
        solve_stationary(cfg0, SolverOptions(vary_connection=False))


def test_solver_abort_on_nonfinite(calc):
    bad = calc.zero_matrix()
    bad[0, 0] = np.nan
    cfg0 = FieldConfiguration(GaugeConnection(DiffForm(calc, {(1,): bad})))
    with pytest.raises(SolverAbort):
        solve_stationary(cfg0, SolverOptions(max_iter=3))


def test_report_contents(calc, rng):
    cfg0 = FieldConfiguration(GaugeConnection(calc.random_form(1, rng)))
    _, rep = solve_stationary(cfg0, SolverOptions(tol=1e-9, method="gauss_newton"))
    d = rep.to_dict()
    assert set(d) == {"actions", "residual_norms", "iterations", "converged",
                      "method", "tolerance", "gradient_checks", "seed",
                      "conventions_id", "notes"}
    assert d["conventions_id"]
    assert d["actions"]["ym"][0] <= 0.0
    assert d["actions"]["ym"][1] == pytest.approx(0.0, abs=1e-12)


def test_action_summary_and_norms(calc, rng):
    cfg = random_configuration(calc, rng, charge=1,
                               potential=PolynomialPotential([1.0, 0.5]))
    summary = action_summary(cfg)
    assert set(summary) == {"ym", "gsm", "total"}
    assert summary["total"][0] == pytest.approx(
        summary["ym"][0] + summary["gsm"][0], abs=1e-12)
    norms = residual_norms(cfg)
    assert set(norms) == {"connection", "left", "right"}
    assert all(v >= 0 for v in norms.values())
