"""Acceptance gate: one test per certified behavior, at fixed tolerances.

Each test is self-contained (own seeds, own calculus instances) and ends
with a single printed summary line carrying the measured figure, so a
verbose run reads as a pass/fail sheet.
"""

import json
import time
from fractions import Fraction

import numpy as np

import matym.fields as fd
import matym.qbundle as qb
import matym.qriemann as qr
from matym import (ChargedSection, DerivationCalculus, DiffForm,
                   FieldConfiguration, GaugeConnection, GaussianRational,
                   PolynomialPotential, QvbForm, SolverOptions, dagger,
                   solve_stationary)
from matym.cli import main as cli_main

CALC = DerivationCalculus(2)
XCALC = DerivationCalculus(2, exact=True)


def rng_for(criterion):
    return np.random.default_rng([criterion, 20260814])


def unit_matrix(calc, r, c):
    m = calc.zero_matrix()
    m[r, c] = calc.scalars.one
    return m


def rational_matrix(rng):
    m = XCALC.zero_matrix()
    for r in range(2):
        for c in range(2):
            m[r, c] = GaussianRational(
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
    return m


def exactly_zero(form):
    return all(not bool(x) for p in form.terms.values() for x in p.flat)


def soliton_connection(calc):
    S = calc.generators
    return GaugeConnection(DiffForm(calc, {(j + 1,): S[j] for j in range(3)}))


def triplet_flat(calc):
    S = calc.generators
    a = S[0] + S[1] + S[2]
    return FieldConfiguration(
        GaugeConnection.zero(calc),
        ChargedSection(calc, 1, "left", a),
        ChargedSection(calc, -1, "right", a),
        PolynomialPotential([0, 2]))


def triplet_vertical(calc):
    return FieldConfiguration(
        soliton_connection(calc),
        ChargedSection(calc, 1, "left", np.sqrt(3) * np.eye(2)),
        ChargedSection(calc, -1, "right", calc.identity()),
        PolynomialPotential([0, -0.75]))


def test_criterion_01_closed_form_scalar_laplacian():
    rng = rng_for(1)
    t0 = time.perf_counter()
    dev = 0.0
    for _ in range(1000):
        p = CALC.random_matrix(rng)
        got = qr.codifferential(CALC.scalar_form(p).d()).terms[()]
        want = np.array([[p[0, 0] - p[1, 1], 2 * p[0, 1]],
                         [2 * p[1, 0], p[1, 1] - p[0, 0]]])
        dev = max(dev, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    assert dev <= 1e-12
    assert elapsed < 1.0
    print(f"criterion 1 PASS: max deviation {dev:.2e} over 1000 draws "
          f"in {elapsed:.2f}s")


def _codifferential_displays(calc, coeff):
    """The three grade-wise closed forms of the left codifferential.

    `coeff(I)` supplies the coefficient matrix for index set I; returns
    (computed, expected) pairs, one per input grade.
    """
    i = [None, 1, 2, 3]
    rho = calc.derive
    p1, p2, p3 = coeff((1,)), coeff((2,)), coeff((3,))
    mu1 = DiffForm(calc, {(1,): p1, (2,): p2, (3,): p3})
    want1 = calc.scalar_form(-(rho(1, p1) + rho(2, p2) + rho(3, p3)))

    p12, p13, p23 = coeff((1, 2)), coeff((1, 3)), coeff((2, 3))
    mu2 = DiffForm(calc, {(1, 2): p12, (1, 3): p13, (2, 3): p23})
    want2 = DiffForm(calc, {
        (1,): rho(2, p12) + rho(3, p13) + p23,
        (2,): -rho(1, p12) + rho(3, p23) - p13,
        (3,): -rho(1, p13) - rho(2, p23) + p12,
    })

    p = coeff((1, 2, 3))
    mu3 = DiffForm(calc, {(1, 2, 3): p})
    want3 = DiffForm(calc, {
        (1, 2): -rho(3, p),
        (1, 3): rho(2, p),
        (2, 3): -rho(1, p),
    })
    return [(qr.codifferential(m), w) for m, w in
            ((mu1, want1), (mu2, want2), (mu3, want3))]


def test_criterion_02_codifferential_closed_forms_exact():
    rng = rng_for(2)
    checked = 0
    # full basis: every index set carrying every matrix unit, one at a time
    for g in (1, 2, 3):
        for I in XCALC.basis_indices(g):
            for r in range(2):
                for c in range(2):
                    unit = unit_matrix(XCALC, r, c)
                    coeff = lambda J: unit if J == I else XCALC.zero_matrix()
                    for got, want in _codifferential_displays(XCALC, coeff):
                        assert exactly_zero(got - want)
                        checked += 1
    # 100 random rational coefficient sets across all grades at once
    for _ in range(100):
        pool = {I: rational_matrix(rng)
                for g in (1, 2, 3) for I in XCALC.basis_indices(g)}
        for got, want in _codifferential_displays(XCALC, pool.__getitem__):
            assert exactly_zero(got - want)
            checked += 1
    print(f"criterion 2 PASS: {checked} exact closed-form identities")


def test_criterion_03_hodge_identities():
    rng = rng_for(3)
    dvol = CALC.volume_form()
    devs = []

    def pair_checks(mu_hat, mu, g):
        # defining property, both chiralities
        lhs = mu_hat * qr.hodge(mu)
        rhs = dvol.lmul(qr.metric(mu_hat, mu, "left"))
        devs.append((lhs - rhs).frobenius())
        lhs_r = qr.hodge(mu_hat, "right") * mu
        rhs_r = dvol.lmul(qr.metric(mu_hat, mu, "right"))
        devs.append((lhs_r - rhs_r).frobenius())
        # double application: k(3-k) is even at every grade
        devs.append((qr.hodge(qr.hodge(mu)) - mu).frobenius())
        devs.append((qr.hodge_inv(qr.hodge(mu)) - mu).frobenius())
        # right structures are the involution conjugates of the left ones
        devs.append((qr.hodge(mu, "right")
                     - qr.hodge(mu.star()).star()).frobenius())
        devs.append((qr.codifferential(mu, "right")
                     - qr.codifferential(mu.star()).star()).frobenius())

    def module_checks(mu, p, g):
        pform = CALC.scalar_form(p)
        pd = CALC.scalar_form(dagger(p))
        devs.append((qr.hodge(pform * mu) - qr.hodge(mu) * pd).frobenius())
        devs.append((qr.hodge(mu * pform) - pd * qr.hodge(mu)).frobenius())
        devs.append((qr.hodge_inv(pform * mu) - qr.hodge_inv(mu) * pd).frobenius())
        devs.append((qr.hodge_inv(mu * pform) - pd * qr.hodge_inv(mu)).frobenius())

    def shift_checks(mu_hat, mid, mu):
        # <mu_hat, inv(mid mu)> = <mu_hat mid, inv(mu)>
        lhs = qr.hodge_inner(mu_hat, qr.hodge_inv(mid * mu), "left")
        rhs = qr.hodge_inner(mu_hat * mid, qr.hodge_inv(mu), "left")
        devs.append(abs(lhs - rhs))

    # unit and volume exchange
    one = CALC.scalar_form(CALC.identity())
    devs.append((qr.hodge(one) - dvol).frobenius())
    devs.append((qr.hodge(dvol) - one).frobenius())
    devs.append((qr.hodge(one, "right") - dvol).frobenius())

    # exhaustive same-grade basis pairs
    npairs = 0
    for g in range(4):
        basis = qr.grade_basis(CALC, [g])
        for mu_hat in basis:
            for mu in basis:
                pair_checks(mu_hat, mu, g)
                npairs += 1

    # one thousand random pairs, spread over the grades, each also probing
    # the module rules and one grade split of the pairing shift
    splits = [(l, m, 3 - l - m) for l in range(4) for m in range(4 - l)]
    for k in range(1000):
        g = k % 4
        mu_hat = CALC.random_form(g, rng)
        mu = CALC.random_form(g, rng)
        pair_checks(mu_hat, mu, g)
        module_checks(mu, CALC.random_matrix(rng), g)
        l, m, rest = splits[k % len(splits)]
        shift_checks(CALC.random_form(l, rng), CALC.random_form(m, rng),
                     CALC.random_form(rest, rng))
        npairs += 1

    worst = max(devs)
    assert worst <= 1e-12
    print(f"criterion 3 PASS: max deviation {worst:.2e} over {npairs} pairs")


def _gram(basis, inner):
    n = len(basis)
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = inner(basis[i], basis[j])
    return G


def _batched_adjointness(M_op, M_adj, G_in, G_out, rng, antilinear_first,
                         pairs=1000):
    """max |<op x, y> - <x, adj y>| over random coefficient pairs.

    Left pairings are antilinear in the second slot, right pairings in the
    first, so <u, v> is vec(u)^T G conj(vec(v)) or its mirror image.
    """
    X = rng.standard_normal((M_op.shape[1], pairs)) \
        + 1j * rng.standard_normal((M_op.shape[1], pairs))
    Y = rng.standard_normal((M_op.shape[0], pairs)) \
        + 1j * rng.standard_normal((M_op.shape[0], pairs))
    if antilinear_first:
        lhs = np.einsum("uj,uv,vj->j", np.conj(M_op @ X), G_out, Y)
        rhs = np.einsum("uj,uv,vj->j", np.conj(X), G_in, M_adj @ Y)
    else:
        lhs = np.einsum("uj,uv,vj->j", M_op @ X, G_out, np.conj(Y))
        rhs = np.einsum("uj,uv,vj->j", X, G_in, np.conj(M_adj @ Y))
    return float(np.abs(lhs - rhs).max())


def test_criterion_04_codifferentials_adjoint():
    rng = rng_for(4)
    devs = []
    pair_count = 0

    # plain differential against its codifferential, both chiralities
    for side in ("left", "right"):
        for g in range(3):
            basis_in = qr.grade_basis(CALC, [g])
            basis_out = qr.grade_basis(CALC, [g + 1])
            G_in = _gram(basis_in, lambda a, b: qr.hodge_inner(a, b, side))
            G_out = _gram(basis_out, lambda a, b: qr.hodge_inner(a, b, side))
            M_d = qr.operator_matrix(CALC, lambda f: f.d(), [g], [g + 1])
            M_cod = qr.operator_matrix(
                CALC, lambda f: qr.codifferential(f, side), [g + 1], [g])
            devs.append(_batched_adjointness(M_d, M_cod, G_in, G_out, rng,
                                             side == "right"))
            pair_count += 1000

    # covariant pair for a random (generically non-real) connection
    for n in (-2, -1, 1, 2):
        conn = GaugeConnection(CALC.random_form(1, rng))
        for side in ("left", "right"):
            for g in range(3):
                basis_in = qr.grade_basis(CALC, [g])
                basis_out = qr.grade_basis(CALC, [g + 1])
                wrap = lambda f, gr: QvbForm(n, side, f)
                G_in = _gram(basis_in,
                             lambda a, b: qb.qvb_inner(wrap(a, g), wrap(b, g)))
                G_out = _gram(basis_out,
                              lambda a, b: qb.qvb_inner(wrap(a, g + 1),
                                                        wrap(b, g + 1)))
                M_D = qr.operator_matrix(
                    CALC, lambda f: qb.cov_derivative(conn, wrap(f, g)).form,
                    [g], [g + 1])
                M_cod = qr.operator_matrix(
                    CALC,
                    lambda f: qb.cov_codifferential(conn, wrap(f, g + 1)).form,
                    [g + 1], [g])
                # sanity: the Gram really reproduces one direct pairing
                x = rng.standard_normal(M_D.shape[1]) \
                    + 1j * rng.standard_normal(M_D.shape[1])
                y = rng.standard_normal(M_D.shape[1]) \
                    + 1j * rng.standard_normal(M_D.shape[1])
                direct = qb.qvb_inner(wrap(qr.vec_to_form(CALC, x, [g]), g),
                                      wrap(qr.vec_to_form(CALC, y, [g]), g))
                if side == "right":
                    via_gram = np.conj(x) @ G_in @ y
                else:
                    via_gram = x @ G_in @ np.conj(y)
                assert abs(direct - via_gram) <= 1e-10
                devs.append(_batched_adjointness(M_D, M_cod, G_in, G_out, rng,
                                                 side == "right"))
                pair_count += 1000

        # non-real connections through the real/imaginary displacement split
        lam_r, lam_i = qb.ConnectionDisplacement(conn.A).real_decomposition()
        conn_r = GaugeConnection(lam_r.form)
        ilam = 1j * lam_i.form
        for g in range(1, 4):
            psi = QvbForm(n, "left", CALC.random_form(g, rng))
            direct = qb.cov_codifferential(conn, psi).form
            base = qb.cov_codifferential(conn_r, psi).form
            sign = -n if (g - 1) % 2 == 0 else n
            k_adj = sign * qr.hodge_inv(ilam * qr.hodge(psi.form))
            devs.append((direct - (base + k_adj)).frobenius())

    worst = max(devs)
    assert worst <= 1e-10
    print(f"criterion 4 PASS: max adjointness deviation {worst:.2e} "
          f"over {pair_count} pairs")


def test_criterion_05_integral_kills_exact_forms():
    rng = rng_for(5)
    checked = 0
    for I in XCALC.basis_indices(2):
        for r in range(2):
            for c in range(2):
                mu = DiffForm(XCALC, {I: unit_matrix(XCALC, r, c)})
                assert not bool(qr.integral(mu.d()))
                checked += 1
    for _ in range(50):
        mu = DiffForm(XCALC, {I: rational_matrix(rng)
                              for I in XCALC.basis_indices(2)})
        assert not bool(qr.integral(mu.d()))
        checked += 1
    print(f"criterion 5 PASS: {checked} exact boundary integrals vanish")


def test_criterion_06_laplacian_spectra():
    evs0 = np.sort(qr.spectrum(CALC, 0))
    dev = float(np.abs(evs0 - np.array([0.0, 2.0, 2.0, 2.0])).max())
    assert dev <= 1e-10
    herm = 0.0
    floor = 0.0
    oracle = 0.0
    for g in range(4):
        H, G = qr.gram_matrices(CALC, g)
        L = qr.operator_matrix(CALC, qr.laplacian, g) / CALC.N
        # the right-side Laplacian, which has no matrix path of its own
        R = qr.operator_matrix(CALC, lambda f: qr.laplacian(f, "right"), g) / CALC.N
        oracle = max(oracle, float(np.abs(H - L).max()))
        herm = max(herm, float(np.abs(H - H.conj().T).max()),
                   float(np.abs(G - G.conj().T).max()), float(np.abs(R - R.conj().T).max()))
        floor = min(floor, float(np.min(qr.spectrum(CALC, g))),
                    float(np.min(np.linalg.eigvalsh(CALC.N * R))))
    assert oracle <= 1e-12
    assert herm <= 1e-12
    assert floor >= -1e-9
    print(f"criterion 6 PASS: grade-0 spectrum dev {dev:.2e}, "
          f"oracle dev {oracle:.2e}, hermiticity {herm:.2e}, min eigenvalue {floor:.2e}")


def test_criterion_07_ym_solver_reaches_flat():
    rng = rng_for(7)
    worst_curv = 0.0
    worst_defect = 0.0
    for k in range(20):
        cfg0 = FieldConfiguration(GaugeConnection(CALC.random_form(1, rng)))
        t0 = time.perf_counter()
        cfg, rep = solve_stationary(
            cfg0, SolverOptions(tol=1e-9, method="gauss_newton",
                                max_iter=100000))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"run {k} took {elapsed:.1f}s"
        assert rep.converged and rep.iterations <= 100000
        curv = cfg.connection.curvature().frobenius()
        assert curv <= 1e-8, f"run {k} stopped at |dA| = {curv:.2e}"
        prec, defect = fd.flat_potential(cfg.connection)
        assert defect <= 1e-9
        worst_curv = max(worst_curv, curv)
        worst_defect = max(worst_defect, defect)
    print(f"criterion 7 PASS: 20 starts, worst |dA| {worst_curv:.2e}, "
          f"worst reconstruction {worst_defect:.2e}")


def test_criterion_08_vertical_connection_eigenvector():
    A = soliton_connection(CALC).A
    r = qr.codifferential(A.d())
    mu = qr.hodge_inner(r, A) / qr.hodge_inner(A, A)
    assert abs(mu - 1.0) <= 1e-10
    rest = (r - complex(mu) * A).frobenius()
    assert rest <= 1e-10
    print(f"criterion 8 PASS: eigenvalue {float(np.real(mu)):.12f}, "
          f"off-eigenvector residue {rest:.2e}")


def test_criterion_09_flat_triplet_is_stationary():
    cfg = triplet_flat(CALC)
    conn_res = fd.ymsm_connection_residual(cfg).frobenius()
    r1, r2 = fd.ymsm_section_residuals(cfg)
    sec_res = max(r1.form.frobenius(), r2.form.frobenius())
    assert conn_res <= 1e-10
    assert sec_res <= 1e-10
    print(f"criterion 9 PASS: connection residual {conn_res:.2e}, "
          f"section residual {sec_res:.2e}")


def test_criterion_10_vertical_triplet_connection_stationary():
    rng = rng_for(10)
    cfg = triplet_vertical(CALC)
    conn_res = fd.ymsm_connection_residual(cfg).frobenius()
    assert conn_res <= 1e-10
    r1, r2 = fd.ymsm_section_residuals(cfg)
    left_norm = r1.form.frobenius()
    right_norm = r2.form.frobenius()
    # the section equations are not satisfied here; report their size and
    # require the variational pairing to certify the nonzero values
    worst = 0.0
    used = 0
    for kind in ("connection", "left", "right"):
        for _ in range(25):
            if kind == "connection":
                direction = fd.VariationDirection(kind, CALC.random_form(1, rng))
            else:
                direction = fd.VariationDirection(kind, CALC.random_matrix(rng))
            g_an = fd.analytic_gradient(cfg, direction)
            g_fd = fd.action_gradient_fd(cfg, direction)
            scale = max(abs(g_an), abs(g_fd))
            if scale < 1e-8:
                continue  # both vanish along this direction
            worst = max(worst, abs(g_an - g_fd) / scale)
            used += 1
    assert used >= 50
    assert worst <= 1e-5
    print(f"criterion 10 PASS: connection residual {conn_res:.2e}; section "
          f"residual norms ({left_norm:.6f}, {right_norm:.6f}) match the "
          f"action gradient to {worst:.2e} relative over {used} directions")


def test_criterion_11_variational_consistency():
    rng = rng_for(11)
    worst = 0.0
    used = 0
    for k in range(100):
        n = (0, 1, 2, -1)[k % 4]
        coeffs = [float(c) for c in rng.normal(size=int(rng.integers(1, 4)))]
        cfg = fd.random_configuration(
            CALC, rng, charge=n, potential=PolynomialPotential(coeffs),
            scale=0.8)
        for kind in ("connection", "left", "right"):
            if kind == "connection":
                direction = fd.VariationDirection(kind, CALC.random_form(1, rng))
            else:
                direction = fd.VariationDirection(kind, CALC.random_matrix(rng))
            g_an = fd.analytic_gradient(cfg, direction)
            g_fd = fd.action_gradient_fd(cfg, direction)
            scale = max(abs(g_an), abs(g_fd))
            if scale < 1e-8:
                continue
            worst = max(worst, abs(g_an - g_fd) / scale)
            used += 1
    assert used >= 100
    assert worst <= 1e-5
    print(f"criterion 11 PASS: analytic/finite-difference agreement "
          f"{worst:.2e} relative over {used} pairings")


def test_criterion_12_continuity_equation():
    rng = rng_for(12)
    worst = max(fd.continuity_residual(
        GaugeConnection(CALC.random_form(1, rng))).frobenius()
        for _ in range(100))
    assert worst <= 1e-10
    print(f"criterion 12 PASS: max twice-applied residual {worst:.2e} "
          f"over 100 connections")


def test_criterion_13_constant_potential_stationary_sections():
    # exact part: central sections solve the section equations identically
    lam1 = GaussianRational("1/3", "-2/7")
    lam2 = GaussianRational("-5/2", "1/6")
    lefts, rights = fd.sm_residuals(
        XCALC, [lam1 * XCALC.identity()], [lam2 * XCALC.identity()],
        PolynomialPotential([GaussianRational(5)]))
    assert all(not bool(x) for m in lefts + rights for x in m.flat)

    # solver part: random sections relax into the central line
    rng = rng_for(13)
    cfg0 = FieldConfiguration(
        GaugeConnection.zero(CALC),
        ChargedSection(CALC, 0, "left", CALC.random_matrix(rng)),
        ChargedSection(CALC, 0, "right", CALC.random_matrix(rng)),
        PolynomialPotential([5.0]))
    cfg, rep = solve_stationary(
        cfg0, SolverOptions(tol=1e-10, method="gauss_newton",
                            vary_connection=False, max_iter=500))
    assert rep.converged
    off = 0.0
    for m in (cfg.left.p, cfg.right.p):
        m = np.asarray(m, dtype=complex)
        off = max(off, float(np.linalg.norm(
            m - np.trace(m) / 2 * np.eye(2))))
    assert off <= 1e-8
    print(f"criterion 13 PASS: exact central residual 0, solver distance "
          f"from span{{Id}} {off:.2e}")


def test_criterion_14_gauge_phase_invariance_exact():
    S = XCALC.generators
    a = S[0] + S[1] + S[2]
    cfg = FieldConfiguration(
        GaugeConnection(DiffForm(XCALC, {(1,): S[0], (2,): S[1] + S[2]})),
        ChargedSection(XCALC, 2, "left", a),
        ChargedSection(XCALC, -2, "right", a + a),
        PolynomialPotential([GaussianRational(1), GaussianRational("2/3")]))
    phase1 = GaussianRational("3/5", "4/5")     # |z| = 1 exactly
    phase2 = GaussianRational("-12/13", "5/13")
    shifted = cfg.replace(left_p=phase1 * cfg.left.p,
                          right_p=phase2 * cfg.right.p)
    for name, action in (("matter", fd.sm_action),
                         ("gauged matter", fd.gsm_action),
                         ("total", fd.ymsm_action)):
        if name == "matter":
            before = action(XCALC, [cfg.left.p], [cfg.right.p], cfg.potential)
            after = action(XCALC, [shifted.left.p], [shifted.right.p],
                           cfg.potential)
        else:
            before, after = action(cfg), action(shifted)
        assert before == after, f"{name} action moved under unit phases"
    print("criterion 14 PASS: all action integrals exactly phase-invariant")


def test_criterion_15_deterministic_verification(tmp_path):
    # seed 3 takes the triplet check's retry ladder, the longest path
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["--mode", "verify", "--seed", "3", "--out", str(out1)]) == 0
    assert cli_main(["--mode", "verify", "--seed", "3", "--out", str(out2)]) == 0
    with open(out1) as f:
        doc1 = json.load(f)
    with open(out2) as f:
        doc2 = json.load(f)
    b1 = json.dumps(doc1["report"], sort_keys=True).encode()
    b2 = json.dumps(doc2["report"], sort_keys=True).encode()
    assert b1 == b2
    print("criterion 15 PASS: repeated runs produce identical reports")
