"""Named verification checks over the whole stack.

Every check is deterministic given the run seed (each one draws from its
own child generator, so the list can be reordered or filtered without
changing individual outcomes). Checks marked convention-sensitive probe
sign choices the source material leaves open; they are reported as
warnings unless strict mode promotes them.

The registry `_CHECKS` is the one statement of each identity it checks:
the test suite runs every entry as its own case at N=2 and N=3
(tests/test_verify.py) rather than restating it. A check whose rule is
"the largest deviation over seeded draws is below a bound" is declared
with `_sweep(name, bound, salt)`, and its body only yields the deviations.
"""

from __future__ import annotations

import time

import numpy as np

from . import fields as fd
from . import qbundle as qb
from . import qriemann as qr
from .exact import GaussianRational
from .matforms import CONVENTIONS_ID, DerivationCalculus, DiffForm, dagger

_CHECKS = []


def _check(name, convention_sensitive=False):
    def register(fn):
        _CHECKS.append((name, convention_sensitive, fn))
        return fn
    return register


def _sweep(name, bound, salt=None, label="max deviation", suffix=""):
    """Register a check that passes when every deviation its body yields,
    given ctx and ctx.rng(salt) (None when no salt is given), is below
    `bound`. The detail reads "<label> <largest><suffix>". An empty sweep
    fails, as does a NaN.
    """
    def register(body):
        def check(ctx):
            devs = list(body(ctx, None if salt is None else ctx.rng(salt)))
            if not devs:
                return False, f"{label}: no draws"
            worst = float(np.max(devs))
            return worst < bound, f"{label} {worst:.2e}{suffix}"
        check.bound = bound
        return _check(name)(check)
    return register


class _Ctx:
    def __init__(self, seed, N=2):
        self.seed = seed
        self.N = N
        self.calc = DerivationCalculus(N)
        self.exact = DerivationCalculus(2, exact=True)

    def rng(self, salt):
        return np.random.default_rng([self.seed, salt])


# -- graded algebra -------------------------------------------------------

@_sweep("generator_normalization", 1e-13)
def _(ctx, _rng):
    calc = ctx.calc
    for a in range(calc.dim):
        for b in range(calc.dim):
            t = np.trace(calc.generators[a] @ calc.generators[b])
            yield abs(t - (0.5 if a == b else 0.0))


@_check("structure_constants_real_antisymmetric")
def _(ctx):
    F = np.asarray(ctx.calc.structure, dtype=complex)
    dev = max(np.max(np.abs(F.imag)), np.max(np.abs(F + np.transpose(F, (1, 0, 2)))))
    return dev < 1e-13, f"max deviation {dev:.2e}"


@_check("coframe_differential_table", convention_sensitive=True)
def _(ctx):
    calc = ctx.calc
    if calc.N != 2:
        return True, "pinned table applies to N=2 only"
    want = {1: ((2, 3), 1.0), 2: ((1, 3), -1.0), 3: ((1, 2), 1.0)}
    for c, (key, val) in want.items():
        got = calc.basis_form((c,)).d()
        comp = np.asarray(got.component(key), dtype=complex)
        if sorted(got.terms) != [key] or np.max(np.abs(comp - val * np.eye(2))) > 1e-13:
            return False, f"d h^{c} deviates from {val:+g} h^{key}"
    return True, "d h^1 = +h^23, d h^2 = -h^13, d h^3 = +h^12"


@_sweep("differential_squares_to_zero", 1e-12, 3, "max |dd w|")
def _(ctx, rng):
    for _ in range(20):
        w = sum((ctx.calc.random_form(g, rng) for g in range(1, 3)),
                ctx.calc.random_form(0, rng))
        yield w.d().d().frobenius()


@_check("differential_squares_to_zero_exact")
def _(ctx):
    rng = ctx.rng(4)
    for _ in range(5):
        w = ctx.exact.random_form(0, rng) + ctx.exact.random_form(1, rng)
        if w.d().d().terms:
            return False, "dd w != 0 in rational arithmetic"
    return True, "dd = 0 exactly in rational arithmetic"


@_sweep("graded_leibniz_rule", 1e-10, 5)
def _(ctx, rng):
    for gm in range(0, 3):
        for gn in range(0, 3 - gm):
            for _ in range(10):
                mu = ctx.calc.random_form(gm, rng)
                nu = ctx.calc.random_form(gn, rng)
                lhs = (mu * nu).d()
                rhs = mu.d() * nu + (-1) ** gm * (mu * nu.d())
                yield (lhs - rhs).frobenius()


@_sweep("involution_graded_antimultiplicative", 1e-10, 6)
def _(ctx, rng):
    for gm in range(0, 3):
        for gn in range(0, 3 - gm):
            mu = ctx.calc.random_form(gm, rng)
            nu = ctx.calc.random_form(gn, rng)
            lhs = (mu * nu).star()
            rhs = (-1) ** (gm * gn) * (nu.star() * mu.star())
            yield (lhs - rhs).frobenius()


@_sweep("differential_commutes_with_involution", 1e-11, 7)
def _(ctx, rng):
    for g in range(0, 3):
        mu = ctx.calc.random_form(g, rng)
        yield (mu.star().d() - mu.d().star()).frobenius()


@_sweep("wedge_associative_and_central_coefficients", 1e-12, 8)
def _(ctx, rng):
    calc = ctx.calc
    for _ in range(10):
        a = calc.random_form(1, rng)
        b = calc.random_form(1, rng)
        c = calc.random_form(1, rng)
        yield ((a * b) * c - a * (b * c)).frobenius()
        p = calc.random_matrix(rng)
        yield ((calc.scalar_form(p) * a) - a.lmul(p)).frobenius()
        yield ((a * calc.scalar_form(p)) - a.rmul(p)).frobenius()


# -- Riemannian layer ------------------------------------------------------

@_check("state_unital_volume_normalized")
def _(ctx):
    calc = ctx.calc
    ok = abs(qr.state(calc.identity()) - 1) < 1e-14
    ok = ok and abs(qr.integral(calc.volume_form()) - 1) < 1e-14
    return ok, "s(Id) = 1 and integral of dvol = 1"


@_check("integral_rejects_lower_grades")
def _(ctx):
    try:
        qr.integral(ctx.calc.basis_form((1,)))
    except qr.GradeError:
        return True, "GradeError raised on grade-1 input"
    return False, "grade guard missing"


@_check("boundaryless_integral")
def _(ctx):
    rng = ctx.rng(11)
    calc = ctx.calc
    devs = [abs(qr.integral(calc.random_form(calc.dim - 1, rng).d())) for _ in range(50)]
    # and exactly, in rational arithmetic
    for _ in range(5):
        w = ctx.exact.random_form(2, rng)
        if qr.integral(w.d()) != GaussianRational(0):
            return False, "exact-mode integral of an exact top form is nonzero"
    worst = float(np.max(devs))
    return worst < 1e-13, f"max |integral(d mu)| {worst:.2e}"


@_check("hodge_basis_values", convention_sensitive=True)
def _(ctx):
    calc = ctx.calc
    if calc.N != 2:
        return True, "pinned values apply to N=2 only"
    rng = ctx.rng(12)
    p = calc.random_matrix(rng)
    ok = qr.hodge(calc.scalar_form(calc.identity())).allclose(calc.volume_form())
    ok = ok and qr.hodge(calc.basis_form((1,), p)).allclose(calc.basis_form((2, 3), dagger(p)), 1e-13)
    ok = ok and qr.hodge(calc.basis_form((1, 3), p)).allclose(-1 * calc.basis_form((2,), dagger(p)), 1e-13)
    return ok, "star(1) = dvol, star(h^1 p) = h^23 p+, star(h^13 p) = -h^2 p+"


@_sweep("hodge_defining_property", 1e-11, 13)
def _(ctx, rng):
    calc = ctx.calc
    for g in range(calc.dim + 1):
        for _ in range(25):
            a = calc.random_form(g, rng)
            b = calc.random_form(g, rng)
            lhs = a * qr.hodge(b)
            rhs = calc.volume_form().lmul(qr.metric(a, b, "left"))
            yield (lhs - rhs).frobenius()


@_sweep("hodge_double_application_sign", 1e-12, 14)
def _(ctx, rng):
    calc = ctx.calc
    d = calc.dim
    for k in range(d + 1):
        mu = calc.random_form(k, rng)
        yield (qr.hodge(qr.hodge(mu)) - (-1) ** (k * (d - k)) * mu).frobenius()
        yield (qr.hodge_inv(qr.hodge(mu)) - mu).frobenius()


@_sweep("hodge_module_rules", 1e-11, 15)
def _(ctx, rng):
    calc = ctx.calc
    for k in range(calc.dim + 1):
        mu = calc.random_form(k, rng)
        p = calc.random_matrix(rng)
        yield (qr.hodge(mu.rmul(p)) - qr.hodge(mu).lmul(dagger(p))).frobenius()
        yield (qr.hodge_inv(mu.lmul(p)) - qr.hodge_inv(mu).rmul(dagger(p))).frobenius()


@_sweep("hodge_pairing_shift", 1e-11, 16)
def _(ctx, rng):
    calc = ctx.calc
    for ga in range(calc.dim + 1):
        for gb in range(calc.dim + 1 - ga):
            gc = calc.dim - ga - gb
            mu_hat = calc.random_form(ga, rng)
            mu_t = calc.random_form(gb, rng)
            mu = calc.random_form(gc, rng)
            lhs = qr.hodge_inner(mu_hat, qr.hodge_inv(mu_t * mu), "left")
            rhs = qr.hodge_inner(mu_hat * mu_t, qr.hodge_inv(mu), "left")
            yield abs(lhs - rhs)


@_sweep("right_structures_by_involution", 1e-12, 17)
def _(ctx, rng):
    calc = ctx.calc
    for g in range(calc.dim + 1):
        a = calc.random_form(g, rng)
        b = calc.random_form(g, rng)
        yield float(np.max(np.abs(
            qr.metric(a, b, "right") - qr.metric(a.star(), b.star(), "left"))))
        yield (qr.hodge_inv(qr.hodge(a, "right"), "right") - a).frobenius()


@_check("metric_module_and_positivity")
def _(ctx):
    rng = ctx.rng(18)
    calc = ctx.calc
    worst = 0.0
    for g in range(calc.dim + 1):
        a = calc.random_form(g, rng)
        b = calc.random_form(g, rng)
        m = calc.random_matrix(rng)
        worst = float(np.maximum(worst, np.max(np.abs(
            qr.metric(a.rmul(m), b, "left") - qr.metric(a, b.rmul(dagger(m)), "left")))))
        gram = np.asarray(qr.metric(a, a, "left"), dtype=complex)
        ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        if np.min(ev) < -1e-10 or abs(qr.hodge_inner(a, a, "left")) < 1e-12:
            return False, "metric not positive on a nonzero form"
    return worst < 1e-11, f"max deviation {worst:.2e}"


@_sweep("codifferential_adjoint_to_differential", qr.ADJOINT_TOL, 19)
def _(ctx, rng):
    calc = ctx.calc
    for side in ("left", "right"):
        for g in range(calc.dim):
            for _ in range(40):
                a = calc.random_form(g, rng)
                b = calc.random_form(g + 1, rng)
                yield abs(qr.hodge_inner(a.d(), b, side)
                          - qr.hodge_inner(a, qr.codifferential(b, side), side))


@_sweep("codifferential_squares_to_zero", 1e-12, 20)
def _(ctx, rng):
    calc = ctx.calc
    for g in range(calc.dim + 1):
        mu = calc.random_form(g, rng)
        yield qr.codifferential(qr.codifferential(mu)).frobenius()


@_sweep("codifferential_module_identities", 1e-10, 21)
def _(ctx, rng):
    calc = ctx.calc
    d = calc.dim
    for g in range(1, d + 1):
        mu = calc.random_form(g, rng)
        m = calc.random_matrix(rng)
        lhs = qr.codifferential(mu.lmul(dagger(m)))
        rhs = (qr.codifferential(mu).lmul(dagger(m))
               + (-1) ** d * qr.hodge_inv(qr.hodge(mu) * calc.scalar_form(m).d()))
        yield (lhs - rhs).frobenius()
        lhs = qr.codifferential(mu.rmul(m))
        rhs = (qr.codifferential(mu).rmul(m)
               + (-1) ** g * qr.hodge_inv(calc.scalar_form(dagger(m)).d() * qr.hodge(mu)))
        yield (lhs - rhs).frobenius()


@_sweep("codifferential_closed_form_grade1", 1e-12, 22)
def _(ctx, rng):
    calc = ctx.calc
    for _ in range(20):
        ps = [calc.random_matrix(rng) for _ in range(calc.dim)]
        mu = DiffForm(calc, {(k + 1,): p for k, p in enumerate(ps)})
        expect = calc.zero_matrix()
        for k, p in enumerate(ps):
            expect = expect - calc.derive(k + 1, p)
        yield (qr.codifferential(mu) - calc.scalar_form(expect)).frobenius()


@_check("codifferential_closed_form_grade2_exact")
def _(ctx):
    rng = ctx.rng(23)
    calc = ctx.exact
    for _ in range(5):
        p12, p13, p23 = (calc.random_matrix(rng) for _ in range(3))
        mu = DiffForm(calc, {(1, 2): p12, (1, 3): p13, (2, 3): p23})
        expect = DiffForm(calc, {
            (1,): calc.derive(2, p12) + calc.derive(3, p13) + p23,
            (2,): -calc.derive(1, p12) + calc.derive(3, p23) - p13,
            (3,): -calc.derive(1, p13) - calc.derive(2, p23) + p12,
        })
        if not (qr.codifferential(mu) == expect):
            return False, "grade-2 closed form deviates in rational arithmetic"
    return True, "grade-2 closed form holds exactly"


@_check("codifferential_closed_form_grade3")
def _(ctx):
    rng = ctx.rng(24)
    calc = ctx.calc
    if calc.N != 2:
        return True, "closed form pinned for N=2 only"
    worst = 0.0
    for _ in range(20):
        p = calc.random_matrix(rng)
        mu = calc.basis_form((1, 2, 3), p)
        expect = DiffForm(calc, {
            (1, 2): -calc.derive(3, p),
            (1, 3): calc.derive(2, p),
            (2, 3): -calc.derive(1, p),
        })
        worst = float(np.maximum(worst, (qr.codifferential(mu) - expect).frobenius()))
    return worst < 1e-12, f"max deviation {worst:.2e}"


@_sweep("laplacian_grade0_closed_form", qr.IDENTITY_TOL, 25)
def _(ctx, rng):
    calc = ctx.calc
    N = calc.N
    for _ in range(200):
        p = calc.random_matrix(rng)
        got = qr.laplacian(calc.scalar_form(p)).component(())
        expect = N * (p - qr.state(p) * np.eye(N))
        yield float(np.max(np.abs(got - expect)))


@_check("laplacian_spectra")
def _(ctx):
    calc, N = ctx.calc, ctx.calc.N
    herm, spectra = [], []
    for g in range(calc.dim + 1):  # each grade's Gram matrix built once
        H, G = qr.gram_matrices(calc, g)
        herm.append(np.max(np.abs(H - H.conj().T)))
        spectra.append(qr.eigensolve(H, G))
    # the grade-0 Laplacian is N on traceless matrices
    want0 = np.array([0] + [N] * (N * N - 1))
    s0 = spectra[0]
    if np.max(np.abs(np.sort(s0) - want0)) > 1e-10:
        return False, f"grade-0 spectrum {s0}"
    if N == 2:
        s1 = np.sort(spectra[1])
        want = np.array([1.0] * 4 + [2.0] * 3 + [4.0] * 5)
        if np.max(np.abs(s1 - want)) > 1e-10:
            return False, f"grade-1 spectrum {s1}"
    if np.max(np.abs(np.sort(spectra[-1]) - np.sort(s0))) > 1e-10:
        return False, "top-grade spectrum differs from grade 0"
    for g in range(calc.dim + 1):
        if herm[g] > 1e-12:
            return False, f"grade-{g} Gram matrix not hermitian"
        if np.min(spectra[g]) < -qr.PSD_SLACK:
            return False, f"grade-{g} spectrum dips below -{qr.PSD_SLACK}"
    grade0 = ",".join(map(str, want0))
    return True, f"grade-0 {{{grade0}}}; top grade matches; all Grams hermitian PSD"


@_check("vertical_soliton_eigenvector")
def _(ctx):
    calc = ctx.calc
    if calc.N != 2:
        return True, "statement pinned for N=2"
    S = calc.generators
    A = DiffForm(calc, {(1,): S[0], (2,): S[1], (3,): S[2]})
    lhs = qr.codifferential(A.d())
    mu = qr.hodge_inner(lhs, A, "left") / qr.hodge_inner(A, A, "left")
    resid = (lhs - mu * A).frobenius()
    return abs(mu - 1) < 1e-10 and resid < 1e-10, f"eigenvalue {mu:.12g}, defect {resid:.2e}"


# -- bundle layer ---------------------------------------------------------

@_sweep("cov_derivative_matches_total_space_oracle", 1e-11, 30)
def _(ctx, rng):
    calc = ctx.calc
    for n in (-2, -1, 0, 1, 2):
        for g in range(0, 3):
            for side in ("left", "right"):
                for _ in range(4):
                    conn = qb.GaugeConnection(calc.random_form(1, rng))
                    psi = qb.QvbForm(n, side, calc.random_form(g, rng))
                    fast = qb.cov_derivative(conn, psi)
                    ref = qb.reference_cov_derivative(conn, psi)
                    yield (fast.form - ref.form).frobenius()


@_check("cov_derivative_unit_section_sign", convention_sensitive=True)
def _(ctx):
    rng = ctx.rng(31)
    calc = ctx.calc
    conn = qb.GaugeConnection(calc.random_form(1, rng))
    T = qb.ChargedSection(calc, 1, "left", calc.identity())
    dev = (qb.cov_derivative(conn, T).form + conn.A).frobenius()
    return dev < 1e-12, f"D(Id T^1) = -A, deviation {dev:.2e}"


@_sweep("cov_derivative_charge0_connection_free", 1e-13, 32)
def _(ctx, rng):
    calc = ctx.calc
    p = calc.random_matrix(rng)
    T = qb.ChargedSection(calc, 0, "left", p)
    want = calc.scalar_form(p).d()
    for _ in range(10):
        conn = qb.GaugeConnection(calc.random_form(1, rng))
        yield (qb.cov_derivative(conn, T).form - want).frobenius()


@_sweep("cov_codifferential_adjointness", qr.ADJOINT_TOL, 33)
def _(ctx, rng):
    calc = ctx.calc
    for side in ("left", "right"):
        for n in (-2, -1, 1, 2):
            for g in range(0, 3):
                for _ in range(10):
                    conn = qb.GaugeConnection(calc.random_form(1, rng))
                    a = qb.QvbForm(n, side, calc.random_form(g, rng))
                    b = qb.QvbForm(n, side, calc.random_form(g + 1, rng))
                    yield abs(qb.qvb_inner(qb.cov_derivative(conn, a), b)
                              - qb.qvb_inner(a, qb.cov_codifferential(conn, b)))


@_sweep("cov_codifferential_decomposition_route", 1e-11, 34)
def _(ctx, rng):
    calc = ctx.calc
    for n in (-1, 1, 2):
        for g in range(1, 3):
            conn = qb.GaugeConnection(calc.random_form(1, rng))
            lam_r, lam_i = qb.ConnectionDisplacement(conn.A).real_decomposition()
            conn_r = qb.GaugeConnection(lam_r.form)
            ilam = 1j * lam_i.form
            psi = qb.QvbForm(n, "left", calc.random_form(g, rng))
            direct = qb.cov_codifferential(conn, psi).form
            base = qb.cov_codifferential(conn_r, psi).form
            sign = -n if (g - 1) % 2 == 0 else n
            k_adj = sign * qr.hodge_inv(ilam * qr.hodge(psi.form))
            yield (direct - (base + k_adj)).frobenius()


@_check("qvb_inner_positive_and_guarded")
def _(ctx):
    rng = ctx.rng(35)
    calc = ctx.calc
    for _ in range(100):
        g = int(rng.integers(0, calc.dim + 1))
        side = "left" if rng.integers(2) else "right"
        psi = qb.QvbForm(1, side, calc.random_form(g, rng))
        v = qb.qvb_inner(psi, psi)
        if abs(v.imag) > 1e-11 or v.real <= 0:
            return False, f"non-positive self pairing {v}"
    try:
        qb.qvb_inner(qb.QvbForm(1, "left", calc.random_form(1, rng)),
                     qb.QvbForm(2, "left", calc.random_form(1, rng)))
        return False, "charge guard missing"
    except qb.ChargeMismatchError:
        return True, "positive on 100 draws; mismatch raises"


@_sweep("upsilon_roundtrip", 1e-13, 36)
def _(ctx, rng):
    calc = ctx.calc
    for side in ("left", "right"):
        T = qb.ChargedSection(calc, 2, side, calc.random_matrix(rng))
        mu = calc.random_form(1, rng)
        psi = qb.upsilon_inv(mu, T)
        psi2 = qb.upsilon_inv(*qb.upsilon(psi))
        yield (psi.form - psi2.form).frobenius()


@_sweep("displacement_difference_identity", 1e-12, 37)
def _(ctx, rng):
    calc = ctx.calc
    for n in (-1, 0, 1, 2):
        base = qb.GaugeConnection(calc.random_form(1, rng))
        lam = qb.ConnectionDisplacement(calc.random_form(1, rng))
        psi = qb.QvbForm(n, "left", calc.random_form(0, rng))
        diff = qb.cov_derivative(base + lam, psi) - qb.cov_derivative(base, psi)
        yield (diff.form - qb.displacement_K(lam, psi).form).frobenius()


@_check("bianchi_identity")
def _(ctx):
    rng = ctx.rng(38)
    conn = qb.GaugeConnection(ctx.calc.random_form(1, rng))
    dev = conn.curvature().d().frobenius()
    return dev < 1e-12, f"|d R| = {dev:.2e}"


@_check("cov_laplacian_hermitian_psd")
def _(ctx):
    rng = ctx.rng(39)
    calc = ctx.calc
    conn = qb.GaugeConnection(calc.random_form(1, rng))
    # <L b_j, b_i> in the h^I E_rc basis is L's coefficient matrix over N
    H = qr.operator_matrix(
        calc, lambda f: qb.cov_laplacian(conn, qb.QvbForm(1, "left", f)).form, 0) / calc.N
    herm = float(np.max(np.abs(H - H.conj().T)))
    ev = np.linalg.eigvalsh((H + H.conj().T) / 2)
    return herm < 1e-12 and np.min(ev) > -qr.PSD_SLACK, \
        f"hermiticity defect {herm:.2e}, min eigenvalue {np.min(ev):.3e}"


# -- actions and field equations -------------------------------------------

@_check("ym_action_real_nonpositive_star_symmetric")
def _(ctx):
    rng = ctx.rng(50)
    calc = ctx.calc
    for _ in range(30):
        conn = qb.GaugeConnection(calc.random_form(1, rng))
        F = conn.curvature()
        Fh = conn.hat().curvature()
        left = qr.hodge_inner(F, F, "left")
        right = qr.hodge_inner(Fh, Fh, "right")
        v = complex(fd.ym_action(conn))
        if abs(v.imag) > 1e-12 or v.real > 1e-13 or abs(left - right) > 1e-11:
            return False, f"value {v}, side difference {abs(left-right):.2e}"
    return True, "real, nonpositive, and side-symmetric on 30 draws"


@_check("ym_stationary_iff_flat")
def _(ctx):
    rng = ctx.rng(51)
    calc = ctx.calc
    for _ in range(50):
        p = calc.random_matrix(rng)
        flat = qb.GaugeConnection(calc.scalar_form(p).d())
        if fd.ym_residual(flat).frobenius() > 1e-11:
            return False, "flat connection with nonzero residual"
        conn = qb.GaugeConnection(calc.random_form(1, rng))
        if conn.curvature().frobenius() > 1e-6 and fd.ym_residual(conn).frobenius() < 1e-12:
            return False, "curved connection with zero residual"
    return True, "flat => residual 0; curved => residual > 0 (50 draws each)"


@_sweep("worked_example_flat_sections", 1e-10, label="max residual")
def _(ctx, _rng):
    calc = ctx.calc
    S = calc.generators
    a = S[0] + S[1] + S[2]
    # the grade-0 Laplacian is N on traceless matrices, so V = Nq
    cfg = fd.FieldConfiguration(
        qb.GaugeConnection.zero(calc),
        qb.ChargedSection(calc, 1, "left", a),
        qb.ChargedSection(calc, -1, "right", a),
        fd.PolynomialPotential([0, calc.N]))
    r1, r2 = fd.ymsm_section_residuals(cfg)
    yield fd.ymsm_connection_residual(cfg).frobenius()
    yield r1.form.frobenius()
    yield r2.form.frobenius()


def _vertical_example(calc):
    """A = sum_k h^k S_k with sections sqrt(3) Id and Id, V = -3q/4."""
    S = calc.generators
    return fd.FieldConfiguration(
        qb.GaugeConnection(DiffForm(calc, {(1,): S[0], (2,): S[1], (3,): S[2]})),
        qb.ChargedSection(calc, 1, "left", np.sqrt(3) * np.eye(2)),
        qb.ChargedSection(calc, -1, "right", calc.identity()),
        fd.PolynomialPotential([0, -0.75]))


@_check("worked_example_vertical_connection")
def _(ctx):
    if ctx.N != 2:
        return True, "worked example is N=2"
    dev = fd.ymsm_connection_residual(_vertical_example(ctx.calc)).frobenius()
    return dev < 1e-10, f"connection equation residual {dev:.2e}"


@_check("worked_example_vertical_section_values", convention_sensitive=True)
def _(ctx):
    if ctx.N != 2:
        return True, "worked example is N=2"
    r1, r2 = fd.ymsm_section_residuals(_vertical_example(ctx.calc))
    g1 = np.asarray(r1.form.component(()), dtype=complex)
    g2 = np.asarray(r2.form.component(()), dtype=complex)
    d1 = float(np.max(np.abs(g1 - 1.5 * np.sqrt(3) * np.eye(2))))
    d2 = float(np.max(np.abs(g2 - 1.5 * np.eye(2))))
    return max(d1, d2) < 1e-10, (
        "under this ledger the section equations evaluate to (3*sqrt(3)/2) Id"
        f" and (3/2) Id; deviations {d1:.2e}, {d2:.2e}")


@_sweep("connection_equation_operator_route", 1e-10, 52)
def _(ctx, rng):
    calc = ctx.calc
    for _ in range(15):
        n = int(rng.integers(1, 3))
        cfg = fd.random_configuration(calc, rng, charge=n,
                                      potential=fd.PolynomialPotential([0.3, 0.9]))
        q1 = qb.cov_derivative(cfg.connection, cfg.left).form
        q2 = qb.cov_derivative(cfg.connection, cfg.right).form
        other = (-2 * fd.ym_residual(cfg.connection)
                 - n * q1.lmul(dagger(cfg.left.p)) + n * q2.star().lmul(cfg.right.p))
        yield (fd.ymsm_connection_residual(cfg) - other).frobenius()


def _fd_sweep(ctx, rng, kind):
    """Relative errors of action_gradient_fd against analytic_gradient
    along random `kind` directions, over 100 pairs."""
    calc = ctx.calc
    for _ in range(100):
        n = int(rng.integers(1, 3)) if rng.integers(2) else 0
        cfg = fd.random_configuration(
            calc, rng, charge=n,
            potential=fd.PolynomialPotential([0.4, -1.1, 0.6]))
        if kind == "connection":
            direction = fd.VariationDirection.connection(calc.random_form(1, rng))
        else:
            direction = fd.VariationDirection(kind, calc.random_matrix(rng))
        g_fd = fd.action_gradient_fd(cfg, direction)
        g_an = complex(fd.analytic_gradient(cfg, direction))
        yield abs(g_fd - g_an) / max(abs(g_fd), abs(g_an), 1e-8)


_PAIRS = dict(label="worst relative error", suffix=" over 100 pairs")


@_sweep("variational_consistency_connection", 1e-5, 53, **_PAIRS)
def _(ctx, rng):
    return _fd_sweep(ctx, rng, "connection")


@_sweep("variational_consistency_left_section", 1e-5, 54, **_PAIRS)
def _(ctx, rng):
    return _fd_sweep(ctx, rng, "left")


@_sweep("variational_consistency_right_section", 1e-5, 55, **_PAIRS)
def _(ctx, rng):
    return _fd_sweep(ctx, rng, "right")


@_sweep("charge_zero_reduction", 1e-11, 56)
def _(ctx, rng):
    calc = ctx.calc
    for _ in range(10):
        cfg = fd.random_configuration(calc, rng, charge=0,
                                      potential=fd.PolynomialPotential([0.5, 0.8]))
        yield (fd.ymsm_connection_residual(cfg) - fd.ym_residual(cfg.connection)).frobenius()
        ls, rs = fd.sm_residuals(calc, [cfg.left.p], [cfg.right.p], cfg.potential)
        r1, r2 = fd.ymsm_section_residuals(cfg)
        yield float(np.max(np.abs(
            np.asarray(r1.form.component(()), dtype=complex) - ls[0])))
        yield float(np.max(np.abs(
            np.asarray(dagger(r2.form.component(())), dtype=complex) - rs[0])))


@_check("sm_constant_potential_stationary_exact")
def _(ctx):
    calc = ctx.exact
    lam1 = GaussianRational(1, 2)
    lam2 = GaussianRational(-3, 5)
    Id = calc.identity()
    ls, rs = fd.sm_residuals(calc, [lam1 * Id], [lam2 * Id],
                             fd.PolynomialPotential([7]))
    if any(np.any(m) for m in ls + rs):
        return False, "central sections fail constant-potential equations"
    return True, "residuals vanish exactly in rational arithmetic"


@_check("gauge_phase_invariance_exact")
def _(ctx):
    calc = ctx.exact
    S = calc.generators
    a = S[0] + S[1] + S[2]
    cfg = fd.FieldConfiguration(
        qb.GaugeConnection(DiffForm(calc, {(1,): S[0], (3,): S[2]})),
        qb.ChargedSection(calc, 1, "left", a),
        qb.ChargedSection(calc, -1, "right", a + a),
        fd.PolynomialPotential([1, 2]))
    base = fd.gsm_action(cfg)
    phase1 = GaussianRational("3/5", "4/5")    # unit modulus, exactly
    phase2 = GaussianRational("-4/5", "3/5")
    shifted = cfg.replace(left_p=phase1 * cfg.left.p, right_p=phase2 * cfg.right.p)
    if fd.gsm_action(shifted) != base:
        return False, "phase shift moved the action in exact arithmetic"
    total0 = fd.ymsm_action(cfg)
    total1 = fd.ymsm_action(shifted)
    return total0 == total1, "action invariant under exact unit phases"


@_sweep("continuity_equation", 1e-10, 57, "max residual", " over 100 draws")
def _(ctx, rng):
    for _ in range(100):
        conn = qb.GaugeConnection(ctx.calc.random_form(1, rng))
        yield fd.continuity_residual(conn).frobenius()


@_sweep("flat_reconstruction", 1e-9, 58, "max defect")
def _(ctx, rng):
    calc = ctx.calc
    for _ in range(20):
        p = calc.random_matrix(rng)
        conn = qb.GaugeConnection(calc.scalar_form(p).d())
        prec, defect = fd.flat_potential(conn)
        yield defect
        yield (conn.A - calc.scalar_form(prec).d()).frobenius()


@_check("solver_ym_reaches_flat")
def _(ctx):
    rng = ctx.rng(59)
    calc = ctx.calc
    for _ in range(3):
        cfg0 = fd.FieldConfiguration(qb.GaugeConnection(calc.random_form(1, rng)))
        cfg, rep = fd.solve_stationary(
            cfg0, fd.SolverOptions(tol=1e-10, max_iter=200))
        if not rep.converged or cfg.connection.curvature().frobenius() > 1e-8:
            return False, "a run failed to reach a flat connection"
        if fd.flat_potential(cfg.connection)[1] > 1e-9:
            return False, "flat potential reconstruction defect too large"
    return True, "3 random starts all reach flat connections with potentials"


@_check("solver_sm_constant_potential")
def _(ctx):
    rng = ctx.rng(60)
    calc = ctx.calc
    cfg0 = fd.FieldConfiguration(
        qb.GaugeConnection.zero(calc),
        qb.ChargedSection(calc, 0, "left", calc.random_matrix(rng)),
        qb.ChargedSection(calc, 0, "right", calc.random_matrix(rng)),
        fd.PolynomialPotential([5.0]))
    cfg, rep = fd.solve_stationary(
        cfg0, fd.SolverOptions(tol=1e-10, vary_connection=False, max_iter=200))
    if not rep.converged:
        return False, "solver did not converge"
    p = np.asarray(cfg.left.p, dtype=complex)
    q = np.asarray(cfg.right.p, dtype=complex)
    off = max(float(np.linalg.norm(p - np.trace(p) / calc.N * np.eye(calc.N))),
              float(np.linalg.norm(q - np.trace(q) / calc.N * np.eye(calc.N))))
    return off < 1e-8, f"distance from central sections {off:.2e}"


@_check("solver_recovers_flat_section_triplet")
def _(ctx):
    rng = ctx.rng(61)
    calc = ctx.calc
    S = calc.generators
    a = S[0] + S[1] + S[2]
    V = fd.PolynomialPotential([0, calc.N])  # as in worked_example_flat_sections
    ref = fd.FieldConfiguration(
        qb.GaugeConnection.zero(calc),
        qb.ChargedSection(calc, 1, "left", a),
        qb.ChargedSection(calc, -1, "right", a), V)
    dA = calc.random_form(1, rng)
    du, dv = calc.random_matrix(rng), calc.random_matrix(rng)
    # Some perturbation directions leave the quadratic basin and descend
    # through a slow saddle region; retrying closer to the reference keeps
    # the check bounded without weakening what it certifies.
    for scale in (0.05, 0.02, 0.008):
        cfg0 = fd.FieldConfiguration(
            qb.GaugeConnection(scale * dA),
            qb.ChargedSection(calc, 1, "left", a + scale * du),
            qb.ChargedSection(calc, -1, "right", a + scale * dv), V)
        cfg, rep = fd.solve_stationary(
            cfg0, fd.SolverOptions(tol=1e-9, max_iter=150))
        if rep.converged:
            gap = abs(complex(fd.ymsm_action(cfg)) - complex(fd.ymsm_action(ref)))
            return gap < 1e-6, (f"action gap {gap:.2e} from a perturbation "
                                f"of size {scale}")
    return False, "solver did not converge near the reference triplet"


@_sweep("exact_numeric_cross_check", 1e-12, 62)
def _(ctx, rng):
    exact = ctx.exact
    calc = DerivationCalculus(2)  # the exact calculus exists at N=2 only
    w_ex = exact.random_form(1, rng)
    w_nu = DiffForm(calc, {I: np.asarray(p, dtype=complex) for I, p in w_ex.terms.items()})
    for ex, nu in [(qr.codifferential(w_ex.d()), qr.codifferential(w_nu.d())),
                   (qr.hodge(w_ex), qr.hodge(w_nu))]:
        diff = DiffForm(calc, {I: np.asarray(p, dtype=complex) for I, p in ex.terms.items()}) - nu
        yield diff.frobenius()


def run_verification(seed=0, N=2, strict_conventions=False, check_seconds=None):
    """Run every check; returns a deterministic report dictionary.

    Wall-clock time stays out of the report: pass a dict as check_seconds
    to receive each check's seconds under its name, in check order.
    """
    ctx = _Ctx(seed, N)
    checks = []
    passed = failed = warned = 0
    for name, sensitive, fn in _CHECKS:
        started = time.perf_counter()
        ok, detail = fn(ctx)
        if check_seconds is not None:
            check_seconds[name] = time.perf_counter() - started
        if ok:
            status = "pass"
            passed += 1
        elif sensitive and not strict_conventions:
            status = "warn"
            warned += 1
        else:
            status = "fail"
            failed += 1
        checks.append({
            "name": name,
            "status": status,
            "convention_sensitive": sensitive,
            "detail": detail,
        })
    return {
        "mode": "verify",
        "seed": seed,
        "N": N,
        "conventions_id": CONVENTIONS_ID,
        "strict_conventions": strict_conventions,
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": passed,
            "failed": failed,
            "warned": warned,
        },
        "ok": failed == 0,
    }
