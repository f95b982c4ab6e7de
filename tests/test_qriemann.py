"""Metric layer: Hodge star, codifferential, Laplacian, spectra.

The Hodge star has an implementation-independent characterization: for
mu of grade k, star(mu) is the unique grade d-k form X with
mu_hat ^ X = <mu_hat, mu> dvol for every grade-k basis form mu_hat.
The oracle below recovers X with a dense linear solve and never touches
the production sign bookkeeping.
"""

import io
import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matym import (
    DiffForm,
    GaussianRational,
    GradeError,
    codifferential,
    dagger,
    gram_matrices,
    hodge,
    hodge_inner,
    hodge_inv,
    integral,
    laplacian,
    metric,
    spectrum,
    state,
    write_spectrum_csv,
)
from matym.cli import main
from matym.qriemann import (codifferential_matrix, d_matrix, form_to_vec, grade_basis,
                             operator_matrix, vec_to_form)


def oracle_hodge(a):
    """Solve the defining property for star(a) instead of computing it.

    The wedge-to-top pairing is perfect, and grade_basis enumerates every
    coframe index set against every matrix unit, so the state-valued
    system below is square and pins star(a) uniquely.
    """
    calc = a.calc
    k = a.grade if a.terms else 0
    basis_in = grade_basis(calc, [k])
    basis_out = grade_basis(calc, [calc.dim - k])
    M = np.array([[integral(bh * bo) for bo in basis_out] for bh in basis_in])
    rhs = np.array([state(metric(bh, a, "left")) for bh in basis_in])
    return vec_to_form(calc, np.linalg.solve(M, rhs), [calc.dim - k])


# -- state and integral ------------------------------------------------------

def test_state_is_normalized_trace(calc, rng):
    p = calc.random_matrix(rng)
    assert abs(state(p) - np.trace(p) / 2) < 1e-15
    assert abs(state(calc.identity()) - 1) < 1e-15
    q = calc.random_matrix(rng)
    assert abs(state(p @ q) - state(q @ p)) < 1e-13


def test_integral_top_grade_only(calc, rng):
    assert abs(integral(calc.volume_form()) - 1) < 1e-15
    p = calc.random_matrix(rng)
    assert abs(integral(calc.basis_form((1, 2, 3), p)) - state(p)) < 1e-14
    for bad_grade in (0, 1, 2):
        with pytest.raises(GradeError):
            integral(calc.random_form(bad_grade, rng))
    mixed = calc.random_form(3, rng) + calc.random_form(1, rng)
    with pytest.raises(GradeError):
        integral(mixed)


def test_integral_kills_exact_forms_exactly(xcalc, rng):
    for _ in range(10):
        mu = xcalc.random_form(2, rng)
        assert integral(mu.d()) == GaussianRational(0)


# -- metric ------------------------------------------------------------------

def test_metric_basis_values(calc, rng):
    p, q = calc.random_matrix(rng), calc.random_matrix(rng)
    a = calc.basis_form((1, 3), p)
    b = calc.basis_form((1, 3), q)
    assert np.allclose(metric(a, b, "left"), p @ dagger(q))
    assert np.allclose(metric(a, b, "right"), dagger(p) @ q)
    c = calc.basis_form((1, 2), q)
    assert np.allclose(metric(a, c, "left"), 0)


def test_metric_grade_orthogonality_and_mixed(calc, rng):
    a = calc.random_form(1, rng) + calc.random_form(2, rng)
    b = calc.random_form(1, rng)
    assert np.allclose(metric(a, b, "left"),
                       metric(a.graded_part(1), b, "left"))


def test_metric_sesquilinear(calc, rng):
    a, b = calc.random_form(2, rng), calc.random_form(2, rng)
    z = 0.7 - 1.9j
    assert np.allclose(metric(z * a, b, "left"), z * np.asarray(metric(a, b, "left")))
    assert np.allclose(metric(a, z * b, "left"),
                       np.conj(z) * np.asarray(metric(a, b, "left")))
    # right version is antilinear in the first slot
    assert np.allclose(metric(z * a, b, "right"),
                       np.conj(z) * np.asarray(metric(a, b, "right")))


def test_hodge_inner_properties(calc, rng):
    for side in ("left", "right"):
        a, b = calc.random_form(1, rng), calc.random_form(1, rng)
        assert abs(hodge_inner(a, b, side) - np.conj(hodge_inner(b, a, side))) < 1e-12
        v = hodge_inner(a, a, side)
        assert abs(v.imag) < 1e-12 and v.real > 0
    assert abs(hodge_inner(calc.scalar_form(calc.identity()),
                           calc.scalar_form(calc.identity()), "left") - 1) < 1e-14


# -- Hodge star --------------------------------------------------------------

def test_hodge_unit_and_volume(calc):
    one = calc.scalar_form(calc.identity())
    assert hodge(one).allclose(calc.volume_form())
    assert hodge(calc.volume_form()).allclose(one)


def test_hodge_against_linear_solve_oracle(calc, rng):
    for g in range(0, 4):
        a = calc.random_form(g, rng)
        assert hodge(a).allclose(oracle_hodge(a), 1e-10)


def test_hodge_defining_property_exhaustive_basis(calc):
    units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for i in range(4):
        units[i][divmod(i, 2)] = 1.0
    for g in range(0, 4):
        idxs = list(itertools.combinations(range(1, 4), g))
        basis = [calc.basis_form(I, u) if I else calc.scalar_form(u)
                 for I in idxs for u in units]
        for a in basis:
            for b in basis:
                lhs = a * hodge(b)
                rhs = calc.volume_form().lmul(metric(a, b, "left"))
                assert (lhs - rhs).frobenius() < 1e-13


@pytest.mark.parametrize("calc_name", ["calc", "calc3"])
def test_hodge_double_and_inverse(calc_name, request, rng):
    # at N=3 (d=8) star^{-1} = (-1)^{k(d-k)} star differs from star on odd k
    calc = request.getfixturevalue(calc_name)
    d = calc.dim
    for k in range(0, d + 1):
        mu = calc.random_form(k, rng)
        sign = (-1) ** (k * (d - k))
        assert (hodge(hodge(mu)) - sign * mu).frobenius() < 1e-13
        assert hodge_inv(hodge(mu)).allclose(mu)
        assert hodge(hodge_inv(mu)).allclose(mu)


def test_hodge_module_rules(calc, rng):
    # the four module rules, stated with the involution on coefficients
    for k in range(0, 4):
        mu = calc.random_form(k, rng)
        p = calc.random_matrix(rng)
        assert hodge(mu.rmul(p)).allclose(hodge(mu).lmul(dagger(p)), 1e-12)
        assert hodge(mu.lmul(p)).allclose(hodge(mu).rmul(dagger(p)), 1e-12)
        assert hodge_inv(mu.lmul(p)).allclose(hodge_inv(mu).rmul(dagger(p)), 1e-12)
        assert hodge_inv(mu.rmul(p)).allclose(hodge_inv(mu).lmul(dagger(p)), 1e-12)


def test_right_hodge_by_conjugation(calc, rng):
    for g in range(0, 4):
        mu = calc.random_form(g, rng)
        assert hodge(mu, "right").allclose(hodge(mu.star(), "left").star(), 1e-13)
        # right defining property: (star_R mu_hat) ^ mu = <mu_hat, mu>_R dvol
        nu = calc.random_form(g, rng)
        lhs = hodge(mu, "right") * nu
        rhs = calc.volume_form().lmul(metric(mu, nu, "right"))
        assert (lhs - rhs).frobenius() < 1e-12


def test_hodge_exact_mode(xcalc, rng):
    mu = xcalc.random_form(1, rng)
    assert hodge_inv(hodge(mu)) == mu
    one = xcalc.scalar_form(xcalc.identity())
    assert hodge(one) == xcalc.volume_form()


# -- codifferential ----------------------------------------------------------

def test_codifferential_grade0_and_guards(calc, rng):
    assert codifferential(calc.random_form(0, rng)).is_zero()
    with pytest.raises(ValueError):
        codifferential(calc.random_form(1, rng), "middle")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["left", "right"]),
       data=st.data())
def test_codifferential_adjointness(calc, calc3, seed, side, data):
    rng = np.random.default_rng(seed)
    for c in (calc, calc3):
        g = data.draw(st.integers(0, c.dim - 1), label=f"g at N={c.N}")
        a = c.random_form(g, rng)
        b = c.random_form(g + 1, rng)
        assert abs(hodge_inner(a.d(), b, side)
                   - hodge_inner(a, codifferential(b, side), side)) < 1e-10


def test_codifferential_squares_to_zero(calc, rng):
    for g in range(0, 4):
        for side in ("left", "right"):
            mu = calc.random_form(g, rng)
            assert codifferential(codifferential(mu, side), side).frobenius() < 1e-12


def test_codifferential_mixed_grade_linearity(calc, rng):
    a = calc.random_form(1, rng) + calc.random_form(3, rng)
    got = codifferential(a)
    want = codifferential(a.graded_part(1)) + codifferential(a.graded_part(3))
    assert got.allclose(want, 1e-13)


def test_codifferential_closed_forms(calc, rng):
    # grade 1
    ps = [calc.random_matrix(rng) for _ in range(3)]
    mu = DiffForm(calc, {(k + 1,): ps[k] for k in range(3)})
    want = -sum((calc.derive(k + 1, ps[k]) for k in range(3)),
                calc.zero_matrix())
    assert np.allclose(codifferential(mu).component(()), want, atol=1e-13)
    # grade 2
    p12, p13, p23 = (calc.random_matrix(rng) for _ in range(3))
    mu = DiffForm(calc, {(1, 2): p12, (1, 3): p13, (2, 3): p23})
    want = DiffForm(calc, {
        (1,): calc.derive(2, p12) + calc.derive(3, p13) + p23,
        (2,): -calc.derive(1, p12) + calc.derive(3, p23) - p13,
        (3,): -calc.derive(1, p13) - calc.derive(2, p23) + p12,
    })
    assert codifferential(mu).allclose(want, 1e-13)
    # grade 3
    p = calc.random_matrix(rng)
    mu = calc.basis_form((1, 2, 3), p)
    want = DiffForm(calc, {
        (1, 2): -calc.derive(3, p),
        (1, 3): calc.derive(2, p),
        (2, 3): -calc.derive(1, p),
    })
    assert codifferential(mu).allclose(want, 1e-13)


def test_codifferential_module_identities(calc, rng):
    d = calc.dim
    for g in range(1, d + 1):
        mu = calc.random_form(g, rng)
        p = calc.random_matrix(rng)
        lhs = codifferential(mu.lmul(dagger(p)))
        rhs = (codifferential(mu).lmul(dagger(p))
               + (-1) ** d * hodge_inv(hodge(mu) * calc.scalar_form(p).d()))
        assert (lhs - rhs).frobenius() < 1e-11
        lhs = codifferential(mu.rmul(p))
        rhs = (codifferential(mu).rmul(p)
               + (-1) ** g * hodge_inv(calc.scalar_form(dagger(p)).d() * hodge(mu)))
        assert (lhs - rhs).frobenius() < 1e-11


def test_right_codifferential_by_conjugation(calc, rng):
    for g in range(1, 4):
        mu = calc.random_form(g, rng)
        want = codifferential(mu.star(), "left").star()
        assert codifferential(mu, "right").allclose(want, 1e-13)


def test_codifferential_exact(xcalc, rng):
    mu = xcalc.random_form(2, rng)
    assert codifferential(codifferential(mu)).is_zero()


# -- Laplacian and spectra ---------------------------------------------------

def test_laplacian_closed_form_grade0(calc, rng):
    for _ in range(50):
        p = calc.random_matrix(rng)
        got = laplacian(calc.scalar_form(p)).component(())
        want = np.array([[p[0, 0] - p[1, 1], 2 * p[0, 1]],
                         [2 * p[1, 0], p[1, 1] - p[0, 0]]])
        assert np.allclose(got, want, atol=1e-12)


def test_laplacian_commutes_with_d_and_cod(calc, rng):
    a = calc.random_form(1, rng)
    assert (laplacian(a.d()) - laplacian(a).d()).frobenius() < 1e-11
    assert (laplacian(codifferential(a)) - codifferential(laplacian(a))).frobenius() < 1e-11


def test_spectrum_grade0(calc):
    assert np.allclose(np.sort(spectrum(calc, 0)), [0, 2, 2, 2], atol=1e-10)


def test_spectrum_grade1_frozen(calc):
    want = [1.0] * 4 + [2.0] * 3 + [4.0] * 5
    assert np.allclose(np.sort(spectrum(calc, 1)), want, atol=1e-10)


def test_spectrum_duality(calc):
    # the Hodge star intertwines the Laplacian across complementary grades
    assert np.allclose(np.sort(spectrum(calc, 3)), np.sort(spectrum(calc, 0)), atol=1e-10)
    assert np.allclose(np.sort(spectrum(calc, 2)), np.sort(spectrum(calc, 1)), atol=1e-10)


def test_gram_matrices_hermitian_psd(calc):
    for g in range(0, 4):
        H, G = gram_matrices(calc, g)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12
        assert np.max(np.abs(G - np.eye(len(G)) / 2)) < 1e-14
        assert np.min(spectrum(calc, g)) > -1e-9


def test_operator_matrix_reproduces_d(calc, rng):
    M = operator_matrix(calc, lambda f: f.d(), [1], [2])
    a = calc.random_form(1, rng)
    got = M @ form_to_vec(a, [1])
    assert np.allclose(got, form_to_vec(a.d(), [2]), atol=1e-13)


# The per-basis-form assembly (operator_matrix of the dict operators) is
# the oracle for the index-table matrices that the spectrum is built from.

def _max_dev(A, B):
    assert A.shape == B.shape
    return float(np.max(np.abs(A - B), initial=0.0))


def _assert_matches(calc, got, op, g_in, g_out):
    """got against op on each basis form: complex within 1e-12, or entry
    for entry in an exact calculus, whose tables keep its scalars."""
    if not calc.exact:
        assert _max_dev(got, operator_matrix(calc, op, g_in, g_out)) <= 1e-12
        return
    want = np.column_stack([op(b).array(g_out).ravel() for b in grade_basis(calc, g_in)])
    assert got.dtype == object and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("calc_name", ["calc", "calc3", "xcalc"])
def test_d_matrix_matches_oracle(calc_name, request):
    calc = request.getfixturevalue(calc_name)
    for k in range(calc.dim):
        _assert_matches(calc, d_matrix(calc, k), DiffForm.d, k, k + 1)


@pytest.mark.parametrize("calc_name", ["calc", "calc3", "xcalc"])
def test_codifferential_matrix_matches_oracle(calc_name, request):
    calc = request.getfixturevalue(calc_name)
    for g in range(1, calc.dim + 1):
        _assert_matches(calc, codifferential_matrix(calc, g), codifferential, g, g - 1)


def test_gram_matrices_matches_oracle(calc3):
    # N=2, every grade, is acceptance criterion 6
    for k in (0, 1, 7, 8):
        want = operator_matrix(calc3, laplacian, k) / calc3.N
        assert _max_dev(gram_matrices(calc3, k)[0], want) <= 1e-12, k


def test_spectrum_matches_gram_pair_oracle(calc):
    # whichever eigenproblem spectrum solves, its eigenvalues are those of
    # the Gram pair (L/N, Id/N) of the per-basis-form operator
    for k in range(calc.dim + 1):
        M = operator_matrix(calc, laplacian, k) / calc.N
        want = scipy.linalg.eigvalsh(M, np.eye(len(M)) / calc.N)
        assert _max_dev(spectrum(calc, k), want) <= 1e-12, k


def test_spectrum_of_exact_calculus_runs_in_floats(calc, xcalc):
    # gram_matrices converts the exact tables; the eigensolve is float
    for k in range(calc.dim + 1):
        assert _max_dev(spectrum(xcalc, k), spectrum(calc, k)) <= 1e-12, k


def test_write_spectrum_csv(calc, tmp_path):
    buf = io.StringIO()
    assert write_spectrum_csv(calc, buf) == 4 + 12 + 12 + 4
    text = buf.getvalue()
    assert "\r" not in text and text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines[0] == "grade,index,eigenvalue"
    assert len(lines) == 1 + 4 + 12 + 12 + 4
    grades = [int(line.split(",")[0]) for line in lines[1:]]
    assert grades == sorted(grades)
    vals = [float(line.split(",")[2]) for line in lines[1:5]]
    assert np.allclose(sorted(vals), [0, 2, 2, 2], atol=1e-10)
    # the command line writes the very same bytes
    grade0 = io.StringIO()
    assert write_spectrum_csv(calc, grade0, grades=[0]) == 4
    out = tmp_path / "s.csv"
    assert main(["--mode", "spectrum", "--grade", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == grade0.getvalue().encode()
