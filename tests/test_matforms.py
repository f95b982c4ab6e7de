"""Graded algebra layer: generators, wedge, differential, involution.

The independent oracle here treats a form as an alternating multilinear
function of derivation indices: wedging becomes a shuffle sum and the
differential becomes the standard two-term formula on evaluations. Both
are implemented from scratch below and compared against the dictionary
arithmetic of DiffForm.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matym import (
    DerivationCalculus,
    DiffForm,
    DimensionError,
    GaussianRational,
    dagger,
    sort_sign,
)

PAULI_HALF = [
    np.array([[0, 0.5], [0.5, 0]], dtype=complex),
    np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
    np.array([[0.5, 0], [0, -0.5]], dtype=complex),
]


def rand_form(calc, grade, rng, scale=1.0):
    return calc.random_form(grade, rng, scale)


# -- independent evaluation oracle ----------------------------------------

def ev(form, idx):
    """Evaluate a homogeneous component on a tuple of derivation indices."""
    srt, sign = sort_sign(idx)
    if sign == 0 or srt not in form.terms:
        return form.calc.zero_matrix()
    return sign * form.terms[srt]


def oracle_wedge_eval(a, b, idx, p, q):
    """Shuffle-sum evaluation of (a ^ b) on idx, |idx| = p + q."""
    calc = a.calc
    out = calc.zero_matrix()
    for pos in itertools.combinations(range(p + q), p):
        rest = [i for i in range(p + q) if i not in pos]
        perm = list(pos) + rest
        sign = sort_sign(tuple(i + 1 for i in perm))[1]
        left = tuple(idx[i] for i in pos)
        right = tuple(idx[i] for i in rest)
        out = out + sign * (ev(a, left) @ ev(b, right))
    return out


def oracle_tuples(calc, arity):
    """Index tuples the oracles are evaluated on: every tuple, unsorted and
    repeated ones included, up to 512 of them; beyond that the strictly
    increasing ones and every 5th of all."""
    tuples = list(itertools.product(range(1, calc.dim + 1), repeat=arity))
    if len(tuples) <= 512:
        return tuples
    return list(itertools.combinations(range(1, calc.dim + 1), arity)) + tuples[::5]


def oracle_d_eval(form, idx, k):
    """Two-term differential formula on evaluations, arity k + 1."""
    calc = form.calc
    out = calc.zero_matrix()
    for j in range(k + 1):
        rest = idx[:j] + idx[j + 1:]
        out = out + (-1) ** j * calc.derive(idx[j], ev(form, rest))
    for j in range(k + 1):
        for l in range(j + 1, k + 1):
            rest = tuple(
                x for m, x in enumerate(idx) if m != j and m != l)
            acc = calc.zero_matrix()
            for c in range(1, calc.dim + 1):
                acc = acc + calc.structure[idx[j] - 1, idx[l] - 1, c - 1] \
                    * ev(form, (c,) + rest)
            out = out + (-1) ** (j + l) * acc
    return out


# -- generators -------------------------------------------------------------

def test_pauli_generators_frozen(calc):
    for got, want in zip(calc.generators, PAULI_HALF):
        assert np.allclose(got, want)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_generator_normalization_traceless_hermitian(N):
    calc = DerivationCalculus(N)
    assert calc.dim == N * N - 1
    for a, Sa in enumerate(calc.generators):
        assert abs(np.trace(Sa)) < 1e-14
        assert np.allclose(Sa, dagger(Sa))
        for b, Sb in enumerate(calc.generators):
            want = 0.5 if a == b else 0.0
            assert abs(np.trace(Sa @ Sb) - want) < 1e-13


def test_structure_constants_n2_frozen(calc):
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        eps[i, j, k] = sort_sign((i + 1, j + 1, k + 1))[1]
    assert np.allclose(np.asarray(calc.structure, dtype=complex), -eps)


def test_structure_constants_n3(calc3):
    F = np.asarray(calc3.structure, dtype=complex)
    assert np.max(np.abs(F.imag)) < 1e-13
    # totally antisymmetric
    assert np.allclose(F, -np.transpose(F, (1, 0, 2)))
    assert np.allclose(F, -np.transpose(F, (0, 2, 1)))
    # standard su(3) values in this generator ordering, up to the global
    # orientation fixed at N=2
    assert abs(F[0, 1, 2] + 1.0) < 1e-13
    assert abs(F[3, 4, 7] + np.sqrt(3) / 2) < 1e-13
    assert abs(F[5, 6, 7] + np.sqrt(3) / 2) < 1e-13


def test_derive_is_a_star_derivation(calc, rng):
    p, q = calc.random_matrix(rng), calc.random_matrix(rng)
    for k in range(1, calc.dim + 1):
        assert np.allclose(calc.derive(k, p @ q),
                           calc.derive(k, p) @ q + p @ calc.derive(k, q))
        assert np.allclose(calc.derive(k, dagger(p)), dagger(calc.derive(k, p)))
        assert np.allclose(calc.derive(k, calc.identity()), 0)


def test_derivation_bracket_matches_structure(calc3):
    dim = calc3.dim
    p = np.arange(9, dtype=complex).reshape(3, 3) + 1j
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            lhs = calc3.derive(a, calc3.derive(b, p)) - calc3.derive(b, calc3.derive(a, p))
            rhs = sum(calc3.structure[a - 1, b - 1, c - 1] * calc3.derive(c, p)
                      for c in range(1, dim + 1))
            assert np.allclose(lhs, rhs, atol=1e-11)


# -- sort_sign ---------------------------------------------------------------

def test_sort_sign_cases():
    assert sort_sign(()) == ((), 1)
    assert sort_sign((2,)) == ((2,), 1)
    assert sort_sign((1, 2)) == ((1, 2), 1)
    assert sort_sign((2, 1)) == ((1, 2), -1)
    assert sort_sign((2, 3, 1)) == ((1, 2, 3), 1)
    assert sort_sign((1, 3, 2)) == ((1, 2, 3), -1)
    assert sort_sign((1, 1)) == ((1, 1), 0)
    assert sort_sign((3, 1, 3)) == ((1, 3, 3), 0)


# -- DiffForm construction and guards ---------------------------------------

def test_diff_form_validation(calc, calc3, rng):
    with pytest.raises(ValueError):
        DiffForm(calc, {(0,): calc.zero_matrix()})
    with pytest.raises(ValueError):
        DiffForm(calc, {(4,): calc.zero_matrix()})
    with pytest.raises(ValueError):
        DiffForm(calc, {(2, 1): calc.zero_matrix()})
    with pytest.raises(DimensionError):
        DiffForm(calc, {(1,): np.eye(3)})
    a = rand_form(calc, 1, rng)
    b = rand_form(calc3, 1, rng)
    with pytest.raises(DimensionError):
        a + b
    with pytest.raises(DimensionError):
        a * b


def test_grades_and_components(calc, rng):
    a = rand_form(calc, 0, rng) + rand_form(calc, 2, rng)
    assert a.grades() == [0, 2]
    assert a.graded_part(0).grades() == [0]
    assert a.graded_part(1).is_zero()
    with pytest.raises(ValueError):
        a.grade  # mixed-grade form has no single grade
    assert np.allclose(a.component((1, 2)), a.terms[(1, 2)])
    assert np.allclose(a.component((1, 3)),
                       a.terms.get((1, 3), calc.zero_matrix()))


def test_vector_space_ops(calc, rng):
    a, b = rand_form(calc, 1, rng), rand_form(calc, 1, rng)
    assert ((a + b) - b).allclose(a)
    assert (2 * a - a - a).is_zero()
    assert (a / 2 + a / 2).allclose(a)
    assert (-a + a).is_zero()
    assert ((1 + 2j) * a).allclose(a * (1 + 2j))


# -- wedge -------------------------------------------------------------------

def test_wedge_coframe_relations(calc):
    h1, h2 = calc.basis_form((1,)), calc.basis_form((2,))
    assert (h1 * h1).is_zero()
    assert (h1 * h2 + h2 * h1).is_zero()
    assert (h1 * h2).grades() == [2]
    top = calc.basis_form((1, 2)) * calc.basis_form((3,))
    assert top.allclose(calc.volume_form())
    assert (top * h1).is_zero()  # beyond top grade


def test_wedge_against_shuffle_oracle(calc, calc3, rng):
    for c in (calc, calc3):
        for p, q in [(0, 1), (1, 1), (1, 2), (2, 1), (0, 3), (3, 0), (2, 2)]:
            a, b = rand_form(c, p, rng), rand_form(c, q, rng)
            w = a * b
            for idx in oracle_tuples(c, p + q):
                assert np.allclose(ev(w, idx), oracle_wedge_eval(a, b, idx, p, q),
                                   atol=1e-12)


def test_wedge_mixed_grades_distributes(calc, rng):
    a0, a2 = rand_form(calc, 0, rng), rand_form(calc, 2, rng)
    b = rand_form(calc, 1, rng)
    assert ((a0 + a2) * b).allclose(a0 * b + a2 * b)
    assert (b * (a0 + a2)).allclose(b * a0 + b * a2)
    assert a0.wedge(b).allclose(a0 * b)


def test_scalar_module_actions(calc, rng):
    a = rand_form(calc, 1, rng)
    p = calc.random_matrix(rng)
    assert a.lmul(p).allclose(calc.scalar_form(p) * a)
    assert a.rmul(p).allclose(a * calc.scalar_form(p))
    assert a.lmul(p).rmul(p).allclose(calc.scalar_form(p) * a * calc.scalar_form(p))


# -- differential ------------------------------------------------------------

def test_coframe_differential_frozen(calc):
    assert calc.basis_form((1,)).d().allclose(calc.basis_form((2, 3)))
    assert calc.basis_form((2,)).d().allclose(-1 * calc.basis_form((1, 3)))
    assert calc.basis_form((3,)).d().allclose(calc.basis_form((1, 2)))


def test_scalar_differential(calc, rng):
    p = calc.random_matrix(rng)
    dp = calc.scalar_form(p).d()
    for k in range(1, 4):
        assert np.allclose(dp.component((k,)), calc.derive(k, p))
    assert calc.scalar_form(calc.identity()).d().is_zero()


def test_differential_against_evaluation_oracle(calc, calc3, rng):
    for c, top in ((calc, 2), (calc3, 3)):
        for g in range(0, top + 1):
            a = rand_form(c, g, rng)
            da = a.d()
            for idx in oracle_tuples(c, g + 1):
                assert np.allclose(ev(da, idx), oracle_d_eval(a, idx, g), atol=1e-12)


def test_differential_on_n3(calc3, rng):
    # oracle agreement is dimension-independent
    a = rand_form(calc3, 1, rng)
    da = a.d()
    idxs = [(1, 2), (3, 7), (8, 4), (5, 5), (6, 2)]
    for idx in idxs:
        assert np.allclose(ev(da, idx), oracle_d_eval(a, idx, 1), atol=1e-11)
    assert da.d().frobenius() < 1e-12


@pytest.mark.parametrize("N", [2, 3])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(0, 2))
def test_differential_squares_to_zero(N, g, seed):
    calc = DerivationCalculus(N)
    a = calc.random_form(g, np.random.default_rng(seed))
    assert a.d().d().frobenius() < 1e-12


@pytest.mark.parametrize("N", [2, 3])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gm=st.integers(0, 2), gn=st.integers(0, 2))
def test_graded_leibniz(N, seed, gm, gn):
    calc = DerivationCalculus(N)
    rng = np.random.default_rng(seed)
    mu, nu = calc.random_form(gm, rng), calc.random_form(gn, rng)
    lhs = (mu * nu).d()
    rhs = mu.d() * nu + (-1) ** gm * (mu * nu.d())
    assert (lhs - rhs).frobenius() < 1e-10


def test_leibniz_mixed_grades(calc, rng):
    mu = rand_form(calc, 0, rng) + rand_form(calc, 2, rng)
    nu = rand_form(calc, 1, rng)
    lhs = (mu * nu).d()
    rhs = (mu.d() * nu + mu.graded_part(0) * nu.d()
           + mu.graded_part(2) * nu.d())
    assert (lhs - rhs).frobenius() < 1e-11


# -- involution --------------------------------------------------------------

def test_involution_properties(calc, rng):
    for g in range(0, 4):
        a = rand_form(calc, g, rng)
        assert a.star().star().allclose(a)
        assert a.star().d().allclose(a.d().star())
        assert ((1j * a).star() + 1j * a.star()).is_zero()
    for gm in range(0, 3):
        for gn in range(0, 3 - gm):
            mu, nu = rand_form(calc, gm, rng), rand_form(calc, gn, rng)
            assert ((mu * nu).star()
                    - (-1) ** (gm * gn) * (nu.star() * mu.star())).frobenius() < 1e-11


def test_involution_on_basis(calc, rng):
    p = calc.random_matrix(rng)
    for I in [(), (2,), (1, 3), (1, 2, 3)]:
        a = calc.basis_form(I, p) if I else calc.scalar_form(p)
        s = a.star()
        assert list(s.terms) == [I]
        assert np.allclose(s.terms[I], dagger(p))


# -- exact mode --------------------------------------------------------------

def test_exact_mode_identities(xcalc, rng):
    a = rand_form(xcalc, 1, rng)
    b = rand_form(xcalc, 1, rng)
    assert a.d().d().is_zero()
    lhs = (a * b).d()
    rhs = a.d() * b - a * b.d()
    assert lhs == rhs
    assert (a * b).star() == -1 * (b.star() * a.star())
    assert a.star().star() == a


def test_exact_mode_rejects_floats(xcalc):
    with pytest.raises(TypeError):
        xcalc.scalar_form(np.eye(2, dtype=complex))
    with pytest.raises(TypeError):
        GaussianRational(1) + 0.5


def test_exact_structure_constants(xcalc):
    F = xcalc.structure
    assert F[0][1][2] == GaussianRational(-1)
    assert F[1][0][2] == GaussianRational(1)
    assert not F[0][1][1]


# -- serialization -----------------------------------------------------------

def test_payload_roundtrip_numeric(calc, rng):
    a = rand_form(calc, 0, rng) + rand_form(calc, 2, rng)
    back = DiffForm.from_payload(calc, a.to_payload())
    assert back.allclose(a, 1e-15)


def test_payload_roundtrip_exact(xcalc, rng):
    a = rand_form(xcalc, 1, rng) + rand_form(xcalc, 3, rng)
    payload = a.to_payload()
    assert payload["exact"] is True
    back = DiffForm.from_payload(xcalc, payload)
    assert back == a


def test_payload_wide_index_keys(rng):
    # dim > 9 forces comma-separated index keys
    calc = DerivationCalculus(4)
    a = DiffForm(calc, {(1, 12): calc.random_matrix(rng)})
    payload = a.to_payload()
    assert "1,12" in payload["terms"]
    assert DiffForm.from_payload(calc, payload).allclose(a, 1e-15)


def test_payload_mismatched_calculus(calc, calc3, rng):
    a = rand_form(calc, 1, rng)
    with pytest.raises(DimensionError):
        DiffForm.from_payload(calc3, a.to_payload())


def test_payload_oversized_matrix_refused(calc, calc3, rng):
    # 3x3 coefficients at N=2 are refused, not cut to their 2x2 block
    payload = DiffForm(calc3, {(1,): calc3.random_matrix(rng)}).to_payload()
    payload["N"] = 2
    with pytest.raises(DimensionError, match="shape"):
        DiffForm.from_payload(calc, payload)
