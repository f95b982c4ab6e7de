"""Riemannian structure on matrix-valued forms.

Volume form, the left/right metric family, the normalized-trace integral,
Hodge stars, codifferentials, Laplace-de Rham operators and their spectra.
The left metric is antilinear in its second slot, the right metric in its
first; everything right-sided is obtained by conjugating the left-sided
operator with the involution, never by a second hand-coded formula.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .matforms import DiffForm, dagger, sort_sign

IDENTITY_TOL = 1e-12
ADJOINT_TOL = 1e-10
PSD_SLACK = 1e-9

_SIDES = ("left", "right")


class GradeError(ValueError):
    """Operation applied to a form of the wrong grade."""


def _check_side(side):
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")


def state(p):
    """The faithful state s = tr/N."""
    return np.trace(p) / p.shape[0]


def metric(a, b, side="left"):
    """Matrix-valued metric; components of different grade are orthogonal."""
    _check_side(side)
    a._check_compatible(b)
    out = a.calc.zero_matrix()
    for I, p in a.terms.items():
        q = b.terms.get(I)
        if q is None:
            continue
        out = out + (p @ dagger(q) if side == "left" else dagger(p) @ q)
    return out


def integral(a):
    """Integral of a top-grade form p.dvol, namely s(p)."""
    top = a.calc.volume_indices
    for I in a.terms:
        if I != top:
            raise GradeError(f"integral needs a grade-{a.calc.dim} form, "
                             f"found component h^{I}")
    return state(a.component(top))


def hodge_inner(a, b, side="left"):
    """Scalar inner product, the state applied to the metric."""
    return state(metric(a, b, side))


def hodge(a, side="left"):
    """Hodge star; antilinear, sends grade k to d - k."""
    return _hodge(a, side, inverse=False)


def hodge_inv(a, side="left"):
    """Inverse Hodge star, (-1)^{k(d-k)} hodge on grade k."""
    return _hodge(a, side, inverse=True)


def _hodge(a, side, inverse):
    _check_side(side)
    if side == "right":
        return _hodge(a.star(), "left", inverse).star()
    calc = a.calc
    full = frozenset(range(1, calc.dim + 1))
    out = {}
    for I, p in a.terms.items():
        Ic = tuple(sorted(full.difference(I)))
        _, sign = sort_sign(I + Ic)
        if inverse and len(I) * len(Ic) % 2:
            sign = -sign
        q = dagger(p)
        out[Ic] = q if sign == 1 else -q
    return DiffForm._raw(calc, out)


def codifferential(a, side="left"):
    """Adjoint of d: (-1)^g star^{-1} d star on each grade-g piece.

    Grade 0 needs no special case; the star of a grade-0 form is a top
    form, which d kills. star^{-1} is applied as hodge with its sign
    (-1)^{(d-g+1)(g-1)} folded into the (-1)^g.
    """
    _check_side(side)
    if side == "right":
        return codifferential(a.star(), "left").star()
    calc = a.calc
    d = calc.dim
    out = calc.zero_form()
    for g in a.grades():
        part = hodge(hodge(a.graded_part(g)).d())
        out = out - part if (g + (d - g + 1) * (g - 1)) % 2 else out + part
    return out


def laplacian(a, side="left"):
    """Laplace-de Rham operator d d^star + d^star d; grade preserving."""
    return codifferential(a.d(), side) + codifferential(a, side).d()


# -- matrix representations and spectra ---------------------------------

def grade_basis(calc, grades):
    """Standard basis h^I E_rc over the given grades, in vec order."""
    if isinstance(grades, int):
        grades = [grades]
    basis = []
    for g in grades:
        for I in calc.basis_indices(g):
            for r in range(calc.N):
                for c in range(calc.N):
                    m = calc.zero_matrix()
                    m[r, c] = calc.scalars.one
                    basis.append(DiffForm(calc, {I: m}))
    return basis


def form_to_vec(a, grades):
    if isinstance(grades, int):
        grades = [grades]
    calc = a.calc
    allowed = set(grades)
    for I in a.terms:
        if len(I) not in allowed:
            raise GradeError(f"component h^{I} outside grades {sorted(allowed)}")
    blocks = []
    for g in grades:
        for I in calc.basis_indices(g):
            blocks.append(np.asarray(a.component(I), dtype=complex).ravel())
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=complex)


def vec_to_form(calc, vec, grades):
    if isinstance(grades, int):
        grades = [grades]
    terms = {}
    pos = 0
    n2 = calc.N * calc.N
    for g in grades:
        for I in calc.basis_indices(g):
            terms[I] = np.asarray(vec[pos:pos + n2], dtype=complex).reshape(calc.N, calc.N)
            pos += n2
    if pos != len(vec):
        raise ValueError(f"vector length {len(vec)} does not match grades {grades}")
    return DiffForm(calc, terms)


def operator_matrix(calc, op, grades_in, grades_out=None):
    """Complex matrix of a C-linear operator in the standard form basis."""
    if grades_out is None:
        grades_out = grades_in
    basis = grade_basis(calc, grades_in)
    cols = [form_to_vec(op(b), grades_out) for b in basis]
    rows = len(cols[0]) if cols else 0
    return np.column_stack(cols) if cols else np.zeros((rows, 0), dtype=complex)


# -- operator tables --------------------------------------------------------
#
# The matrices of d, the star, d^star and the Laplacian written down from
# index tables, in the vec order of form_to_vec, instead of applied to
# every basis form (operator_matrix, which the tests keep as their oracle).
# Float only: an exact calculus' generators and structure constants are
# converted to complex, as operator_matrix converts its columns.

_ROW_BLOCK = 128  # rows of the second product added in place by gram_matrices


def d_matrix(calc, k):
    """Matrix of d from grade k to k + 1: sum_m E_m (x) ad_m + C_k (x) 1.

    ad_m = i(S_m (x) 1 - 1 (x) S_m^T) is p -> i[S_m, p] on row-major
    entries; E_m (h^I to the signed h^{I+m}) and C_k (the coframe part)
    are the calculus' d_rule, the index rule DiffForm.d applies.
    """
    N, n2 = calc.N, calc.N * calc.N
    rows, cols = calc.basis_indices(k + 1), calc.basis_indices(k)
    at = {K: i for i, K in enumerate(rows)}
    one = np.eye(N)
    ad = []
    for S in calc.generators:
        S = np.asarray(S, dtype=complex)
        ad.append(1j * (np.kron(S, one) - np.kron(one, S.T)))
    D = np.zeros((len(rows), n2, len(cols), n2), dtype=complex)
    C = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, I in enumerate(cols):
        coefficient, coframe = calc.d_rule(I)
        for m, K, sign in coefficient:
            D[at[K], :, j, :] = ad[m - 1] if sign == 1 else -ad[m - 1]
        for K, c in coframe:
            C[at[K], j] += complex(c)
    for r in range(n2):
        D[:, r, :, r] += C
    return D.reshape(len(rows) * n2, len(cols) * n2)


def _star_table(calc, g):
    """The star on grade g as a signed permutation of vec entries:
    vec(hodge a)[j] = sign[j] conj(vec a)[src[j]], h^I E_cr -> h^{I^c} E_rc."""
    N, n2 = calc.N, calc.N * calc.N
    at = {I: i for i, I in enumerate(calc.basis_indices(g))}
    blocks, signs = [], []
    for Ic in calc.basis_indices(calc.dim - g):
        I = tuple(x for x in range(1, calc.dim + 1) if x not in Ic)
        blocks.append(at[I])
        signs.append(sort_sign(I + Ic)[1])
    src = (np.array(blocks, dtype=np.intp)[:, None] * n2 + _transposed(n2, N)).ravel()
    return src, np.repeat(signs, n2)


def _transposed(n, N):
    """Vec positions of the transpose of each N x N block of a length-n vec."""
    return np.arange(n).reshape(-1, N, N).transpose(0, 2, 1).ravel()


def codifferential_matrix(calc, g, side="left"):
    """Matrix of codifferential from grade g >= 1 to g - 1.

    eps_g S_{d-g+1} conj(D_{d-g}) S_g with S the star's signed permutation
    and eps_g codifferential's folded sign: d^star as the code defines it,
    from the star and d, so the Laplacian's hermiticity still tests the
    star's signs. Both stars are applied as one gather of D's entries.
    """
    _check_side(side)
    d = calc.dim
    rows, rsign = _star_table(calc, d - g + 1)
    if (g + (d - g + 1) * (g - 1)) % 2:
        rsign = -rsign
    src_in, sign_in = _star_table(calc, g)
    cols = np.argsort(src_in)  # column i of X S_g is column j of X, src_in[j] = i
    csign = sign_in[cols]
    if side == "right":
        # the involution on both sides, which also undoes the conjugation
        tr, tc = _transposed(len(rows), calc.N), _transposed(len(cols), calc.N)
        rows, rsign, cols, csign = rows[tr], rsign[tr], cols[tc], csign[tc]
    M = d_matrix(calc, d - g)[np.ix_(rows, cols)]
    if side == "left":
        np.conjugate(M, out=M)
    M *= rsign[:, None]
    M *= csign
    return M


def gram_matrices(calc, grade, side="left"):
    """(H, G) with H_ij = <L b_j, b_i> and G_ij = <b_j, b_i>, L the Laplacian
    on grade k = grade.

    In the h^I E_rc basis both inner products have Gram matrix Id/N, so H
    is the coefficient matrix D_{k-1} Delta_k + Delta_{k+1} D_k of the
    operator scaled by 1/N (conjugated entrywise on the right side, whose
    inner product is antilinear in the first slot). Each pair of factors
    is built (Delta first, so that the D it is gathered from is gone before
    the other factor is built), multiplied into H in place and dropped
    before anything else is allocated.
    """
    _check_side(side)
    n = len(calc.basis_indices(grade)) * calc.N ** 2
    H = np.zeros((n, n), dtype=complex)
    if grade > 0:
        cod = codifferential_matrix(calc, grade, side)
        np.matmul(d_matrix(calc, grade - 1), cod, out=H)
        del cod
    if grade < calc.dim:
        A, B = codifferential_matrix(calc, grade + 1, side), d_matrix(calc, grade)
        for r in range(0, n, _ROW_BLOCK):
            H[r:r + _ROW_BLOCK] += A[r:r + _ROW_BLOCK] @ B
        del A, B
    H /= calc.N
    if side == "right":
        np.conjugate(H, out=H)
    G = np.eye(n) / calc.N
    return H, G


def spectrum(calc, grade, side="left"):
    """Ascending real eigenvalues of the Laplacian on grade-k forms, the
    generalized hermitian eigenproblem of gram_matrices."""
    H, G = gram_matrices(calc, grade, side)
    herm_defect = np.max(np.abs(H - H.conj().T))
    if herm_defect > 1e-9:
        raise ValueError(f"Laplacian Gram matrix not hermitian (defect {herm_defect:.3e})")
    return scipy.linalg.eigvalsh(H, G)


def write_spectrum_csv(calc, stream, side="left", grades=None):
    """Columns (grade, index, eigenvalue), 17 digits, one row per eigenvalue
    of each grade (default 0..d); returns the number of rows."""
    if grades is None:
        grades = range(calc.dim + 1)
    stream.write("grade,index,eigenvalue\n")
    count = 0
    for g in grades:
        for idx, val in enumerate(spectrum(calc, g, side)):
            stream.write(f"{g},{idx},{val:.17g}\n")
            count += 1
    return count
