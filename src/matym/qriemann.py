"""Riemannian structure on matrix-valued forms.

Volume form, the left/right metric family, the normalized-trace integral,
Hodge stars, codifferentials, Laplace-de Rham operators and their spectra.
The left metric is antilinear in its second slot, the right metric in its
first; everything right-sided is obtained by conjugating the left-sided
operator with the involution, never by a second hand-coded formula.
"""

from __future__ import annotations

import numpy as np

from .matforms import DiffForm, dagger

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
    for g, P in a.blocks.items():
        Q = b.blocks.get(g)
        if Q is not None:
            out = out + (P @ dagger(Q) if side == "left" else dagger(P) @ Q).sum(axis=0)
    return out


def integral(a):
    """Integral of a top-grade form p.dvol, namely s(p)."""
    top = a.calc.dim
    if set(a.blocks) - {top}:
        raise GradeError(f"integral needs a grade-{top} form, found grades {a.grades()}")
    return state(a.array(top)[0])


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
    out = {}
    for g, P in a.blocks.items():
        src, neg = calc.star_table(g)
        if inverse and g * (calc.dim - g) % 2:
            neg = ~neg
        Q = dagger(P[src])
        Q[neg] = -Q[neg]
        out[calc.dim - g] = Q
    return DiffForm._from_blocks(calc, out)


def codifferential(a, side="left"):
    """Adjoint of d: (-1)^g star^{-1} d star on each grade-g piece.

    Grade 0 needs no special case; the star of a grade-0 form is a top
    form, which d kills. star^{-1} is applied as hodge with its sign
    (-1)^{(d-g+1)(g-1)} folded into the (-1)^g.
    """
    _check_side(side)
    if side == "right":
        return codifferential(a.star(), "left").star()
    d = a.calc.dim
    out = hodge(hodge(a).d())  # its grade g comes from grade g + 1 of a
    return DiffForm._from_blocks(a.calc, {
        g: -P if (g + 1 + (d - g) * g) % 2 else P for g, P in out.blocks.items()})


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
    """The grade arrays of a, for the given grades in order, concatenated."""
    if isinstance(grades, int):
        grades = [grades]
    outside = sorted(set(a.blocks).difference(grades))
    if outside:
        raise GradeError(f"components of grade {outside} outside grades {sorted(set(grades))}")
    parts = [np.asarray(a.array(g), dtype=complex).ravel() for g in grades]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def vec_to_form(calc, vec, grades):
    """Inverse of form_to_vec: a copy of vec cut into the grade arrays."""
    if isinstance(grades, int):
        grades = [grades]
    if calc.exact:
        raise TypeError("vec_to_form builds complex coefficients; exact mode refuses them")
    sizes = [len(calc.basis_indices(g)) * calc.N ** 2 for g in grades]
    if sum(sizes) != len(vec):
        raise ValueError(f"vector length {len(vec)} does not match grades {grades}")
    vec, blocks, pos = np.array(vec, dtype=complex), {}, 0
    for g, n in zip(grades, sizes):
        blocks[g] = vec[pos:pos + n].reshape(-1, calc.N, calc.N)
        pos += n
    return DiffForm._from_blocks(calc, blocks)


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
# d and d^star are built in the calculus' own scalars (calc.dtype), so an
# exact calculus gets Gaussian-rational tables; gram_matrices converts its
# factors to complex, as the eigensolve runs in floats.

_ROW_BLOCK = 128  # rows of the second product added in place by gram_matrices


def d_matrix(calc, k):
    """Matrix of d from grade k to k + 1: sum_m E_m (x) ad_m + C_k (x) 1.

    ad_m = i(S_m (x) 1 - 1 (x) S_m^T) is p -> i[S_m, p] on row-major
    entries; E_m (h^I to the signed h^{I+m}) and C_k (the coframe part)
    are the calculus' d_table, the index rule DiffForm.d applies.
    """
    n2 = calc.N * calc.N
    gen, src, C, _, _ = calc.d_table(k)
    n_rows, n_cols = C.shape
    one = calc.identity()
    ad = np.array([calc.scalars.i * (np.kron(S, one) - np.kron(one, S.T))
                   for S in calc.generators])
    D = np.zeros((n_rows, n2, n_cols, n2), dtype=calc.dtype)  # 0 is every field's zero
    rows = np.arange(n_rows)
    for j in range(k + 1):
        D[rows, :, src[j], :] = -ad[gen[j]] if j % 2 else ad[gen[j]]
    for r in range(n2):
        D[:, r, :, r] += C
    return D.reshape(n_rows * n2, n_cols * n2)


def _star_table(calc, g):
    """The star on grade g as a signed permutation of vec entries:
    vec(hodge a)[j] = sign[j] conj(vec a)[src[j]], h^I E_cr -> h^{I^c} E_rc."""
    n2 = calc.N * calc.N
    blocks, neg = calc.star_table(g)
    src = (blocks[:, None] * n2 + _transposed(n2, calc.N)).ravel()
    return src, np.repeat(np.where(neg, -1, 1), n2)


def _transposed(n, N):
    """Vec positions of the transpose of each N x N block of a length-n vec."""
    return np.arange(n).reshape(-1, N, N).transpose(0, 2, 1).ravel()


def codifferential_matrix(calc, g):
    """Matrix of codifferential from grade g >= 1 to g - 1.

    eps_g S_{d-g+1} conj(D_{d-g}) S_g with S the star's signed permutation
    and eps_g codifferential's folded sign: d^star as the code defines it,
    from the star and d, so the Laplacian's hermiticity still tests the
    star's signs. Both stars are applied as one gather of D's entries.
    """
    d = calc.dim
    rows, rsign = _star_table(calc, d - g + 1)
    if (g + (d - g + 1) * (g - 1)) % 2:
        rsign = -rsign
    src_in, sign_in = _star_table(calc, g)
    cols = np.argsort(src_in)  # column i of X S_g is column j of X, src_in[j] = i
    M = d_matrix(calc, d - g)[np.ix_(rows, cols)]
    np.conjugate(M, out=M)
    M *= rsign[:, None]
    M *= sign_in[cols]
    return M


def gram_matrices(calc, grade):
    """(H, G) with H_ij = <L b_j, b_i> and G_ij = <b_j, b_i>, L the Laplacian
    on grade k = grade.

    In the h^I E_rc basis both inner products have Gram matrix Id/N, so H
    is the coefficient matrix D_{k-1} Delta_k + Delta_{k+1} D_k of the
    operator scaled by 1/N. Each pair of factors is built (Delta first, so
    that the D it is gathered from is gone before the other factor is
    built), multiplied into H in place and dropped before anything else is
    allocated.
    """
    n = len(calc.basis_indices(grade)) * calc.N ** 2
    H = np.zeros((n, n), dtype=complex)
    if grade > 0:
        cod = codifferential_matrix(calc, grade).astype(complex, copy=False)
        np.matmul(d_matrix(calc, grade - 1).astype(complex, copy=False), cod, out=H)
        del cod
    if grade < calc.dim:
        A = codifferential_matrix(calc, grade + 1).astype(complex, copy=False)
        B = d_matrix(calc, grade).astype(complex, copy=False)
        for r in range(0, n, _ROW_BLOCK):
            H[r:r + _ROW_BLOCK] += A[r:r + _ROW_BLOCK] @ B
        del A, B
    H /= calc.N
    G = np.eye(n) / calc.N
    return H, G


def eigensolve(H, G):
    """Ascending real eigenvalues of the generalized hermitian problem
    H v = lambda G v (G positive definite), by scipy's eigvalsh: the one
    place matym calls scipy."""
    import scipy.linalg  # not at module level: only spectra need scipy, a third of a run's memory
    return scipy.linalg.eigvalsh(H, G)


def spectrum(calc, grade):
    """Ascending real eigenvalues of the (left) Laplacian on grade-k forms: the
    Gram pair of gram_matrices, checked hermitian, through eigensolve
    (which loads scipy on the first call)."""
    H, G = gram_matrices(calc, grade)
    herm_defect = np.max(np.abs(H - H.conj().T))
    if herm_defect > 1e-9:
        raise ValueError(f"Laplacian Gram matrix not hermitian (defect {herm_defect:.3e})")
    return eigensolve(H, G)


def write_spectrum_csv(calc, stream, grades=None):
    """Columns (grade, index, eigenvalue), 17 digits, one row per eigenvalue
    of each grade (default 0..d); returns the number of rows."""
    if grades is None:
        grades = range(calc.dim + 1)
    stream.write("grade,index,eigenvalue\n")
    count = 0
    for g in grades:
        for idx, val in enumerate(spectrum(calc, g)):
            stream.write(f"{g},{idx},{val:.17g}\n")
            count += 1
    return count
