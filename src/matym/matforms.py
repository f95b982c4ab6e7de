"""Graded differential *-algebra of matrix-valued forms.

The base algebra is M_N(C). Its derivations are spanned by the inner
derivations p -> i[S_k, p] attached to an orthonormalized traceless
hermitian basis {S_k} (d = N^2 - 1 of them; sigma_k/2 for N = 2). Forms
are elements of the Chevalley-Eilenberg complex of that Lie algebra with
coefficients in M_N(C): finite sums of h^I p where I runs over strictly
increasing index tuples and the Grassmann generators h^k are the duals of
the derivations. The h^I are central, so a form is its coefficients p_I:
DiffForm keeps those of grade k as one (C(d, k), N, N) array, and d,
wedge and the Hodge star act on the arrays through index tables the
calculus compiles once per grade.

Sign and normalization choices (wedge without 1/k!, the coframe
differential, the involution on positive grades) are recorded in
CONVENTIONS below; every report emitted by this package embeds
CONVENTIONS_ID so results can be compared across builds.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .exact import GR_I, GR_ONE, GR_ZERO, GaussianRational, _coerce

CONVENTIONS = {
    "bracket": "lie bracket of generator derivations is i times the matrix commutator",
    "coframe_differential": "d h^c = -sum_{a<b} F_abc h^{ab} where i[S_a, S_b] = sum_c F_abc S_c",
    "wedge": "h^I h^J = sort_sign(I+J) h^{sorted(I+J)}, coefficients multiply in order, no 1/k!",
    "involution": "(h^I p)* = h^I p^dagger on every grade",
    "hodge": "star_L(h^I p) = sgn(I, I^c) h^{I^c} p^dagger",
    "codifferential": "d^star = (-1)^g star^{-1} d star on input grade g, zero on grade 0",
    "state": "s(p) = tr(p) / N",
    "germ": "pi(z^n) = n germ, germ* = -germ, d germ = 0, germ germ = 0",
    "covariant_derivative": "left charge n on grade k: Dq = dq - (-1)^k n qA; right charge m: Dq = dq + m A* q",
    "connection_reality": "A real iff A* = -A",
}

CONVENTIONS_ID = hashlib.sha256(
    json.dumps(CONVENTIONS, sort_keys=True).encode()
).hexdigest()[:16]


def sort_sign(indices):
    """Sort an index sequence, returning (sorted tuple, permutation sign).

    The sign is 0 when the sequence contains a repeated index, which is
    exactly the Grassmann annihilation rule.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return tuple(idx), 0
    return tuple(idx), sign


class _NumericScalars:
    """Scalar field used in floating-point mode."""

    zero = 0j
    one = 1 + 0j
    i = 1j

    @staticmethod
    def frac(num, den=1):
        return complex(num / den)  # int / int rounds once, as float(Fraction) does


class _ExactScalars:
    """Gaussian-rational scalar field for the exact mode."""

    zero = GR_ZERO
    one = GR_ONE
    i = GR_I

    @staticmethod
    def frac(num, den=1):
        return GaussianRational(Fraction(num, den))

    @staticmethod
    def coerce(x):
        y = _coerce(x)  # refuses complex
        return GaussianRational(Fraction(x)) if y is NotImplemented else y


class DimensionError(ValueError):
    """Operands built over different algebra sizes."""


def _compiled(build):
    """A calculus table, built on first use per argument and kept."""
    def table(self, *args):
        key = (build.__name__,) + args
        if key not in self._tables:
            self._tables[key] = build(self, *args)
        return self._tables[key]
    return functools.wraps(build)(table)


class DerivationCalculus:
    """The differential calculus attached to M_N(C).

    Holds the generator basis and the structure constants of the
    derivation Lie algebra, and acts as the factory for forms. All values
    are immutable. The index tables of d, wedge and the Hodge star
    (`d_table`, `wedge_table`, `star_table`) are compiled from them per
    grade on first use and remembered; they are the only place the
    Grassmann sign rule `sort_sign` is applied.
    """

    def __init__(self, N=2, exact=False):
        if N < 2:
            raise ValueError("algebra size must be at least 2")
        if exact and N != 2:
            raise ValueError("exact mode supports N = 2 only; larger N needs"
                             " irrational generator entries")
        self.N = N
        self.dim = N * N - 1
        self.exact = exact
        self.scalars = _ExactScalars() if exact else _NumericScalars()
        self.dtype = object if exact else complex
        self.generators = self._build_generators()
        self.structure = self._build_structure()
        self.volume_indices = tuple(range(1, self.dim + 1))
        self._tables = {}  # (table, grades) -> table, filled by @_compiled

    # -- construction of the basis data ---------------------------------

    def _build_generators(self):
        N, sc = self.N, self.scalars
        half = sc.frac(1, 2)
        gens = []
        for l in range(2, N + 1):
            for j in range(1, l):
                sym = self.zero_matrix()
                sym[j - 1, l - 1] = half
                sym[l - 1, j - 1] = half
                gens.append(sym)
                anti = self.zero_matrix()
                anti[j - 1, l - 1] = -sc.i * half
                anti[l - 1, j - 1] = sc.i * half
                gens.append(anti)
            diag = self.zero_matrix()
            if self.exact:
                scale = sc.frac(1, 2)  # N = 2: sqrt(2/(l(l-1))) = 1
            else:
                scale = np.sqrt(2.0 / (l * (l - 1))) / 2.0
            for m in range(l - 1):
                diag[m, m] = scale
            diag[l - 1, l - 1] = -(l - 1) * scale
            gens.append(diag)
        for g in gens:
            g.setflags(write=False)
        return tuple(gens)

    def _build_structure(self):
        """F_abc with i[S_a, S_b] = sum_c F_abc S_c, kept in field scalars."""
        d, sc = self.dim, self.scalars
        F = np.empty((d, d, d), dtype=self.dtype)
        for a in range(d):
            for b in range(d):
                K = sc.i * (self.generators[a] @ self.generators[b]
                            - self.generators[b] @ self.generators[a])
                for c in range(d):
                    F[a, b, c] = 2 * np.trace(K @ self.generators[c])
        F.setflags(write=False)
        return F

    # -- matrix helpers --------------------------------------------------

    def zero_blocks(self, grade):
        """The zero coefficient array of a grade, shape (C(d, grade), N, N)."""
        n = len(self._index(grade)[0])
        return np.full((n, self.N, self.N), self.scalars.zero, dtype=self.dtype)

    def zero_matrix(self):
        return np.full((self.N, self.N), self.scalars.zero, dtype=self.dtype)

    def identity(self):
        m = self.zero_matrix()
        for k in range(self.N):
            m[k, k] = self.scalars.one
        m.setflags(write=False)
        return m

    def matrix(self, entries):
        """Coerce a nested sequence or array into this calculus' matrices;
        anything but N x N is refused."""
        m = np.array(entries, dtype=self.dtype)
        if m.shape != (self.N, self.N):
            raise DimensionError(f"expected {self.N}x{self.N} matrix, got {m.shape}")
        if self.exact:
            m.flat = [self.scalars.coerce(x) for x in m.flat]
        return m

    def derive(self, k, p):
        """The k-th basis derivation, p -> i [S_k, p] (1-based k)."""
        S = self.generators[k - 1]
        return self.scalars.i * (S @ p - p @ S)

    def random_matrix(self, rng, scale=1.0):
        if self.exact:
            m = np.empty((self.N, self.N), dtype=object)
            for r in range(self.N):
                for c in range(self.N):
                    m[r, c] = GaussianRational(
                        Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))),
                        Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))),
                    )
            return m
        re = rng.standard_normal((self.N, self.N))
        im = rng.standard_normal((self.N, self.N))
        return scale * (re + 1j * im)

    # -- index tables ------------------------------------------------------

    @_compiled
    def _index(self, grade):
        """(the increasing index tuples of a grade, tuple -> position)."""
        tuples = tuple(itertools.combinations(range(1, self.dim + 1), grade))
        return tuples, {I: i for i, I in enumerate(tuples)}

    @_compiled
    def d_table(self, k):
        """d from grade k < d to k + 1 as (gen, src, C, S, coframe): the
        h^K coefficient of d(sum_I h^I p_I) is
            i sum_j (-1)^j [S_{gen[j, r]}, p_{src[j, r]}] + sum_I C[r, I] p_I,
        r the position of K, gen[j, r] the generator of K's j-th index and
        src[j, r] the position of K without it: (-1)^k h^I dp, then each h^c
        of h^I replaced by dh^c = -sum_{a<b} F_abc h^{ab} with the Leibniz
        sign. S = generators[gen]; coframe holds C's nonzero entries as
        ufunc.at groups, +1 and -1 as an addition and a subtraction.
        """
        rows, row_at = self._index(k + 1)
        cols, col_at = self._index(k)
        gen = np.array([[K[j] - 1 for K in rows] for j in range(k + 1)], dtype=np.intp)
        src = np.array([[col_at[K[:j] + K[j + 1:]] for K in rows] for j in range(k + 1)],
                       dtype=np.intp)
        F, pairs = self.structure, list(itertools.combinations(self.volume_indices, 2))
        dh = {c: [((a, b), -F[a - 1, b - 1, c - 1]) for a, b in pairs if F[a - 1, b - 1, c - 1]]
              for c in self.volume_indices}  # dh^c = sum over dh[c] of coeff h^{ab}
        C = np.full((len(rows), len(cols)), self.scalars.zero, dtype=self.dtype)
        for i, I in enumerate(cols):
            for pos, c in enumerate(I):
                for ab, coeff in dh[c]:
                    K, sign = sort_sign(I[:pos] + ab + I[pos + 1:])
                    if sign:
                        C[row_at[K], i] += (-sign if pos % 2 else sign) * coeff
        r, c = np.nonzero(C)
        coef = C[r, c]
        plus, minus = coef == 1, coef == -1
        other = ~(plus | minus)
        coframe = [(ufunc, r[m], c[m], x) for ufunc, m, x in (
            (np.add, plus, None), (np.subtract, minus, None),
            (np.add, other, coef[other][:, None, None])) if m.any()]
        return gen, src, C, np.array(self.generators, dtype=self.dtype)[gen], coframe

    @_compiled
    def wedge_table(self, p, q):
        """wedge from grades p and q, p + q <= d, as (left, right, plus,
        minus): slot s splits K's positions between I (|I| = p) and J, and
        the h^K coefficient of (sum h^I a_I)(sum h^J b_J) sums
        a_{left[s, r]} b_{right[s, r]} over the slots in plus, minus those
        in minus. sort_sign(I + J) depends on the split alone."""
        rows = self._index(p + q)[0]
        left_at, right_at = self._index(p)[1], self._index(q)[1]
        left, right, plus, minus = [], [], [], []
        for s, pos in enumerate(itertools.combinations(range(p + q), p)):
            rest = tuple(i for i in range(p + q) if i not in pos)
            (plus if sort_sign(pos + rest)[1] == 1 else minus).append(s)
            left.append([left_at[tuple(K[i] for i in pos)] for K in rows])
            right.append([right_at[tuple(K[i] for i in rest)] for K in rows])
        return tuple(np.array(t, dtype=np.intp) for t in (left, right, plus, minus))

    @_compiled
    def star_table(self, g):
        """The left Hodge star from grade g as (src, neg): star_L(h^I p) =
        sgn(I, I^c) h^{I^c} p^dagger, so the j-th grade-(d - g) coefficient
        is the dagger of the src[j]-th grade-g one, negated where neg[j]."""
        at = self._index(g)[1]
        src, neg = [], []
        for Ic in self._index(self.dim - g)[0]:
            I = tuple(x for x in self.volume_indices if x not in Ic)
            src.append(at[I])
            neg.append(sort_sign(I + Ic)[1] < 0)
        return np.array(src, dtype=np.intp), np.array(neg, dtype=bool)

    # -- form factories --------------------------------------------------

    def basis_indices(self, grade):
        return list(self._index(grade)[0])

    def zero_form(self):
        return DiffForm(self, {})

    def scalar_form(self, p):
        return DiffForm(self, {(): p})

    def basis_form(self, indices, p=None):
        if p is None:
            p = self.identity()
        return DiffForm(self, {tuple(indices): p})

    def volume_form(self):
        return self.basis_form(self.volume_indices)

    def random_form(self, grade, rng, scale=1.0):
        return DiffForm(self, {
            I: self.random_matrix(rng, scale) for I in self.basis_indices(grade)
        })


def dagger(p):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return p.conj().swapaxes(-1, -2)


def _slot_sum(X, plus, minus):
    """X[plus].sum(0) - X[minus].sum(0), the signs applied as additions."""
    out, neg = X[plus].sum(axis=0), X[minus]
    return out - neg.sum(axis=0) if len(neg) else out


class DiffForm:
    """A (possibly inhomogeneous) matrix-valued form.

    Immutable. `blocks` maps each grade k with a nonzero coefficient to a
    read-only (C(d, k), N, N) array, the coefficients of the h^I of
    `basis_indices(k)` in order: complex, or Gaussian rationals (object
    dtype) in exact mode. Every operation returns a new form.
    """

    __slots__ = ("calc", "blocks")
    __array_ufunc__ = None  # keep numpy from absorbing scalar products

    def __init__(self, calc, terms):
        blocks = {}
        for I, p in terms.items():
            I = tuple(I)
            if sorted(set(I)) != list(I):
                raise ValueError(f"index tuple {I} is not strictly increasing")
            if I and (I[0] < 1 or I[-1] > calc.dim):
                raise ValueError(f"index tuple {I} outside 1..{calc.dim}")
            if len(I) not in blocks:
                blocks[len(I)] = calc.zero_blocks(len(I))
            blocks[len(I)][calc._index(len(I))[1][I]] = calc.matrix(p)
        self._set(calc, blocks)

    @classmethod
    def _from_blocks(cls, calc, blocks):
        """The form of grade -> coefficient array, trusted to be of calc's
        shape and dtype; the arrays are taken over and made read-only."""
        obj = object.__new__(cls)
        obj._set(calc, blocks)
        return obj

    def _set(self, calc, blocks):
        self.calc = calc
        self.blocks = {g: blocks[g] for g in sorted(blocks) if np.count_nonzero(blocks[g])}
        for P in self.blocks.values():
            P.setflags(write=False)

    def _map(self, fn):
        return DiffForm._from_blocks(self.calc, {g: fn(P) for g, P in self.blocks.items()})

    # -- structure -------------------------------------------------------

    @property
    def terms(self):
        """Read-only mapping of the nonzero coefficient blocks, keyed by
        index tuple in sorted order."""
        items = [(I, p) for g, P in self.blocks.items()
                 for I, p in zip(self.calc._index(g)[0], P) if np.count_nonzero(p)]
        return MappingProxyType(dict(sorted(items, key=itemgetter(0))))

    def grades(self):
        return list(self.blocks)

    @property
    def grade(self):
        """The grade of a homogeneous form; None for zero, error if mixed."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise ValueError(f"form has mixed grades {gs}")
        return gs[0]

    def array(self, grade):
        """The (C(d, grade), N, N) coefficient array of one grade."""
        P = self.blocks.get(grade)
        return self.calc.zero_blocks(grade) if P is None else P

    def component(self, indices):
        I = tuple(indices)
        pos = self.calc._index(len(I))[1].get(I) if len(I) in self.blocks else None
        return self.calc.zero_matrix() if pos is None else self.blocks[len(I)][pos]

    def graded_part(self, grade):
        return DiffForm._from_blocks(
            self.calc, {grade: self.blocks[grade]} if grade in self.blocks else {})

    def is_zero(self, tol=0.0):
        if not self.blocks:
            return True
        if self.calc.exact or tol == 0.0:
            return False  # construction dropped all-zero grades already
        return self.frobenius() <= tol

    def frobenius(self):
        total = sum(float(np.sum(np.abs(np.asarray(P, dtype=complex)) ** 2))
                    for P in self.blocks.values())
        return float(np.sqrt(total))

    # -- linear structure --------------------------------------------------

    def _check_compatible(self, other):
        if self.calc.N != other.calc.N or self.calc.exact != other.calc.exact:
            raise DimensionError("forms built over different calculi")

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.blocks)
        for g, Q in other.blocks.items():
            out[g] = out[g] + Q if g in out else Q
        return DiffForm._from_blocks(self.calc, out)

    def __sub__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.blocks)
        for g, Q in other.blocks.items():
            out[g] = out[g] - Q if g in out else -Q
        return DiffForm._from_blocks(self.calc, out)

    def __neg__(self):
        return self._map(lambda P: -P)

    def __mul__(self, other):
        if isinstance(other, DiffForm):
            return self.wedge(other)
        return self._map(lambda P: P * other)

    def __rmul__(self, other):
        # scalars only; DiffForm * DiffForm goes through __mul__
        return self._map(lambda P: P * other)

    def __truediv__(self, other):
        return self._map(lambda P: P / other)

    def lmul(self, m):
        """Left module action p . omega."""
        m = self.calc.matrix(m)
        return self._map(lambda P: m @ P)

    def rmul(self, m):
        """Right module action omega . p."""
        m = self.calc.matrix(m)
        return self._map(lambda P: P @ m)

    # -- graded algebra ----------------------------------------------------

    def wedge(self, other):
        self._check_compatible(other)
        calc = self.calc
        out = {}
        for p, P in self.blocks.items():
            for q, Q in other.blocks.items():
                if p + q > calc.dim:
                    continue
                left, right, plus, minus = calc.wedge_table(p, q)
                W = _slot_sum(P[left] @ Q[right], plus, minus)
                out[p + q] = out[p + q] + W if p + q in out else W
        return DiffForm._from_blocks(calc, out)

    def d(self):
        """Chevalley-Eilenberg differential, by the calculus' d_table."""
        calc = self.calc
        out = {}
        for k, P in self.blocks.items():
            if k == calc.dim:
                continue
            _, src, _, S, coframe = calc.d_table(k)
            X = P[src]
            dP = _slot_sum(S @ X - X @ S, slice(0, None, 2), slice(1, None, 2))
            dP = dP * calc.scalars.i
            for ufunc, rows, cols, coef in coframe:
                ufunc.at(dP, rows, P[cols] if coef is None else coef * P[cols])
            out[k + 1] = dP
        return DiffForm._from_blocks(calc, out)

    def star(self):
        """The antilinear involution mu -> mu*."""
        return self._map(dagger)

    def parity(self):
        """The grade involution: (-1)^k on the grade-k part."""
        return DiffForm._from_blocks(
            self.calc, {g: -P if g % 2 else P for g, P in self.blocks.items()})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.calc.N != other.calc.N or self.calc.exact != other.calc.exact:
            return False
        return (self.blocks.keys() == other.blocks.keys()
                and all(np.array_equal(P, other.blocks[g]) for g, P in self.blocks.items()))

    __hash__ = None

    def allclose(self, other, tol=1e-12):
        self._check_compatible(other)
        if self.calc.exact:
            return self == other
        return all(np.max(np.abs(self.array(g) - other.array(g)), initial=0.0) <= tol
                   for g in self.blocks.keys() | other.blocks.keys())

    def __repr__(self):
        if not self.blocks:
            return "DiffForm(0)"
        parts = ",".join("h^" + ("".join(map(str, I)) or "0") for I in self.terms)
        return f"DiffForm({parts}; N={self.calc.N})"


# -- JSON matrix codec --------------------------------------------------------

def matrix_to_json(calc, p):
    """Row-major [re, im] pairs: floats, or rational strings in exact mode."""
    if calc.exact:
        return [[[str(x.re), str(x.im)] for x in row] for row in p]
    return [[[float(x.real), float(x.imag)] for x in row]
            for row in np.asarray(p, dtype=complex)]


def matrix_from_json(calc, rows):
    """Inverse of `matrix_to_json`; refuses anything but shape (N, N, 2)."""
    arr = np.array(rows, dtype=object)
    if arr.shape != (calc.N, calc.N, 2):
        raise DimensionError(f"expected shape {(calc.N, calc.N, 2)}, got {arr.shape}")
    if calc.exact:
        m = calc.zero_matrix()
        for r in range(calc.N):
            for c in range(calc.N):
                m[r, c] = GaussianRational(Fraction(arr[r, c, 0]), Fraction(arr[r, c, 1]))
        return m
    arr = arr.astype(float)
    m = np.empty((calc.N, calc.N), dtype=complex)
    m.real, m.imag = arr[..., 0], arr[..., 1]
    return m
