"""Graded differential *-algebra of matrix-valued forms.

The base algebra is M_N(C). Its derivations are spanned by the inner
derivations p -> i[S_k, p] attached to an orthonormalized traceless
hermitian basis {S_k} (d = N^2 - 1 of them; sigma_k/2 for N = 2). Forms
are elements of the Chevalley-Eilenberg complex of that Lie algebra with
coefficients in M_N(C): finite sums of h^I p where I runs over strictly
increasing index tuples and the Grassmann generators h^k are the duals of
the derivations. The h^I are central, so a form is just the map I -> p_I.

Sign and normalization choices (wedge without 1/k!, the coframe
differential, the involution on positive grades) are recorded in
CONVENTIONS below; every report emitted by this package embeds
CONVENTIONS_ID so results can be compared across builds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np

from .exact import GR_I, GR_ONE, GR_ZERO, GaussianRational

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

    exact = False
    zero = 0j
    one = 1 + 0j
    i = 1j

    @staticmethod
    def frac(num, den=1):
        return complex(Fraction(num, den))

    @staticmethod
    def coerce(x):
        return complex(x)


class _ExactScalars:
    """Gaussian-rational scalar field for the exact mode."""

    exact = True
    zero = GR_ZERO
    one = GR_ONE
    i = GR_I

    @staticmethod
    def frac(num, den=1):
        return GaussianRational(Fraction(num, den))

    @staticmethod
    def coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        if isinstance(x, complex):
            raise TypeError("inexact complex scalar in exact mode")
        return GaussianRational(Fraction(x))


class DimensionError(ValueError):
    """Operands built over different algebra sizes."""


class DerivationCalculus:
    """The differential calculus attached to M_N(C).

    Holds the generator basis, the structure constants of the derivation
    Lie algebra, and the coframe differential table; acts as the factory
    for forms. All values are immutable; the index rules of d and wedge
    are derived from them per index tuple on first use and remembered.
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
        self.generators = self._build_generators()
        self.structure = self._build_structure()
        self._dh = self._build_coframe_differential()
        self.volume_indices = tuple(range(1, self.dim + 1))
        self._d_rules = {}  # index tuple -> d_rule
        self._sorted = {}  # index tuple -> sorted_sign

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
        F = np.empty((d, d, d), dtype=object if self.exact else complex)
        for a in range(d):
            for b in range(d):
                K = sc.i * (self.generators[a] @ self.generators[b]
                            - self.generators[b] @ self.generators[a])
                for c in range(d):
                    F[a, b, c] = 2 * np.trace(K @ self.generators[c])
        F.setflags(write=False)
        return F

    def _build_coframe_differential(self):
        table = {}
        for c in range(1, self.dim + 1):
            entries = {}
            for a in range(1, self.dim + 1):
                for b in range(a + 1, self.dim + 1):
                    coeff = -self.structure[a - 1, b - 1, c - 1]
                    if coeff:
                        entries[(a, b)] = coeff
            table[c] = entries
        return table

    # -- matrix helpers --------------------------------------------------

    def zero_matrix(self):
        if self.exact:
            m = np.empty((self.N, self.N), dtype=object)
            m[...] = GR_ZERO
            return m
        return np.zeros((self.N, self.N), dtype=complex)

    def identity(self):
        m = self.zero_matrix()
        for k in range(self.N):
            m[k, k] = self.scalars.one
        m.setflags(write=False)
        return m

    def matrix(self, entries):
        """Coerce a nested sequence or array into this calculus' matrices."""
        if self.exact:
            m = np.empty((self.N, self.N), dtype=object)
            rows = list(entries)
            for r in range(self.N):
                row = list(rows[r])
                for c in range(self.N):
                    m[r, c] = self.scalars.coerce(row[c])
        else:
            m = np.array(entries, dtype=complex)
            if m.shape != (self.N, self.N):
                raise DimensionError(f"expected {self.N}x{self.N} matrix, got {m.shape}")
        return m

    def sorted_sign(self, indices):
        """sort_sign(indices), remembered per tuple: wedge's index rule."""
        rule = self._sorted.get(indices)
        if rule is None:
            rule = self._sorted[indices] = sort_sign(indices)
        return rule

    def d_rule(self, I):
        """The index rule of d on h^I p, compiled on first use of I.

        Returns (coefficient part, coframe part): d(h^I p) is the sum of
        sign h^K derive(m, p) over the (m, K, sign) of the first, which is
        (-1)^k h^I wedge dp, and of c h^K p over the (K, c) of the second,
        which replaces each h^{i_pos} by dh^{i_pos} with the Leibniz sign.
        """
        rule = self._d_rules.get(I)
        if rule is None:
            k = len(I)
            coefficient = []
            for m in range(1, self.dim + 1):
                K, sign = sort_sign(I + (m,))
                if sign:
                    coefficient.append((m, K, -sign if k % 2 else sign))
            coframe = []
            for pos in range(k):
                for (a, b), coeff in self._dh[I[pos]].items():
                    K, sign = sort_sign(I[:pos] + (a, b) + I[pos + 1:])
                    if sign:
                        coframe.append((K, (-sign if pos % 2 else sign) * coeff))
            rule = self._d_rules[I] = (tuple(coefficient), tuple(coframe))
        return rule

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

    # -- form factories --------------------------------------------------

    def basis_indices(self, grade):
        return list(itertools.combinations(range(1, self.dim + 1), grade))

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
    return p.conj().T


class DiffForm:
    """A (possibly inhomogeneous) matrix-valued form.

    Immutable. `terms` maps strictly increasing index tuples to N x N
    coefficient matrices; absent tuples are zero. Arithmetic, wedge,
    the differential and the involution all return new forms.
    """

    __slots__ = ("calc", "terms")
    __array_ufunc__ = None  # keep numpy from absorbing scalar products

    def __init__(self, calc, terms):
        cleaned = {}
        for I, p in terms.items():
            I = tuple(I)
            if sorted(set(I)) != list(I):
                raise ValueError(f"index tuple {I} is not strictly increasing")
            if I and (I[0] < 1 or I[-1] > calc.dim):
                raise ValueError(f"index tuple {I} outside 1..{calc.dim}")
            m = calc.matrix(p)
            if np.any(m):
                m = m.copy()
                m.setflags(write=False)
                cleaned[I] = m
        self.calc = calc
        self.terms = cleaned

    @classmethod
    def _raw(cls, calc, terms):
        # internal fast path: trusted dict of proper matrices
        obj = object.__new__(cls)
        obj.calc = calc
        obj.terms = {I: p for I, p in terms.items() if np.count_nonzero(p)}
        return obj

    # -- structure -------------------------------------------------------

    def grades(self):
        return sorted({len(I) for I in self.terms})

    @property
    def grade(self):
        """The grade of a homogeneous form; None for zero, error if mixed."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise ValueError(f"form has mixed grades {gs}")
        return gs[0]

    def component(self, indices):
        return self.terms.get(tuple(indices), self.calc.zero_matrix())

    def graded_part(self, grade):
        return DiffForm._raw(self.calc, {
            I: p for I, p in self.terms.items() if len(I) == grade
        })

    def is_zero(self, tol=0.0):
        if not self.terms:
            return True
        if self.calc.exact or tol == 0.0:
            return False  # construction pruned exact zeros already
        return self.frobenius() <= tol

    def frobenius(self):
        total = 0.0
        for p in self.terms.values():
            total += np.sum(np.abs(np.asarray(p, dtype=complex)) ** 2)
        return float(np.sqrt(total))

    # -- linear structure --------------------------------------------------

    def _check_compatible(self, other):
        if self.calc.N != other.calc.N or self.calc.exact != other.calc.exact:
            raise DimensionError("forms built over different calculi")

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for I, p in other.terms.items():
            out[I] = out[I] + p if I in out else p
        return DiffForm._raw(self.calc, out)

    def __sub__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for I, p in other.terms.items():
            out[I] = out[I] - p if I in out else -p
        return DiffForm._raw(self.calc, out)

    def __neg__(self):
        return DiffForm._raw(self.calc, {I: -p for I, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, DiffForm):
            return self.wedge(other)
        return DiffForm._raw(self.calc, {I: p * other for I, p in self.terms.items()})

    def __rmul__(self, other):
        # scalars only; DiffForm * DiffForm goes through __mul__
        return DiffForm._raw(self.calc, {I: p * other for I, p in self.terms.items()})

    def __truediv__(self, other):
        return DiffForm._raw(self.calc, {I: p / other for I, p in self.terms.items()})

    def lmul(self, m):
        """Left module action p . omega."""
        m = self.calc.matrix(m)
        return DiffForm._raw(self.calc, {I: m @ p for I, p in self.terms.items()})

    def rmul(self, m):
        """Right module action omega . p."""
        m = self.calc.matrix(m)
        return DiffForm._raw(self.calc, {I: p @ m for I, p in self.terms.items()})

    # -- graded algebra ----------------------------------------------------

    def wedge(self, other):
        self._check_compatible(other)
        rule = self.calc.sorted_sign
        out = {}
        for I, p in self.terms.items():
            for J, q in other.terms.items():
                K, sign = rule(I + J)
                if sign == 0:
                    continue
                m = p @ q if sign == 1 else -(p @ q)
                out[K] = out[K] + m if K in out else m
        return DiffForm._raw(self.calc, out)

    def d(self):
        """Chevalley-Eilenberg differential, by the calculus' d_rule."""
        calc = self.calc
        out = {}
        for I, p in self.terms.items():
            coefficient, coframe = calc.d_rule(I)
            for m, K, sign in coefficient:
                dp = calc.derive(m, p)
                if sign != 1:
                    dp = -dp
                out[K] = out[K] + dp if K in out else dp
            for K, c in coframe:
                q = c * p
                out[K] = out[K] + q if K in out else q
        return DiffForm._raw(calc, out)

    def star(self):
        """The antilinear involution mu -> mu*."""
        return DiffForm._raw(self.calc, {I: dagger(p) for I, p in self.terms.items()})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.calc.N != other.calc.N or self.calc.exact != other.calc.exact:
            return False
        keys = set(self.terms) | set(other.terms)
        for I in keys:
            a, b = self.component(I), other.component(I)
            if not np.array_equal(a, b):
                return False
        return True

    __hash__ = None

    def allclose(self, other, tol=1e-12):
        self._check_compatible(other)
        if self.calc.exact:
            return self == other
        keys = set(self.terms) | set(other.terms)
        for I in keys:
            a = np.asarray(self.component(I), dtype=complex)
            b = np.asarray(other.component(I), dtype=complex)
            if np.max(np.abs(a - b), initial=0.0) > tol:
                return False
        return True

    def __repr__(self):
        if not self.terms:
            return "DiffForm(0)"
        parts = ",".join("h^" + ("".join(map(str, I)) or "0") for I in sorted(self.terms))
        return f"DiffForm({parts}; N={self.calc.N})"

    # -- serialization -----------------------------------------------------

    def to_payload(self):
        """JSON-ready dict: index-tuple strings to `matrix_to_json` matrices."""
        terms = {_index_key(self.calc, I): matrix_to_json(self.calc, p)
                 for I, p in sorted(self.terms.items())}
        return {"N": self.calc.N, "exact": self.calc.exact, "terms": terms}

    @classmethod
    def from_payload(cls, calc, payload):
        if payload.get("N", calc.N) != calc.N or payload.get("exact", calc.exact) != calc.exact:
            raise DimensionError("payload does not match the target calculus")
        return cls(calc, {_parse_index_key(key): matrix_from_json(calc, rows)
                          for key, rows in payload["terms"].items()})


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


def _index_key(calc, I):
    # single digits concatenate ("13"); larger calculi need separators
    if calc.dim <= 9:
        return "".join(str(i) for i in I)
    return ",".join(str(i) for i in I)


def _parse_index_key(key):
    if not key:
        return ()
    if "," in key:
        return tuple(int(s) for s in key.split(","))
    return tuple(int(ch) for ch in key)

