"""Trivial U(1) principal bundle over the matrix algebra.

The structure group only ever enters through integer charges: the group
algebra is spanned by monomials z^n, the vertical germ g satisfies
pi(z^n) = n g, g* = -g, dg = 0, g g = 0, and sections of the associated
line bundles are matrix coefficients carrying a charge. A connection is
a grade-1 form A (its vertical part is fixed), and all covariant objects
reduce to operations on forms tagged with a charge and a side.

The fast implementations below push the charge rule through symbolically.
Their signs are pinned by `reference_cov_derivative`, a slow evaluator
that materializes total-space coefficients in M tensor {z^n, z^n g} and
applies the defining formula D(phi) = d phi - (-1)^k phi omega(pi(phi));
the two routes are compared in the test suite and the verification sweep.
"""

from __future__ import annotations

import numpy as np

from .matforms import DiffForm, dagger, matrix_from_json, matrix_to_json
from .qriemann import IDENTITY_TOL, _check_side, codifferential, hodge, hodge_inner


class ChargeMismatchError(ValueError):
    """Pairing of charged objects with different charge or side."""


class GaugeConnection:
    """A connection on the trivial bundle, stored as its grade-1 form A."""

    __slots__ = ("A",)

    def __init__(self, A):
        if A.grades() not in ([], [1]):
            raise ValueError("connection form must be pure grade 1")
        self.A = A

    @property
    def calc(self):
        return self.A.calc

    @classmethod
    def zero(cls, calc):
        return cls(calc.zero_form())

    def curvature(self):
        """R = dA; the germ part of the total-space curvature vanishes."""
        return self.A.d()

    def hat(self):
        """The conjugated connection, with form -A*."""
        return GaugeConnection(-self.A.star())

    def is_real(self, tol=IDENTITY_TOL):
        return (self.A + self.A.star()).is_zero(tol)

    def is_regular(self, tol=IDENTITY_TOL):
        """True iff every coefficient of A is a multiple of the identity."""
        calc, P = self.calc, self.A.array(1)
        resid = P - np.trace(P, axis1=1, axis2=2)[:, None, None] / calc.N * calc.identity()
        if calc.exact:
            return not np.count_nonzero(resid)
        scale = np.maximum(1.0, np.abs(P).max(axis=(1, 2)))
        return bool(np.all(np.abs(resid).max(axis=(1, 2)) <= tol * scale))

    def __add__(self, other):
        if isinstance(other, ConnectionDisplacement):
            return GaugeConnection(self.A + other.form)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, GaugeConnection):
            return ConnectionDisplacement(self.A - other.A)
        if isinstance(other, ConnectionDisplacement):
            return GaugeConnection(self.A - other.form)
        return NotImplemented

    def __repr__(self):
        return f"GaugeConnection({self.A!r})"

    def to_payload(self):
        """{"A": [matrix_to_json of each h^j coefficient, j = 1..d]}."""
        return {"A": [matrix_to_json(self.calc, p) for p in self.A.array(1)]}

    @classmethod
    def from_payload(cls, calc, payload):
        mats = payload["A"]
        if len(mats) != calc.dim:
            raise ValueError(f"expected {calc.dim} coefficient matrices, got {len(mats)}")
        return cls(DiffForm(calc, {(j,): matrix_from_json(calc, rows)
                                   for j, rows in enumerate(mats, start=1)}))


class ConnectionDisplacement:
    """A direction in the affine space of connections: a grade-1 form."""

    __slots__ = ("form",)

    def __init__(self, form):
        if form.grades() not in ([], [1]):
            raise ValueError("displacement must be pure grade 1")
        self.form = form

    @property
    def calc(self):
        return self.form.calc

    def __add__(self, other):
        if isinstance(other, ConnectionDisplacement):
            return ConnectionDisplacement(self.form + other.form)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ConnectionDisplacement):
            return ConnectionDisplacement(self.form - other.form)
        return NotImplemented

    def __mul__(self, scalar):
        return ConnectionDisplacement(self.form * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return ConnectionDisplacement(-self.form)

    def real_decomposition(self):
        """lambda = lambda_r + i lambda_i with both parts real (mu* = -mu)."""
        sc = self.calc.scalars
        half = sc.frac(1, 2)
        lam_r = (self.form - self.form.star()) * half
        lam_i = (self.form + self.form.star()) * (-sc.i * half)
        return ConnectionDisplacement(lam_r), ConnectionDisplacement(lam_i)


class ChargedSection:
    """Grade-0 section of the charge-n associated line bundle.

    Left sections are p.T^n, right sections T^n.p; either way the data is
    the matrix p plus the charge and the side.
    """

    __slots__ = ("calc", "charge", "side", "p")

    def __init__(self, calc, charge, side, p):
        _check_side(side)
        self.calc = calc
        self.charge = int(charge)
        self.side = side
        self.p = calc.matrix(p)

    def as_qvb(self):
        return QvbForm(self.charge, self.side, self.calc.scalar_form(self.p))

    def __repr__(self):
        return f"ChargedSection(n={self.charge}, side={self.side!r})"


def section_inner(T1, T2):
    """<T1, T2>: p1 p2* on the left side, p1* p2 on the right."""
    if (T1.charge, T1.side) != (T2.charge, T2.side):
        raise ChargeMismatchError("section inner product needs matching charge and side")
    if T1.side == "left":
        return T1.p @ dagger(T2.p)
    return dagger(T1.p) @ T2.p


class QvbForm:
    """A bundle-valued form: a plain form tagged with charge and side."""

    __slots__ = ("charge", "side", "form")

    def __init__(self, charge, side, form):
        _check_side(side)
        self.charge = int(charge)
        self.side = side
        self.form = form

    @property
    def calc(self):
        return self.form.calc

    def _match(self, other):
        if (self.charge, self.side) != (other.charge, other.side):
            raise ChargeMismatchError(
                f"charge/side mismatch: ({self.charge},{self.side}) vs"
                f" ({other.charge},{other.side})")

    def __add__(self, other):
        self._match(other)
        return QvbForm(self.charge, self.side, self.form + other.form)

    def __sub__(self, other):
        self._match(other)
        return QvbForm(self.charge, self.side, self.form - other.form)

    def __mul__(self, scalar):
        return QvbForm(self.charge, self.side, self.form * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return QvbForm(self.charge, self.side, -self.form)

    def __repr__(self):
        return f"QvbForm(n={self.charge}, side={self.side!r}, {self.form!r})"


def as_qvb(x):
    return x.as_qvb() if isinstance(x, ChargedSection) else x


def upsilon_inv(mu, T):
    """Collapse mu tensor T into a single charged form."""
    form = mu.rmul(T.p) if T.side == "left" else mu.lmul(T.p)
    return QvbForm(T.charge, T.side, form)


def upsilon(psi):
    """Factor a charged form through the unit section of its charge."""
    unit = ChargedSection(psi.calc, psi.charge, psi.side, psi.calc.identity())
    return psi.form, unit


def qvb_inner(a, b):
    """Inner product of bundle-valued forms of matching charge and side."""
    a, b = as_qvb(a), as_qvb(b)
    a._match(b)
    return hodge_inner(a.form, b.form, a.side)


def cov_derivative(conn, psi):
    """Exterior covariant derivative.

    Left charge n on a grade-k piece q: dq - (-1)^k n q A. Right charge
    m: dq + m A* q on every grade; this is * D_{-m} * and the sign-free
    grading is not a typo. Charge 0 reduces to d for every connection.
    """
    psi = as_qvb(psi)
    n, A = psi.charge, conn.A
    if psi.side == "right":
        return QvbForm(n, "right", psi.form.d() + n * (A.star() * psi.form))
    out = psi.form.d()
    if n:
        out = out - n * (psi.form.parity() * A)
    return QvbForm(n, "left", out)


def cov_codifferential(conn, psi):
    """Adjoint of cov_derivative w.r.t. qvb_inner, for every connection.

    On a left grade-g piece: d*q - (-1)^(g-1) n star_inv(A (star q)); the
    second term is antilinear in A, which is what makes this the true
    adjoint even for connections that are not real. star_inv is applied as
    hodge, its sign (-1)^{(d-g+1)(g-1)} folded into the charge's sign. Right
    side by involution conjugation at opposite charge.
    """
    psi = as_qvb(psi)
    n = psi.charge
    if psi.side == "right":
        flipped = QvbForm(-n, "left", psi.form.star())
        res = cov_codifferential(conn, flipped)
        return QvbForm(n, "right", res.form.star())
    out = codifferential(psi.form, "left")
    if n:
        # grade g - 1 of part comes from grade g >= 1 of psi, and
        # (-1)^((g-1)(d-g+2)) is (-1)^(g-1) for odd d and 1 for even d
        part = hodge(conn.A * hodge(psi.form))
        out = out - n * (part.parity() if conn.calc.dim % 2 else part)
    return QvbForm(n, "left", out)


def cov_laplacian(conn, psi):
    psi = as_qvb(psi)
    return (cov_codifferential(conn, cov_derivative(conn, psi))
            + cov_derivative(conn, cov_codifferential(conn, psi)))


def displacement_K(lam, T):
    """K^lambda, the difference of the covariant derivatives of the
    connections lam and zero."""
    psi = as_qvb(T)
    base = GaugeConnection.zero(psi.calc)
    return cov_derivative(base + lam, psi) - cov_derivative(base, psi)


# -- total-space reference evaluator -------------------------------------

class _TotalForm:
    """Forms on the total space, materialized as {(charge, germ degree):
    form} with germ degree 0 or 1. Slow; exists to pin signs."""

    __slots__ = ("calc", "terms")

    def __init__(self, calc, terms):
        self.calc = calc
        self.terms = {key: f for key, f in terms.items() if f.blocks}

    def __add__(self, other):
        out = dict(self.terms)
        for key, f in other.terms.items():
            out[key] = out[key] + f if key in out else f
        return _TotalForm(self.calc, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return _TotalForm(self.calc, {k: f * scalar for k, f in self.terms.items()})

    def product(self, other):
        out = {}
        for (c1, g1), f1 in self.terms.items():
            for (c2, g2), f2 in other.terms.items():
                if g1 + g2 > 1:
                    continue  # germ squares to zero
                key = (c1 + c2, g1 + g2)
                # the germ anticommutes with odd form factors
                piece = f1 * (f2.parity() if g1 else f2)
                out[key] = out[key] + piece if key in out else piece
        return _TotalForm(self.calc, out)

    def d(self):
        out = {}

        def acc(key, f):
            out[key] = out[key] + f if key in out else f

        for (c, g), f in self.terms.items():
            acc((c, g), f.d())
            if g == 0 and c != 0:
                acc((c, 1), c * f.parity())
        return _TotalForm(self.calc, out)

    def star(self):
        out = {}
        for (c, g), f in self.terms.items():
            piece = f.star()
            out[(-c, g)] = piece if g == 0 else -piece
        return _TotalForm(self.calc, out)

    def charge_part(self, charge, germ_degree):
        return self.terms.get((charge, germ_degree), self.calc.zero_form())


def connection_total_form(conn):
    """omega(g) as a total-space 1-form: A plus the vertical germ."""
    calc = conn.calc
    return _TotalForm(calc, {
        (0, 0): conn.A,
        (0, 1): calc.scalar_form(calc.identity()),
    })


def reference_cov_derivative(conn, psi):
    """Evaluate D(phi) = d phi - (-1)^k phi . n omega(g) on the total space.

    The vertical parts must cancel; that cancellation and the sign of the
    surviving horizontal part are exactly what this oracle certifies.
    """
    psi = as_qvb(psi)
    calc, n = psi.calc, psi.charge
    if psi.side == "right":
        flipped = QvbForm(-n, "left", psi.form.star())
        res = reference_cov_derivative(conn, flipped)
        return QvbForm(n, "right", res.form.star())
    omega = connection_total_form(conn)
    result = calc.zero_form()
    leftover = calc.zero_form()
    for k in (psi.form.grades() or [0]):
        phi = _TotalForm(calc, {(n, 0): psi.form.graded_part(k)})
        term = phi.product((n if k % 2 == 0 else -n) * omega) if n else _TotalForm(calc, {})
        D = phi.d() - term
        result = result + D.charge_part(n, 0)
        leftover = leftover + D.charge_part(n, 1)
        for key in D.terms:
            if key not in ((n, 0), (n, 1)):
                raise AssertionError(f"reference evaluator produced stray charge {key}")
    if not leftover.is_zero(1e-12):
        raise AssertionError("vertical parts of the reference evaluation did not cancel")
    return QvbForm(n, "left", result)


def reference_curvature(conn):
    """d omega(g) on the total space; the germ part must vanish."""
    omega = connection_total_form(conn)
    domega = omega.d()
    vert = domega.charge_part(0, 1)
    if not vert.is_zero(1e-12):
        raise AssertionError("curvature reference has a vertical remainder")
    return domega.charge_part(0, 0)
