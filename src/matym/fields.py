"""Actions, field equations, variational oracles, and the stationary solver.

Conventions for the variational pairings, fixed once here and verified
against central finite differences in the test suite:

  connection direction lam:  dS/dz = <lam | G>_L, where G = (1/4) E for
      coupled configurations (E the assembled connection equation) and
      G = -(1/2) d*dA for pure Yang-Mills;
  left section direction u:  dS/dz = (1/4) <u | R1>_L;
  right section direction v: dS/dz = -(1/4) <R2 | v>_R.

The residual operations return the field equations in their printed
shapes (zero sets define stationarity); `analytic_gradient` applies the
constants above, and `action_gradient_fd` is the independent oracle: it
differentiates the action, never the field equations it is compared with.

The actions `ym_action`, `gsm_action`, `ymsm_action` and the equations
`ymsm_connection_residual`, `ymsm_section_residuals` are written on
DiffForms, in either scalar field: the exact API and the oracle. The
solver's `residual_blocks` and `_table_action`, the action that
`action_gradient_fd` differentiates, evaluate the same formulas in
floats on the connection's grade-1 array and the section matrices, with
dense operator matrices built once per calculus on first use and dropped
with it (D_0, Delta_1, Delta_2 D_1 and D_1).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .matforms import CONVENTIONS_ID, dagger
from .qbundle import (ChargedSection, GaugeConnection, QvbForm,
                      cov_codifferential, cov_derivative, section_inner)
from .qriemann import (codifferential, codifferential_matrix, d_matrix, form_to_vec,
                       hodge_inner, metric, state, vec_to_form)


class PolynomialPotential:
    """V(q) = sum c_k q^k on scalar or matrix arguments."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        self.coefficients = tuple(coeffs) if coeffs else (0,)

    @property
    def is_constant(self):
        return all(not c for c in self.coefficients[1:])

    def _horner(self, coeffs, q):
        if not isinstance(q, np.ndarray):
            out = 0 * q
            for c in reversed(coeffs):
                out = out * q + c
            return out
        eye = np.eye(q.shape[0], dtype=q.dtype)
        out = 0 * eye
        for c in reversed(coeffs):
            out = out @ q + c * eye
        return out

    def __call__(self, q):
        return self._horner(self.coefficients, q)

    def derivative(self, q):
        dcoeffs = [k * c for k, c in enumerate(self.coefficients)][1:] or [0]
        return self._horner(dcoeffs, q)

    def __repr__(self):
        return f"PolynomialPotential({list(self.coefficients)})"


ZERO_POTENTIAL = PolynomialPotential((0,))


class FieldConfiguration:
    """A connection plus an optional charge-n / charge-(-n) section pair."""

    __slots__ = ("connection", "left", "right", "potential")

    def __init__(self, connection, left=None, right=None, potential=None):
        self.connection = connection
        self.left = left
        self.right = right
        self.potential = potential if potential is not None else ZERO_POTENTIAL
        if left is not None and left.side != "left":
            raise ValueError("left section must have side 'left'")
        if right is not None and right.side != "right":
            raise ValueError("right section must have side 'right'")
        if left is not None and right is not None and left.charge != -right.charge:
            raise ValueError(
                f"section charges must be opposite, got {left.charge} and {right.charge}")

    @property
    def calc(self):
        return self.connection.calc

    @property
    def charge(self):
        if self.left is not None:
            return self.left.charge
        if self.right is not None:
            return -self.right.charge
        return 0

    @property
    def has_sections(self):
        return self.left is not None or self.right is not None

    def replace(self, connection=None, left_p=None, right_p=None):
        conn = connection if connection is not None else self.connection
        left = self.left
        if left_p is not None:
            left = ChargedSection(self.calc, self.left.charge, "left", left_p)
        right = self.right
        if right_p is not None:
            right = ChargedSection(self.calc, self.right.charge, "right", right_p)
        return FieldConfiguration(conn, left, right, self.potential)


class VariationDirection:
    """A direction in configuration space: a grade-1 form or a matrix."""

    __slots__ = ("kind", "value")

    KINDS = ("connection", "left", "right")

    def __init__(self, kind, value):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        self.kind = kind
        self.value = value

    @classmethod
    def connection(cls, form):
        return cls("connection", form)

    @classmethod
    def left(cls, matrix):
        return cls("left", matrix)

    @classmethod
    def right(cls, matrix):
        return cls("right", matrix)


# -- actions --------------------------------------------------------------

def ym_action(conn):
    """-1/4 (<F|F>_L + <F_hat|F_hat>_R); real, nonpositive, zero iff flat.

    Both inner products are evaluated; their equality is a *-symmetry the
    tests pin separately, not something assumed here.
    """
    sc = conn.calc.scalars
    F = conn.curvature()
    Fh = conn.hat().curvature()
    total = hodge_inner(F, F, "left") + hodge_inner(Fh, Fh, "right")
    return sc.frac(-1, 4) * total


def _section_lagrangian(conn, T1, T2, potential):
    """Matrix-valued Lagrangian of one section pair under a connection."""
    calc = conn.calc
    sc = calc.scalars
    L = calc.zero_matrix()
    if T1 is not None:
        q1 = cov_derivative(conn, T1).form
        L = L + metric(q1, q1, "left") - potential(section_inner(T1, T1))
    if T2 is not None:
        q2 = cov_derivative(conn, T2).form
        L = L - metric(q2, q2, "right") + potential(section_inner(T2, T2))
    return sc.frac(1, 4) * L


def gsm_action(cfg):
    """Integral of the charged-scalar-matter Lagrangian."""
    return state(_section_lagrangian(cfg.connection, cfg.left, cfg.right, cfg.potential))


def sm_action(calc, left_ps, right_ps, potential):
    """Charge-0 multiplet action; components contribute independently."""
    if len(left_ps) != len(right_ps):
        raise ValueError("multiplets must have the same number of components")
    conn = GaugeConnection.zero(calc)
    total = calc.scalars.zero
    for p, q in zip(left_ps, right_ps):
        T1 = ChargedSection(calc, 0, "left", p)
        T2 = ChargedSection(calc, 0, "right", q)
        total = total + state(_section_lagrangian(conn, T1, T2, potential))
    return total


def ymsm_action(cfg):
    total = ym_action(cfg.connection)
    if cfg.has_sections:
        total = total + gsm_action(cfg)
    return total


# -- field equations ------------------------------------------------------

def ym_residual(conn):
    """d*dA, the Yang-Mills equation for this bundle; zero iff flat."""
    return codifferential(conn.curvature(), "left")


def sm_residuals(calc, left_ps, right_ps, potential):
    """Charge-0 multiplet equations, component-wise and as printed:
    left  d*d p - V'(p p+)+ p, right  d*d p+ - V'(p+ p) p+."""
    lefts, rights = [], []
    for p in left_ps:
        p = calc.matrix(p)
        lap = codifferential(calc.scalar_form(p).d(), "left").component(())
        lefts.append(lap - dagger(potential.derivative(p @ dagger(p))) @ p)
    for q in right_ps:
        q = calc.matrix(q)
        qd = dagger(q)
        lap = codifferential(calc.scalar_form(qd).d(), "left").component(())
        rights.append(lap - potential.derivative(qd @ q) @ qd)
    return lefts, rights


def ymsm_connection_residual(cfg):
    """The assembled connection equation.

    For charge n != 0 this is the combination in the charge-weighted
    normalization p1 = n a, p2 = -n b:
        -(1/n)(p1+ dp1 - p2 dp2+) + p1+p1 A - p2 p2+ A - 2 d*dA.
    For n = 0 the sections decouple and the Yang-Mills equation d*dA is
    returned instead.
    """
    n = cfg.charge
    if n == 0 or not cfg.has_sections:
        return ym_residual(cfg.connection)
    calc = cfg.calc
    sc = calc.scalars
    A = cfg.connection.A
    a = cfg.left.p if cfg.left is not None else calc.zero_matrix()
    b = cfg.right.p if cfg.right is not None else calc.zero_matrix()
    p1 = n * a
    p2 = -n * b
    dp1 = calc.scalar_form(p1).d()
    dp2c = calc.scalar_form(dagger(p2)).d()
    out = (dp1.lmul(dagger(p1)) - dp2c.lmul(p2)) * sc.frac(-1, n)
    out = out + A.lmul(dagger(p1) @ p1) - A.lmul(p2 @ dagger(p2))
    out = out - 2 * ym_residual(cfg.connection)
    return out


def ymsm_section_residuals(cfg):
    """Section equations as sections: coefficients of
    cov* cov T1 - V'_L(T1)+ T1  and  cov* cov T2 - T2 V'_R(T2)+."""
    calc = cfg.calc
    conn = cfg.connection
    V = cfg.potential
    left = right = None
    if cfg.left is not None:
        a = cfg.left.p
        box = cov_codifferential(conn, cov_derivative(conn, cfg.left)).form.component(())
        r1 = box - dagger(V.derivative(section_inner(cfg.left, cfg.left))) @ a
        left = QvbForm(cfg.left.charge, "left", calc.scalar_form(r1))
    if cfg.right is not None:
        b = cfg.right.p
        box = cov_codifferential(conn, cov_derivative(conn, cfg.right)).form.component(())
        r2 = box - b @ dagger(V.derivative(section_inner(cfg.right, cfg.right)))
        right = QvbForm(cfg.right.charge, "right", calc.scalar_form(r2))
    return left, right


def continuity_residual(conn):
    """The covariant codifferential applied twice to the curvature."""
    psi = QvbForm(0, "left", conn.curvature())
    return cov_codifferential(conn, cov_codifferential(conn, psi)).form


# -- variational oracles ----------------------------------------------------

def action_gradient_fd(cfg, direction, step=1e-6):
    """Wirtinger derivative d/dz of the total action along the direction,
    by central differences in the real and imaginary parts.

    The action is `_table_action` on the coefficient arrays (A_j, a, b)
    moved by z times the direction: the Lagrangian of ymsm_action written
    on the operator tables, never the field equations it is compared with.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    calc = cfg.calc
    N = calc.N
    A, a, b = _coefficient_arrays(cfg)
    if direction.kind == "connection":
        shift = form_to_vec(direction.value, [1]).reshape(-1, N, N)
    else:
        shift = np.asarray(calc.matrix(direction.value), dtype=complex)

    def S(z):
        moved = z * shift
        if direction.kind == "connection":
            return _table_action(cfg, A + moved, a, b)
        if direction.kind == "left":
            return _table_action(cfg, A, a + moved, b)
        return _table_action(cfg, A, a, b + moved)

    d_re = (S(step) - S(-step)) / (2 * step)
    d_im = (S(1j * step) - S(-1j * step)) / (2 * step)
    return complex(0.5 * (d_re - 1j * d_im))


def analytic_gradient(cfg, direction):
    """The same derivative from the assembled field equations."""
    calc = cfg.calc
    sc = calc.scalars
    if direction.kind == "connection":
        if cfg.charge != 0 and cfg.has_sections:
            G = ymsm_connection_residual(cfg) * sc.frac(1, 4)
        else:
            G = ym_residual(cfg.connection) * sc.frac(-1, 2)
        return hodge_inner(direction.value, G, "left")
    r1, r2 = ymsm_section_residuals(cfg)
    if direction.kind == "left":
        u = calc.scalar_form(calc.matrix(direction.value))
        return sc.frac(1, 4) * hodge_inner(u, r1.form, "left")
    v = calc.scalar_form(calc.matrix(direction.value))
    return sc.frac(-1, 4) * hodge_inner(r2.form, v, "right")


# -- operator tables -----------------------------------------------------

_TABLES = weakref.WeakKeyDictionary()


def _tables(calc):
    """(D_0, Delta_1, Delta_2 D_1, D_1) of the calculus, built on first use
    and kept for as long as the calculus lives."""
    tables = _TABLES.get(calc)
    if tables is None:
        D1 = d_matrix(calc, 1)
        tables = _TABLES[calc] = (
            d_matrix(calc, 0),
            codifferential_matrix(calc, 1),
            codifferential_matrix(calc, 2) @ D1,
            D1,
        )
    return tables


def _coefficient_arrays(cfg):
    """(A, a, b): the connection's (d, N, N) coefficient blocks and the
    section matrices in complex floats, None for an absent section."""
    A = np.asarray(cfg.connection.A.array(1), dtype=complex)
    a = None if cfg.left is None else np.asarray(cfg.left.p, dtype=complex)
    b = None if cfg.right is None else np.asarray(cfg.right.p, dtype=complex)
    return A, a, b


def _table_action(cfg, A, a, b):
    """ymsm_action of cfg's charges and potential at the coefficient arrays
    (A, a, b) of `_coefficient_arrays`, in complex floats, s = tr/N:
        ym   -1/4 [s(sum_I F_I F_I+) + s(sum_I Fh_I+ Fh_I)],
             F = D_1 A, Fh = -D_1 A+ (blockwise dagger);
        gsm  s(1/4 [sum_j q1_j q1_j+ - V(a a+) - sum_j q2_j+ q2_j + V(b+ b)]),
             q1_j = (D_0 a)_j - n a A_j, q2_j = (D_0 b)_j + m A_j+ b,
    each section's terms present only with the section. s(sum x x+) and
    s(sum x+ x) are both |x|^2 / N.
    """
    N = cfg.calc.N
    D0, _, _, D1 = _tables(cfg.calc)
    Ah = A.conj().transpose(0, 2, 1)
    F = D1 @ A.ravel()
    Fh = D1 @ Ah.ravel()  # -Fh, whose sign drops out
    total = -0.25 * (np.vdot(F, F) + np.vdot(Fh, Fh)) / N
    V = cfg.potential
    if a is not None:
        q1 = (D0 @ a.ravel()).reshape(-1, N, N) - cfg.left.charge * (a @ A)
        total += 0.25 * (np.vdot(q1, q1) / N - state(V(a @ dagger(a))))
    if b is not None:
        q2 = (D0 @ b.ravel()).reshape(-1, N, N) + cfg.right.charge * (Ah @ b)
        total -= 0.25 * (np.vdot(q2, q2) / N - state(V(dagger(b) @ b)))
    return total


# -- flatness -----------------------------------------------------------

def flat_potential(conn):
    """Least-squares p with dp = A; returns (p, defect norm).

    The first cohomology of this calculus is trivial, so the defect is
    zero exactly when A is flat.
    """
    calc = conn.calc
    D0 = _tables(calc)[0]
    target = form_to_vec(conn.A, [1])
    x, *_ = np.linalg.lstsq(D0, target, rcond=None)
    defect = float(np.linalg.norm(D0 @ x - target))
    return x.reshape(calc.N, calc.N), defect


# -- stationary-point solver ----------------------------------------------

METHODS = ("gd", "gauss_newton")
FD_STEP = 1e-7  # central-difference step of the Jacobian


@dataclass
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 100_000
    method: str = "gauss_newton"  # one of METHODS; both name the same loop
    vary_connection: bool = True
    vary_left: bool = True
    vary_right: bool = True


@dataclass
class FieldReport:
    actions: dict
    residual_norms: dict
    iterations: int = 0
    converged: bool = True
    method: str = ""
    tolerance: float = 0.0
    gradient_checks: list = field(default_factory=list)
    seed: int | None = None
    conventions_id: str = CONVENTIONS_ID
    notes: str = ""

    def to_dict(self):
        return {
            "actions": self.actions,
            "residual_norms": self.residual_norms,
            "iterations": self.iterations,
            "converged": self.converged,
            "method": self.method,
            "tolerance": self.tolerance,
            "gradient_checks": self.gradient_checks,
            "seed": self.seed,
            "conventions_id": self.conventions_id,
            "notes": self.notes,
        }


class SolverAbort(RuntimeError):
    """Non-finite values inside the line search; the state is unusable."""


def _pair(x):
    x = complex(x)
    return [x.real, x.imag]


def action_summary(cfg):
    ym = complex(ym_action(cfg.connection))
    out = {"ym": _pair(ym)}
    if cfg.has_sections:
        gsm = complex(gsm_action(cfg))
        out["gsm"] = _pair(gsm)
        out["total"] = _pair(ym + gsm)
    else:
        out["total"] = _pair(ym)
    return out


def residual_blocks(cfg):
    """Stacked field-equation values, keyed per equation, in form_to_vec order.

    The equations of ymsm_connection_residual and ymsm_section_residuals
    on the N x N blocks A_j, a and b, from the operator tables:
        connection  -(1/n)(p1+ (D_0 p1)_j - p2 (D_0 p2+)_j)
                    + p1+ p1 A_j - p2 p2+ A_j - 2 (Delta_2 D_1 A)_j,
                    p1 = n a, p2 = -n b; Delta_2 D_1 A alone if n = 0 or no sections;
        left        Delta_1 q - n sum_j q_j A_j+ - V'(a a+)+ a,  q_j = (D_0 a)_j - n a A_j;
        right       (Delta_1 q+ + m sum_j q_j+ A_j+)+ - b V'(b+ b)+,
                    q_j = (D_0 b)_j + m A_j+ b.
    """
    calc = cfg.calc
    N = calc.N
    D0, cod1, dstar_d, _ = _tables(calc)

    def d0(p):
        return (D0 @ p.ravel()).reshape(-1, N, N)

    def cod(q):
        return (cod1 @ q.ravel()).reshape(N, N)

    A, a, b = _coefficient_arrays(cfg)
    Ah = dagger(A)
    zero = np.zeros((N, N), dtype=complex)
    a = zero if a is None else a
    b = zero if b is None else b
    V = cfg.potential
    n = cfg.charge
    ym = dstar_d @ A.ravel()
    if n and cfg.has_sections:
        p1, p2 = n * a, -n * b
        p1h, p2h = dagger(p1), dagger(p2)
        E = (p1h @ d0(p1) - p2 @ d0(p2h)) * (-1 / n)
        E += (p1h @ p1) @ A  # two products as on the form path: solves follow rounding
        E -= (p2 @ p2h) @ A
        E -= 2 * ym.reshape(-1, N, N)
        blocks = {"connection": E.ravel()}
    else:
        blocks = {"connection": ym}
    if cfg.left is not None:
        q = d0(a) - n * (a @ A)
        box = cod(q) - n * (q @ Ah).sum(axis=0)
        blocks["left"] = (box - dagger(V.derivative(a @ dagger(a))) @ a).ravel()
    if cfg.right is not None:
        m = cfg.right.charge
        qh = (d0(b) + m * (Ah @ b)).conj().transpose(0, 2, 1)
        box = dagger(cod(qh) + m * (qh @ Ah).sum(axis=0))
        blocks["right"] = (box - b @ dagger(V.derivative(dagger(b) @ b))).ravel()
    return blocks


def residual_norms(cfg):
    return {key: float(np.linalg.norm(v)) for key, v in residual_blocks(cfg).items()}


def _residual_vector(cfg):
    blocks = residual_blocks(cfg)
    z = np.concatenate([blocks[k] for k in sorted(blocks)])
    return np.concatenate([z.real, z.imag])


class _Packing:
    """Real-coordinate chart on the varied fields of a configuration: the
    real and imaginary parts of their `_coefficient_arrays`, in order."""

    def __init__(self, cfg, options):
        self.cfg = cfg
        varied = (options.vary_connection, options.vary_left, options.vary_right)
        self.parts, pos = {}, 0  # kind -> (slice of the complex vector, shape)
        for kind, x, v in zip(VariationDirection.KINDS, _coefficient_arrays(cfg), varied):
            if v and x is not None:
                self.parts[kind] = (slice(pos, pos + x.size), x.shape)
                pos += x.size
        self.size = 2 * pos

    def pack(self, cfg):
        arrays = dict(zip(VariationDirection.KINDS, _coefficient_arrays(cfg)))
        z = np.concatenate([arrays[kind].ravel() for kind in self.parts])
        return np.concatenate([z.real, z.imag])

    def unpack(self, x):
        half = len(x) // 2
        z = x[:half] + 1j * x[half:]
        arrays = {kind: z[part].reshape(shape) for kind, (part, shape) in self.parts.items()}
        conn = arrays.get("connection")
        if conn is not None:
            conn = GaugeConnection(vec_to_form(self.cfg.calc, conn.ravel(), [1]))
        return self.cfg.replace(conn, arrays.get("left"), arrays.get("right"))


def solve_stationary(cfg0, options=None):
    """Drive the field-equation residual to zero by Gauss-Newton steps.

    Each iteration takes a least-squares step against a central-difference
    Jacobian and halves it until the squared residual norm decreases. Both
    METHODS values run this loop. Returns (configuration, report);
    stagnation produces a non-converged report, while non-finite
    line-search values raise SolverAbort.
    """
    options = options or SolverOptions()
    if options.method not in METHODS:
        raise ValueError(f"unknown method {options.method!r}")
    packing = _Packing(cfg0, options)
    if packing.size == 0:
        raise ValueError("no fields are varied; nothing to solve")

    def resid(x):
        return _residual_vector(packing.unpack(x))

    def phi(x):
        r = resid(x)
        return float(r @ r), r

    x = packing.pack(cfg0)
    value, r = phi(x)
    if not np.isfinite(value):
        raise SolverAbort("initial configuration has non-finite residuals")
    iterations = 0
    converged = np.sqrt(value) <= options.tol
    notes = ""
    window = 100  # projection window for the progress-rate guard
    anchor = value

    while not converged and iterations < options.max_iter:
        iterations += 1
        m = len(x)
        J = np.empty((len(r), m))
        for i in range(m):
            xp, xm = x.copy(), x.copy()
            xp[i] += FD_STEP
            xm[i] -= FD_STEP
            J[:, i] = (resid(xp) - resid(xm)) / (2 * FD_STEP)
        if not np.all(np.isfinite(J)):
            raise SolverAbort("non-finite Jacobian in line search setup")
        dx, *_ = np.linalg.lstsq(J, -r, rcond=None)
        t = 1.0
        improved = False
        while t >= 1e-18:
            trial = x + t * dx
            tval, tres = phi(trial)
            if np.isnan(tval):
                raise SolverAbort("NaN in line search")
            if tval < value:
                x, value, r = trial, tval, tres
                improved = True
                break
            t *= 0.5
        if not improved:
            notes = "line search stagnated"
            break
        converged = np.sqrt(value) <= options.tol
        # Stop early when the geometric rate sustained over the last window
        # cannot reach the tolerance within the remaining iteration budget.
        if not converged and iterations % window == 0 and options.tol > 0:
            rate = (value / anchor) ** (1.0 / window) if anchor > 0 else 0.0
            remaining = options.max_iter - iterations
            if rate >= 1.0 or (rate > 0.0 and
                    math.log(value) + remaining * math.log(rate)
                    > 2.0 * math.log(options.tol)):
                notes = "progress rate projects no convergence within the budget"
                break
            anchor = value

    cfg = packing.unpack(x)
    report = FieldReport(
        actions=action_summary(cfg),
        residual_norms=residual_norms(cfg),
        iterations=iterations,
        converged=bool(converged),
        method="gauss_newton",
        tolerance=options.tol,
        notes=notes,
    )
    return cfg, report


def random_configuration(calc, rng, charge=1, potential=None, scale=1.0,
                         with_sections=True):
    conn = GaugeConnection(calc.random_form(1, rng, scale))
    left = right = None
    if with_sections:
        left = ChargedSection(calc, charge, "left", calc.random_matrix(rng, scale))
        right = ChargedSection(calc, -charge, "right", calc.random_matrix(rng, scale))
    return FieldConfiguration(conn, left, right, potential)
