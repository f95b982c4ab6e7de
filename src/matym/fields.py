"""Actions, field equations, variational oracles, and the stationary solver.

Conventions for the variational pairings, fixed once here and verified
against central finite differences in the test suite:

  connection direction lam:  dS/dz = <lam | G>_L, where G = (1/4) E for
      coupled configurations (E the assembled connection equation) and
      G = -(1/2) d*dA for pure Yang-Mills;
  left section direction u:  dS/dz = (1/4) <u | R1>_L;
  right section direction v: dS/dz = -(1/4) <R2 | v>_R.

The residual operations return the field equations in their printed
shapes (zero sets define stationarity); `analytic_gradient` reads the
direction's block of `residual_blocks`, from the same evaluator, and
applies the constants above on the coefficient arrays; `action_gradient_fd`
is the independent oracle: it differentiates the action, never the field
equations it is compared with.

Each action and each field equation is stated once, on the connection's
grade-1 coefficient array and the section matrices, with dense operator
matrices (D_0, Delta_1, Delta_2 D_1 and D_1, in the calculus' own
scalars) built on first use and kept in the one per-calculus cache that
holds its d, wedge and star tables: the actions in `_table_action`, the
equations in `residual_blocks`' docstring. The solver evaluates them in
floats; `ym_action`, `gsm_action`, `sm_action`, `ymsm_action`,
`ymsm_connection_residual` and `ymsm_section_residuals` read them off in
either scalar field, exact Gaussian rationals included. `ym_residual`,
`sm_residuals` and `continuity_residual` are the operator definitions on
DiffForms that the checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .matforms import CONVENTIONS_ID, DiffForm, _compiled, dagger
from .qbundle import ChargedSection, GaugeConnection, QvbForm, cov_codifferential
from .qriemann import (codifferential, codifferential_matrix, d_matrix, form_to_vec, state,
                       vec_to_form)


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
    return _at(FieldConfiguration(conn), _table_action)[0]


def gsm_action(cfg):
    """Integral of the charged-scalar-matter Lagrangian."""
    return _at(cfg, _table_action)[1]


def sm_action(calc, left_ps, right_ps, potential):
    """Charge-0 multiplet action; components contribute independently."""
    if len(left_ps) != len(right_ps):
        raise ValueError("multiplets must have the same number of components")
    conn = GaugeConnection.zero(calc)
    total = calc.scalars.zero
    for p, q in zip(left_ps, right_ps):
        total = total + gsm_action(FieldConfiguration(
            conn, ChargedSection(calc, 0, "left", p), ChargedSection(calc, 0, "right", q),
            potential))
    return total


def ymsm_action(cfg):
    ym, gsm = _at(cfg, _table_action)
    return ym + gsm


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
    """The assembled connection equation of `residual_blocks` as a grade-1
    form: for charge n != 0 the combination in the charge-weighted
    normalization p1 = n a, p2 = -n b, for n = 0 (the sections decouple)
    the Yang-Mills equation d*dA."""
    return DiffForm._from_blocks(cfg.calc, {1: _at(cfg, _connection_equation)})


def ymsm_section_residuals(cfg):
    """The section equations of `residual_blocks` as sections (left, right),
    None for an absent section: cov* cov T1 - V'_L(T1)+ T1 and
    cov* cov T2 - T2 V'_R(T2)+."""
    r = _at(cfg, _section_equations)
    return tuple(None if T is None else QvbForm(T.charge, T.side, cfg.calc.scalar_form(r[T.side]))
                 for T in (cfg.left, cfg.right))


def continuity_residual(conn):
    """The covariant codifferential applied twice to the curvature."""
    psi = QvbForm(0, "left", conn.curvature())
    return cov_codifferential(conn, cov_codifferential(conn, psi)).form


# -- variational oracles ----------------------------------------------------

def action_gradient_fd(cfg, direction):
    """Wirtinger derivative d/dz of the total action along the direction,
    by central differences in the real and imaginary parts.

    The action is `_table_action` on the coefficient arrays (A_j, a, b)
    moved by z times the direction, never the field equations it is
    compared with. It runs in complex floats, an exact configuration's
    arrays, tables and potential coefficients converted.
    """
    step = 1e-6
    calc = cfg.calc
    cfg = FieldConfiguration(cfg.connection, cfg.left, cfg.right, PolynomialPotential(
        complex(c) for c in cfg.potential.coefficients))
    tables = [np.asarray(t, dtype=complex) for t in _tables(calc)]
    arrays = [None if x is None else np.asarray(x, dtype=complex)
              for x in _coefficient_arrays(cfg)]
    i = VariationDirection.KINDS.index(direction.kind)
    value = direction.value
    shift = form_to_vec(value, 1) if i == 0 else np.asarray(calc.matrix(value), dtype=complex)
    shift = shift.reshape(arrays[i].shape)

    def S(z):
        moved = list(arrays)
        moved[i] = arrays[i] + z * shift
        return sum(_table_action(cfg, tables, *moved))

    d_re = (S(step) - S(-step)) / (2 * step)
    d_im = (S(1j * step) - S(-1j * step)) / (2 * step)
    return complex(0.5 * (d_re - 1j * d_im))


def analytic_gradient(cfg, direction):
    """The same derivative from the field equations: the direction's block
    of `residual_blocks` r paired with the direction x, s(sum_I x_I r_I+),
    times the constant above. Only that block's equation is evaluated."""
    calc, sc, kind = cfg.calc, cfg.calc.scalars, direction.kind
    if kind == "connection":
        x, r = direction.value.array(1), _at(cfg, _connection_equation)
        weight = sc.frac(1, 4) if cfg.charge else sc.frac(-1, 2)  # n != 0 only with sections
    else:
        x, r = calc.matrix(direction.value), _at(cfg, _section_equations)[kind]
        weight = sc.frac(1, 4) if kind == "left" else sc.frac(-1, 4)
    return weight * np.vdot(r, x) / calc.N


# -- operator tables -----------------------------------------------------

@_compiled
def _tables(calc):
    """(D_0, Delta_1, Delta_2 D_1, D_1) of the calculus in its own scalars
    (calc.dtype), built on first use and kept with the calculus' other
    tables."""
    D1 = d_matrix(calc, 1)
    return (d_matrix(calc, 0), codifferential_matrix(calc, 1),
            codifferential_matrix(calc, 2) @ D1, D1)


def _coefficient_arrays(cfg):
    """(A, a, b): the connection's (d, N, N) coefficient blocks and the
    section matrices, None for an absent section."""
    A = cfg.connection.A.array(1)
    a = None if cfg.left is None else cfg.left.p
    b = None if cfg.right is None else cfg.right.p
    return A, a, b


def _at(cfg, evaluator):
    """evaluator(cfg, tables, A, a, b) at the configuration's own arrays and
    tables, in its calculus' scalars."""
    return evaluator(cfg, _tables(cfg.calc), *_coefficient_arrays(cfg))


def _table_action(cfg, tables, A, a, b):
    """(ym, gsm), the actions of cfg's charges and potential at the
    coefficient arrays (A, a, b) of `_coefficient_arrays`, with the
    operator tables of `_tables`, s = tr/N:
        ym   -1/4 [s(sum_I F_I F_I+) + s(sum_I Fh_I+ Fh_I)],
             F = D_1 A, Fh = -D_1 A+ (blockwise dagger);
        gsm  s(1/4 [sum_j q1_j q1_j+ - V(a a+) - sum_j q2_j+ q2_j + V(b+ b)]),
             q1_j = (D_0 a)_j - n a A_j, q2_j = (D_0 b)_j + m A_j+ b,
    each section's terms present only with the section. s(sum x x+) and
    s(sum x+ x) are both |x|^2 / N. The constants enter as integers, so
    the arrays and tables may be of either scalar field.
    """
    N = cfg.calc.N
    D0, _, _, D1 = tables
    Ah = dagger(A)
    F = D1 @ A.ravel()
    Fh = D1 @ Ah.ravel()  # -Fh, whose sign drops out
    ym = -(np.vdot(F, F) + np.vdot(Fh, Fh)) / (4 * N)
    gsm = 0 * ym  # the zero of the arrays' field
    V = cfg.potential
    if a is not None:
        q1 = _d0(D0, a) - cfg.left.charge * (a @ A)
        gsm += (np.vdot(q1, q1) / N - state(V(a @ dagger(a)))) / 4
    if b is not None:
        q2 = _d0(D0, b) + cfg.right.charge * (Ah @ b)
        gsm -= (np.vdot(q2, q2) / N - state(V(dagger(b) @ b))) / 4
    return ym, gsm


# -- flatness -----------------------------------------------------------

def flat_potential(conn):
    """Least-squares p with dp = A; returns (p, defect norm).

    The first cohomology of this calculus is trivial, so the defect is
    zero exactly when A is flat.
    """
    calc = conn.calc
    D0 = np.asarray(_tables(calc)[0], dtype=complex)
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
        return asdict(self)


class SolverAbort(RuntimeError):
    """Non-finite values inside the line search; the state is unusable."""


def _pair(x):
    x = complex(x)
    return [x.real, x.imag]


def action_summary(cfg):
    ym, gsm = (complex(x) for x in _at(cfg, _table_action))
    out = {"ym": _pair(ym)}
    if cfg.has_sections:
        out["gsm"] = _pair(gsm)
    out["total"] = _pair(ym + gsm)
    return out


def residual_blocks(cfg):
    """Stacked field-equation values, keyed per equation, in form_to_vec order.

    The one statement of the three field equations, on the N x N blocks
    A_j, a and b, from the operator tables of `_tables`, in the scalars
    of the configuration's calculus (complex, or Gaussian rationals):
        connection  -(1/n)(p1+ (D_0 p1)_j - p2 (D_0 p2+)_j)
                    + p1+ p1 A_j - p2 p2+ A_j - 2 (Delta_2 D_1 A)_j,
                    p1 = n a, p2 = -n b; Delta_2 D_1 A (d*dA) alone if
                    n = 0 or no sections;
        left        Delta_1 q - n sum_j q_j A_j+ - V'(a a+)+ a,  q_j = (D_0 a)_j - n a A_j;
        right       (Delta_1 q+ + m sum_j q_j+ A_j+)+ - b V'(b+ b)+,
                    q_j = (D_0 b)_j + m A_j+ b.
    Each section's equation is present only with the section.
    """
    args = cfg, _tables(cfg.calc), *_coefficient_arrays(cfg)
    blocks = {"connection": _connection_equation(*args).ravel()}
    for key, r in _section_equations(*args).items():
        blocks[key] = r.ravel()
    return blocks


def _connection_equation(cfg, tables, A, a, b):
    """The connection block of `residual_blocks`, shape (d, N, N)."""
    calc, n = cfg.calc, cfg.charge
    N = calc.N
    D0, _, dstar_d, _ = tables
    ym = (dstar_d @ A.ravel()).reshape(-1, N, N)
    if not (n and cfg.has_sections):
        return ym
    zero = calc.zero_matrix()
    p1 = n * (zero if a is None else a)
    p2 = -n * (zero if b is None else b)
    p1h, p2h = dagger(p1), dagger(p2)
    E = (p1h @ _d0(D0, p1) - p2 @ _d0(D0, p2h)) * calc.scalars.frac(-1, n)
    E += (p1h @ p1) @ A  # two products as in the statement: solves follow rounding
    E -= (p2 @ p2h) @ A
    E -= 2 * ym
    return E


def _section_equations(cfg, tables, A, a, b):
    """The section blocks of `residual_blocks` as N x N matrices, keyed by side."""
    N = A.shape[-1]
    D0, cod1, _, _ = tables
    Ah = dagger(A)
    V = cfg.potential
    out = {}
    if a is not None:
        n = cfg.left.charge
        q = _d0(D0, a) - n * (a @ A)
        box = (cod1 @ q.ravel()).reshape(N, N) - n * (q @ Ah).sum(axis=0)
        out["left"] = box - dagger(V.derivative(a @ dagger(a))) @ a
    if b is not None:
        m = cfg.right.charge
        qh = dagger(_d0(D0, b) + m * (Ah @ b))
        box = dagger((cod1 @ qh.ravel()).reshape(N, N) + m * (qh @ Ah).sum(axis=0))
        out["right"] = box - b @ dagger(V.derivative(dagger(b) @ b))
    return out


def _d0(D0, p):
    """(D_0 p)_j, the coefficients of dp, shape (d, N, N)."""
    N = p.shape[0]
    return (D0 @ p.ravel()).reshape(-1, N, N)


def residual_norms(cfg):
    return {key: float(np.linalg.norm(np.asarray(v, dtype=complex)))
            for key, v in residual_blocks(cfg).items()}


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


def random_configuration(calc, rng, charge=1, potential=None, scale=1.0):
    conn = GaugeConnection(calc.random_form(1, rng, scale))
    left = ChargedSection(calc, charge, "left", calc.random_matrix(rng, scale))
    right = ChargedSection(calc, -charge, "right", calc.random_matrix(rng, scale))
    return FieldConfiguration(conn, left, right, potential)
