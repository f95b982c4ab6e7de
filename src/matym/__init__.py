"""Gauge fields over matrix algebras with the derivation-based calculus.

Layers, bottom up: matforms (graded differential *-algebra), qriemann
(metric, Hodge star, codifferential, Laplacian, spectra), qbundle
(charged sections and covariant calculus on the trivial U(1) bundle),
fields (actions, field equations, stationary-point solver), cli/verify
(front end and named-check suite).
"""

import types

from .exact import GaussianRational
from .fields import (
    FieldConfiguration,
    FieldReport,
    PolynomialPotential,
    SolverAbort,
    SolverOptions,
    VariationDirection,
    action_gradient_fd,
    analytic_gradient,
    continuity_residual,
    flat_potential,
    gsm_action,
    random_configuration,
    sm_action,
    sm_residuals,
    solve_stationary,
    ym_action,
    ym_residual,
    ymsm_action,
    ymsm_connection_residual,
    ymsm_section_residuals,
)
from .matforms import (
    CONVENTIONS,
    CONVENTIONS_ID,
    DerivationCalculus,
    DiffForm,
    DimensionError,
    dagger,
    sort_sign,
)
from .qbundle import (
    ChargedSection,
    ChargeMismatchError,
    ConnectionDisplacement,
    GaugeConnection,
    QvbForm,
    cov_codifferential,
    cov_derivative,
    cov_laplacian,
    displacement_K,
    qvb_inner,
    section_inner,
    upsilon,
    upsilon_inv,
)
from .qriemann import (
    GradeError,
    codifferential,
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
from .verify import run_verification

__version__ = "0.1.0"

# The public names are the ones imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
