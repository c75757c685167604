"""Explicit Poincare-stability constants, Dirichlet p-Laplacian eigenpairs
on convex domains under Lebesgue and Gaussian measures, and desk-scale
verification of the associated stability and spectral-gap inequalities."""

from .cpcore import (
    C1Result,
    c1_sharp,
    c1_variational,
    c2_c3_estimate,
    cp_eval,
    cp_eval_batch,
    pi_p,
    pi_p_quadrature,
)
from .geometry import (
    Domain,
    Field,
    Measure,
    Mesh,
    build_mesh,
    gaussian,
    integrate,
    interpolate,
    interval_domain,
    lebesgue,
    make_domain,
    polygon_domain,
    read_mesh,
    submesh,
    write_mesh,
    zero_trace,
)
from .spectral import (
    EigenPair,
    SolverOptions,
    first_eigenpair,
    grad_energy,
    lp_norm,
    rayleigh_quotient,
    second_eigenvalue,
)
from .verify import (
    GapReport,
    StabilityReport,
    WeightedPoincareReport,
    centering_root,
    cp_remainder,
    deficit,
    distance_to_eigenspace,
    gap_check,
    identity_check,
    picone_check,
    random_zero_trace_field,
    stability_battery,
    stability_check,
    weighted_poincare_check,
    write_reports_csv,
)

__version__ = "0.1.0"
