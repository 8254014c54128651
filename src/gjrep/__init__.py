"""Laurent analysis of linear pencils singular at one point, and the
time-domain representations it induces for unit-root ARMA systems.

The package splits into:

- :mod:`gjrep.pencil` -- contour quadrature for the basic Laurent pair,
  coefficient recurrences, spectral projections, singularity
  classification, annulus estimates, closed-form resolvents.
- :mod:`gjrep.chains` -- vector chain extension and basis construction
  for the singular/regular subspaces.
- :mod:`gjrep.arma` -- model containers, noise simulation, the direct
  recursion oracle.
- :mod:`gjrep.represent` -- the four trajectory decompositions, the
  projection split, and the variance-slope integration-order probe.
- :mod:`gjrep.augment` -- reduction of higher-degree polynomial pencils
  and higher-order ARMA models to the first-order case.
- :mod:`gjrep.corpus` -- worked examples with closed forms attached.
- :mod:`gjrep.io` / :mod:`gjrep.cli` -- JSON/CSV serialisation and the
  command-line front end.

A representation reads two inputs, each with one owner: the pair
``(T_{-1}, T_0)`` from ``basic_solution``, and ``ArmaModel.a0_inv``.
"""

from .arma import (
    ArmaModel,
    NoiseSpec,
    Trajectory,
    ma1_g,
    simulate_noise,
    simulate_recursion,
)
from .augment import (
    PolynomialPencil,
    StackedArma,
    augment,
    reduce_arma,
    unpack_laurent,
)
from .chains import (
    ChainResult,
    reg_basis,
    regular_chain,
    sin_basis,
    singular_chain,
)
from .corpus import (
    MAKERS,
    CorpusEntry,
    make,
    make_c0_example,
    make_hierarchy_example,
    make_matrix_example,
    make_volterra_example,
)
from .errors import (
    ChainStepError,
    ClassificationInconclusive,
    ContourNotConverged,
    FundamentalResidualError,
    GjrepError,
    InputError,
    NaturalFormDiverges,
    NumericError,
    OrderUndefined,
    SingularMatrixError,
    VerificationError,
)
from .pencil import (
    BasicSolution,
    FundamentalReport,
    LinearPencil,
    SingularityClass,
    SpectralPair,
    annulus_estimate,
    basic_residuals,
    basic_solution,
    classify_singularity,
    closed_form_resolvent,
    contour_coefficients,
    default_radius,
    laurent_range,
    projections,
    solve_at,
    spectral_norm,
    verify_fundamental,
)
from .represent import (
    FORMS,
    ProbeReport,
    RepresentationReport,
    SplitReport,
    cointegration_probe,
    integration_order,
    represent,
    split_projection,
)

__version__ = "0.1.0"

__all__ = [
    "ArmaModel",
    "BasicSolution",
    "ChainResult",
    "ChainStepError",
    "ClassificationInconclusive",
    "ContourNotConverged",
    "CorpusEntry",
    "FORMS",
    "FundamentalReport",
    "FundamentalResidualError",
    "GjrepError",
    "InputError",
    "LinearPencil",
    "MAKERS",
    "NaturalFormDiverges",
    "NoiseSpec",
    "NumericError",
    "OrderUndefined",
    "PolynomialPencil",
    "ProbeReport",
    "RepresentationReport",
    "SingularMatrixError",
    "SingularityClass",
    "SpectralPair",
    "SplitReport",
    "StackedArma",
    "Trajectory",
    "VerificationError",
    "annulus_estimate",
    "augment",
    "basic_residuals",
    "basic_solution",
    "classify_singularity",
    "closed_form_resolvent",
    "cointegration_probe",
    "contour_coefficients",
    "default_radius",
    "integration_order",
    "laurent_range",
    "ma1_g",
    "make",
    "make_c0_example",
    "make_hierarchy_example",
    "make_matrix_example",
    "make_volterra_example",
    "projections",
    "reduce_arma",
    "reg_basis",
    "regular_chain",
    "represent",
    "simulate_noise",
    "simulate_recursion",
    "sin_basis",
    "singular_chain",
    "solve_at",
    "spectral_norm",
    "split_projection",
    "unpack_laurent",
    "verify_fundamental",
]
