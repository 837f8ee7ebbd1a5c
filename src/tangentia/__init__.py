"""Numerical first-order calculus for nonsmooth functions.

Directional derivatives and difference-quotient ladders, a sampled
non-differentiability measure over semi-linear subspaces, the centered
maximal operator with its best-radii envelope formula, distance-function
and infimal-convolution specials, and tangentiality instruments for
point sets — all at desk scale (dimensions 1-3).
"""

from .errors import (
    LadderDivergenceError,
    MaximalBlowupError,
    NumericDomainError,
    SpecParseError,
    TangentiaError,
)
from .funcspace import (
    DirectionalFunction,
    GridFunction,
    QuadratureConfig,
    absolute,
    ball_average,
    parse_function_spec,
    sphere_average_derivative,
)
# note: the submodule's `semilinear` constructor is deliberately not
# re-exported here so the name keeps referring to the submodule itself
from .semilinear import (
    SemiLinearSubspace,
    full_space,
    halfspace,
    hc_distance,
    linear_subspace,
    ray_space,
)
from .nonsmooth import (
    GammaBudget,
    GammaEstimate,
    TauEstimate,
    directional_derivative,
    gamma,
    singular_scan,
    tau,
)
from .maxop import (
    RadiiSet,
    maximal,
    maximal_directional_derivative,
    maximal_field,
)
from .specials import (
    ClosedSetModel,
    distance_directional_derivative,
    distance_function,
    inf_convolution,
    medial_scan,
    nearest_set,
)
from .tangency import (
    TangencyReport,
    fit_tangent,
    is_k_tangential,
    sigma_decompose,
)

__version__ = "0.1.0"
