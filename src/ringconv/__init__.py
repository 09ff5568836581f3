"""Closed-form convolution of two circle impulses, with its identities and oracles."""

from .core import (
    Circle,
    ConvKernel,
    ParameterError,
    RadialProfile,
    SupportClass,
    classify,
    conv_via_roots,
    interior_root,
    eval_conv,
    eval_conv_2d,
    phi,
    phi_prime,
    psi,
    support_interval,
    total_mass,
)
from .hankel import (
    hankel_of_circle,
    hankel_of_conv,
    hankel_transform,
    neumann_product_check,
)
from .operators import (
    Field2D,
    RingMeasure,
    circle_average,
    circle_average_field,
    circle_mean,
    pair_with_test,
    restrict_to_circle,
)
from .oracle import (
    GridConvReport,
    RadialHistogram,
    build_mollified_ring,
    grid_conv_check,
    mc_conv_histogram,
    smoothed_profile,
)
from .special import (
    bessel_j0,
    chebyshev_singular_rule,
    periodic_trapezoid_rule,
)

__version__ = "0.1.0"

__all__ = [
    "Circle",
    "ConvKernel",
    "ParameterError",
    "RadialProfile",
    "SupportClass",
    "classify",
    "conv_via_roots",
    "interior_root",
    "eval_conv",
    "eval_conv_2d",
    "phi",
    "phi_prime",
    "psi",
    "support_interval",
    "total_mass",
    "hankel_of_circle",
    "hankel_of_conv",
    "hankel_transform",
    "neumann_product_check",
    "Field2D",
    "RingMeasure",
    "circle_average",
    "circle_average_field",
    "circle_mean",
    "pair_with_test",
    "restrict_to_circle",
    "GridConvReport",
    "RadialHistogram",
    "build_mollified_ring",
    "grid_conv_check",
    "mc_conv_histogram",
    "smoothed_profile",
    "bessel_j0",
    "chebyshev_singular_rule",
    "periodic_trapezoid_rule",
    "__version__",
]
