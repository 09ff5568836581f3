"""Closed-form convolution of two circle impulses, with its identities and oracles."""

from . import core, hankel, operators
from .core import *
from .hankel import *
from .operators import *
from .oracle import (GridConvReport, RadialHistogram, build_mollified_ring, grid_conv_check, mc_conv_histogram,
                     smoothed_profile)
from .special import bessel_j0, chebyshev_singular_rule, periodic_trapezoid_rule

__version__ = "0.1.0"

# Every name that core, hankel and operators export; of oracle and special only a subset, so that
# fftconvolve, mc_radiality_check and i0e stay out of the top level.
__all__ = [*core.__all__, *hankel.__all__, *operators.__all__,
           "GridConvReport", "RadialHistogram", "build_mollified_ring", "grid_conv_check", "mc_conv_histogram",
           "smoothed_profile", "bessel_j0", "chebyshev_singular_rule", "periodic_trapezoid_rule", "__version__"]
