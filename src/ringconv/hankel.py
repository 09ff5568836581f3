"""Hankel transforms of radial profiles and the transform-domain identities.

For a radial function f the 2-D Fourier transform is again radial and equals
the order-zero Hankel transform

    H f(r) = 2 pi * int_0^inf f(rho) J0(2 pi r rho) rho d rho.

A circle impulse of radius R transforms to ``2 pi R J0(2 pi r R)``, so the
convolution of two circle impulses must transform to the product
``(2 pi)^2 R1 R2 J0(2 pi R1 r) J0(2 pi R2 r)``.  This module evaluates both
sides by separately coded routes so their agreement is evidence, not
bookkeeping.

``hankel_transform`` takes any profile by one route, a Chebyshev rule on its
support in rho: spectral for the kernel of distinct radii, algebraic where the
support starts at the origin.  ``hankel_of_conv`` is the kernel's own route.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvKernel, RadialProfile, _check_radius, _on_squared_support, psi
from .special import bessel_j0, chebyshev_singular_rule, periodic_trapezoid_rule, singular_rule_terms

__all__ = [
    "hankel_transform",
    "hankel_of_circle",
    "hankel_of_conv",
    "neumann_product_check",
]


def hankel_transform(profile: RadialProfile, r, n: int):
    """Quadrature approximation of ``2 pi int f(rho) J0(2 pi r rho) rho d rho``.

    The ``n``-node Chebyshev singular rule on the profile's support
    ``[lo, hi]`` is applied to the integrand times ``sqrt((rho - lo)(hi - rho))``,
    the reciprocal of its weight.  That is spectral where the product is
    smooth, as for the kernel of distinct radii (256 nodes meet the J0
    product to ~2e-13 of the mass).  At ``lo = 0`` the Jacobian leaves a
    fractional power of rho: the Gaussian ``exp(-pi rho^2)`` on [0, 4]
    converges as n^-4 (8e-12 at 1024 nodes), and the equal-radii kernel as
    n^-2 (2e-6 of the mass at 256 nodes).

    ``r`` may be a scalar or an ndarray of frequency radii.
    """
    lo, hi = profile.support
    rho, terms = singular_rule_terms(lo, hi, n, lambda rho: 2.0 * math.pi * profile(rho) * rho)
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    out = bessel_j0(2.0 * np.pi * np.multiply.outer(np.atleast_1d(arr), rho)) @ terms
    return float(out[0]) if scalar else out


def hankel_of_circle(radius: float, r):
    """Transform of one circle impulse, ``2 pi R J0(2 pi r R)`` in closed form; a float or an ndarray like r."""
    radius = _check_radius(radius, "radius")
    return 2.0 * math.pi * radius * bessel_j0(2.0 * math.pi * np.asarray(r, dtype=float) * radius)


def hankel_of_conv(kernel: ConvKernel, r, n: int = 256):
    """Transform of the closed-form kernel by the squared-radius quadrature.

    Under u = rho^2 the density times the Chebyshev weight's reciprocal is
    the constant ``4 r1 r2``, so the transform collapses to

        4 pi r1 r2 * sum_k w_k J0(2 pi r sqrt(u_k))

    which at r = 0 reproduces the total mass ``(2 pi)^2 r1 r2`` to rounding.
    The constant is used as is rather than sampled through ``eval_conv``:
    when one radius is ~1e-9 of the other, the outer nodes lie a few ulps
    from the endpoints, and the rounded ``sqrt(u_k)`` leaves the sampled
    density times the weight's reciprocal off by up to 1e-2 there.
    Must agree with ``hankel_of_circle(r1, r) * hankel_of_circle(r2, r)``;
    the two routes share no quadrature code.
    """
    u, weight = _on_squared_support(chebyshev_singular_rule, kernel.r1, kernel.r2, n)
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    kernel_mat = bessel_j0(2.0 * np.pi * np.multiply.outer(np.atleast_1d(arr), np.sqrt(u)))
    out = 4.0 * math.pi * kernel.r1 * kernel.r2 * (kernel_mat @ np.full(n, weight))
    return float(out[0]) if scalar else out


def neumann_product_check(r1: float, r2: float, r: float, n: int = 4096) -> tuple[float, float]:
    """Angular average of J0 over the two-circle distance versus the product.

    Returns ``(lhs, rhs)`` where

        lhs = (1 / 2 pi) * trapezoid over theta of J0(2 pi r psi(theta))
        rhs = J0(2 pi r1 r) * J0(2 pi r2 r)

    The equality of the two is the addition-formula identity that powers the
    product form of the kernel's transform; the caller asserts the tolerance.
    """
    theta, weight = periodic_trapezoid_rule(n)
    values = bessel_j0(2.0 * math.pi * float(r) * psi(theta, r1, r2))
    lhs = float(np.sum(weight * values)) / (2.0 * math.pi)
    rhs = float(bessel_j0(2.0 * math.pi * r1 * r) * bessel_j0(2.0 * math.pi * r2 * r))
    return lhs, rhs
