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
support starts at the origin.  ``hankel_of_conv`` sums J0 against the kernel's
angular rule ``core._angular_rule``, whose weights sample ``eval_conv``; both
end in one ``J0 @ terms`` sum.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _NODE_ROUNDING_LIMIT, ConvKernel, RadialProfile, _angular_rule, _check_radius, psi
from .special import bessel_j0, chebyshev_singular_rule, periodic_trapezoid_rule

__all__ = [
    "hankel_transform",
    "hankel_of_circle",
    "hankel_of_conv",
    "neumann_product_check",
]

# Entries per J0 block in ``_j0_sum``: at 2^15 (256 KB) a block's temporaries stay in cache.  On the
# Gaussian round trip 2^14 to 2^16 timed alike, 2^12 2x and the whole matrix 1.6x slower (60.8 MB peak).
_BLOCK = 2**15


def hankel_transform(profile: RadialProfile, r, n: int):
    """Quadrature approximation of ``2 pi int f(rho) J0(2 pi r rho) rho d rho``.

    The ``n``-node Chebyshev singular rule on the profile's support
    ``[lo, hi]`` is applied to the integrand times ``sqrt((rho - lo)(hi - rho))``,
    the reciprocal of its weight.  That is spectral where the product is smooth,
    as for the kernel of distinct radii (256 nodes meet the J0 product on [0, 2]
    to 1.2e-16 of the mass at (2, 3), 4.9e-14 at (1.5, 0.7)).  At ``lo = 0`` the
    Jacobian leaves a fractional power of rho: the Gaussian ``exp(-pi rho^2)`` on
    [0, 4] converges as n^-4 (8e-12 at 1024 nodes), and the equal-radii kernel
    as n^-2 (2e-6 of the mass at 256 nodes).

    ``r`` may be a scalar or an ndarray of frequency radii.
    """
    lo, hi = profile.support
    rho, weight = chebyshev_singular_rule(lo, hi, n)
    terms = weight * ((2.0 * math.pi * profile(rho) * rho) * np.sqrt((rho - lo) * (hi - rho)))
    return _j0_sum(r, rho, terms)


def hankel_of_circle(radius: float, r):
    """Transform of one circle impulse, ``2 pi R J0(2 pi r R)`` in closed form; a float or an ndarray like r.

    Where ``2 pi r R`` overflows, the value is J0's limit there, 0.
    """
    radius = _check_radius(float(radius), "radius")
    with np.errstate(over="ignore"):
        x = 2.0 * math.pi * np.asarray(r, dtype=float) * radius
    return 2.0 * math.pi * radius * bessel_j0(x)


def hankel_of_conv(kernel: ConvKernel, r, n: int = 256):
    """Transform of the kernel, ``sum_k w_k J0(2 pi r rho_k)`` on ``core._angular_rule``'s n-node rule.

    The weights sample ``eval_conv``, so agreement with the product
    ``hankel_of_circle(r1, r) * hankel_of_circle(r2, r)`` checks the closed
    form.  At r = 0 this is ``total_mass``, and it raises as ``total_mass`` does.
    """
    return _j0_sum(r, *_angular_rule(kernel.r1, kernel.r2, n, _NODE_ROUNDING_LIMIT, "nodes"))


def _j0_sum(r, rho: np.ndarray, terms: np.ndarray):
    """``sum_k terms_k J0(2 pi r rho_k)`` per frequency radius (a float for a scalar r), in row blocks of ~``_BLOCK`` J0s."""
    arr = np.asarray(r, dtype=float)
    out, step = np.empty(arr.size), max(1, _BLOCK // rho.size)
    for i in range(0, arr.size, step):
        out[i:i + step] = bessel_j0(2.0 * np.pi * np.multiply.outer(arr.flat[i:i + step], rho)) @ terms
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def neumann_product_check(r1: float, r2: float, r, n: int = 4096):
    """Angular average of J0 over the two-circle distance versus the product, at each frequency radius r.

    Returns ``(lhs, rhs)`` where

        lhs = (1 / 2 pi) * trapezoid over theta of J0(2 pi r psi(theta))
        rhs = J0(2 pi r1 r) * J0(2 pi r2 r)

    as floats for a scalar r, else arrays like r, each entry with the bits of its
    scalar call.  Their equality is the addition-formula identity behind the
    kernel transform's product form; the caller asserts the tolerance.
    """
    r = np.asarray(r, dtype=float)
    theta, weight = periodic_trapezoid_rule(n)
    values = bessel_j0(np.multiply.outer(2.0 * math.pi * r, psi(theta, r1, r2)))
    lhs = np.sum(weight * values, axis=-1) / (2.0 * math.pi)
    rhs = bessel_j0(2.0 * math.pi * r1 * r) * bessel_j0(2.0 * math.pi * r2 * r)
    return (float(lhs), float(rhs)) if r.ndim == 0 else (lhs, rhs)
