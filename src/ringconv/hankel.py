"""Hankel transforms of radial profiles and the transform-domain identities.

For a radial function f the 2-D Fourier transform is again radial and equals
the order-zero Hankel transform

    H f(r) = 2 pi * int_0^inf f(rho) J0(2 pi r rho) rho d rho.

A circle impulse of radius R transforms to ``2 pi R J0(2 pi r R)``, so the
convolution of two circle impulses must transform to the product
``(2 pi)^2 R1 R2 J0(2 pi R1 r) J0(2 pi R2 r)``.  This module evaluates both
sides by separately coded routes so their agreement is evidence, not
bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvKernel, RadialProfile, _check_radius, psi
from .special import (QuadratureRule, WeightKind, bessel_j0, chebyshev_singular_rule,
                      periodic_trapezoid, squared_radius_terms)

__all__ = [
    "hankel_transform",
    "hankel_of_circle",
    "hankel_of_conv",
    "neumann_product_check",
]


def _transform_values(profile: RadialProfile, r: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    lo, hi = profile.support
    if rule.weight_kind is WeightKind.CHEBYSHEV_SINGULAR:
        # The rule lives in the squared-radius variable u = rho^2, where
        # dividing out the endpoint weight leaves the kernel's integrand
        # analytic:  H f(r) = pi * int f(sqrt(u)) J0(2 pi r sqrt(u)) du.
        ua, ub = rule.interval
        if ub <= lo * lo or ua >= hi * hi:
            raise ValueError(
                f"rule interval {rule.interval} does not meet the profile support "
                f"({lo * lo}, {hi * hi}) in the squared-radius variable"
            )
        root_u, terms = squared_radius_terms(profile, rule)
        kernel = bessel_j0(2.0 * np.pi * np.multiply.outer(r, root_u))
        return math.pi * kernel @ terms
    # Smooth-profile route: fold [lo, hi] onto the periodic rule through the
    # cosine map rho(phi) = lo + (hi - lo)(1 - cos phi)/2, which traverses the
    # interval twice per period; the Jacobian |sin phi| times the half factor
    # keeps the total weight right.
    if rule.interval != (0.0, 2.0 * math.pi):
        raise ValueError(f"periodic rule must live on [0, 2pi), got interval {rule.interval}")
    phi_nodes = rule.nodes
    rho = lo + 0.5 * (hi - lo) * (1.0 - np.cos(phi_nodes))
    jac = 0.25 * (hi - lo) * np.abs(np.sin(phi_nodes))
    weightless = 2.0 * math.pi * profile(rho) * rho * jac
    kernel = bessel_j0(2.0 * np.pi * np.multiply.outer(r, rho))
    return kernel @ (rule.weights * weightless)


def hankel_transform(profile: RadialProfile, r, rule: QuadratureRule):
    """Quadrature approximation of ``2 pi int f(rho) J0(2 pi r rho) rho d rho``.

    The rule selects the integration route.  A ``CHEBYSHEV_SINGULAR`` rule is
    interpreted in the squared-radius variable (build it on the squares of
    the support endpoints); it integrates profiles with inverse-square-root
    endpoint blow-ups, like the closed-form kernel, at spectral accuracy.  A
    ``PERIODIC_TRAPEZOID`` rule integrates smooth profiles on their support
    via a cosine change of variable.

    ``r`` may be a scalar or an ndarray of frequency radii.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    out = _transform_values(profile, np.atleast_1d(arr), rule)
    return float(out[0]) if scalar else out


def hankel_of_circle(radius: float, r) -> float:
    """Transform of one circle impulse: ``2 pi R J0(2 pi r R)``, in closed form."""
    radius = _check_radius(radius, "radius")
    return 2.0 * math.pi * radius * bessel_j0(2.0 * math.pi * np.asarray(r, dtype=float) * radius)


def hankel_of_conv(kernel: ConvKernel, r, n: int = 256):
    """Transform of the closed-form kernel by the squared-radius quadrature.

    Under u = rho^2 the density times the Chebyshev weight's reciprocal is
    the constant ``4 r1 r2``, so the transform collapses to

        4 pi r1 r2 * sum_k w_k J0(2 pi r sqrt(u_k))

    which at r = 0 reproduces the total mass ``(2 pi)^2 r1 r2`` to rounding.
    Must agree with ``hankel_of_circle(r1, r) * hankel_of_circle(r2, r)``;
    the two routes share no quadrature code.
    """
    lo, hi = kernel.support
    rule = chebyshev_singular_rule(lo * lo, hi * hi, n)
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    kernel_mat = bessel_j0(2.0 * np.pi * np.multiply.outer(np.atleast_1d(arr), np.sqrt(rule.nodes)))
    out = 4.0 * math.pi * kernel.r1 * kernel.r2 * (kernel_mat @ rule.weights)
    return float(out[0]) if scalar else out


def neumann_product_check(r1: float, r2: float, r: float, n: int = 4096) -> tuple[float, float]:
    """Angular average of J0 over the two-circle distance versus the product.

    Returns ``(lhs, rhs)`` where

        lhs = (1 / 2 pi) * trapezoid over theta of J0(2 pi r psi(theta))
        rhs = J0(2 pi r1 r) * J0(2 pi r2 r)

    The equality of the two is the addition-formula identity that powers the
    product form of the kernel's transform; the caller asserts the tolerance.
    """
    two_pi_r = 2.0 * math.pi * float(r)
    lhs = periodic_trapezoid(lambda theta: bessel_j0(two_pi_r * psi(theta, r1, r2)), n) / (2.0 * math.pi)
    rhs = float(bessel_j0(2.0 * math.pi * r1 * r) * bessel_j0(2.0 * math.pi * r2 * r))
    return lhs, rhs
