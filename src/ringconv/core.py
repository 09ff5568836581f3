"""Closed-form convolution of two unit-mass-per-length circle impulses.

The convolution of arc-length measures on circles of radii r1 and r2 is a
radial density supported on the closed annulus ``|r1 - r2| <= rho <= r1 + r2``
with an integrable inverse-square-root blow-up at both support endpoints:

    conv(rho) = 4 r1 r2 / sqrt((rho^2 - (r1 - r2)^2) ((r1 + r2)^2 - rho^2))

Everything else in the package either evaluates this formula, re-derives it
along an independent route, or checks an identity it must satisfy.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .special import chebyshev_singular_rule, squared_radius_terms

__all__ = [
    "Circle",
    "ConvKernel",
    "ParameterError",
    "SupportClass",
    "RadialProfile",
    "support_interval",
    "classify",
    "eval_conv",
    "eval_conv_2d",
    "psi",
    "phi",
    "phi_prime",
    "interior_root",
    "conv_via_roots",
    "total_mass",
]

# Smallest normal float; ``_interior_density`` falls back below it.
_TINY = sys.float_info.min
# Bracket width at which the root route's bisection stops.
_BISECTION_TOL = 1e-13


class ParameterError(ValueError):
    """An input rejected by a rule of the library, naming the parameter ``param`` it broke."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def _check_radius(radius: float, label: str) -> float:
    radius = float(radius)
    if not radius > 0.0 or not math.isfinite(radius):
        raise ValueError(f"{label} must be a finite positive number, got {radius}")
    return radius


def _values_of_shape(vals, shape: tuple) -> np.ndarray:
    """A callback's result as a float array of ``shape``; a constant is broadcast into a fresh array."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape).copy()
    return vals


@dataclass(frozen=True)
class Circle:
    """A circle in the plane carrying uniform unit-density arc-length measure.

    Total mass is the circumference ``2 pi radius``.
    """

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        _check_radius(self.radius, "radius")

    @property
    def mass(self) -> float:
        return 2.0 * math.pi * self.radius

    def point(self, theta):
        """The point ``center + radius * (cos theta, sin theta)``."""
        theta = np.asarray(theta, dtype=float)
        return (
            self.center[0] + self.radius * np.cos(theta),
            self.center[1] + self.radius * np.sin(theta),
        )


class SupportClass(enum.Enum):
    """Where a radius rho sits relative to the support annulus."""

    ORIGIN = "origin"
    BELOW_SUPPORT = "below_support"
    LOWER_ENDPOINT = "lower_endpoint"
    INTERIOR = "interior"
    UPPER_ENDPOINT = "upper_endpoint"
    ABOVE_SUPPORT = "above_support"


def support_interval(r1: float, r2: float) -> tuple[float, float]:
    """Endpoints ``(|r1 - r2|, r1 + r2)`` of the support annulus."""
    r1 = _check_radius(r1, "r1")
    r2 = _check_radius(r2, "r2")
    return abs(r1 - r2), r1 + r2


def classify(rho: float, r1: float, r2: float) -> SupportClass:
    """Classify rho against the support of the convolution.

    Comparisons are exact floating-point comparisons: a rho that is one ulp
    inside the support is INTERIOR, and only the exact endpoint floats are
    endpoint-classified.  ``rho == 0`` is always ORIGIN, taking precedence
    over LOWER_ENDPOINT in the equal-radii case where the support touches
    the origin.
    """
    rho = float(rho)
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    lo, hi = support_interval(r1, r2)
    if rho == 0.0:
        return SupportClass.ORIGIN
    if rho < lo:
        return SupportClass.BELOW_SUPPORT
    if rho == lo:
        return SupportClass.LOWER_ENDPOINT
    if rho < hi:
        return SupportClass.INTERIOR
    if rho == hi:
        return SupportClass.UPPER_ENDPOINT
    return SupportClass.ABOVE_SUPPORT


def eval_conv(rho, r1: float, r2: float):
    """Evaluate the closed-form convolution density at radius rho.

    Returns the interior formula strictly inside the support, ``0.0``
    strictly outside, and ``+inf`` at the two endpoint radii (the density
    has integrable inverse-square-root singularities there, so the sentinel
    marks "finite-valued formula does not apply" rather than a limit).  At
    ``rho == 0`` the value is 0.0 for distinct radii and ``+inf`` for equal
    radii, where the support closure touches the origin.

    Accepts a scalar or an ndarray of radii; negative entries are rejected.
    """
    lo, hi = support_interval(r1, r2)
    # Validated above; as Python floats the products below overflow to inf
    # without a warning, even for NumPy scalar radii.
    r1, r2 = float(r1), float(r2)
    arr = np.asarray(rho, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("rho values must be finite and >= 0")

    out = np.zeros_like(arr)
    interior = (arr > lo) & (arr < hi)
    if interior.any():
        out[interior] = _interior_density(arr[interior], lo, hi, r1, r2)
    out[(arr == lo) | (arr == hi)] = np.inf
    # At the origin the equal-radii endpoint rule above already wrote +inf
    # (lo == 0 exactly); for distinct radii rho = 0 lies below the support.
    if r1 != r2:
        out[arr == 0.0] = 0.0
    return float(out[0]) if scalar else out


def _interior_density(p: np.ndarray, lo: float, hi: float, r1: float, r2: float) -> np.ndarray:
    """``4 r1 r2 / sqrt((p - lo)(p + lo)(hi - p)(hi + p))`` at radii strictly inside the support.

    The radicand is factored: each difference of distinct floats is nonzero,
    so radii even one ulp inside the support get a finite value instead of a
    rounded-to-zero denominator.  Where the numerator or a partial product of
    the radicand leaves the normal range, two factors ``sqrt(r1) sqrt(r2)``
    are each divided by two of the four square roots one root at a time,
    which keeps every intermediate in range; a density beyond the float range
    comes out as ``inf``.  Other radii keep the plain formula's bits.
    """
    numerator = 4.0 * r1 * r2
    numerator_normal = _TINY <= numerator < math.inf
    if numerator_normal:
        try:
            with np.errstate(under="raise", over="raise"):
                return numerator / np.sqrt((p - lo) * (p + lo) * (hi - p) * (hi + p))
        except FloatingPointError:
            pass
    with np.errstate(all="ignore"):
        partial = np.cumprod([p - lo, p + lo, hi - p, hi + p], axis=0)
        direct = numerator / np.sqrt(partial[-1])
        g = np.sqrt(r1) * np.sqrt(r2)
        stepwise = 4.0 * (g / np.sqrt(hi + p) / np.sqrt(p - lo)) * (g / np.sqrt(hi - p) / np.sqrt(p + lo))
    normal = numerator_normal & np.all((partial >= _TINY) & (partial < math.inf), axis=0)
    return np.where(normal, direct, stepwise)


def eval_conv_2d(x, y, r1: float, r2: float, center: tuple[float, float] = (0.0, 0.0)):
    """The convolution density at a planar point, radial about ``center``.

    ``center`` is the sum of the two circle centers.  The radius is formed
    by exact coordinate subtraction before anything else, so shifting the
    configuration and shifting the evaluation point give bitwise identical
    values.
    """
    dx = np.asarray(x, dtype=float) - center[0]
    dy = np.asarray(y, dtype=float) - center[1]
    return eval_conv(np.hypot(dx, dy), r1, r2)


@dataclass(frozen=True)
class RadialProfile:
    """A radial function of one variable together with its support interval.

    ``func`` takes an array of radii and returns values of the same shape (a
    constant is broadcast); ``support`` brackets where it may be nonzero and
    is what quadrature-based consumers integrate over.
    """

    func: object
    support: tuple[float, float]

    def __call__(self, rho):
        arr = np.asarray(rho, dtype=float)
        vals = _values_of_shape(self.func(arr), arr.shape)
        return float(vals) if arr.ndim == 0 else vals


@dataclass(frozen=True)
class ConvKernel:
    """The convolution of two circle impulses, reduced to its two radii.

    The density is radial about the sum of the two centers, and the radii
    alone determine its profile; ``eval_conv_2d`` places it in the plane.
    """

    r1: float
    r2: float

    def __post_init__(self):
        _check_radius(self.r1, "r1")
        _check_radius(self.r2, "r2")

    @property
    def support(self) -> tuple[float, float]:
        return support_interval(self.r1, self.r2)

    @property
    def mass(self) -> float:
        """Product of the two circumferences, ``(2 pi r1)(2 pi r2)``."""
        return 4.0 * math.pi**2 * self.r1 * self.r2

    def __call__(self, rho):
        return eval_conv(rho, self.r1, self.r2)


# ---------------------------------------------------------------------------
# Independent route: distance function on the torus and its critical points.
# ---------------------------------------------------------------------------

def psi(theta, r1: float, r2: float):
    """Distance ``|r1 e(0) + r2 e(theta)|`` between summed unit vectors.

    Law of cosines: ``sqrt(r1^2 + r2^2 - 2 r1 r2 cos(pi - theta))`` collapses
    to the form below once the angle between the two radius vectors is theta.
    The radicand is clamped at zero so equal radii at theta = pi cannot go
    negative by rounding.
    """
    theta = np.asarray(theta, dtype=float)
    rad = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * np.cos(theta)
    return np.sqrt(np.maximum(rad, 0.0))


def phi(rho: float, theta, r1: float, r2: float):
    """Level function ``rho - psi(theta)`` whose zeros locate the density mass."""
    return rho - psi(theta, r1, r2)


def phi_prime(theta, r1: float, r2: float):
    """Derivative of phi in theta: ``-r1 r2 sin(theta) / psi(theta)``.

    Exactly 0.0 at the floats theta = 0, pi, and 2 pi (sin(pi) rounds to
    1.2e-16, so those points are pinned rather than computed), and NaN where
    psi vanishes (equal radii, theta = pi) since the derivative has no limit
    there.
    """
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    den = psi(theta, r1, r2)
    sin = np.sin(theta)
    sin[(theta == 0.0) | (theta == math.pi) | (theta == 2.0 * math.pi)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, -r1 * r2 * sin / np.where(den > 0.0, den, 1.0), np.nan)
    # 0/0 at a vanishing-psi point is NaN even when the pinned sin is zero.
    return float(out[0]) if scalar else out


def interior_root(rho: float, r1: float, r2: float) -> float:
    """The unique zero of ``phi(rho, .)`` in (0, pi), by bracketed bisection.

    psi is strictly increasing on (0, pi) from ``|r1 - r2|`` to ``r1 + r2``,
    so for interior rho the bracket [1e-12, pi - 1e-12] contains exactly one
    sign change.  Bisection avoids any use of the derivative, keeping the
    root path independent of the slope weights it later feeds.  Raises
    ValueError unless rho is classified INTERIOR.
    """
    if classify(rho, r1, r2) is not SupportClass.INTERIOR:
        raise ValueError(f"rho={rho} is not interior to the support of ({r1}, {r2})")
    lo, hi = 1e-12, math.pi - 1e-12
    f_lo = phi(rho, lo, r1, r2)
    for _ in range(200):
        if hi - lo <= _BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        f_mid = phi(rho, mid, r1, r2)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0.0) == (f_mid > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def conv_via_roots(rho: float, r1: float, r2: float) -> float:
    """Re-derive the density at an interior rho from the zeros of phi.

    The zero theta1 = ``interior_root(rho, ...)`` and its mirror
    ``2 pi - theta1`` carry the whole density:

        (r1 r2 / rho) * sum over zeros of 1 / |phi_prime(zero)|

    which must agree with ``eval_conv`` without sharing any code with it.
    Raises ValueError unless rho is classified INTERIOR.
    """
    theta1 = interior_root(rho, r1, r2)
    theta2 = 2.0 * math.pi - theta1
    slopes = np.abs(phi_prime(np.array([theta1, theta2]), r1, r2))
    return float(r1 * r2 / rho * np.sum(1.0 / slopes))


def total_mass(kernel: ConvKernel, n: int = 256) -> float:
    """Integrate the density over the plane via singular-weight quadrature.

    In the squared-radius variable ``u = rho^2`` the planar integral
    ``int conv(rho) 2 pi rho d rho`` becomes ``pi * int conv(sqrt(u)) du``
    over ``[lo^2, hi^2]``, and dividing out the endpoint weight
    ``1/sqrt((u - lo^2)(hi^2 - u))`` leaves a bounded integrand the
    Chebyshev rule handles at machine precision for any n.  The density is
    evaluated through ``eval_conv``; nothing here assumes the closed form's
    algebraic shape, so agreement with ``kernel.mass`` is a real check.
    """
    lo, hi = kernel.support
    _, terms = squared_radius_terms(kernel, chebyshev_singular_rule(lo * lo, hi * hi, n))
    return float(math.pi * np.sum(terms))
