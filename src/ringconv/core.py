"""Closed-form convolution of two unit-mass-per-length circle impulses.

The convolution of arc-length measures on circles of radii r1 and r2 is a
radial density supported on the closed annulus ``|r1 - r2| <= rho <= r1 + r2``
with an integrable inverse-square-root blow-up at both support endpoints:

    conv(rho) = 4 r1 r2 / sqrt((rho^2 - (r1 - r2)^2) ((r1 + r2)^2 - rho^2))

Everything else in the package either evaluates this formula, re-derives it
along an independent route, or checks an identity it must satisfy.  Every
integral of the density against a smooth factor runs on ``_planar_rule``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .special import chebyshev_singular_rule

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
    """Endpoints ``(|r1 - r2|, r1 + r2)`` of the support annulus.

    Raises a ``ParameterError`` naming the larger radius (``r1`` on a tie)
    where ``r1 + r2`` overflows, since no float radius lies beyond the support.
    """
    r1 = _check_radius(r1, "r1")
    r2 = _check_radius(r2, "r2")
    hi = r1 + r2
    if hi == math.inf:
        raise ParameterError("r1" if r1 >= r2 else "r2",
                             f"the outer support radius r1 + r2 = {r1:g} + {r2:g} overflows")
    return abs(r1 - r2), hi


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

def _pinned_sin(theta: np.ndarray) -> np.ndarray:
    """``sin(theta)``, but 0.0 at whole multiples of the float pi such as pi and 2 pi, where it is ~1e-16.

    One exact remainder test costs less on scalars than comparing with each multiple.
    """
    return np.sin(theta) * (np.remainder(theta, math.pi) != 0.0)


def psi(theta, r1: float, r2: float):
    """Distance ``|r1 e(0) - r2 e(theta)|`` between two radius vectors at angle theta.

    ``hypot(r1 - r2 cos theta, r2 sin theta)`` forms no squares, so unlike the
    law of cosines it neither overflows nor underflows for any float radii.
    With sin pinned, psi is exactly ``|r1 - r2|`` at theta = 0 and 2 pi.
    """
    # The ufuncs take a float or an array; a float stays on NumPy's faster scalar path.
    return np.hypot(r1 - r2 * np.cos(theta), r2 * _pinned_sin(theta))


def phi(rho: float, theta, r1: float, r2: float):
    """Level function ``rho - psi(theta)`` whose zeros locate the density mass."""
    return rho - psi(theta, r1, r2)


def _scale_exponent(r1, r2):
    """The power of two that puts the larger radius in [0.5, 1); scaling by it is exact."""
    return np.frexp(np.maximum(r1, r2))[1]


def phi_prime(theta, r1, r2):
    """Derivative of phi in theta, ``-r1 r2 sin(theta) / psi(theta)``, broadcast; a float for scalar input.

    Exactly 0.0 at the floats theta = 0, pi, and 2 pi, where sin is pinned,
    and NaN where psi vanishes (equal radii, theta = 0 or 2 pi) since the
    derivative has no limit there.
    """
    # phi' is homogeneous of degree 1 in the radii: on radii scaled by a power of two (exact),
    # r1 * r2 stays in range at any magnitude, and the result is scaled back.
    e = _scale_exponent(r1, r2)
    r1, r2 = np.ldexp(r1, -e), np.ldexp(r2, -e)
    den = psi(theta, r1, r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, -r1 * r2 * _pinned_sin(theta) / np.where(den > 0.0, den, 1.0), np.nan)
    # 0/0 at a vanishing-psi point is NaN even when the pinned sin is zero.
    out = np.ldexp(out, e)
    return float(out) if out.ndim == 0 else out


def interior_root(rho, r1, r2):
    """The unique zero of ``phi(rho, .)`` in (0, pi), by one bisection over the broadcast arguments.

    psi is strictly increasing on (0, pi) from ``|r1 - r2|`` to ``r1 + r2``,
    so for interior rho the bracket [1e-12, pi - 1e-12] contains exactly one
    sign change.  Bisection avoids any use of the derivative, keeping the
    root path independent of the slope weights it later feeds.  All brackets
    halve in lockstep; an exact zero collapses its own.  A float for scalar
    input.  Raises ValueError unless every ``|r1 - r2| < rho < r1 + r2``,
    which NaN, inf and radii that are not positive all fail.
    """
    rho, r1, r2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (rho, r1, r2)))
    with np.errstate(over="ignore", invalid="ignore"):
        interior = (np.abs(r1 - r2) < rho) & (rho < r1 + r2)
    if not np.all(interior):
        bad = np.argmin(interior)
        raise ValueError(f"rho={rho.flat[bad]} is not interior to the support of ({r1.flat[bad]}, {r2.flat[bad]})")
    lo, hi = np.full(rho.shape, 1e-12), np.full(rho.shape, math.pi - 1e-12)
    while np.any(hi - lo > _BISECTION_TOL):
        mid = 0.5 * (lo + hi)
        f = phi(rho, mid, r1, r2)
        lo, hi = np.where(f >= 0.0, mid, lo), np.where(f <= 0.0, mid, hi)
    root = 0.5 * (lo + hi)
    return float(root) if root.ndim == 0 else root


def conv_via_roots(rho, r1, r2):
    """Re-derive the density at interior radii from the zeros of phi, broadcast over all three arguments.

    The zero theta1 = ``interior_root(rho, ...)`` and its mirror
    ``2 pi - theta1`` carry the whole density:

        (r1 r2 / rho) * sum over zeros of 1 / |phi_prime(zero)|

    which must agree with ``eval_conv`` without sharing any code with it.
    A float for scalar input; raises ValueError where ``interior_root`` does.
    """
    theta1 = interior_root(rho, r1, r2)
    # The density is scale invariant and a power-of-two scaling is exact: with the larger radius
    # in [0.5, 1), r1 * r2 and the slopes stay in range at any radii, and ordinary radii keep their bits.
    e = _scale_exponent(r1, r2)
    rho, r1, r2 = np.ldexp(rho, -e), np.ldexp(r1, -e), np.ldexp(r2, -e)
    slopes = np.abs(phi_prime(np.stack([theta1, 2.0 * math.pi - theta1]), r1, r2))
    out = r1 * r2 / rho * np.sum(1.0 / slopes, axis=0)
    return float(out) if out.ndim == 0 else out


def total_mass(kernel: ConvKernel, n: int = 256) -> float:
    """Integrate the density over the plane: the sum of the ``n`` weights of ``_planar_rule``.

    Nothing here assumes the closed form's algebraic shape, so agreement with
    ``kernel.mass`` is a real check.
    """
    return float(np.sum(_planar_rule(kernel.r1, kernel.r2, n)[1]))


def _planar_rule(r1: float, r2: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii ``rho`` and weights ``w``: ``sum(w * g(rho))`` integrates ``conv(|x|) g(|x|)`` over the plane.

    In ``u = rho^2`` that integral is ``pi int conv(sqrt(u)) g(sqrt(u)) du`` on
    ``[lo^2, hi^2]``, where the n-node Chebyshev singular rule gives nodes ``u``.
    At ``p = sqrt(u)``, clamped one ulp inside ``(lo, hi)``, each weight is pi
    times the rule's weight, ``eval_conv(p)`` and the weight function's
    reciprocal at ``p^2``, the float the density sees, so the endpoint
    blow-ups cancel to rounding at any radius ratio.

    When the squared support cannot hold n nodes strictly inside it, raises a
    ``ParameterError`` naming the radius to blame: the larger one when
    ``hi^2`` overflows, otherwise the smaller one, which is then too small
    beside the other for the support to keep a width in floats.
    """
    lo, hi = support_interval(r1, r2)
    if not math.isfinite(hi * hi):
        raise ParameterError("r1" if r1 >= r2 else "r2",
                             f"the squared outer support radius ({hi:g})^2 overflows")
    try:
        u, weight = chebyshev_singular_rule(lo * lo, hi * hi, n)
    except ValueError as exc:
        if n < 1:
            raise
        raise ParameterError("r1" if r1 <= r2 else "r2",
                             f"the squared support [{lo * lo:.17g}, {hi * hi:.17g}] cannot hold"
                             f" {n} quadrature nodes strictly inside it") from exc
    p = np.clip(np.sqrt(u), np.nextafter(lo, hi), np.nextafter(hi, lo))
    root = np.sqrt((p - lo) * (p + lo)) * np.sqrt((hi - p) * (hi + p))
    return p, (math.pi * weight) * (eval_conv(p, r1, r2) * root)
