"""Closed-form convolution of two unit-mass-per-length circle impulses.

The convolution of arc-length measures on circles of radii r1 and r2 is a
radial density supported on the closed annulus ``|r1 - r2| <= rho <= r1 + r2``
with an integrable inverse-square-root blow-up at both support endpoints:

    conv(rho) = 4 r1 r2 / sqrt((rho^2 - (r1 - r2)^2) ((r1 + r2)^2 - rho^2))

Everything else in the package either evaluates this formula, re-derives it
along an independent route, or checks an identity it must satisfy.  Every
integral of the density against a smooth factor runs on ``_angular_rule``,
whose weights sample ``eval_conv``, so those checks see the formula's values.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

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

# The limit ``total_mass`` and ``hankel_of_conv`` pass to ``_angular_rule`` on the mean relative
# change a node's rounding makes in the density: a tenth of ``checks.mass_check``'s tolerance.
_NODE_ROUNDING_LIMIT = 1e-11
# Entries in one row block of a full-grid stage, so each worker's temporaries stay near 2^16 floats.
_BLOCK_ENTRIES = 1 << 16


class ParameterError(ValueError):
    """An input rejected by a rule of the library, naming the parameter ``param`` it broke."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def _check_radius(radius, label: str):
    radius = np.asarray(radius, dtype=float)
    ok = (radius > 0.0) & (radius < math.inf)
    if not ok.all():
        raise ValueError(f"{label} must be a finite positive number, got {radius.flat[np.argmin(ok)]}")
    return float(radius) if radius.ndim == 0 else radius


def _values_of_shape(vals, shape: tuple) -> np.ndarray:
    """A callback's result as a float array of ``shape``; a constant is broadcast into a fresh array."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape).copy()
    return vals


# ---------------------------------------------------------------------------
# The package's one thread driver.
# ---------------------------------------------------------------------------

def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_cores(work, tasks: int) -> list:
    """``work`` on one worker per usable core, at most one per task; worker 0 is the calling thread.

    Worker k of n calls ``work`` once with an iterator over the task indices
    k, k + n, ... below ``tasks``, and its result is entry k of the returned
    list.  Once any worker has raised, or the caller was interrupted while it
    waited, the other workers' iterators end before their next task.  Every
    thread has joined before this returns or raises the first exception.
    The driver only schedules calls and does no arithmetic, so an oracle that
    runs on it shares no computation with the closed form it checks.
    """
    workers = max(1, min(_usable_cores(), tasks))
    results, errors = [None] * workers, []

    def mine(k):
        for task in range(k, tasks, workers):
            if errors:
                return
            yield task

    def run(k):
        try:
            results[k] = work(mine(k))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        try:
            thread.join()
        except BaseException as exc:
            errors.append(exc)
            thread.join()
    if errors:
        raise errors[0]
    return results


def _on_row_blocks(work, shape: tuple) -> None:
    """``work(s)`` for every slice ``s`` of whole rows, the first axis of ``shape``, the slices shared
    out by ``_on_cores``: blocks of about ``_BLOCK_ENTRIES`` entries, one row at least.

    Each call must write only rows ``s`` of its outputs, so the result does not depend on the core
    count.  One block starts no thread.
    """
    rows = shape[0]
    step = max(1, _BLOCK_ENTRIES // max(1, math.prod(shape[1:])))
    blocks = [slice(i, min(i + step, rows)) for i in range(0, rows, step)]
    _on_cores(lambda tasks: [work(blocks[t]) for t in tasks], len(blocks))


@dataclass(frozen=True)
class Circle:
    """A circle in the plane carrying uniform unit-density arc-length measure.

    Total mass is the circumference ``2 pi radius``.
    """

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"center must be finite, got {self.center}")
        _check_radius(float(self.radius), "radius")

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


def support_interval(r1, r2):
    """Endpoints ``(|r1 - r2|, r1 + r2)`` of the support annulus, broadcast; floats for scalar radii.

    Raises a ``ParameterError`` naming the larger radius (``r1`` on a tie) of the first pair where
    ``r1 + r2`` overflows, since no float radius lies beyond that support.
    """
    r1 = _check_radius(r1, "r1")
    r2 = _check_radius(r2, "r2")
    with np.errstate(over="ignore"):
        hi = r1 + r2
    if np.isinf(hi).any():
        r1, r2 = (np.broadcast_to(r, np.shape(hi)).flat[np.argmax(hi)] for r in (r1, r2))
        raise ParameterError("r1" if r1 >= r2 else "r2",
                             f"the outer support radius r1 + r2 = {r1:g} + {r2:g} overflows")
    return abs(r1 - r2), hi


def classify(rho: float, r1: float, r2: float) -> SupportClass:
    """Classify rho against the support of the convolution.

    Comparisons are exact floating-point comparisons: a rho that is one ulp
    inside the support is INTERIOR, and only the exact endpoint floats are
    endpoint-classified; each rounded end is within half an ulp of the exact
    one, so an INTERIOR float is strictly inside the exact support too.
    ``rho == 0`` is always ORIGIN, taking precedence over LOWER_ENDPOINT in
    the equal-radii case where the support touches the origin.
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


def eval_conv(rho, r1, r2):
    """Evaluate the closed-form convolution density at radius rho, broadcast over all three arguments.

    Returns the interior formula, to a few ulps at any radii, strictly inside
    the support, ``0.0`` strictly outside, and ``+inf`` at the two endpoint
    radii (the density has integrable inverse-square-root singularities there,
    so the sentinel marks "finite-valued formula does not apply" rather than a
    limit).  At ``rho == 0`` the value is 0.0 for distinct radii and ``+inf``
    for equal radii, where the support closure touches the origin.

    Every entry has the bits of its own scalar call, and a bad entry raises as
    that call would; a float when all three arguments are scalars.
    """
    rho, r1, r2 = (np.asarray(v, dtype=float) for v in (rho, r1, r2))
    return _eval_conv(rho, r1, r2, *support_interval(r1, r2))


def _eval_conv(rho: np.ndarray, r1: np.ndarray, r2: np.ndarray, lo, hi):
    """``eval_conv`` of radii that passed its rules, with support ``(lo, hi)``; it calls no public function, so
    worker threads may."""
    if not ((rho >= 0.0) & (rho < math.inf)).all():
        raise ValueError("rho values must be finite and >= 0")

    interior = (rho > lo) & (rho < hi)
    out = np.zeros(interior.shape)
    if interior.any():
        # Scalar radii stay scalars, so no radius array the size of the interior is built.
        out[interior] = _interior_density(np.broadcast_to(rho, interior.shape)[interior],
                                          *(np.broadcast_to(r, interior.shape)[interior] if r.ndim else r
                                            for r in (r1, r2)))
    # For equal radii lo == 0, so this also writes +inf at the origin.
    out[(rho == lo) | (rho == hi)] = np.inf
    return float(out) if out.ndim == 0 else out


def _interior_density(p: np.ndarray, r1, r2) -> np.ndarray:
    """``4 r1 r2 / sqrt((p^2 - (r1 - r2)^2)((r1 + r2)^2 - p^2))`` at radii strictly inside the support.

    The density is scale invariant, so p and the radii (scalars or arrays like p) are first scaled, exactly,
    by ``_scale_exponent``.  The radicand is factored as ``(p - lo)(hi + p) (hi - p)(p + lo)`` with each
    end's rounding error put back into its difference, so the value is within a few ulps at any radius
    ratio, and neither square root's argument leaves the float range while the density stays in it; a
    density beyond the largest float is ``inf``.  Scalar radii keep it to three arrays the size of ``p``.
    """
    e = _scale_exponent(r1, r2)
    big, small = np.ldexp(np.maximum(r1, r2), -e), np.ldexp(np.minimum(r1, r2), -e)
    lo, lo_err, hi, hi_err = _exact_ends(big, small)
    p = np.ldexp(p, -e)
    a = (p - lo) - lo_err
    a *= hi + p
    b = (hi - p) + hi_err
    p += lo
    b *= p
    np.sqrt(a, out=a)
    a *= np.sqrt(b, out=b)
    with np.errstate(over="ignore", divide="ignore"):
        return np.divide(4.0 * big * small, a, out=a)


def _exact_ends(r1, r2):
    """``support_interval``'s ends and their errors: ``|r1 - r2| = lo + lo_err``, ``r1 + r2 = hi + hi_err``.

    Fast2Sum gives each error exactly, elementwise (Dekker, Numer. Math. 18, 1971).  It is at most half an
    ulp of its end, so every float strictly between ``lo`` and ``hi`` lies strictly inside the exact support.
    """
    big, small = np.maximum(r1, r2), np.minimum(r1, r2)
    lo, hi = big - small, big + small
    return lo, (big - lo) - small, hi, small - (hi - big)


def eval_conv_2d(x, y, r1: float, r2: float, center: tuple[float, float] = (0.0, 0.0)):
    """The convolution density at a planar point, radial about ``center``.

    ``center`` is the sum of the two circle centers.  The radius is formed
    by exact coordinate subtraction before anything else, so shifting the
    configuration and shifting the evaluation point give bitwise identical
    values.

    The radii are checked first; then ``eval_conv`` runs on row blocks of
    the broadcast shape, shared out over the usable cores, so only the output
    and each worker's block temporaries are held.  Every entry keeps the bits
    of ``eval_conv(np.hypot(dx, dy), r1, r2)`` on any number of cores, and a
    bad coordinate raises as that call would.  A float for scalar input.
    """
    dx = np.asarray(x, dtype=float) - center[0]
    dy = np.asarray(y, dtype=float) - center[1]
    args = [dx, dy, *(np.asarray(v, dtype=float) for v in (r1, r2, *support_interval(r1, r2)))]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    if not shape:
        return eval_conv(np.hypot(dx, dy), r1, r2)
    out = np.empty(shape)

    def rows(s):
        dxs, dys, *radii = (np.broadcast_to(a, shape)[s] if a.ndim else a for a in args)
        out[s] = _eval_conv(np.hypot(dxs, dys), *radii)

    _on_row_blocks(rows, shape)
    return out


def _eval_conv_square(coords: np.ndarray, r1: float, r2: float) -> np.ndarray:
    """``eval_conv_2d(coords[None, :], coords[:, None], r1, r2)`` with its bits, from one triangle.

    ``np.hypot`` is symmetric in its arguments, so the grid is too: each row block evaluates its columns
    from its first row on, then copies the entries left of those from their mirrors above the diagonal.
    """
    radii = [np.asarray(v, dtype=float) for v in (r1, r2, *support_interval(r1, r2))]
    out = np.empty((len(coords), len(coords)))

    def upper(s):
        out[s, s.start:] = _eval_conv(np.hypot(coords[s.start:], coords[s, None]), *radii)

    def lower(s):
        out[s, :s.start] = out[:s.start, s].T

    _on_row_blocks(upper, out.shape)
    _on_row_blocks(lower, out.shape)
    return out


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
        _check_radius(float(self.r1), "r1")
        _check_radius(float(self.r2), "r2")

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

    Each ``k pi`` with ``|k| <= 8`` is a float, and no other whole multiple lies within ``8.5 pi``, so there
    theta is one exactly where ``k pi == theta`` for ``k = rint(theta / pi)``.  Beyond that, and for NaN,
    the exact remainder decides, as it costs more.
    """
    k = np.rint(np.multiply(theta, 1.0 / math.pi))
    if np.all(np.abs(k) <= 8.0):
        return np.sin(theta) * (k * math.pi != theta)
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
    """Level function ``rho - psi(theta)`` whose zeros locate the density mass; a NumPy float for scalar input.

    Within a quarter of psi of a support end it is ``((rho - end) - err) - offset`` from ``_end_offsets``,
    which does not cancel there.
    """
    rough, end, err, offset = _end_offsets(theta, r1, r2)
    return np.where(np.abs(offset) < 0.25 * rough, ((rho - end) - err) - offset, rho - rough)[()]


def _end_offsets(theta, r1, r2):
    """``rough = psi(theta)``, the nearer support end, its Fast2Sum error ``err`` and ``offset = psi - end``.

    ``err`` is formed as in ``_exact_ends`` but apart from it, so the root route and the angular rule share no
    code with the closed form.  ``offset`` is ``m^2 / (psi + lo)``, ``m = g sin(theta/2)``, or ``-c^2 / (hi +
    psi)``, ``c = g cos(theta/2)``, ``g = 2 sqrt(r1 r2)``: a few ulps of itself where psi's hypot cancels.
    """
    rough = psi(theta, r1, r2)
    big, small = np.maximum(r1, r2), np.minimum(r1, r2)
    lo, hi = big - small, big + small
    g = 2.0 * np.sqrt(r1) * np.sqrt(r2)
    m, c = g * np.sin(0.5 * theta), g * np.cos(0.5 * theta)
    with np.errstate(divide="ignore", invalid="ignore"):  # psi + lo is 0 at theta = 0 for equal radii
        above_lo, below_hi = m * (m / (rough + lo)), c * (c / (hi + rough))
    near_lo = above_lo <= below_hi
    return (rough, np.where(near_lo, lo, hi), np.where(near_lo, (big - lo) - small, small - (hi - big)),
            np.where(near_lo, above_lo, -below_hi))


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

    psi rises on (0, pi) from ``|r1 - r2|`` to ``r1 + r2``, so phi changes sign once there.  The bisection
    halves theta's bits, from the least positive float to the float below pi, to two adjacent floats, on
    radii scaled by ``_scale_exponent``; it uses no derivative, so the root is independent of the slope it
    feeds.  An exact zero collapses its bracket.  A float for scalar input.  Raises ValueError unless every
    ``|r1 - r2| < rho < r1 + r2``, which NaN, inf and radii that are not positive all fail.
    """
    rho, r1, r2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (rho, r1, r2)))
    with np.errstate(over="ignore", invalid="ignore"):
        interior = (np.abs(r1 - r2) < rho) & (rho < r1 + r2)
    if not np.all(interior):
        bad = np.argmin(interior)
        raise ValueError(f"rho={rho.flat[bad]} is not interior to the support of ({r1.flat[bad]}, {r2.flat[bad]})")
    e = _scale_exponent(r1, r2)
    rho, r1, r2 = np.ldexp(rho, -e), np.ldexp(r1, -e), np.ldexp(r2, -e)
    lo, hi = np.ones(rho.shape, np.int64), np.full(rho.shape, np.float64(math.pi).view(np.int64) - 1)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2  # (lo + hi) // 2 overflows int64 near pi
        f = phi(rho, mid.view(float), r1, r2)
        lo, hi = np.where(f >= 0.0, mid, lo), np.where(f <= 0.0, mid, hi)
    root = hi.view(float)
    return float(root) if root.ndim == 0 else root


def conv_via_roots(rho, r1, r2):
    """Re-derive the density at interior radii from the zeros of phi, broadcast over all three arguments.

    The zero theta1 = ``interior_root(rho, ...)`` and its mirror ``2 pi - theta1``, of equal slope, carry the
    whole density ``(r1 r2 / rho) sum 1 / |phi_prime|`` = ``2 r1 r2 / (rho |phi_prime(theta1)|)``, which must
    agree with ``eval_conv`` without sharing any code with it.  A float for scalar input; raises ValueError
    where ``interior_root`` does.
    """
    theta1 = interior_root(rho, r1, r2)
    # The density is scale invariant and a power-of-two scaling is exact: with the larger radius
    # in [0.5, 1), r1 * r2 and the slope stay in range at any radii, and ordinary radii keep their bits.
    e = _scale_exponent(r1, r2)
    rho, r1, r2 = np.ldexp(rho, -e), np.ldexp(r1, -e), np.ldexp(r2, -e)
    out = 2.0 * r1 * r2 / (rho * np.abs(phi_prime(theta1, r1, r2)))
    return float(out) if out.ndim == 0 else out


def total_mass(kernel: ConvKernel, n: int = 256) -> float:
    """Integrate the density over the plane: the sum of the ``n`` weights of ``_angular_rule``.

    Each weight holds ``eval_conv`` at its node and ``conv(psi(theta)) sin(theta) = 2``, so the sum is the
    analytic mass only where the closed form is right at every node; raises where the rule does, at
    ``_NODE_ROUNDING_LIMIT``, naming ``nodes`` where fewer nodes would pass.
    """
    return float(np.sum(_angular_rule(kernel.r1, kernel.r2, n, _NODE_ROUNDING_LIMIT, "nodes")[1]))


def _angular_rule(r1: float, r2: float, n: int, limit: float, count: str | None) -> tuple[np.ndarray, np.ndarray]:
    """Radii ``rho`` and weights ``w``: ``sum(w * g(rho))`` integrates ``conv(|x|) g(|x|)`` over the plane.

    On ``rho = psi(theta)`` it is ``2 pi r1 r2 int_0^pi conv(psi) g(psi) sin(theta) dtheta``, the angular
    average of the Bessel addition theorem (Watson, *Theory of Bessel Functions*, section 11.2).  Its
    n-point midpoint rule has nodes ``rho_k = psi(theta_k)``, ``theta_k = (k + 1/2) pi / n`` (near an end
    ``end + (err + offset)`` from ``_end_offsets``, rounded about once), and weights ``(4 pi^2 r1 r2 / 2n)
    eval_conv(rho_k) sin(theta_k)``; it is spectral for smooth even g.

    A node rounded once, by ``u rho_k``, moves the density by about ``u rho_k / 2 min(rho_k - lo, hi -
    rho_k)`` relative; the mean over the nodes grows about as n times the radius ratio.  Where that mean exceeds
    the caller's ``limit`` (as a node on an end makes it), raises a ``ParameterError`` naming ``count``,
    the caller's node-count parameter, if the one-node rule would pass, and otherwise, or when ``count``
    is None, the smaller radius.  Also raises where ``_normal_mass`` does.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    lo, hi = support_interval(r1, r2)
    mass = _normal_mass(r1, r2)
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    rough, end, err, offset = _end_offsets(theta, r1, r2)
    rho = np.where(np.abs(offset) < 0.25 * rough, end + (err + offset), rough)
    spread = _rounding_spread(rho, lo, hi)
    if not spread <= limit:
        fewer = count is not None and _rounding_spread(psi(0.5 * math.pi, r1, r2), lo, hi) <= limit
        raise ParameterError(count if fewer else "r1" if r1 <= r2 else "r2",
                             f"rounding the {n} nodes of the angular rule at r1 = {r1:g}, r2 = {r2:g} may move"
                             f" the density by {spread:.3g} on average, over the limit {limit:g}"
                             + ("; fewer nodes would meet it" if fewer else ""))
    return rho, (mass / (2 * n)) * (eval_conv(rho, r1, r2) * np.sin(theta))


def _normal_mass(r1: float, r2: float) -> float:
    """The mass ``4 pi^2 r1 r2``; a ``ParameterError`` where it leaves the normal float range names the
    larger radius on overflow and the smaller on underflow (``r1`` on a tie)."""
    mass = 4.0 * math.pi**2 * r1 * r2
    if not np.finfo(float).tiny <= mass < math.inf:
        raise ParameterError("r1" if (r1 >= r2 if mass == math.inf else r1 <= r2) else "r2",
                             f"the mass 4 pi^2 r1 r2 at r1 = {r1:g}, r2 = {r2:g} leaves the normal float range")
    return mass


def _rounding_spread(rho, lo: float, hi: float) -> float:
    """Mean over the nodes ``rho`` of ``u rho / 2 min(rho - lo, hi - rho)``; inf when a node lies on an end."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.mean(0.25 * np.finfo(float).eps * rho / np.maximum(np.minimum(rho - lo, hi - rho), 0.0)))
