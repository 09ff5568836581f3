"""Every identity check, once: the CLI prints these results and the acceptance tests assert them.

Each function takes a check's plain inputs and returns one ``CheckResult`` per
verdict, in the order the CLI prints them.  The two sides of every identity
come from separately coded routes in the other modules; this module only
evaluates both and compares, so no oracle is merged with the code it checks.
Running maxima use ``np.maximum``, which keeps a NaN that ``max`` would drop,
so a NaN error fails its check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (Circle, ConvKernel, ParameterError, RadialProfile, conv_via_roots, eval_conv,
                   support_interval, total_mass)
from .hankel import hankel_of_circle, hankel_of_conv, hankel_transform, neumann_product_check
from .operators import RingMeasure, circle_average, pair_with_test, restrict_to_circle
from .oracle import RadialHistogram, grid_conv_check, mc_conv_histogram
from .special import bessel_j0

CHECK_PAIRS = [(1.0, 1.0), (2.0, 3.0), (0.5, 2.5)]
NEUMANN_PAIRS = CHECK_PAIRS + [(1.5, 0.7)]


@dataclass(frozen=True)
class CheckResult:
    """One verdict.  ``ok`` is ``measured <= tol``, so a NaN measurement fails.

    Bitwise checks measure 0 (identical) or 1 against a tolerance of 0.
    ``elapsed`` is the seconds since the check's previous verdict or start.
    """

    label: str
    measured: float
    tol: float
    ok: bool
    elapsed: float


class _Verdicts(list):
    """A check's results in order, timing each one from the one before."""

    def __init__(self):
        super().__init__()
        self._mark = time.perf_counter()

    def add(self, label: str, measured: float, tol: float) -> None:
        now = time.perf_counter()
        measured, tol = float(measured), float(tol)
        self.append(CheckResult(label, measured, tol, measured <= tol, now - self._mark))
        self._mark = now


def mc_check(c1: Circle, c2: Circle, samples: int, bins: int, seed: int, margin: float,
             sectors: int) -> tuple[list[CheckResult], RadialHistogram]:
    """Monte Carlo histogram vs the closed form, leakage, radiality and shift equivariance.

    Two sampler passes, each giving a histogram and sector counts: the given
    circles, then the same radii about the origin, which must match bit for
    bit.  The first histogram is returned so a caller can export it without
    a third pass.  Raises a ``ParameterError`` naming ``margin`` when no bin
    centre falls in the middle 90% of the support.
    """
    results = _Verdicts()
    r1, r2 = c1.radius, c2.radius
    hist, sector_counts = mc_conv_histogram(c1, c2, samples, bins, seed, sectors=sectors, margin=margin)
    lo, hi = support_interval(r1, r2)
    trim = 0.05 * (hi - lo)
    centers = hist.centers
    keep = (centers >= lo + trim) & (centers <= hi - trim)
    if not keep.any():
        raise ParameterError("margin", f"no bin centre falls in the trimmed support"
                                       f" [{lo + trim:g}, {hi - trim:g}]")
    exact = eval_conv(centers[keep], r1, r2)
    rel = np.abs(hist.density()[keep] - exact) / exact
    results.add("interior histogram agreement", rel.max(), 0.02)

    width = hist.edges[1] - hist.edges[0]
    stray = int(hist.counts[(hist.edges[1:] <= lo - width) | (hist.edges[:-1] >= hi + width)].sum())
    results.add("zero leakage outside the support", stray, 0.0)

    mean = samples / sectors
    results.add("sector uniformity (sigma units)",
                np.max(np.abs(sector_counts - mean)) / math.sqrt(mean), 4.0)

    concentric, concentric_sectors = mc_conv_histogram(Circle((0.0, 0.0), r1), Circle((0.0, 0.0), r2),
                                                       samples, bins, seed, sectors=sectors, margin=margin)
    same = (np.array_equal(hist.counts, concentric.counts)
            and np.array_equal(sector_counts, concentric_sectors))
    results.add("shift equivariance (bitwise)", 0.0 if same else 1.0, 0.0)
    return results, hist


def grid_check(c1: Circle, c2: Circle, extent: float, spacing: float,
               epsilon: float) -> list[CheckResult]:
    """FFT convolution of mollified rings vs the smoothed closed form, plus an operand swap.

    Convolution is commutative, so the report's ``swapped_values``, the rings
    convolved in the order ``(c2, c1)``, must reproduce its ``conv_values``
    bit for bit.  Both come from the same two forward spectra, multiplied in
    each order, so any order-dependent arithmetic in the spectral product
    fails that verdict.
    """
    results = _Verdicts()
    report = grid_conv_check(c1, c2, extent, spacing, epsilon)
    results.add("trimmed profile vs smoothed closed form", report.max_rel_error, 0.05)
    results.add("grid mass vs analytic mass", report.mass_rel_error, 0.005)
    same = bool(np.array_equal(report.conv_values, report.swapped_values))
    results.add("operand swap (bitwise)", 0.0 if same else 1.0, 0.0)
    return results


def transform_product_check(pairs, nodes: int) -> list[CheckResult]:
    """Per pair: the kernel's transform vs the J0 product, and vs the squared circle transforms.

    Errors are absolute over 41 radii in [0, 2]; the tolerance is 1e-8 times
    the mass ``4 pi^2 r1 r2``.
    """
    results = _Verdicts()
    r = np.linspace(0.0, 2.0, 41)
    for r1, r2 in pairs:
        kernel = ConvKernel(r1, r2)
        scale = kernel.mass
        transform = hankel_of_conv(kernel, r, nodes)
        product = scale * bessel_j0(2.0 * math.pi * r1 * r) * bessel_j0(2.0 * math.pi * r2 * r)
        err = np.max(np.abs(transform - product))
        results.add(f"product identity r1={r1:g} r2={r2:g}", err, 1e-8 * scale)
        square = hankel_of_circle(r1, r) * hankel_of_circle(r2, r)
        err = np.max(np.abs(transform - square))
        results.add(f"consistency square r1={r1:g} r2={r2:g}", err, 1e-8 * scale)
    return results


def gauss_roundtrip_check() -> list[CheckResult]:
    """The Gaussian ``exp(-pi rho^2)`` transformed twice on 1024 nodes returns itself on [0, 3]."""
    results = _Verdicts()
    gauss = RadialProfile(lambda rho: np.exp(-math.pi * np.asarray(rho) ** 2), (0.0, 4.0))
    once = RadialProfile(lambda r: hankel_transform(gauss, r, 1024), (0.0, 4.0))
    s = np.linspace(0.0, 3.0, 61)
    twice = hankel_transform(once, s, 1024)
    results.add("gaussian self-inverse round trip", np.max(np.abs(twice - np.exp(-math.pi * s * s))),
                1e-6)
    return results


def neumann_check(pairs, nodes: int) -> list[CheckResult]:
    """Per pair: the angular average of J0 vs the product of J0s at 11 frequencies.

    The frequencies run from 0 to where ``2 pi r (r1 + r2)`` reaches 50.
    """
    results = _Verdicts()
    for r1, r2 in pairs:
        r_max = 50.0 / (2.0 * math.pi * support_interval(r1, r2)[1])
        worst = 0.0
        for r in np.linspace(0.0, r_max, 11):
            lhs, rhs = neumann_product_check(r1, r2, float(r), nodes)
            worst = np.maximum(worst, abs(lhs - rhs))
        results.add(f"angular average vs product r1={r1:g} r2={r2:g}", worst, 1e-10)
    return results


def mass_check(r1: float, r2: float, nodes: int) -> list[CheckResult]:
    """Relative error of the quadrature mass of one pair against ``4 pi^2 r1 r2``."""
    results = _Verdicts()
    kernel = ConvKernel(r1, r2)
    measured = total_mass(kernel, nodes)
    results.add("quadrature mass vs analytic", abs(measured - kernel.mass) / kernel.mass, 1e-10)
    return results


def mass_sweep_check(seed: int) -> list[CheckResult]:
    """Worst relative mass error over 100 seeded pairs in [0.1, 5], each at 1 to 64 nodes."""
    results = _Verdicts()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        r1, r2 = rng.uniform(0.1, 5.0, 2)
        n = int(rng.integers(1, 65))
        kernel = ConvKernel(r1, r2)
        worst = np.maximum(worst, abs(total_mass(kernel, n) - kernel.mass) / kernel.mass)
    results.add("quadrature mass, 100 random pairs", worst, 1e-12)
    return results


def roots_sweep_check(r1: float, r2: float) -> list[CheckResult]:
    """Root-and-slope route vs the closed form at 19 radii across the interior of one pair, in one array call each.

    Raises a ``ParameterError`` naming the smaller radius when a sweep
    radius rounds onto the support's ends, as when that radius is too small
    beside the other for the support to keep a width in floats.
    """
    results = _Verdicts()
    lo, hi = support_interval(r1, r2)
    rhos = lo + np.linspace(0.05, 0.95, 19) * (hi - lo)
    if not np.all((rhos > lo) & (rhos < hi)):
        raise ParameterError("r1" if r1 <= r2 else "r2",
                             f"the sweep radii do not all fall strictly inside the support [{lo:g}, {hi:g}]")
    exact = eval_conv(rhos, r1, r2)
    results.add("root-path vs closed form on a radial sweep",
                np.max(np.abs(conv_via_roots(rhos, r1, r2) - exact) / exact), 1e-9)
    return results


def roots_random_check(rng: np.random.Generator) -> list[CheckResult]:
    """Root-and-slope route vs the closed form at 1000 interior triples drawn from ``rng``.

    Radii are uniform on [0.1, 5] and rho uniform on the middle 90% of the
    support, drawn pair first.  The root route takes all triples in one call.
    The generator is advanced, so a caller can keep drawing from it.
    """
    results = _Verdicts()
    triples = []
    for _ in range(1000):
        r1, r2 = rng.uniform(0.1, 5.0, 2)
        lo, hi = support_interval(r1, r2)
        triples.append((lo + rng.uniform(0.05, 0.95) * (hi - lo), r1, r2))
    rho, r1, r2 = np.array(triples).T
    exact = np.array([eval_conv(*triple) for triple in triples])
    results.add("root-path vs closed form, 1000 random triples",
                np.max(np.abs(conv_via_roots(rho, r1, r2) - exact) / exact), 1e-9)
    return results


def interior_minimum_check(pairs) -> list[CheckResult]:
    """The density is 2 at ``hypot(r1, r2)`` and below its values 1% of the support width either side."""
    results = _Verdicts()
    worst_min = 0.0
    strictly_below = True
    for r1, r2 in pairs:
        rho_min = math.hypot(r1, r2)
        lo, hi = support_interval(r1, r2)
        step = 0.01 * (hi - lo)
        center = eval_conv(rho_min, r1, r2)
        worst_min = np.maximum(worst_min, abs(center - 2.0))
        strictly_below &= center < eval_conv(rho_min + step, r1, r2)
        strictly_below &= center < eval_conv(rho_min - step, r1, r2)
    results.add("interior minimum value 2 at sqrt(r1^2+r2^2)", worst_min, 1e-12)
    results.add("minimum strictly below 1% perturbations", 0.0 if strictly_below else 1.0, 0.0)
    return results


def _smooth_field(c):
    return (lambda px, py: c[0] + c[1] * px + c[2] * py
            + c[3] * np.sin(px) * np.cos(py) + c[4] * np.cos(px) + c[5] * np.sin(py))


def ring_operator_check(radius: float, center: tuple[float, float], nodes: int,
                        seed: int) -> list[CheckResult]:
    """Circle averages of three fields, radial restriction, and the pairing identity.

    ``center`` is both the averaging point and the circle's centre.  The
    averages use ``nodes`` quadrature nodes; the pairing identity runs on 20
    seeded random smooth pairs.  Raises a ``ParameterError`` when the
    expected average of the squared norm, ``2 pi R (|x|^2 + R^2)``, overflows;
    it names ``r1`` (the radius) or ``b1`` (the centre), whichever is the
    larger of ``R`` and ``|x|``.  A NaN centre is no error: it fails every
    verdict.
    """
    results = _Verdicts()
    circle = Circle(center, radius)
    x = center
    circumference = 2.0 * math.pi * radius
    try:
        expected = circumference * (x[0] ** 2 + x[1] ** 2 + radius**2)
    except OverflowError:
        expected = math.inf
    if expected == math.inf:
        raise ParameterError("r1" if radius >= math.hypot(*x) else "b1",
                             f"the expected average of the squared norm, 2 pi R (|x|^2 + R^2),"
                             f" overflows at R = {radius:g}, x = ({x[0]:g}, {x[1]:g})")

    err = abs(circle_average(lambda px, py: 2.5 + 0.0 * px, circle, x, nodes) - 2.5 * circumference)
    results.add("average of a constant", err, 1e-10 * circumference)

    # The weighted sum of n terms of size up to R + |x| carries a rounding error of up to about
    # n eps 2 pi R (R + |x|) (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2),
    # which a correct sum can reach; past 1e-10 2 pi R the tolerance follows that model.
    err = abs(circle_average(lambda px, py: px, circle, x, nodes) - circumference * x[0])
    floor = nodes * np.finfo(float).eps * circumference * (radius + math.hypot(*x))
    results.add("average of a linear field", err, max(1e-10 * circumference, floor))

    err = abs(circle_average(lambda px, py: px**2 + py**2, circle, x, nodes) - expected)
    results.add("average of the squared norm", err, 1e-10 * max(expected, 1.0))

    measure = restrict_to_circle(lambda px, py: np.exp(-((px - x[0]) ** 2 + (py - x[1]) ** 2) / 3.0),
                                 circle)
    density = measure.density_values(np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False))
    # A float node lies up to about eps (R + |x|) off the circle, and the field's slope in the
    # distance is below 1 (at most 0.49), so past 1e-12 the tolerance is that rounding floor.
    offset = np.finfo(float).eps * (radius + math.hypot(*x))
    results.add("radial restriction is constant",
                np.max(np.abs(density - math.exp(-(radius**2) / 3.0))), max(1e-12, offset))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f = _smooth_field(rng.uniform(-1.0, 1.0, 6))
        phi = _smooth_field(rng.uniform(-1.0, 1.0, 6))
        lhs = pair_with_test(restrict_to_circle(f, circle), phi, 1024)
        rhs = pair_with_test(RingMeasure.uniform(circle), lambda px, py: f(px, py) * phi(px, py), 1024)
        worst = np.maximum(worst, abs(lhs - rhs))
    results.add("pairing identity on 20 random smooth pairs", worst, 1e-10)
    return results
