"""Brute-force oracles that test the closed-form kernel without its formula.

Two independent routes to the same density:

* Monte Carlo: draw the two circle angles uniformly, histogram the radius of
  the summed point about the summed centers, and convert counts to a planar
  density by annulus area.
* Grid convolution: rasterize each circle as a Gaussian-mollified ring,
  convolve the grids with FFTs, and compare the radial profile against the
  closed form smoothed by the matching Gaussian.

Neither route evaluates the closed form while producing its estimate, so
agreement is evidence for the formula rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import i0e

from .core import Circle, ParameterError, eval_conv, support_interval
from .special import chebyshev_singular_rule, squared_radius_terms

__all__ = [
    "RadialHistogram",
    "MollifiedGrid",
    "GridConvReport",
    "mc_conv_histogram",
    "mc_radiality_check",
    "build_mollified_ring",
    "smoothed_profile",
    "grid_conv_check",
]

# Fixed chunk size for the counter-based sampler.  Chunk c always uses the
# substream jumped(c) of the seeded generator, so the histogram is a sum of
# per-chunk integer count vectors and is bit-identical however the chunks
# are scheduled.
_CHUNK = 1 << 20


@dataclass(frozen=True)
class RadialHistogram:
    """Counts of sample radii in fixed bins, plus the mass they represent.

    ``mass_scale`` is the total mass of the sampled measure, the product of
    the two circumferences.  The density estimate for a bin divides the
    mass fraction by the annulus area of the bin, making it directly
    comparable with the closed-form planar density.
    """

    edges: np.ndarray
    counts: np.ndarray
    total_samples: int
    mass_scale: float

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)
        if edges.ndim != 1 or counts.shape != (edges.size - 1,):
            raise ValueError("need len(counts) == len(edges) - 1")
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must be strictly increasing")
        if np.any(counts < 0) or self.total_samples < 1:
            raise ValueError("counts must be nonnegative and total_samples >= 1")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def density(self) -> np.ndarray:
        """Planar density estimate per bin: mass fraction over annulus area."""
        area = math.pi * (self.edges[1:] ** 2 - self.edges[:-1] ** 2)
        return self.counts / self.total_samples * self.mass_scale / area


def _chunk_angles(seed: int, chunk_index: int, count: int, r1: float, r2: float):
    """Radius and angle of ``count`` summed samples from substream chunk_index.

    theta1 is drawn before theta2.  The center offsets cancel before any
    arithmetic happens: the sampled point relative to b1 + b2 is
    ``r1 e(theta1) + r2 e(theta2)``, so shifted and concentric circles give
    bitwise identical streams.
    """
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))
    theta1 = rng.uniform(0.0, 2.0 * math.pi, count)
    theta2 = rng.uniform(0.0, 2.0 * math.pi, count)
    dx = r1 * np.cos(theta1) + r2 * np.cos(theta2)
    dy = r1 * np.sin(theta1) + r2 * np.sin(theta2)
    return dx, dy


def mc_conv_histogram(
    c1: Circle,
    c2: Circle,
    samples: int,
    bins: int,
    seed: int,
    margin: float = 0.2,
) -> RadialHistogram:
    """Histogram of ``|p - (b1 + b2)|`` for p a sum of uniform circle points.

    Bins cover ``[0, r1 + r2 + margin]`` uniformly.  The result depends only
    on (radii, samples, bins, margin, seed): sampling is chunked through a
    counter-based generator whose chunk substreams are derived from the seed,
    and integer counts are summed, so reruns and any parallel schedule of
    chunks give bit-identical histograms.
    """
    if samples < 1 or bins < 1:
        raise ValueError("samples and bins must be >= 1")
    r1, r2 = c1.radius, c2.radius
    edges = np.linspace(0.0, r1 + r2 + margin, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    for chunk_index, count in _chunk_layout(samples):
        dx, dy = _chunk_angles(seed, chunk_index, count, r1, r2)
        counts += np.histogram(np.hypot(dx, dy), bins=edges)[0]
    return RadialHistogram(edges, counts, samples, 4.0 * math.pi**2 * r1 * r2)


def _chunk_layout(samples: int):
    full, rest = divmod(samples, _CHUNK)
    for c in range(full):
        yield c, _CHUNK
    if rest:
        yield full, rest


def mc_radiality_check(c1: Circle, c2: Circle, samples: int, sectors: int, seed: int) -> np.ndarray:
    """Per-sector counts of sample angles about the summed center.

    The sampled measure is rotation invariant, so the counts should be flat
    to Poisson noise; the caller applies the uniformity bound.  Uses the
    same chunked substreams as ``mc_conv_histogram``.
    """
    if samples < 1 or sectors < 1:
        raise ValueError("samples and sectors must be >= 1")
    counts = np.zeros(sectors, dtype=np.int64)
    width = 2.0 * math.pi / sectors
    for chunk_index, count in _chunk_layout(samples):
        dx, dy = _chunk_angles(seed, chunk_index, count, c1.radius, c2.radius)
        angle = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
        idx = np.minimum((angle / width).astype(np.int64), sectors - 1)
        counts += np.bincount(idx, minlength=sectors)
    return counts


@dataclass(frozen=True)
class MollifiedGrid:
    """A centered square raster of an epsilon-smoothed ring.

    ``values[i, j]`` samples the field at
    ``(-extent/2 + j*spacing, -extent/2 + i*spacing)``.  The mollifier must
    be resolved by the grid: ``epsilon >= 2*spacing``.
    """

    extent: float
    spacing: float
    epsilon: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.spacing <= 0.0 or self.epsilon < 2.0 * self.spacing:
            raise ValueError("need spacing > 0 and epsilon >= 2*spacing")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")

    @property
    def mass(self) -> float:
        return float(self.values.sum()) * self.spacing**2

    def coords(self) -> np.ndarray:
        return -self.extent / 2.0 + np.arange(self.values.shape[0]) * self.spacing


def build_mollified_ring(c: Circle, extent: float, spacing: float, epsilon: float) -> MollifiedGrid:
    """Rasterize a ring as a unit-mass Gaussian slice across the circle.

    values(x) = exp(-(|x - b| - R)^2 / (2 eps^2)) / (sqrt(2 pi) eps), which
    integrates to 1 across the ring's normal direction, so the grid mass is
    2 pi R up to a curvature bias of relative size O(eps^2 / R^2) and the
    far Gaussian tails.  Raises if the mollifier is under-resolved or the
    circle plus a 5-epsilon pad overflows the grid, with a ``ParameterError``
    naming ``epsilon`` or ``extent``.
    """
    if epsilon < 2.0 * spacing:
        raise ParameterError("epsilon",
                             f"epsilon {epsilon} under-resolved by spacing {spacing} (need >= 2x)")
    half = extent / 2.0
    reach = max(abs(c.center[0]), abs(c.center[1])) + c.radius + 5.0 * epsilon
    if reach > half:
        raise ParameterError("extent",
                             f"grid extent {extent} too small: ring needs {2.0 * reach:g} with padding")
    n = int(round(extent / spacing)) + 1
    coords = -half + np.arange(n) * spacing
    dist = np.hypot(coords[None, :] - c.center[0], coords[:, None] - c.center[1])
    values = np.exp(-((dist - c.radius) ** 2) / (2.0 * epsilon**2)) / (math.sqrt(2.0 * math.pi) * epsilon)
    return MollifiedGrid(float((n - 1) * spacing), spacing, epsilon, values)


def smoothed_profile(rho, r1: float, r2: float, epsilon: float, n: int = 2048):
    """The closed-form density smoothed by the grid oracle's total mollifier.

    Convolving both rings with a normal-slice Gaussian of width eps smooths
    their convolution by the isotropic 2-D Gaussian of width
    sigma = eps * sqrt(2).  For radial f that smoothing is the 1-D integral

        (f * G_sigma)(rho) = int f(s) (s / sigma^2) I0(rho s / sigma^2)
                             exp(-(rho^2 + s^2) / (2 sigma^2)) ds

    evaluated here with the exponentially scaled I0 to avoid overflow and
    the squared-radius Chebyshev rule to absorb f's endpoint blow-ups.  The
    density is sampled through ``eval_conv``, so this stays an independent
    check target for the grid route rather than a copy of it.
    """
    sigma2 = 2.0 * epsilon**2
    lo, hi = support_interval(r1, r2)
    s, terms = squared_radius_terms(lambda rho: eval_conv(rho, r1, r2),
                                    chebyshev_singular_rule(lo * lo, hi * hi, n))
    # ds = du / (2 s) cancels the kernel's s / sigma^2 prefactor down to 1 / (2 sigma^2).
    coef = terms / (2.0 * sigma2)
    rho = np.asarray(rho, dtype=float)
    scalar = rho.ndim == 0
    arr = np.atleast_1d(rho)
    kernel = i0e(np.multiply.outer(arr, s) / sigma2) * np.exp(
        -((arr[:, None] - s[None, :]) ** 2) / (2.0 * sigma2)
    )
    out = kernel @ coef
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GridConvReport:
    """Outcome of the grid-convolution route, with everything needed to audit it.

    The profile arrays are restricted to the trimmed interval
    ``[lo + 5 eps, hi - 5 eps]`` where both routes are finite and the
    mollifier tails are negligible.
    """

    rho: np.ndarray
    grid_profile: np.ndarray
    oracle_profile: np.ndarray
    max_rel_error: float
    mass: float
    expected_mass: float
    trim: tuple[float, float]
    conv_values: np.ndarray
    spacing: float

    @property
    def mass_rel_error(self) -> float:
        return abs(self.mass - self.expected_mass) / self.expected_mass


def grid_conv_check(
    c1: Circle,
    c2: Circle,
    extent: float,
    spacing: float,
    epsilon: float,
) -> GridConvReport:
    """FFT-convolve two mollified rings and compare profiles with the closed form.

    Both rings are rasterized on the same centered grid, convolved (the
    product of sums times spacing^2 gives the continuous normalization), and
    the result is annularly averaged about b1 + b2 in bins of width
    2*spacing.  The reference is ``smoothed_profile`` at the bins' mean
    radii.  Raises a ``ParameterError`` naming ``extent`` if the convolution
    support plus a 5-epsilon pad would be clipped by the grid, and naming
    ``epsilon`` if no bin's mean radius falls in the trimmed interval.
    """
    lo, hi = support_interval(c1.radius, c2.radius)
    bx, by = c1.center[0] + c2.center[0], c1.center[1] + c2.center[1]
    if max(abs(bx), abs(by)) + hi + 5.0 * epsilon > extent / 2.0:
        raise ParameterError("extent", "grid extent clips the support of the convolution")
    g1 = build_mollified_ring(c1, extent, spacing, epsilon)
    g2 = build_mollified_ring(c2, extent, spacing, epsilon)
    conv = fftconvolve(g1.values, g2.values, mode="same") * spacing**2

    coords = g1.coords()
    rho = np.hypot(coords[None, :] - bx, coords[:, None] - by)
    width = 2.0 * spacing
    idx = np.rint(rho / width).astype(np.int64).ravel()
    nbins = int(idx.max()) + 1
    hits = np.maximum(np.bincount(idx, minlength=nbins), 1)
    mean_rho = np.bincount(idx, weights=rho.ravel(), minlength=nbins) / hits
    mean_val = np.bincount(idx, weights=conv.ravel(), minlength=nbins) / hits

    t_lo, t_hi = lo + 5.0 * epsilon, hi - 5.0 * epsilon
    keep = (mean_rho >= t_lo) & (mean_rho <= t_hi)
    if not keep.any():
        raise ParameterError("epsilon", f"no bin falls in the trimmed range [{t_lo:g}, {t_hi:g}]"
                                        f" of the support ({lo:g}, {hi:g})")
    ref = smoothed_profile(mean_rho[keep], c1.radius, c2.radius, epsilon)
    rel = np.abs(mean_val[keep] - ref) / np.abs(ref)
    return GridConvReport(
        rho=mean_rho[keep],
        grid_profile=mean_val[keep],
        oracle_profile=ref,
        max_rel_error=float(rel.max()),
        mass=float(conv.sum()) * spacing**2,
        expected_mass=4.0 * math.pi**2 * c1.radius * c2.radius,
        trim=(t_lo, t_hi),
        conv_values=conv,
        spacing=spacing,
    )
