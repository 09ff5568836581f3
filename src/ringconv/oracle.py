"""Brute-force oracles that test the closed-form kernel without its formula.

Two independent routes to the same density:

* Monte Carlo: draw the two circle angles uniformly, histogram the radius of
  the summed point about the summed centers, and convert counts to a planar
  density by annulus area.
* Grid convolution: rasterize each circle as a Gaussian-mollified ring,
  convolve the grids with FFTs, and compare the radial profile against the
  closed form smoothed by the matching Gaussian.

Neither route evaluates the closed form while producing its estimate, so
agreement is evidence for the formula rather than a tautology.  Both run on
numpy alone: the FFT convolution is ``fftconvolve`` below, and the scaled
Bessel I0 of the smoothing is ``special.i0e``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Circle, ParameterError, eval_conv, support_interval
from .operators import Field2D, _grid_coords, _grid_side, _half_width
from .special import chebyshev_singular_rule, i0e, squared_radius_terms

__all__ = [
    "RadialHistogram",
    "GridConvReport",
    "mc_conv_histogram",
    "mc_radiality_check",
    "build_mollified_ring",
    "fftconvolve",
    "smoothed_profile",
    "grid_conv_check",
]

# Fixed chunk size for the counter-based sampler.  Chunk c always uses the
# substream jumped(c) of the seeded generator, so the histogram and the
# sector counts are sums of per-chunk integer count vectors and are
# bit-identical however the chunks are scheduled.
_CHUNK = 1 << 20
# Chebyshev nodes of the squared-radius rule in ``smoothed_profile``.
_SMOOTHING_NODES = 2048


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
    """Offsets ``dx, dy`` from b1 + b2 of ``count`` summed samples from substream chunk_index.

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
    *,
    sectors: int,
    margin: float = 0.2,
) -> tuple[RadialHistogram, np.ndarray]:
    """Radius histogram and angle-sector counts of p - (b1 + b2), p a sum of uniform circle points.

    Bins cover ``[0, r1 + r2 + margin]`` uniformly and sectors ``[0, 2 pi)``;
    the sector counts should be flat to Poisson noise (the caller applies the
    bound).  Each chunk is drawn once for both, from a counter-based substream
    derived from the seed, and integer counts are summed, so reruns and any
    parallel schedule of chunks give bit-identical counts.  Raises a
    ``ParameterError`` naming ``bins`` or ``sectors`` outside ``[1, 2^20]``
    (the chunk size) before allocating; ``samples < 1`` is a ``ValueError``.
    """
    for name, value in (("bins", bins), ("sectors", sectors)):
        if not 1 <= value <= _CHUNK:
            raise ParameterError(name, f"need 1 <= {name} <= {_CHUNK}, got {value}")
    r1, r2 = c1.radius, c2.radius
    edges = np.linspace(0.0, r1 + r2 + margin, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    sector_counts = np.zeros(sectors, dtype=np.int64)
    width = 2.0 * math.pi / sectors
    for start in range(0, samples, _CHUNK):
        dx, dy = _chunk_angles(seed, start // _CHUNK, min(_CHUNK, samples - start), r1, r2)
        counts += np.histogram(np.hypot(dx, dy), bins=edges)[0]
        angle = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
        idx = np.minimum((angle / width).astype(np.int64), sectors - 1)
        sector_counts += np.bincount(idx, minlength=sectors)
    return RadialHistogram(edges, counts, samples, 4.0 * math.pi**2 * r1 * r2), sector_counts


def mc_radiality_check(c1: Circle, c2: Circle, samples: int, sectors: int, seed: int) -> np.ndarray:
    """Sector counts alone, from a one-bin pass.  The package neither exports nor calls it; it
    stays in ``__all__`` because ``perfbench`` reads a layer metric by this name.
    """
    return mc_conv_histogram(c1, c2, samples, 1, seed, sectors=sectors)[1]


def _ring_grid(extent: float, spacing: float) -> tuple[int, float]:
    """Side and half-width of the odd, centred grid the rings are built on.

    The half-width ``(n - 1) * spacing / 2`` may differ from ``extent / 2`` by
    a fraction of a cell either way, so the pad checks compare against it.
    """
    n = _grid_side(extent, spacing) | 1
    return n, _half_width(n, spacing)


def build_mollified_ring(c: Circle, extent: float, spacing: float, epsilon: float) -> Field2D:
    """Rasterize a ring as a unit-mass Gaussian slice across the circle.

    values(x) = exp(-(|x - b| - R)^2 / (2 eps^2)) / (sqrt(2 pi) eps), which
    integrates to 1 across the ring's normal direction, so the grid mass is
    2 pi R up to a curvature bias of relative size O(eps^2 / R^2) and the
    far Gaussian tails.  The side is odd, so ``fftconvolve`` of two rings
    stays centred on the grid.  Raises a ``ParameterError``
    naming ``spacing`` over the grid-side cap, ``epsilon`` if the mollifier
    is under-resolved, or ``extent`` if the ring plus a 5-epsilon pad
    overflows the grid that is built.
    """
    n, half = _ring_grid(extent, spacing)
    if epsilon < 2.0 * spacing:
        raise ParameterError("epsilon",
                             f"epsilon {epsilon} under-resolved by spacing {spacing} (need >= 2x)")
    reach = max(abs(c.center[0]), abs(c.center[1])) + c.radius + 5.0 * epsilon
    if reach > half:
        raise ParameterError("extent",
                             f"grid extent {extent} too small: ring needs {2.0 * reach:g} with padding")
    coords = _grid_coords(n, spacing)
    dist = np.hypot(coords[None, :] - c.center[0], coords[:, None] - c.center[1])
    values = np.exp(-((dist - c.radius) ** 2) / (2.0 * epsilon**2)) / (math.sqrt(2.0 * math.pi) * epsilon)
    return Field2D.from_grid(values, spacing)


def _smooth_length(n: int) -> int:
    """The smallest ``m >= n`` with no prime factor above 5, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def fftconvolve(in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    """The centred ``n x n`` part of the linear convolution of two ``n x n`` arrays.

    Output ``[i, j]`` is the full convolution at ``[h + i, h + j]`` with
    ``h = (n - 1) // 2``, so for odd ``n`` the result stays centred on the
    input grid.  The circular convolution behind it uses the smallest
    5-smooth length of at least ``2n - 1 - h``: wrap-around then only lands
    on rows and columns outside the kept slice.  The spectral product is
    written out in real arithmetic, so swapping the operands gives the same
    array bit for bit.
    """
    in1, in2 = np.asarray(in1, dtype=float), np.asarray(in2, dtype=float)
    if in1.ndim != 2 or in1.shape[0] != in1.shape[1] or in1.shape != in2.shape:
        raise ValueError(f"need two square arrays of one shape, got {in1.shape} and {in2.shape}")
    n = in1.shape[0]
    h = (n - 1) // 2
    size = (_smooth_length(2 * n - 1 - h),) * 2
    a, b = np.fft.rfft2(in1, size), np.fft.rfft2(in2, size)
    product = np.empty_like(a)
    np.subtract(a.real * b.real, a.imag * b.imag, out=product.real)
    np.add(a.real * b.imag, a.imag * b.real, out=product.imag)
    return np.fft.irfft2(product, size)[h:h + n, h:h + n]


def smoothed_profile(rho, r1: float, r2: float, epsilon: float):
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
                                    chebyshev_singular_rule(lo * lo, hi * hi, _SMOOTHING_NODES))
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
    radii.  Raises a ``ParameterError`` naming ``spacing`` over the grid-side
    cap, ``extent`` if the convolution support plus a 5-epsilon pad would be
    clipped by the grid, and ``epsilon`` if no bin's mean radius falls in the
    trimmed interval, in that order of precedence.
    """
    _, half = _ring_grid(extent, spacing)
    lo, hi = support_interval(c1.radius, c2.radius)
    bx, by = c1.center[0] + c2.center[0], c1.center[1] + c2.center[1]
    if max(abs(bx), abs(by)) + hi + 5.0 * epsilon > half:
        raise ParameterError("extent", "grid extent clips the support of the convolution")
    g1 = build_mollified_ring(c1, extent, spacing, epsilon)
    g2 = build_mollified_ring(c2, extent, spacing, epsilon)
    conv = fftconvolve(g1.values, g2.values) * spacing**2

    coords = g1.grid_coords()
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
    )
