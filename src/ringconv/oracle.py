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
numpy alone: the FFT convolution is written below on ``numpy.fft``, and the
scaled Bessel I0 of the smoothing is ``special.i0e``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import Circle, ConvKernel, ParameterError, _planar_rule, support_interval
from .operators import Field2D, _grid_coords, _grid_side, _half_width
from .special import i0e

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
# bit-identical however the worker threads of ``mc_conv_histogram`` share
# the chunks out.
_CHUNK = 1 << 20
# Samples per block of a chunk's draws and arithmetic.  Each worker holds one
# block's temporaries, about 2 MB, so peak memory grows slowly with the core
# count.  Timing mc-check on 2 cores, blocks of 2^14 to 2^20 ran equally fast
# and 2^12 slower.
_BLOCK = 1 << 16
# Nodes of the planar rule in ``smoothed_profile``.
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


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunk_counts(seed: int, chunk_index: int, count: int, r1: float, r2: float, edges: np.ndarray,
                  counts: np.ndarray, sector_counts: np.ndarray) -> None:
    """Add the radius and sector counts of ``count`` samples from substream chunk_index.

    The substream gives theta1 for the whole chunk, then theta2.  Both are
    drawn and used in blocks of ``_BLOCK`` samples: a second copy of the
    substream starts past theta1 (``advance`` skips whole Philox outputs of
    four draws each, ``random_raw`` the rest), so every sample's angles and
    arithmetic are the same as in one whole-chunk pass.  The center offsets
    cancel before any arithmetic happens: the sampled point relative to
    b1 + b2 is ``r1 e(theta1) + r2 e(theta2)``, so shifted and concentric
    circles give bitwise identical counts.
    """
    first = np.random.Philox(key=seed).jumped(chunk_index)
    second = np.random.Philox(key=seed).jumped(chunk_index)
    second.advance(count // 4)
    second.random_raw(count % 4)
    rng1, rng2 = np.random.Generator(first), np.random.Generator(second)
    sectors = sector_counts.size
    width = 2.0 * math.pi / sectors
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        t1, t2 = rng1.uniform(0.0, 2.0 * math.pi, n), rng2.uniform(0.0, 2.0 * math.pi, n)
        dx = r1 * np.cos(t1) + r2 * np.cos(t2)
        dy = r1 * np.sin(t1) + r2 * np.sin(t2)
        counts += np.histogram(np.hypot(dx, dy), bins=edges)[0]
        angle = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
        idx = np.minimum((angle / width).astype(np.int64), sectors - 1)
        sector_counts += np.bincount(idx, minlength=sectors)


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
    derived from the seed.  The chunks run on one worker per core in the
    process's affinity mask, at most one per chunk, the calling thread being
    the first: worker k of n takes chunks k, k + n, ... and sums their integer
    counts into its own vectors, which are then added, so reruns give
    bit-identical counts on any number of cores.  Raises a ``ParameterError``
    naming ``bins`` or ``sectors`` outside ``[1, 2^20]`` (the chunk size)
    before allocating, and one naming the larger radius where ``r1 + r2``
    overflows; ``samples < 1`` is a ``ValueError``.  An exception in any chunk,
    or an interrupt while the caller waits, stops the other workers at their
    next chunk and reaches the caller after every thread has stopped.
    """
    for name, value in (("bins", bins), ("sectors", sectors)):
        if not 1 <= value <= _CHUNK:
            raise ParameterError(name, f"need 1 <= {name} <= {_CHUNK}, got {value}")
    r1, r2 = c1.radius, c2.radius
    edges = np.linspace(0.0, support_interval(r1, r2)[1] + margin, bins + 1)
    chunks = -(-samples // _CHUNK)
    workers = max(1, min(_usable_cores(), chunks))
    totals = [(np.zeros(bins, dtype=np.int64), np.zeros(sectors, dtype=np.int64)) for _ in range(workers)]
    errors = []

    def work(k):
        try:
            for c in range(k, chunks, workers):
                if errors:
                    return
                _chunk_counts(seed, c, min(_CHUNK, samples - c * _CHUNK), r1, r2, edges, *totals[k])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        try:
            thread.join()
        except BaseException as exc:
            errors.append(exc)
            thread.join()
    if errors:
        raise errors[0]
    counts = sum(c for c, _ in totals)
    sector_counts = sum(s for _, s in totals)
    return RadialHistogram(edges, counts, samples, ConvKernel(r1, r2).mass), sector_counts


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


def _spectral_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the spectral product ``a * b`` to ``out``, which may be ``a`` or ``b``, and return it.

    The product is written out in real arithmetic with the same operations
    for either operand order, so swapping ``a`` and ``b`` gives the same bits.
    ``a.imag * b.imag`` goes through a temporary and the imaginary part is
    written first, so overwriting an operand changes no bit either.
    """
    imag_imag = a.imag * b.imag
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    np.subtract(a.real * b.real, imag_imag, out=out.real)
    return out


def _in_pair(f, x, y):
    """``(f(x), f(y))``, with ``f(y)`` on one worker thread when two cores are usable.

    numpy's FFTs release the GIL, so the two calls overlap.  The worker has
    joined before this returns or raises; an exception from either call
    reaches the caller.
    """
    if _usable_cores() < 2:
        return f(x), f(y)
    result, errors = [], []

    def work():
        try:
            result.append(f(y))
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=work)
    thread.start()
    try:
        first = f(x)
    finally:
        try:
            thread.join()
        except BaseException:
            thread.join()
            raise
    if errors:
        raise errors[0]
    return first, result[0]


def _spectra(in1: np.ndarray, in2: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Padded forward spectra of two ``n x n`` arrays, with ``h = (n - 1) // 2`` and ``n``.

    The padded length is the smallest 5-smooth one of at least ``2n - 1 - h``:
    wrap-around of the circular convolution then only lands on rows and
    columns outside the centred slice that ``_centred_inverse`` keeps.
    """
    in1, in2 = np.asarray(in1, dtype=float), np.asarray(in2, dtype=float)
    if in1.ndim != 2 or in1.shape[0] != in1.shape[1] or in1.shape != in2.shape:
        raise ValueError(f"need two square arrays of one shape, got {in1.shape} and {in2.shape}")
    n = in1.shape[0]
    h = (n - 1) // 2
    size = (_smooth_length(2 * n - 1 - h),) * 2
    a, b = _in_pair(lambda values: np.fft.rfft2(values, size), in1, in2)
    return a, b, h, n


def _centred_inverse(product: np.ndarray, h: int, n: int) -> np.ndarray:
    """A copy of ``irfft2(product)[h:h + n, h:h + n]``; the first axis is transformed in ``product``."""
    np.fft.ifft(product, axis=0, out=product)
    return np.fft.irfft(product, product.shape[0], axis=1)[h:h + n, h:h + n].copy()


def fftconvolve(in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    """The centred ``n x n`` part of the linear convolution of two ``n x n`` arrays.

    Output ``[i, j]`` is the full convolution at ``[h + i, h + j]`` with
    ``h = (n - 1) // 2``, so for odd ``n`` the result stays centred on the
    input grid.  The circular convolution behind it is padded to a 5-smooth
    length at which wrap-around misses the kept slice.  The spectral product
    is written out in real arithmetic, so swapping the operands gives the
    same array bit for bit.  The two forward transforms run on two threads
    when two cores are usable, and the result is a new array, not a view
    into the padded one.
    """
    a, b, h, n = _spectra(in1, in2)
    return _centred_inverse(_spectral_product(a, b, out=b), h, n)


def _fftconvolve_both_orders(in1: np.ndarray, in2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fftconvolve(in1, in2)`` and ``fftconvolve(in2, in1)`` from one pair of forward spectra.

    The swapped product is written over ``in2``'s spectrum and ``in1``'s is
    released, so the two inverse transforms, run as a pair like the forward
    ones, hold two padded spectra between them.
    """
    a, b, h, n = _spectra(in1, in2)
    product = _spectral_product(a, b, out=np.empty_like(a))
    swapped = _spectral_product(b, a, out=b)
    del a, b
    return _in_pair(lambda p: _centred_inverse(p, h, n), product, swapped)


def smoothed_profile(rho, r1: float, r2: float, epsilon: float):
    """The closed-form density smoothed by the grid oracle's total mollifier.

    Convolving both rings with a normal-slice Gaussian of width eps smooths
    their convolution by the isotropic 2-D Gaussian of width
    sigma = eps * sqrt(2).  For radial f that smoothing is the 1-D integral

        (f * G_sigma)(rho) = int f(s) (s / sigma^2) I0(rho s / sigma^2)
                             exp(-(rho^2 + s^2) / (2 sigma^2)) ds

    evaluated here with the exponentially scaled I0 to avoid overflow, on the
    kernel's planar rule ``core._planar_rule``.  The density is sampled through
    ``eval_conv``, so this stays an independent check target for the grid
    route rather than a copy of it.
    """
    sigma2 = 2.0 * epsilon**2
    s, w = _planar_rule(r1, r2, _SMOOTHING_NODES)
    # The planar weights carry 2 pi s ds, which cancels the kernel's s / sigma^2 to 1 / (2 pi sigma^2).
    coef = w / (2.0 * math.pi * sigma2)
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
    mollifier tails are negligible.  ``conv_values`` is the convolution of the
    first ring with the second and ``swapped_values`` that of the second with
    the first, both scaled by spacing^2; convolution commutes, so they should
    be equal bit for bit.  Each is its own ``n x n`` array.
    """

    rho: np.ndarray
    grid_profile: np.ndarray
    oracle_profile: np.ndarray
    max_rel_error: float
    mass: float
    expected_mass: float
    trim: tuple[float, float]
    conv_values: np.ndarray
    swapped_values: np.ndarray

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

    Both rings are rasterized on the same centered grid and convolved in both
    operand orders (the product of sums times spacing^2 gives the continuous
    normalization).  Each ring's forward spectrum is computed once, so the
    swap costs one inverse transform; the two forward and then the two
    inverse transforms run as pairs on two threads when two cores are
    usable.  The first-by-second result is annularly averaged about b1 + b2
    in bins of width 2*spacing.  The reference is ``smoothed_profile`` at the
    bins' mean radii.  Raises a ``ParameterError`` naming ``spacing`` over
    the grid-side cap, the larger radius where ``r1 + r2`` overflows,
    ``extent`` if the convolution support plus a 5-epsilon pad would be
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
    coords = g1.grid_coords()
    conv, swapped = _fftconvolve_both_orders(g1.values, g2.values)
    conv *= spacing**2
    swapped *= spacing**2

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
        expected_mass=ConvKernel(c1.radius, c2.radius).mass,
        trim=(t_lo, t_hi),
        conv_values=conv,
        swapped_values=swapped,
    )
