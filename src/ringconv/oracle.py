"""Brute-force oracles that test the closed-form kernel without its formula.

Two independent routes to the same density:

* Monte Carlo: draw the two circle angles uniformly, histogram the radius of
  the summed point about the summed centers, and convert counts to a planar
  density by annulus area.  The point is ``r1 e(theta1) + r2 e(theta2)``;
  a filtered kernel bins it with float32 trig under a written error bound,
  and reruns the samples the bound cannot place through the float64
  four-trig reference kernel, so the counts are the reference's bit for bit.
* Grid convolution: rasterize each circle as a Gaussian-mollified ring,
  convolve the grids with FFTs, and compare the radial profile against the
  closed form smoothed by the matching Gaussian.

Neither route evaluates the closed form while producing its estimate, so
agreement is evidence for the formula rather than a tautology; the grid
route's reference, ``smoothed_profile``, samples ``eval_conv``.  Both run on
numpy alone: the FFT convolution's transforms live in ``operators``, shared
with the ring operator, and the smoothing's scaled Bessel I0 is ``special.i0e``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (Circle, ConvKernel, ParameterError, _angular_rule, _normal_mass, _on_cores, _on_row_blocks,
                   _scale_exponent, support_interval)
from .operators import (Field2D, _centred_inverse, _grid_coords, _grid_side, _half_width, _smooth_length,
                        _spectral_product, _spectrum)
from .special import _i0e, i0e  # i0e is bound here for perfbench's oracle.i0e metric

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

# Fixed chunk size for the counter-based sampler.  Chunk c of a pass always
# uses the substream jumped(c) of the seeded generator, theta1 for the whole
# chunk and then theta2, so the histogram and the sector counts are sums of
# integer count vectors over fixed substreams and are bit-identical however
# ``_sample_pool`` shares the work out.
_CHUNK = 1 << 20
# Samples per block of the sampler's draws and arithmetic.  Each worker of
# ``_sample_pool`` reuses one block's arrays, about 3 MB, across all its
# tasks.  Timing mc-check on 2 cores, blocks of 2^14 to 2^20 ran equally fast
# and 2^12 slower.
_BLOCK = 1 << 16
# Blocks per task of ``_sample_pool``: each chunk of 16 blocks is cut into tasks of this many, so every core stays
# busy until the last few blocks.  One-block tasks made perfbench ``mc`` slower in 6 of 6 pairs (0.243 to 0.295 s).
_TASK_BLOCKS = 4
# The ulps ``_filter_bound`` assumes for float64 ``np.cos``, ``np.sin``, ``np.hypot`` and ``np.arctan2``, and for
# float32 ``np.cos``, ``np.sin`` and ``np.arctan2``; tests/test_oracle.py measures them on the platform.
_ULPS, _ULPS32 = 4, 8
# ``_filtered_counts``' trig is float32 while that bound's fixed margins stay within this part of a bin and of a
# sector: at (2, 3), to about 2.2e4 bins or 5e4 sectors, where the reruns cost about what float64 trig does.
_FLOAT32_LIMIT = 1.0 / 32
# Nodes of the angular rule in ``smoothed_profile``.
_SMOOTHING_NODES = 2048
# ``smoothed_profile``'s limit on the angular rule's mean node-rounding error.  At radius ratios from 1
# to 3e6 the profile on the grid check's trimmed interval moved by under 0.1 times that mean, so 1e-6
# stays far below the 5% profile tolerance; 2048 nodes meet it up to ratios of about 4e6.
_PROFILE_ROUNDING_LIMIT = 1e-6


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
        """Planar density estimate per bin: mass fraction over annulus area ``pi (e1 - e0)(e1 + e0)``, no square."""
        area = math.pi * (self.edges[1:] - self.edges[:-1]) * (self.edges[1:] + self.edges[:-1])
        return self.counts / self.total_samples * self.mass_scale / area


def _empty_histogram(r1: float, r2: float, samples: int, bins: int, sectors: int,
                     margin: float) -> RadialHistogram:
    """The bins of a sampler pass on radii ``r1``, ``r2``, with zero counts, once every input rule has passed.

    Bins cover ``[0, r1 + r2 + margin]`` uniformly.  Raises a ``ParameterError``
    naming ``bins`` or ``sectors`` outside ``[1, 2^20]`` (the chunk size)
    before allocating, then where ``r1 + r2`` overflows or ``_normal_mass``
    refuses the mass, then naming ``margin`` where the last edge is not finite
    or does not clear ``r1 + r2`` by the reference kernel's radius error, so
    that every sample is counted; then ``RadialHistogram``'s ``ValueError`` for
    ``samples < 1`` or edges that do not increase.  A negative ``margin`` cuts
    the support on purpose: samples beyond its last edge are not counted.
    """
    for name, value in (("bins", bins), ("sectors", sectors)):
        if not 1 <= value <= _CHUNK:
            raise ParameterError(name, f"need 1 <= {name} <= {_CHUNK}, got {value}")
    hi, mass = support_interval(r1, r2)[1], _normal_mass(r1, r2)
    end = hi + float(margin)
    # ``_filter_bound``'s (5k + 5) u S + 8 t for the reference's radii, u hi for hi's rounding and u hi for this one's.
    error = (5 * _ULPS + 7) * 2.0**-53 * hi + 8 * 5e-324
    if not (margin < 0.0 or error <= end - hi < math.inf):
        raise ParameterError("margin", f"the last edge r1 + r2 + margin = {end:g} must be finite and clear"
                                       f" r1 + r2 = {hi:g} by the sampler's radius error {error:.3g}")
    return RadialHistogram(np.linspace(0.0, end, bins + 1), np.zeros(bins, dtype=np.int64), samples, mass)


def _substream(seed: int, chunk: int, skip: int) -> np.random.Generator:
    """Substream ``chunk`` of the seed past its first ``skip`` draws.

    ``advance`` skips whole Philox outputs of four draws each and
    ``random_raw`` the rest, so the next draw is the one a generator started at
    the chunk would make after ``skip`` draws.
    """
    bits = np.random.Philox(key=seed).jumped(chunk)
    bits.advance(skip // 4)
    bits.random_raw(skip % 4)
    return np.random.Generator(bits)


def _add_counts(counts: np.ndarray, idx: np.ndarray) -> None:
    """Add one to ``counts[i]`` for each ``i`` of ``idx``: by ``bincount`` when ``idx`` outnumbers the slots, else
    by ``add.at``, so no block makes a temporary as long as ``counts``."""
    if idx.size >= counts.size:
        counts += np.bincount(idx, minlength=counts.size)
    else:
        np.add.at(counts, idx, 1)


def _bin_block(dx, dy, edges: np.ndarray, counts: np.ndarray, sector_counts: np.ndarray) -> None:
    """Add the radius and sector counts of the points ``(dx, dy)``.

    Each count vector has one slot past its bins.  A radius goes where ``np.histogram(r, bins=edges)`` counts
    it, ``edges[i] <= r < edges[i + 1]`` with the last edge closed, or to that last slot beyond the edges;
    it is searched for among the edges, so a few reruns make no pass over 2^20 edges.
    A negative angle is moved up by 2 pi as ``angle + 2 pi [angle < 0]``: a nonnegative one gains +0, which
    only turns -0 into +0 and moves no sector.
    """
    r = np.hypot(dx, dy)
    idx = np.searchsorted(edges, r, side="right") - 1
    idx -= r == edges[-1]
    _add_counts(counts, idx)
    sectors = sector_counts.size - 1
    angle = np.arctan2(dy, dx)
    angle += (angle < 0.0) * (2.0 * math.pi)
    angle /= 2.0 * math.pi / sectors
    _add_counts(sector_counts, np.minimum(angle.astype(np.int64), sectors - 1))


def _block_counts(r1: float, r2: float, theta1, theta2, edges: np.ndarray, counts: np.ndarray,
                  sector_counts: np.ndarray) -> None:
    """The reference kernel: add the counts of the samples with angles ``theta1``, ``theta2``.

    The point relative to b1 + b2 is ``r1 e(theta1) + r2 e(theta2)``, formed
    from the radii alone, so shifted and concentric circles give bitwise
    identical counts.  Every operation acts on each sample alone, so a sample
    gets the same bits among any others.
    """
    dx = np.cos(theta1) * r1
    dx += np.cos(theta2) * r2
    dy = np.sin(theta1) * r1
    dy += np.sin(theta2) * r2
    _bin_block(dx, dy, edges, counts, sector_counts)


def _filter_bound(r1: float, r2: float, step: float, bins: int, sectors: int, trig) -> tuple:
    """Margins ``(radius, sector, near, width)`` beyond which both kernels count a sample alike.

    ``_filtered_counts`` scales the radii by 2^-e (e from ``_scale_exponent``) to s1 and s2, takes its trig in
    dtype ``trig``, and rho in bins of width ``step``.  It trusts a sample if rho lies more than ``radius`` from
    a whole number and the angle, in sectors, more than ``sector + near / max(rho - width, 0)``.  With
    u = 2^-53, k = ``_ULPS``; w, K and m the unit roundoff, ulps and smallest normal of ``trig``; S = s1 + s2;
    t = 2^-1074 max(1, 2^-e), an underflow of either kernel on the scaled scale; and P the exact point:

    * d rounds by 2 pi u, and to ``trig`` by 2 pi w plus m, an underflow, flushed or not; cos and sin add K w,
      and m for a flushed result, so c and s are within E = K w + 2 pi (w + 2 u) + 2 m of cos d and sin d;
    * x = s1 + s2 c and y = s2 s are each within s2 E + 2.01 u S + 5 t of P's, so (x, y) is within D, sqrt(2)
      times that, and rho, its norm, within W = D + 2.01 u (S + D) + 1.01 sqrt(t) of |P|: no 1/rho term;
    * the casts of x and y to ``trig`` move (x, y) by sqrt(2) m more, then turn it by 1.01 w (a relative w on
      each part); arctan2 adds 4 K w, and adding theta1 3 pi u;
    * the reference's dx, dy are each within (2k + 2) u S + t of P's, its ``hypot`` within (5k + 5) u S + 8 t
      of |P|, and its ``arctan2`` adds 2 pi k u;
    * a point moved by z turns by at most arcsin(z / |P|) <= 1.2 z / |P| for z <= 0.7 |P|, and |P| >= rho - W.
      A trusted sample has rho - W >= 2 ``near``, 0.76 sectors times both points' moves, so that holds from
      2 sectors on, and one sector holds every angle;
    * ``np.linspace`` puts edge i within u i of i step, plus an underflow; scaling to bin units adds 2.01 u of
      at most ``bins + 1``, to sector units 2.5 u of at most 1.5 turns, and the reference's 2 pi turn u.
    Each margin is doubled, and the fixed ones get 4 u for the rounding of the test.
    """
    u, k, info = 2.0**-53, _ULPS, np.finfo(trig)
    w, m, ulps = float(info.eps) / 2, float(info.smallest_normal), _ULPS32 if trig == np.float32 else k
    e = int(_scale_exponent(r1, r2))
    s1, s2 = math.ldexp(r1, -e), math.ldexp(r2, -e)
    span, unit, t = s1 + s2, math.ldexp(1.0, e) / step, math.ldexp(5e-324, max(-e, 0))
    err = ulps * w + 2 * math.pi * (w + 2 * u) + 2 * m
    vector = math.sqrt(2.0) * (s2 * err + 2.01 * u * span + 5 * t)
    width = vector + 2.01 * u * (span + vector) + 1.01 * math.sqrt(t)
    radius = (width + (5 * k + 5) * u * span + 9 * t) * unit + 2.01 * u * (bins + 1) + u * bins
    turn = (1.01 + 4 * ulps) * w + (3 + 2 * k) * math.pi * u
    sector = turn * sectors / (2.0 * math.pi) + 7.3 * u * sectors
    near = 1.2 * (vector + math.sqrt(2.0) * (m + (2 * k + 2) * u * span + t)) * unit * sectors / (2.0 * math.pi)
    return 2.0 * radius + 4 * u, 2.0 * sector + 4 * u, 2.0 * near, 2.0 * width * unit


def _filtered_counts(r1: float, r2: float, arrays, edges: np.ndarray, counts: np.ndarray,
                     sector_counts: np.ndarray) -> None:
    """``_block_counts``' counts, bit for bit, from one cosine, one sine and one arctan2 per sample.

    On the radii scaled by ``_scale_exponent`` to s1 and s2, with d = theta2 - theta1, the point is
    (s1 + s2 cos d, s2 sin d) = (x, y) turned by theta1, binned from its radius ``sqrt(x^2 + y^2)`` and angle
    ``theta1 + arctan2(y, x)``.  The trig takes d, x and y in float32, or in float64 where float32's fixed
    margins from ``_filter_bound`` pass ``_FLOAT32_LIMIT``; all else is float64.  A sample within its margins
    of a bin or sector edge, or not finite, goes to the count vectors' last slot, and those samples alone are
    rerun through ``_block_counts``; every other lies in the same bin and sector on both routes.  The work is
    done in the block's own rows (theta1 and theta2 kept for the rerun) and the integer row, also read as
    floats and flags.
    """
    (t1, t2, a, b, c), flagged, idx = arrays
    bins, sectors, step = counts.size - 1, sector_counts.size - 1, float(edges[1])
    for trig in (np.float32, np.float64):
        radius, sector, near, width = _filter_bound(r1, r2, step, bins, sectors, trig)
        if max(radius, sector) <= _FLOAT32_LIMIT:
            break
    e = int(_scale_exponent(r1, r2))
    s1, s2, f = math.ldexp(r1, -e), math.ldexp(r2, -e), idx.view(float)
    np.cos(np.subtract(t2, t1, out=a), out=b, dtype=trig)
    np.sin(a, out=a, dtype=trig)
    b *= s2
    b += s1  # x
    a *= s2  # y
    np.multiply(b, b, out=f)
    f += np.multiply(a, a, out=c)
    np.sqrt(f, out=f)
    f *= math.ldexp(1.0, e) / step  # rho, in bin units
    np.arctan2(a, b, out=a, dtype=trig)
    a += t1
    a *= sectors / (2.0 * math.pi)  # the angle, in (-pi, 3 pi), in sector units
    np.floor(f, out=b)
    np.add(b, 0.5, out=c)
    np.abs(np.subtract(f, c, out=c), out=c)  # 1/2 less the distance from the nearest bin edge
    np.less_equal(c, 0.5 - radius, out=flagged)  # True while the sample is trusted
    f -= width  # at most |P| in bin units; below 0 only where rho < width <= radius, which is flagged above
    np.floor(a, out=c)
    a -= c
    np.abs(np.subtract(a, 0.5, out=a), out=a)
    np.subtract(0.5 - sector, a, out=a)
    a *= f
    flagged &= np.greater_equal(a, near, out=idx.view(bool)[:idx.size])
    np.logical_not(flagged, out=flagged)
    np.minimum(b, bins, out=b)
    np.add(c, 0.5, out=a)  # the sector, taken mod sectors exactly on whole numbers
    a *= 1.0 / sectors
    np.floor(a, out=a)
    c -= np.multiply(a, sectors, out=a)
    for index, last, out in ((b, bins, counts), (c, sectors, sector_counts)):
        np.copyto(idx, index, casting="unsafe")
        np.copyto(idx, last, where=flagged)
        _add_counts(out, idx)
    if flagged.any():
        _block_counts(r1, r2, t1[flagged], t2[flagged], edges, counts, sector_counts)


def _job_block(c1: Circle, c2: Circle, arrays, edges: np.ndarray, counts: np.ndarray,
               sector_counts: np.ndarray) -> None:
    """The pool's dispatch of one block of a job: the kernel gets the circles' radii, never their centres."""
    _filtered_counts(c1.radius, c2.radius, arrays, edges, counts, sector_counts)


def _task_counts(job, chunk: int, block: int, seed: int, edges: np.ndarray, arrays, counts: np.ndarray,
                 sector_counts: np.ndarray) -> None:
    """Add the counts of up to ``_TASK_BLOCKS`` blocks of chunk ``chunk`` of ``job``, from block ``block`` on.

    The chunk's substream gives theta1 for its whole sample count, then
    theta2; both generators start at the task's first sample, so every
    sample's angles are those of one whole-chunk pass.  Each angle is
    ``random(out=)`` scaled by 2 pi, which has the bits of ``uniform(0, 2 pi)``.
    """
    c1, c2, samples = job
    count = min(_CHUNK, samples - chunk * _CHUNK)
    start = block * _BLOCK
    rng1, rng2 = _substream(seed, chunk, start), _substream(seed, chunk, count + start)
    floats, negative, idx = arrays
    for first in range(start, min(count, start + _TASK_BLOCKS * _BLOCK), _BLOCK):
        n = min(_BLOCK, count - first)
        for row, rng in enumerate((rng1, rng2)):
            np.multiply(rng.random(out=floats[row, :n]), 2.0 * math.pi, out=floats[row, :n])
        _job_block(c1, c2, (floats[:, :n], negative[:n], idx[:n]), edges, counts, sector_counts)


def _sample_pool(jobs, seed: int, edges: np.ndarray, sectors: int) -> list:
    """Per job ``(c1, c2, samples)``: ``((counts, sector_counts), (first_counts, first_sectors))``.

    The first pair counts all the job's samples, the second its chunk 0
    alone; the histogram bins are ``edges`` and the sectors cover
    ``[0, 2 pi)``.  Every chunk of every job is cut into tasks of
    ``_TASK_BLOCKS`` blocks, and ``_on_cores`` shares the tasks out over the
    usable cores, so each sample is drawn once and every core stays busy
    until the last few blocks.  Each worker reuses one set of block arrays
    across its tasks and sums whole integer count vectors per job, chunk 0
    apart, which are merged in place, so the counts have the same bits on
    any number of cores; nothing may write to them after.  Workers call no
    public function.  An exception in any task, or an interrupt while
    the caller waits, stops the other workers at their next task and reaches
    the caller after every thread has stopped.
    """
    tasks = [(job, chunk, block)
             for job, (_, _, samples) in enumerate(jobs)
             for chunk in range(-(-samples // _CHUNK))
             for block in range(0, -(-min(_CHUNK, samples - chunk * _CHUNK) // _BLOCK), _TASK_BLOCKS)]

    def work(my_tasks):
        # Reused rows: a kernel that made fresh arrays took 4.0-5.5 against 2.0 ms per 2^16-sample block, but 24.7
        # against 22.5 ns per sample at 2^13, as if each fresh array of 128 KiB or more cost time (cause not traced).
        arrays = np.empty((5, _BLOCK)), np.empty(_BLOCK, dtype=bool), np.empty(_BLOCK, dtype=np.int64)
        sums = {}
        for t in my_tasks:
            job, chunk, block = tasks[t]
            key = (job, chunk == 0)
            if key not in sums:
                sums[key] = np.zeros(edges.size, dtype=np.int64), np.zeros(sectors + 1, dtype=np.int64)
            _task_counts(jobs[job], chunk, block, seed, edges, arrays, *sums[key])
        return sums

    def add(key, part):  # in place, so the merge makes no count vector of its own
        if key in sums:
            for total, v in zip(sums[key], part):
                total += v
        else:
            sums[key] = part

    sums = {}
    for worker in _on_cores(work, len(tasks)):
        for key, part in worker.items():
            add(key, tuple(v[:-1] for v in part))  # the last slot is no bin: see ``_bin_block``
    for job in range(len(jobs)):
        add((job, False), sums[job, True])  # a one-chunk job's full counts are its chunk 0's own arrays
    return [(sums[job, False], sums[job, True]) for job in range(len(jobs))]


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
    bound).  Each sample is drawn once for both, from a counter-based substream
    derived from the seed: the pass is one job of the private sampler pool,
    which cuts each chunk into tasks of a few blocks and shares them out over
    the cores in the process's affinity mask, so reruns give bit-identical
    counts on any number of cores.  A pass of one task runs on the calling
    thread alone.  Raises a ``ParameterError`` naming ``bins`` or ``sectors``
    outside ``[1, 2^20]`` (the chunk size) before allocating, then where
    ``r1 + r2`` overflows or ``_normal_mass`` refuses the mass, then naming
    ``margin`` where a sample could fall beyond the last edge (a negative
    ``margin`` cuts the support on purpose); ``samples < 1`` is a
    ``ValueError``; all before any sample is drawn.  An
    exception in any task, or an interrupt while the caller waits, stops the
    other workers at their next task and reaches the caller after every
    thread has stopped.
    """
    hist = _empty_histogram(c1.radius, c2.radius, samples, bins, sectors, margin)
    [((counts, sector_counts), _)] = _sample_pool([(c1, c2, samples)], seed, hist.edges, sectors)
    return replace(hist, counts=counts), sector_counts


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


def _normal_square(x: float, param: str, factor: float = 1.0) -> float:
    """``factor * x**2``, or a ``ParameterError`` naming ``param`` where that is not a positive normal float."""
    square = factor * x**2 if abs(x) < 2.0**512 else math.inf  # so ``x**2`` cannot raise ``OverflowError``
    if not np.finfo(float).tiny <= square < math.inf:
        raise ParameterError(param, f"{param} {x} squares out of the normal float range")
    return square


def _ring_side(c: Circle, extent: float, spacing: float, epsilon: float) -> int:
    """The side of ``build_mollified_ring``'s grid, once the ring has passed its rules in their order."""
    n, half = _ring_grid(extent, spacing)
    if epsilon < 2.0 * spacing:
        raise ParameterError("epsilon",
                             f"epsilon {epsilon} under-resolved by spacing {spacing} (need >= 2x)")
    reach = max(abs(c.center[0]), abs(c.center[1])) + c.radius + 5.0 * epsilon
    if reach > half:
        raise ParameterError("extent",
                             f"grid extent {extent} too small: ring needs {2.0 * reach:g} with padding")
    _normal_square(epsilon, "epsilon", 2.0)
    return n


def _gauss_units(epsilon: float) -> tuple[float, float]:
    """``(u, 2 (epsilon u)^2)`` for the power of two ``u`` that puts ``epsilon u`` in [0.5, 1).

    A Gaussian exponent ``-x^2 / (2 epsilon^2)`` formed as ``square(x u) / -(2 (epsilon u)^2)`` has its
    bits wherever ``x^2`` is a normal float, and stays finite where ``x^2`` would overflow.
    """
    unit = math.ldexp(1.0, -math.frexp(epsilon)[1])
    return unit, 2.0 * (epsilon * unit) ** 2


def build_mollified_ring(c: Circle, extent: float, spacing: float, epsilon: float) -> Field2D:
    """Rasterize a ring as a unit-mass Gaussian slice across the circle.

    values(x) = exp(-(|x - b| - R)^2 / (2 eps^2)) / (sqrt(2 pi) eps), which
    integrates to 1 across the ring's normal direction, so the grid mass is
    2 pi R up to a curvature bias of relative size O(eps^2 / R^2) and the
    far Gaussian tails.  The side is odd, so ``fftconvolve`` of two rings
    stays centred on the grid.  The values are formed in row blocks of about
    2^16 entries on the usable cores, so the distance and the Gaussian leave
    no full-grid temporary.  Raises a ``ParameterError`` naming ``spacing``
    over the grid-side cap, ``epsilon`` if the mollifier is under-resolved,
    ``extent`` if the ring plus a 5-epsilon pad overflows the grid, then
    ``epsilon`` where ``2 epsilon^2`` is not a positive normal float.
    """
    n = _ring_side(c, extent, spacing, epsilon)
    coords = _grid_coords(n, spacing)
    values = np.empty((n, n))
    unit, width2 = _gauss_units(epsilon)

    def rows(s):
        dist = np.hypot(coords[None, :] - c.center[0], coords[s, None] - c.center[1])
        values[s] = np.exp(np.square((dist - c.radius) * unit) / -width2) / (math.sqrt(2.0 * math.pi) * epsilon)

    _on_row_blocks(rows, values.shape)
    return Field2D.from_grid(values, spacing)


def _padding(n: int) -> tuple[int, int]:
    """``h = (n - 1) // 2`` and the padded side of the transforms that convolve two ``n x n`` arrays.

    The padded side is the smallest 5-smooth one of at least ``2n - 1 - h``:
    wrap-around of the circular convolution then only lands on rows and
    columns outside the centred slice that ``_centred_inverse`` keeps.
    """
    h = (n - 1) // 2
    return h, _smooth_length(2 * n - 1 - h)


def _both_orders(operands, n: int, scale: float) -> tuple[np.ndarray, bool]:
    """``fftconvolve(first, second) * scale`` for the ``n x n`` arrays ``operands`` yields, each transformed before
    the next is made, and whether the swapped spectral product, written over the second spectrum block by block on
    the usable cores, has the bits of the product; the second spectrum is freed before the one inverse, which
    scales back by the power of two that ``_spectrum`` took off each operand."""
    h, side = _padding(n)
    (a, ea), (b, eb) = (_spectrum(values, side) for values in operands)
    same = np.empty(side, dtype=bool)

    def products(s):
        a[s], b[s] = _spectral_product(a[s], b[s], out=np.empty_like(a[s])), _spectral_product(b[s], a[s], out=b[s])
        same[s] = np.array_equal(a[s], b[s])

    _on_row_blocks(products, a.shape)
    del b
    return _centred_inverse(a, h, n, scale, ea + eb), bool(same.all())


def fftconvolve(in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    """The centred ``n x n`` part of the linear convolution of two ``n x n`` arrays.

    Output ``[i, j]`` is the full convolution at ``[h + i, h + j]`` with
    ``h = (n - 1) // 2``, so for odd ``n`` the result stays centred on the
    input grid.  It is ``grid_conv_check``'s route, whose padded side keeps
    wrap-around off the kept slice and whose spectral product gives the same
    bits for either operand order; the swap verdict is dropped.  Each operand
    is transformed scaled by a power of two, and the result scaled back, so
    no spectrum overflows where the result is in range.  The result
    is a new array.  Empty, unequal or non-square input is a ``ValueError``.
    """
    in1, in2 = np.asarray(in1, dtype=float), np.asarray(in2, dtype=float)
    if in1.ndim != 2 or in1.shape[0] != in1.shape[1] or in1.shape != in2.shape or not in1.size:
        raise ValueError(f"need two non-empty square arrays of one shape, got {in1.shape} and {in2.shape}")
    return _both_orders((in1, in2), in1.shape[0], 1.0)[0]


def smoothed_profile(rho, r1: float, r2: float, epsilon: float):
    """The closed-form density smoothed by the grid oracle's total mollifier.

    Convolving both rings with a normal-slice Gaussian of width eps smooths
    their convolution by the isotropic 2-D Gaussian of width
    sigma = eps * sqrt(2).  For radial f that smoothing is the 1-D integral

        (f * G_sigma)(rho) = int f(s) (s / sigma^2) I0(rho s / sigma^2)
                             exp(-(rho^2 + s^2) / (2 sigma^2)) ds

    evaluated here with the exponentially scaled I0 to avoid overflow, on the
    kernel's angular rule ``core._angular_rule``, whose weights sample
    ``eval_conv``, so the grid route is held to the closed form's values.
    The kernel's rows, one per radius, are filled in row blocks on the usable
    cores; the one product with the weights stays whole, so the result has
    the same bits on any number of cores.  Raises where the rule does at
    ``_PROFILE_ROUNDING_LIMIT``, naming the smaller radius, then names
    ``epsilon`` where ``2 epsilon^2`` is not a positive normal float.
    """
    s, w = _angular_rule(r1, r2, _SMOOTHING_NODES, _PROFILE_ROUNDING_LIMIT, None)
    sigma2 = _normal_square(epsilon, "epsilon", 2.0)
    # The rule's weights carry 2 pi s ds, which cancels the kernel's s / sigma^2 to 1 / (2 pi sigma^2).
    coef = w / (2.0 * math.pi * sigma2)
    rho = np.asarray(rho, dtype=float)
    scalar = rho.ndim == 0
    # The kernel depends on rho / epsilon and s / epsilon alone; in those units its products stay in range.
    unit, width2 = _gauss_units(epsilon)
    arr, s = np.atleast_1d(rho) * unit, s * unit
    kernel = np.empty((arr.shape[0], s.size))

    def rows(b):
        kernel[b] = _i0e(np.multiply.outer(arr[b], s) / width2) * np.exp(
            np.square(arr[b, None] - s[None, :]) / (-2.0 * width2)
        )

    _on_row_blocks(rows, kernel.shape)
    out = kernel @ coef
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GridConvReport:
    """Outcome of the grid-convolution route, with everything needed to audit it.

    The profile arrays are restricted to the trimmed interval
    ``[lo + 5 eps, hi - 5 eps]`` where both routes are finite and the
    mollifier tails are negligible.  ``conv_values``, its own ``n x n`` array,
    is the first ring convolved with the second, times spacing^2; convolution
    commutes, so ``swap_identical``, whether the spectral product in the swapped
    order has the same bits, should hold.
    """

    rho: np.ndarray
    grid_profile: np.ndarray
    oracle_profile: np.ndarray
    max_rel_error: float
    mass: float
    expected_mass: float
    trim: tuple[float, float]
    conv_values: np.ndarray
    swap_identical: bool

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

    Both rings are rasterized on the same centered grid and convolved by
    ``fftconvolve``'s route, times spacing^2 for the continuous normalization;
    the swap verdict compares its spectral product with the swapped order's.
    The rings' Gaussians, the transforms and the reference's kernel are each
    formed in units scaled by a power of two, which is exact, so no stage
    overflows where the report is in range, and scaling every length by a
    power of two leaves ``grid-check``'s verdict lines as they were.  Every
    input rule is checked before any thread starts.  Each ring is built
    and transformed before the next.  The first-by-second result is annularly
    averaged about b1 + b2 in bins of width 2*spacing, the distances and bin
    indices filled in row blocks on the usable cores and each bin summed
    whole, in one order.  The reference is ``smoothed_profile`` at the bins'
    mean radii.  Every array of the report has the same bits on any number of
    cores.  Raises a ``ParameterError`` naming ``spacing`` over the grid-side
    cap, then where spacing^2 is not a positive normal float, the larger radius
    where ``r1 + r2`` overflows, ``extent`` if the convolution support plus a
    5-epsilon pad would be clipped by the grid, then each ring's rule of
    ``build_mollified_ring`` (the first ring's first), ``epsilon`` if the
    trimmed interval is empty, the radius that ``_normal_mass`` names, and
    ``epsilon`` if no bin's mean radius falls in the trimmed interval, in
    that order.
    """
    n, half = _ring_grid(extent, spacing)
    scale = _normal_square(spacing, "spacing")
    lo, hi = support_interval(c1.radius, c2.radius)
    bx, by = c1.center[0] + c2.center[0], c1.center[1] + c2.center[1]
    if max(abs(bx), abs(by)) + hi + 5.0 * epsilon > half:
        raise ParameterError("extent", "grid extent clips the support of the convolution")
    for c in (c1, c2):
        _ring_side(c, extent, spacing, epsilon)
    t_lo, t_hi = lo + 5.0 * epsilon, hi - 5.0 * epsilon
    no_bin = ParameterError("epsilon", f"no bin falls in the trimmed range [{t_lo:g}, {t_hi:g}] of the support"
                                       f" ({lo:g}, {hi:g})")
    if t_lo > t_hi:
        raise no_bin
    _normal_mass(c1.radius, c2.radius)
    rings = (build_mollified_ring(c, extent, spacing, epsilon).values for c in (c1, c2))
    conv, swap_identical = _both_orders(rings, n, scale)

    coords = _grid_coords(n, spacing)
    width = 2.0 * spacing
    rho, idx = np.empty((n, n)), np.empty((n, n), dtype=np.int64)

    def distances(s):
        np.hypot(coords[None, :] - bx, coords[s, None] - by, out=rho[s])
        idx[s] = np.rint(rho[s] / width)

    _on_row_blocks(distances, rho.shape)
    idx = idx.ravel()
    nbins = int(idx.max()) + 1
    hits = np.maximum(np.bincount(idx, minlength=nbins), 1)
    mean_rho = np.bincount(idx, weights=rho.ravel(), minlength=nbins) / hits
    mean_val = np.bincount(idx, weights=conv.ravel(), minlength=nbins) / hits

    keep = (mean_rho >= t_lo) & (mean_rho <= t_hi)
    if not keep.any():
        raise no_bin
    ref = smoothed_profile(mean_rho[keep], c1.radius, c2.radius, epsilon)
    rel = np.abs(mean_val[keep] - ref) / np.abs(ref)
    return GridConvReport(
        rho=mean_rho[keep],
        grid_profile=mean_val[keep],
        oracle_profile=ref,
        max_rel_error=float(rel.max()),
        mass=float(conv.sum()) * scale,
        expected_mass=ConvKernel(c1.radius, c2.radius).mass,
        trim=(t_lo, t_hi),
        conv_values=conv,
        swap_identical=swap_identical,
    )
