import hashlib
import importlib.util
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import atan2_40, hypot_40, sin_cos_40, ulps_off

from ringconv import checks, core, operators, oracle
from ringconv.core import Circle, ParameterError, eval_conv, support_interval
from ringconv.oracle import (
    GridConvReport,
    RadialHistogram,
    build_mollified_ring,
    fftconvolve,
    grid_conv_check,
    mc_conv_histogram,
    mc_radiality_check,
    smoothed_profile,
)

C1 = Circle((0.0, 0.0), 2.0)
C2 = Circle((0.0, 0.0), 3.0)


class TestRadialHistogram:
    def test_density_by_hand(self):
        h = RadialHistogram(np.array([0.0, 1.0, 2.0]), np.array([3, 1]), 4, 10.0)
        # First bin: 3/4 of mass 10 spread over area pi; second over 3 pi.
        assert_allclose(h.density(), [7.5 / math.pi, 2.5 / (3.0 * math.pi)], rtol=1e-15)
        assert_allclose(h.centers, [0.5, 1.5], rtol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialHistogram(np.array([0.0, 1.0]), np.array([1, 2]), 3, 1.0)
        with pytest.raises(ValueError):
            RadialHistogram(np.array([0.0, 1.0, 0.5]), np.array([1, 2]), 3, 1.0)
        with pytest.raises(ValueError):
            RadialHistogram(np.array([0.0, 1.0, 2.0]), np.array([1, -2]), 3, 1.0)


class TestMonteCarlo:
    def test_no_samples_leak_outside_the_support(self):
        h, _ = mc_conv_histogram(C1, C2, 100_000, 260, seed=11, sectors=1)
        outside = (h.edges[1:] <= 1.0) | (h.edges[:-1] >= 5.0)
        assert h.counts[outside].sum() == 0
        assert h.counts.sum() == 100_000

    def test_density_matches_closed_form_at_the_collapse_radius(self):
        h, _ = mc_conv_histogram(C1, C2, 1_000_000, 260, seed=20260814, sectors=1)
        i = int(np.argmin(np.abs(h.centers - math.sqrt(13.0))))
        assert abs(h.density()[i] - 2.0) / 2.0 < 0.05

    def test_unit_circles_density_at_one(self):
        # 109 bins over [0, 2 + 20/99] put a bin center exactly at rho = 1,
        # where the density is 4/sqrt(3).
        h, _ = mc_conv_histogram(Circle((0, 0), 1.0), Circle((0, 0), 1.0), 1_000_000, 109, seed=20260814,
                                 sectors=1, margin=20 / 99)
        assert abs(h.centers[49] - 1.0) < 1e-15
        expected = 4.0 / math.sqrt(3.0)
        assert abs(h.density()[49] - expected) / expected < 0.04

    def test_same_seed_reruns_bitwise(self):
        a, _ = mc_conv_histogram(C1, C2, 300_000, 64, seed=99, sectors=1)
        b, _ = mc_conv_histogram(C1, C2, 300_000, 64, seed=99, sectors=1)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seed_changes_counts(self):
        a, _ = mc_conv_histogram(C1, C2, 300_000, 64, seed=99, sectors=1)
        b, _ = mc_conv_histogram(C1, C2, 300_000, 64, seed=100, sectors=1)
        assert not np.array_equal(a.counts, b.counts)

    def test_shifting_centers_never_changes_the_stream(self):
        shifted, shifted_sectors = mc_conv_histogram(Circle((3.0, -1.0), 2.0), Circle((-0.5, 2.0), 3.0),
                                                     200_000, 64, seed=7, sectors=16)
        concentric, concentric_sectors = mc_conv_histogram(C1, C2, 200_000, 64, seed=7, sectors=16)
        assert np.array_equal(shifted.counts, concentric.counts)
        assert np.array_equal(shifted_sectors, concentric_sectors)

    def test_partial_final_chunk_keeps_every_sample(self):
        h, sector_counts = mc_conv_histogram(C1, C2, 2_500_000, 32, seed=5, sectors=8)
        assert h.counts.sum() == sector_counts.sum() == 2_500_000

    def test_chunked_totals_are_schedule_independent(self):
        # 1.5 chunks and the same samples re-binned coarser must agree: the
        # counts come from fixed substreams, not from a running generator.
        # Halving a bin or sector width is exact, so every sample stays nested.
        fine, fine_sectors = mc_conv_histogram(C1, C2, 1_572_864, 64, seed=13, sectors=16)
        coarse, coarse_sectors = mc_conv_histogram(C1, C2, 1_572_864, 32, seed=13, sectors=8)
        assert np.array_equal(fine.counts.reshape(32, 2).sum(axis=1), coarse.counts)
        assert np.array_equal(fine_sectors.reshape(8, 2).sum(axis=1), coarse_sectors)

    def test_counts_are_pinned(self, monkeypatch):
        # sha256 of the little-endian int64 counts: any change of substream, arithmetic or order moves
        # them, and no core count may.
        for cores in (None, 1, 2, 3):
            if cores is not None:
                monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            h, sector_counts = mc_conv_histogram(C1, C2, 1_572_864, 64, seed=13, sectors=16)
            digest = [hashlib.sha256(c.astype("<i8").tobytes()).hexdigest() for c in (h.counts, sector_counts)]
            assert digest == ["6018950d892ea5cec688ec615dac071ff241ee068ecc0e12af6a82a1931298f5",
                              "3c849988c0e5451ed0681f15dcebda9cdc60c34065c2d9eb72d8ee0365f86280"], cores

    @pytest.mark.parametrize("samples, r1, r2", [
        *(pytest.param(n, 2.0, 3.0, id=str(n)) for n in (2**16 - 1, 2**16 + 1, 2**16 + 2, 2**20 + 2**16 + 1,
                                                          3 * 2**20 - 7)),
        (2**16 + 1, 1e-310, 10.0), (2**16 + 1, 10.0, 1e-310), (2**20 + 2**16 + 1, 1.35e154, 5e151)])
    def test_blocks_and_workers_match_whole_chunk_arithmetic(self, monkeypatch, samples, r1, r2):
        # Sample counts that end inside a block and inside a chunk, and leave
        # every remainder of the four draws per Philox output, against each
        # chunk's samples drawn and computed in one pass, chunk after chunk.
        # The last radii are the sampler's ends: a subnormal radius that the
        # filter scales, in either order, and radii near the mass's overflow.
        c1, c2, seed, bins, sectors = Circle((0.5, -1.0), r1), Circle((0.0, 0.25), r2), 29, 37, 7
        edges = np.linspace(0.0, support_interval(r1, r2)[1] + 0.2, bins + 1)
        width = 2.0 * math.pi / sectors
        counts, sector_counts = np.zeros(bins, np.int64), np.zeros(sectors, np.int64)
        for c, start in enumerate(range(0, samples, 2**20)):
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(c))
            n = min(2**20, samples - start)
            theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)
            dx = r1 * np.cos(theta1) + r2 * np.cos(theta2)
            dy = r1 * np.sin(theta1) + r2 * np.sin(theta2)
            counts += np.histogram(np.hypot(dx, dy), bins=edges)[0]
            angle = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
            sector_counts += np.bincount(np.minimum((angle / width).astype(np.int64), sectors - 1),
                                         minlength=sectors)
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            h, got_sectors = mc_conv_histogram(c1, c2, samples, bins, seed, sectors=sectors)
            assert np.array_equal(h.counts, counts) and np.array_equal(got_sectors, sector_counts)

    def test_workers_default_to_the_usable_cores(self, monkeypatch):
        # At most one worker per task: two whole chunks of four tasks each and a one-sample chunk make
        # nine tasks, which 8 cores run on the caller and 7 threads.
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(core, "_usable_cores", lambda: 8)
        monkeypatch.setattr(core.threading, "Thread", Recorded)
        h, _ = mc_conv_histogram(C1, C2, 2 * 2**20 + 1, 8, seed=3, sectors=1)
        assert len(started) == 7 and h.counts.sum() == 2 * 2**20 + 1

    def test_merge_adds_the_workers_counts_in_place(self, monkeypatch):
        # At 2^20 bins and sectors each worker holds 48 MiB of count vectors: three (job, chunk 0) keys of
        # two 8 MiB vectors.  Merging into new vectors took the peak to 115.7, 169.0 and 233.0 MiB on 1, 2
        # and 3 cores; merged in place it is 99.7, 127.2 and 178.2 MiB.
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                checks.mc_check(C1, C2, 3_000_000, 2**20, 7, 0.2, 2**20)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (56 + 48 * cores) * 2**20, (cores, peak / 2**20)

    def test_validation(self):
        # Counts above 2^20, the chunk size, are refused before anything is allocated.
        for samples, bins, sectors in ((0, 10, 1), (10, 0, 1), (10, 10, 0), (10, 2**20 + 1, 1), (10, 10, 2**20 + 1)):
            with pytest.raises(ValueError):
                mc_conv_histogram(C1, C2, samples, bins, seed=1, sectors=sectors)


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def no_blocks(*args):
    raise AssertionError("a block was sampled")


class TestSamplerThreads:
    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cores", lambda: 3)
        before = threading.active_count()
        mc_conv_histogram(C1, C2, 3 * 2**20, 8, seed=1, sectors=4)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 2])
    def test_an_error_in_one_chunk_reaches_the_caller(self, monkeypatch, cores):
        # Task 5, blocks 4 to 7 of chunk 1, runs on the second thread when there are 2 workers.
        task_counts = oracle._task_counts

        def failing(job, chunk, block, *args):
            if (chunk, block) == (1, 4):
                raise RuntimeError("chunk 1 failed")
            return task_counts(job, chunk, block, *args)

        monkeypatch.setattr(oracle, "_task_counts", failing)
        monkeypatch.setattr(core, "_usable_cores", lambda: cores)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            mc_conv_histogram(C1, C2, 4 * 2**20, 8, seed=1, sectors=4)
        assert threading.active_count() == before

    def test_an_interrupted_wait_stops_the_workers(self, monkeypatch):
        # The caller runs its tasks at once and is interrupted while joining;
        # the other worker, at 50 ms a task, must stop at its next task
        # rather than run all ten of its tasks.
        caller, worker_tasks = threading.get_ident(), []

        def slow_off_the_caller(job, chunk, block, *args):
            if threading.get_ident() != caller:
                worker_tasks.append((chunk, block))
                time.sleep(0.05)

        class InterruptedJoin(threading.Thread):
            interrupted = False

            def join(self, timeout=None):
                if not InterruptedJoin.interrupted:
                    InterruptedJoin.interrupted = True
                    raise KeyboardInterrupt
                super().join(timeout)

        monkeypatch.setattr(oracle, "_task_counts", slow_off_the_caller)
        monkeypatch.setattr(core, "_usable_cores", lambda: 2)
        monkeypatch.setattr(core.threading, "Thread", InterruptedJoin)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            mc_conv_histogram(C1, C2, 5 * 2**20, 8, seed=1, sectors=4)
        assert threading.active_count() == before
        assert len(worker_tasks) < 10

    def test_each_task_runs_once_on_its_worker(self, monkeypatch):
        # More workers than cores, switching threads as often as the interpreter allows.
        monkeypatch.setattr(core, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = core._on_cores(lambda tasks: [(t, threading.get_ident()) for t in tasks], 50)
        finally:
            sys.setswitchinterval(interval)
        assert [[t for t, _ in r] for r in results] == [list(range(k, 50, 8)) for k in range(8)]
        # A finished thread's ident may be reused, so only the caller's is distinct.
        callers = [{ident == threading.get_ident() for _, ident in r} for r in results]
        assert callers == [{True}] + [{False}] * 7

    @pytest.mark.parametrize("bins, sectors, param", [
        (0, 4, "bins"), (2**20 + 1, 4, "bins"), (8, 0, "sectors"), (8, 2**20 + 1, "sectors"),
    ])
    def test_input_errors_come_before_any_thread(self, monkeypatch, bins, sectors, param):
        def no_threads(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(core, "_usable_cores", lambda: 2)
        monkeypatch.setattr(core.threading, "Thread", no_threads)
        with pytest.raises(ParameterError) as exc:
            mc_conv_histogram(C1, C2, 3 * 2**20, bins, seed=1, sectors=sectors)
        assert exc.value.param == param

    @pytest.mark.parametrize("r1, r2, blamed", [(1e300, 1e300, "r1"), (1e-300, 1e-12, "r1"), (1e-12, 1e-300, "r2")])
    def test_mass_out_of_the_normal_range_is_refused_before_sampling(self, monkeypatch, r1, r2, blamed):
        # At (1e300, 1e300) the mass is inf, and the density estimate would be inf / inf.
        monkeypatch.setattr(oracle, "_task_counts", no_blocks)
        with pytest.raises(ParameterError, match="normal float range") as exc:
            mc_conv_histogram(Circle((0.0, 0.0), r1), Circle((0.0, 0.0), r2), 1000, 8, seed=1, sectors=4)
        assert exc.value.param == blamed

    @pytest.mark.parametrize("r1, r2, samples", [(1e-4, 1e-4, 10**7), (1e-300, 3.0, 2000)])
    def test_mc_check_refuses_an_empty_trimmed_support_before_sampling(self, monkeypatch, r1, r2, samples):
        # No bin centre falls strictly inside the trimmed support: at 1e-4 the bins are too wide, at
        # (1e-300, 3) the support is the single float 3.
        monkeypatch.setattr(oracle, "_task_counts", no_blocks)
        with pytest.raises(ParameterError, match="no bin centre falls strictly inside") as exc:
            checks.mc_check(Circle((0.0, 0.0), r1), Circle((0.0, 0.0), r2), samples, 260, 1, 0.2, 360)
        assert exc.value.param == ("margin" if r1 == r2 else "r1")

    @pytest.mark.parametrize("r1, r2, bins, sectors, param", [
        (1e-4, 1e-4, 2**20 + 1, 360, "bins"), (1e-4, 1e-4, 260, 0, "sectors"),
        (1e-300, 1e-12, 260, 360, "r1"), (1e300, 1e300, 260, 360, "r1"),
    ])
    def test_mc_check_refuses_in_order_before_sampling(self, monkeypatch, r1, r2, bins, sectors, param):
        # Bins and sectors come first, then the mass, and all before the margin rule, which every pair but
        # (1e300, 1e300) would also break.
        monkeypatch.setattr(oracle, "_task_counts", no_blocks)
        with pytest.raises(ParameterError) as exc:
            checks.mc_check(Circle((0.0, 0.0), r1), Circle((0.0, 0.0), r2), 1000, bins, 1, 0.2, sectors)
        assert exc.value.param == param and "no bin centre" not in str(exc.value)

    def test_workers_call_no_public_function(self, monkeypatch):
        # A traced function called on a worker thread would record a span with
        # no parent; the benchmark's tracer must see one root span per call: the
        # sampler pass, the grid route (its rings, transforms and profile
        # kernel rows included), the bare convolution, the closed-form
        # surface, whose row blocks of a 601^2 grid run on the workers, and
        # the ring operator's FFT route on a 401^2 plane wave.
        monkeypatch.setattr(core, "_usable_cores", lambda: 3)
        coords = np.linspace(-6.0, 6.0, 601)
        x = np.linspace(-4.0, 4.0, 401)
        wave = operators.Field2D.from_grid(np.cos(2.1 * x[None, :] - 1.3 * x[:, None] + 0.4), 0.02)
        calls = [
            ("oracle.mc_conv_histogram", lambda: oracle.mc_conv_histogram(C1, C2, 3 * 2**20, 8, seed=1, sectors=4)),
            ("oracle.grid_conv_check", lambda: oracle.grid_conv_check(C1, C2, 12.0, 0.04, 0.1)),
            ("oracle.fftconvolve", lambda: oracle.fftconvolve(np.ones((301, 301)), np.ones((301, 301)))),
            ("core.eval_conv_2d", lambda: core.eval_conv_2d(coords[None, :], coords[:, None], 2.0, 3.0)),
            ("operators.circle_average_field",
             lambda: operators.circle_average_field(wave, Circle((0.0, 0.0), 0.99), n=256)),
        ]
        for name, call in calls:
            tracer = load_tracer()
            tracer.install()
            try:
                call()
            finally:
                tracer.uninstall()
            spans, _ = tracer.take()
            assert [span[1] for span in spans if span[4] is None] == [name]

    def test_mc_check_workers_call_no_public_function(self, monkeypatch):
        # mc_check runs its sampler pool, which is private, so every traced call it makes is on the
        # calling thread and none is a sampler span.
        monkeypatch.setattr(core, "_usable_cores", lambda: 3)
        tracer = load_tracer()
        threads = []

        class ThreadSpans(list):
            def append(self, span):
                threads.append(threading.get_ident())
                super().append(span)

        tracer.spans = ThreadSpans()
        tracer.install()
        try:
            checks.mc_check(Circle((0.5, 0.0), 2.0), Circle((0.0, -1.0), 3.0), 3 * 2**20, 8, 1, 0.2, 4)
        finally:
            tracer.uninstall()
        spans, _ = tracer.take()
        assert spans and set(threads) == {threading.get_ident()}
        assert not any(name.startswith("oracle.") for _, name, _, _, _, _, _ in spans)

    def test_scaled_random_has_the_bits_of_uniform(self):
        # The pool draws each angle as random(out=) times 2 pi, which must be uniform(0, 2 pi) bit for bit.
        expected = oracle._substream(20260814, 3, 2**20 + 12345).uniform(0.0, 2.0 * math.pi, 3 * 2**16 + 5)
        got = np.empty(expected.size)
        oracle._substream(20260814, 3, 2**20 + 12345).random(out=got)
        assert np.array_equal((got * (2.0 * math.pi)).view(np.int64), expected.view(np.int64))


def filtered_block(r1, r2, theta1, theta2, edges, counts, sector_counts):
    """``_filtered_counts`` on one block whose rows hold the given angles, called like ``_block_counts``."""
    n = theta1.size
    arrays = np.empty((5, n)), np.empty(n, dtype=bool), np.empty(n, dtype=np.int64)
    arrays[0][0], arrays[0][1] = theta1, theta2
    oracle._filtered_counts(r1, r2, arrays, edges, counts, sector_counts)


def kernel_counts(kernel, r1, r2, theta1, theta2, edges, sectors):
    """Radius and sector counts of ``kernel`` on the given angles, each with its last slot."""
    counts, sector_counts = np.zeros(edges.size, np.int64), np.zeros(sectors + 1, np.int64)
    kernel(r1, r2, theta1, theta2, edges, counts, sector_counts)
    return counts, sector_counts


def ulps32_off(value, reference) -> float:
    """The most float32 ulps by which ``value`` lies from the float64 ``reference``, the unit being the float32
    spacing just below each ``|reference|``, the finer one at a power of two."""
    below = np.nextafter(np.abs(reference), 0.0)
    exponent = np.where(below > 0.0, np.frexp(below)[1], -125)
    return float(np.max(np.abs(value.astype(float) - reference) / np.ldexp(1.0, np.maximum(exponent - 24, -149))))


def _wrapped(theta):
    return np.mod(theta, 2.0 * math.pi)


def _with_neighbours(x, ulps=2):
    """``x`` and its ``ulps`` float neighbours on each side."""
    out = [x]
    for direction in (-np.inf, np.inf):
        step = x
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def edge_angles(r1, r2, edges, sectors, seed):
    """Angle pairs in [0, 2 pi) whose points lie within a few ulps of a bin or sector edge, and pairs where
    d = theta2 - theta1 lies within 1e-9 of 0 or +-pi, or beyond pi, and the radius may vanish."""
    rng = np.random.default_rng(seed)
    lo, hi = abs(r1 - r2), r1 + r2
    # Radii on every edge inside the support, the last one included where it lies there.
    rho = edges[(edges > lo) & (edges < hi)]
    d = np.arccos(np.clip((rho - lo) / (2.0 * r1 * r2) * (rho + lo) - 1.0, -1.0, 1.0))
    d *= rng.choice([-1.0, 1.0], d.size)
    t1 = rng.uniform(0.0, 2.0 * math.pi, d.size)
    pairs = [(np.tile(t1, 5), _wrapped(_with_neighbours(t1 + d)))]
    # Angles on every sector edge, 0 and 2 pi included, at random radii, and again with d within 1e-2 of
    # +-pi, which puts the point near the support's inner end, where its angle is least certain.
    alpha = np.tile(np.arange(sectors + 1) * (2.0 * math.pi / sectors), 2)
    d = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, alpha.size)
    d[sectors + 1:] = rng.choice([-math.pi, math.pi], sectors + 1) + rng.uniform(-1e-2, 1e-2, sectors + 1)
    t1 = _wrapped(alpha - np.arctan2(r2 * np.sin(d), r1 + r2 * np.cos(d)))
    pairs.append((_wrapped(_with_neighbours(t1)), np.tile(_wrapped(t1 + d), 5)))
    # d within 1e-9 of 0 and +-pi (equal angles put the point on the support's outer end), and |d| > pi.
    t1 = rng.uniform(0.0, 2.0 * math.pi, 3000)
    for shift in (0.0, math.pi, -math.pi):
        pairs.append((t1, _wrapped(t1 + shift + rng.uniform(-1e-9, 1e-9, t1.size) * (rng.random(t1.size) < 0.9))))
    small, large = rng.uniform(0.0, 1.0, 1000), rng.uniform(5.0, 2.0 * math.pi, 1000)
    pairs += [(small, large), (large, small)]
    return tuple(np.concatenate(rows) for rows in zip(*pairs))


# (r1, r2, edges, sectors, the filter's trig dtype): the defaults; equal radii, where the radius reaches 0; the
# support's outer end on the closed last edge; a last edge inside the support; radii near 1e150, which the
# filter scales; and at (2, 3), 22,494 bins, the most with float32 trig, and 22,495, the first past them.
KERNEL_CASES = [
    (2.0, 3.0, np.linspace(0.0, 5.2, 261), 360, np.float32),
    (1.0, 1.0, np.linspace(0.0, 2.2, 53), 64, np.float32),
    (2.0, 3.0, np.linspace(0.0, 5.0, 51), 7, np.float32),
    (2.0, 3.0, np.linspace(0.0, 4.5, 91), 12, np.float32),
    (0.5e150, 2.5e150, np.linspace(0.0, 3.2e150, 33), 5, np.float32),
    (2.0, 3.0, np.linspace(0.0, 5.2, 22495), 360, np.float32),
    (2.0, 3.0, np.linspace(0.0, 5.2, 22496), 360, np.float64),
]


def filter_routes(monkeypatch):
    """The trig dtypes ``_filter_bound`` is asked for, in order: the last one is the route the kernel takes."""
    routes, bound = [], oracle._filter_bound
    monkeypatch.setattr(oracle, "_filter_bound", lambda *args: routes.append(args[-1]) or bound(*args))
    return routes


def kernel_disagreements(case, seed=0):
    """``(slots that differ, samples flagged)`` of the filtered kernel against ``_block_counts`` on ``edge_angles``."""
    r1, r2, edges, sectors, _ = case
    theta1, theta2 = edge_angles(r1, r2, edges, sectors, seed)
    got = kernel_counts(filtered_block, r1, r2, theta1, theta2, edges, sectors)
    want = kernel_counts(oracle._block_counts, r1, r2, theta1, theta2, edges, sectors)
    differ = sum(int(np.count_nonzero(g[:-1] != w[:-1])) for g, w in zip(got, want))
    return differ, int(got[0][-1] - want[0][-1])


class TestFilteredKernel:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_keeps_every_count_on_the_edges(self, case, monkeypatch):
        routes = filter_routes(monkeypatch)
        differ, flagged = kernel_disagreements(case)
        assert differ == 0 and routes[-1] == case[4]
        # The pairs reach the filter's margins: many are sent back to the reference.
        assert flagged > 1000

    @pytest.mark.parametrize("r1, r2", [(2.0, 3.0), (1.0, 1.0), (1e-3, 1.0)])
    def test_keeps_every_count_at_2_to_the_20_bins_and_sectors(self, r1, r2):
        # The filter's margin grows with the bin and sector counts; the reruns stay under 1%.
        rng = np.random.default_rng(5)
        theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, (2, 2**16))
        edges, sectors = np.linspace(0.0, r1 + r2 + 0.2, 2**20 + 1), 2**20
        got = kernel_counts(filtered_block, r1, r2, theta1, theta2, edges, sectors)
        want = kernel_counts(oracle._block_counts, r1, r2, theta1, theta2, edges, sectors)
        assert all(np.array_equal(g[:-1], w[:-1]) for g, w in zip(got, want))
        assert got[0][-1] - want[0][-1] < 0.01 * theta1.size

    @pytest.mark.parametrize("r1, r2, filtered", [(3e-310, 5e-310, True), (1e-322, 2e-322, False)])
    def test_keeps_every_count_at_subnormal_radii(self, monkeypatch, r1, r2, filtered):
        # A subnormal bin width is scaled with the radii, so the filter places samples at 3e-310 with float32
        # trig.  Near 1e-322 the reference's underflows widen even the float64 margins past half a bin:
        # every sample is rerun there.
        edges, sectors = np.linspace(0.0, 1.5 * (r1 + r2), 11), 3
        trig = np.float32 if filtered else np.float64
        radius, sector, _, _ = oracle._filter_bound(r1, r2, float(edges[1]), 10, sectors, trig)
        assert (max(radius, sector) < 0.5) == filtered
        routes = filter_routes(monkeypatch)
        theta1, theta2 = np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, (2, 5000))
        got = kernel_counts(filtered_block, r1, r2, theta1, theta2, edges, sectors)
        assert routes[-1] == trig
        want = kernel_counts(oracle._block_counts, r1, r2, theta1, theta2, edges, sectors)
        assert all(np.array_equal(g[:-1], w[:-1]) for g, w in zip(got, want))
        assert (got[0][-1] - want[0][-1] == theta1.size) != filtered

    def test_reference_bins_like_histogram(self):
        # Radii on every edge and its neighbours, the closed last edge, and beyond it: the bins np.histogram
        # gives, and the last slot for what it drops.
        edges = np.linspace(0.0, 5.2, 261)
        r = np.concatenate([_with_neighbours(edges, 3), np.random.default_rng(4).uniform(0.0, 5.5, 5000), [5.2]])
        r = np.abs(r)  # the kernel bins hypot(r, 0)
        counts, sector_counts = np.zeros(edges.size, np.int64), np.zeros(2, np.int64)
        oracle._bin_block(r, np.zeros(r.size), edges, counts, sector_counts)
        assert np.array_equal(counts[:-1], np.histogram(r, bins=edges)[0])
        assert counts[-1] == np.count_nonzero(r > 5.2) and sector_counts.tolist() == [r.size, 0]


class TestPlatformUlps:
    def test_trig_and_hypot_within_the_assumed_ulps(self):
        # The filter's margin assumes np.cos, np.sin, np.hypot and np.arctan2 within oracle._ULPS ulps, on
        # angles drawn as the sampler draws them, their differences, and the reference kernel's points.
        rng = np.random.Generator(np.random.Philox(key=20261020))
        theta1, theta2 = rng.random((2, 10_000)) * (2.0 * math.pi)
        d = theta2 - theta1
        dx, dy = 2.0 * np.cos(theta1) + 3.0 * np.cos(theta2), 2.0 * np.sin(theta1) + 3.0 * np.sin(theta2)
        worst = {"cos": 0.0, "sin": 0.0, "hypot": 0.0, "arctan2": 0.0}
        for t, c, s, dd, cd, x, y, h, a in zip(theta1, np.cos(theta1), np.sin(theta1), d, np.cos(d), dx, dy,
                                               np.hypot(dx, dy), np.arctan2(dy, dx)):
            ref_s, ref_c = sin_cos_40(float(t))
            for name, value, ref in (("cos", c, ref_c), ("sin", s, ref_s), ("cos", cd, sin_cos_40(float(dd))[1]),
                                     ("hypot", h, hypot_40(x, y)), ("arctan2", a, atan2_40(y, x))):
                worst[name] = max(worst[name], ulps_off(float(value), ref))
        assert max(worst.values()) <= oracle._ULPS, worst

    def test_float32_trig_within_the_assumed_ulps(self):
        # The float32 route assumes np.cos, np.sin and np.arctan2 in float32 within oracle._ULPS32 ulps, here
        # against float64: on the sampler's differences cast as the kernel casts them, points near 0, +-pi/2,
        # +-pi and +-2 pi, and the kernel's (x, y) at (2, 3) and (1, 1), the axes and tiny pairs.
        rng = np.random.Generator(np.random.Philox(key=20261020))
        theta1, theta2 = rng.random((2, 100_000)) * (2.0 * math.pi)
        quarters = (np.arange(-4, 5) * (math.pi / 2)).astype(np.float32)
        d = np.concatenate([(theta2 - theta1).astype(np.float32), _with_neighbours(quarters, 50),
                            np.float32([1e-30, -1e-30, 1e-40, -1e-45])])
        worst = {name: ulps32_off(fn(d), fn(d.astype(float))) for name, fn in (("cos", np.cos), ("sin", np.sin))}
        c, s = np.cos(d).astype(float), np.sin(d).astype(float)
        axes = [1.0, -1.0, 0.0, -0.0]
        tiny = np.float32([1e-40, -3e-39, 1.2e-38, 5e-45, 2.0])
        x = np.concatenate([0.5 + 0.75 * c, 0.5 + 0.5 * c, axes, [0.0, 0.0], np.repeat(tiny, tiny.size)])
        y = np.concatenate([0.75 * s, 0.5 * s, [0.0, 0.0, 1.0, -1.0], axes[:2], np.tile(tiny, tiny.size)])
        x32, y32 = x.astype(np.float32), y.astype(np.float32)
        worst["arctan2"] = ulps32_off(np.arctan2(y32, x32), np.arctan2(y32.astype(float), x32.astype(float)))
        assert max(worst.values()) <= oracle._ULPS32, worst


class TestRadiality:
    def test_single_sector_swallows_everything(self):
        _, counts = mc_conv_histogram(C1, C2, 10_000, 1, seed=3, sectors=1)
        assert counts.tolist() == mc_radiality_check(C1, C2, 10_000, 1, seed=3).tolist() == [10_000]

    def test_sector_counts_are_flat_to_poisson_noise(self):
        sectors, samples = 16, 1_000_000
        _, counts = mc_conv_histogram(C1, C2, samples, 1, seed=20260814, sectors=sectors)
        assert counts.sum() == samples
        expected = samples / sectors
        sigma = math.sqrt(expected * (1.0 - 1.0 / sectors))
        assert np.max(np.abs(counts - expected)) / sigma < 4.0


class TestMollifiedRing:
    def build(self):
        return build_mollified_ring(C1, extent=5.0, spacing=0.01, epsilon=0.05)

    def test_mass_is_the_circumference(self):
        g = self.build()
        assert abs(g.values.sum() * g.spacing**2 - 4.0 * math.pi) / (4.0 * math.pi) < 1e-3

    def test_peak_on_the_ring(self):
        g = self.build()
        coords = g.grid_coords()
        i = int(np.argmin(np.abs(coords)))          # y = 0 row
        j = int(np.argmin(np.abs(coords - 2.0)))    # x = 2 column
        peak = 1.0 / (math.sqrt(2.0 * math.pi) * 0.05)
        assert abs(g.values[i, j] - peak) / peak < 1e-9

    def test_tail_beyond_five_epsilon(self):
        g = self.build()
        coords = g.grid_coords()
        dist = np.hypot(coords[None, :], coords[:, None])
        far = np.abs(dist - 2.0) >= 5.0 * 0.05
        peak = 1.0 / (math.sqrt(2.0 * math.pi) * 0.05)
        assert g.values[far].max() < 4e-6 * peak

    def test_under_resolved_mollifier_rejected(self):
        with pytest.raises(ValueError):
            build_mollified_ring(C1, extent=5.0, spacing=0.05, epsilon=0.05)

    def test_grid_must_contain_ring_and_padding(self):
        with pytest.raises(ValueError):
            build_mollified_ring(C1, extent=4.2, spacing=0.01, epsilon=0.05)
        with pytest.raises(ValueError):
            build_mollified_ring(Circle((1.0, 0.0), 2.0), extent=6.4, spacing=0.01, epsilon=0.05)
        off = build_mollified_ring(Circle((1.0, 0.0), 2.0), extent=6.6, spacing=0.01, epsilon=0.05)
        assert abs(off.values.sum() * off.spacing**2 - 4.0 * math.pi) / (4.0 * math.pi) < 1e-3

    def test_pad_is_checked_against_the_built_grid(self):
        # Extent 12.004 at spacing 0.01 builds 1201 points, a half-width of 6.0
        # rather than 6.002, so a reach of 6.001 overflows the grid.
        with pytest.raises(ParameterError) as exc:
            build_mollified_ring(Circle((0, 0), 5.751), 12.004, 0.01, 0.05)
        assert exc.value.param == "extent"
        with pytest.raises(ParameterError) as exc:
            grid_conv_check(Circle((0, 0), 2.751), C2, 12.004, 0.01, 0.05)
        assert exc.value.param == "extent"

    def test_side_is_odd_and_over_the_cap_names_spacing(self):
        # 499 cells round up to 500, so the centred side has 501 points.
        assert build_mollified_ring(C1, extent=4.99, spacing=0.01, epsilon=0.05).values.shape == (501, 501)
        # Rejected before allocation: 12001 points per side is over 1 GB per grid.
        for build in (build_mollified_ring, lambda c, *a: grid_conv_check(c, C2, *a)):
            with pytest.raises(ParameterError) as exc:
                build(C1, 12.0, 0.001, 0.05)
            assert exc.value.param == "spacing"


class TestFFTConvolve:
    @pytest.mark.parametrize("n", [1, 2, 7, 10])
    def test_centred_slice_of_the_direct_convolution(self, n):
        a, b = np.random.default_rng(n).normal(size=(2, n, n))
        full = np.zeros((2 * n - 1, 2 * n - 1))
        for i in range(n):
            for j in range(n):
                full[i:i + n, j:j + n] += a[i, j] * b
        h = (n - 1) // 2
        assert_allclose(fftconvolve(a, b), full[h:h + n, h:h + n], rtol=0, atol=1e-12)
        assert np.array_equal(fftconvolve(a, b), fftconvolve(b, a))

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 61, 301])
    def test_spectrum_has_the_bits_of_rfft2(self, monkeypatch, n):
        # Row transforms, then column transforms, in blocks on any number of cores.
        values = np.random.default_rng(n).normal(size=(n, n))
        side = oracle._padding(n)[1]
        expected = np.fft.rfft2(values, (side, side))
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            assert np.array_equal(oracle._spectrum(values, side).view(np.int64), expected.view(np.int64)), cores

    def test_pads_to_a_5_smooth_length(self):
        # 1201 is prime; 1215 = 3^5 * 5.
        assert [oracle._smooth_length(m) for m in (1, 7, 1201, 1875)] == [1, 8, 1215, 1875]

    def test_rejects_unequal_or_non_square_shapes(self):
        for a, b in ((np.ones((3, 3)), np.ones((5, 5))), (np.ones((3, 4)), np.ones((3, 4)))):
            with pytest.raises(ValueError):
                fftconvolve(a, b)

    @pytest.mark.parametrize("n", [9, 12, 61])
    def test_bits_of_the_irfft2_of_the_real_arithmetic_product(self, n):
        a, b = np.random.default_rng(n).normal(size=(2, n, n))
        h = (n - 1) // 2
        size = (oracle._smooth_length(2 * n - 1 - h),) * 2
        fa, fb = np.fft.rfft2(a, size), np.fft.rfft2(b, size)
        product = np.empty_like(fa)
        product.real = fa.real * fb.real - fa.imag * fb.imag
        product.imag = fa.real * fb.imag + fa.imag * fb.real
        expected = np.fft.irfft2(product, size)[h:h + n, h:h + n]
        assert np.array_equal(fftconvolve(a, b), expected)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_result_owns_its_memory(self, cores, monkeypatch):
        monkeypatch.setattr(core, "_usable_cores", lambda: cores)
        out = fftconvolve(np.ones((5, 5)), np.ones((5, 5)))
        assert out.shape == (5, 5) and out.base is None and out.flags.owndata


class TestSmoothedProfile:
    def test_tends_to_the_closed_form_off_the_endpoints(self):
        rho = np.array([2.0, 2.5, 3.0, 3.5, 4.0])
        sm = smoothed_profile(rho, 2.0, 3.0, 0.01)
        ev = eval_conv(rho, 2.0, 3.0)
        assert np.max(np.abs(sm - ev) / ev) < 1e-3

    def test_scalar_in_scalar_out(self):
        out = smoothed_profile(3.0, 2.0, 3.0, 0.05)
        assert isinstance(out, float)
        assert abs(out - eval_conv(3.0, 2.0, 3.0)) < 0.01

    @pytest.mark.parametrize("r1, r2, blamed", [(1e-7, 3.0, "r1"), (3.0, 1e-7, "r2")])
    def test_ratio_past_the_profile_limit_names_the_smaller_radius(self, r1, r2, blamed):
        # The node count is fixed, so the rule blames a radius even though one node would meet the limit.
        with pytest.raises(ParameterError) as exc:
            smoothed_profile(3.0, r1, r2, 1e-9)
        assert exc.value.param == blamed

    def test_blocks_and_cores_keep_the_bits_of_one_kernel(self, monkeypatch):
        # 101 radii fill 2048-node kernel rows in blocks of 32 rows, the last one short.
        rho = np.linspace(1.2, 4.8, 101)
        s, w = oracle._angular_rule(2.0, 3.0, oracle._SMOOTHING_NODES, oracle._PROFILE_ROUNDING_LIMIT, None)
        sigma2 = 2.0 * 0.05**2
        kernel = oracle.i0e(np.multiply.outer(rho, s) / sigma2) * np.exp(
            -((rho[:, None] - s[None, :]) ** 2) / (2.0 * sigma2))
        whole = kernel @ (w / (2.0 * math.pi * sigma2))
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            assert np.array_equal(smoothed_profile(rho, 2.0, 3.0, 0.05), whole)
            assert smoothed_profile(rho[7], 2.0, 3.0, 0.05) == smoothed_profile(rho[7:8], 2.0, 3.0, 0.05)[0]

    def test_mass_preserved_under_smoothing(self):
        # Integrate the smoothed profile over the plane; mollification must
        # not create or destroy mass.
        rho = np.linspace(0.0, 6.5, 2601)
        vals = smoothed_profile(rho, 2.0, 3.0, 0.05)
        mass = np.trapezoid(vals * 2.0 * math.pi * rho, rho)
        assert abs(mass - 24.0 * math.pi**2) / (24.0 * math.pi**2) < 1e-4


class TestGridConvCheck:
    def test_unit_circles_profile_and_mass(self):
        rep = grid_conv_check(Circle((0, 0), 1.0), Circle((0, 0), 1.0), extent=5.2, spacing=0.01, epsilon=0.05)
        assert rep.max_rel_error < 0.02
        assert rep.mass_rel_error < 0.005
        assert rep.trim == (0.25, 1.75)
        assert np.all((rep.rho >= 0.25) & (rep.rho <= 1.75))

    def test_refinement_shrinks_the_error(self):
        coarse = grid_conv_check(C1, C2, extent=12.0, spacing=0.02, epsilon=0.1)
        fine = grid_conv_check(C1, C2, extent=12.0, spacing=0.01, epsilon=0.05)
        assert fine.max_rel_error < coarse.max_rel_error
        assert fine.max_rel_error < 0.05

    def test_swapping_identical_rings_is_bitwise(self):
        a = grid_conv_check(Circle((0, 0), 1.0), Circle((0, 0), 1.0), extent=5.2, spacing=0.02, epsilon=0.05)
        b = grid_conv_check(Circle((0, 0), 1.0), Circle((0, 0), 1.0), extent=5.2, spacing=0.02, epsilon=0.05)
        assert np.array_equal(a.conv_values, b.conv_values)

    def test_swapping_distinct_rings_agrees_to_rounding(self):
        # The weaker, tolerance-level statement on the reference pair; the
        # bitwise test below pins the exact symmetry of this convolution.
        a = grid_conv_check(C1, C2, extent=12.0, spacing=0.02, epsilon=0.1)
        b = grid_conv_check(C2, C1, extent=12.0, spacing=0.02, epsilon=0.1)
        assert np.max(np.abs(a.conv_values - b.conv_values)) < 1e-9

    def test_swapping_distinct_rings_is_bitwise(self):
        c1, c2 = Circle((0.3, -0.2), 2.0), Circle((-0.1, 0.25), 3.0)
        a = grid_conv_check(c1, c2, extent=12.0, spacing=0.02, epsilon=0.1)
        b = grid_conv_check(c2, c1, extent=12.0, spacing=0.02, epsilon=0.1)
        assert np.array_equal(a.conv_values, b.conv_values)

    def test_swap_verdict_fails_on_an_order_dependent_convolution(self, monkeypatch):
        # This spectral product leaks a trace of its first operand, so the
        # convolution depends on operand order: the swap verdict must catch it.
        exact = oracle._spectral_product
        monkeypatch.setattr(oracle, "_spectral_product", lambda a, b, out: exact(a, b, out) + 1e-9 * a)
        *_, swap = checks.grid_check(Circle((0, 0), 1.0), Circle((0, 0), 1.5), 6.0, 0.04, 0.08)
        assert swap.label == "operand swap (bitwise)"
        assert swap.measured == 1.0 and not swap.ok

    @pytest.mark.parametrize("extent, spacing", [(12.0, 0.013), (11.99, 0.01)])
    def test_convolution_is_centred_on_the_summed_centres(self, extent, spacing):
        # Extents that are no whole number of cells, and odd cell counts, once
        # shifted the convolution off the binning grid by up to half a cell.
        c1, c2 = Circle((0.3, -0.2), 2.0), Circle((-0.1, 0.25), 3.0)
        rep = grid_conv_check(c1, c2, extent, spacing, 0.05)
        coords = build_mollified_ring(c1, extent, spacing, 0.05).grid_coords()
        w = rep.conv_values
        centroid = (np.sum(w.sum(axis=0) * coords) / w.sum(), np.sum(w.sum(axis=1) * coords) / w.sum())
        assert_allclose(centroid, (0.2, 0.05), rtol=0, atol=1e-9)

    def test_support_clipping_rejected(self, monkeypatch):
        # The second pair's summed centre fits, but each ring leaves the grid.
        for c1, c2 in ((C1, C2), (Circle((5.5, 0.0), 1.0), Circle((-5.5, 0.0), 1.0))):
            with pytest.raises(ParameterError) as exc:
                grid_conv_check(c1, c2, extent=10.0, spacing=0.02, epsilon=0.05)
            assert isinstance(exc.value, ValueError) and exc.value.param == "extent"

        # Both rings leave the grid, each by its own amount.  The first ring's
        # error is raised before any thread starts, on any number of cores.
        def no_threads(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(core.threading, "Thread", no_threads)
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            with pytest.raises(ParameterError) as exc:
                grid_conv_check(Circle((5.5, 0.0), 1.0), Circle((-5.0, 0.0), 1.2), 10.0, 0.02, 0.05)
            assert exc.value.param == "extent"
            assert str(exc.value) == "grid extent 10.0 too small: ring needs 13.5 with padding"

    def test_one_core_gives_the_bits_of_two_threads(self, monkeypatch):
        # At spacing 0.02 every stage on the cores has at least three row
        # blocks of unequal sizes, so three workers split them unevenly.
        c1, c2 = Circle((0.3, -0.2), 2.0), Circle((-0.1, 0.25), 3.0)
        reports = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            reports.append(grid_conv_check(c1, c2, extent=12.0, spacing=0.02, epsilon=0.1))
        serial = reports[0]
        for threaded in reports[1:]:
            for name in ("conv_values", "swapped_values", "rho", "grid_profile", "oracle_profile"):
                assert np.array_equal(getattr(threaded, name), getattr(serial, name)), name
            assert (threaded.mass, threaded.max_rel_error) == (serial.mass, serial.max_rel_error)

    def test_at_most_usable_minus_one_workers_run_at_once_and_none_outlives_the_call(self, monkeypatch):
        # Each stage starts its own workers and joins them before the next, so
        # the caller and at most cores - 1 workers ever run together.  A start
        # counts the workers still alive, so a worker that ends early can only
        # raise the count.  Each round subclasses the real Thread, not the
        # previous round's patch, so every start is counted once.
        thread = threading.Thread
        for cores in (2, 3):
            started, at_once = [], []

            class Counted(thread):
                def start(self):
                    at_once.append(1 + sum(t.is_alive() for t in started))
                    started.append(self)
                    super().start()

            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            monkeypatch.setattr(core.threading, "Thread", Counted)
            before = set(threading.enumerate())
            grid_conv_check(C1, C2, extent=12.0, spacing=0.04, epsilon=0.1)
            assert 1 <= max(at_once) <= cores - 1, cores
            assert not any(t.is_alive() for t in started)
            assert set(threading.enumerate()) == before

    def test_worker_exception_reaches_the_caller_after_the_join(self, monkeypatch):
        # The first ring's build starts workers of its own before the row transforms fail on one.
        started = []
        exact = np.fft.rfft

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def rfft(*args, **kwargs):
            if threading.current_thread() in started:
                time.sleep(0.05)
                raise RuntimeError("worker transform")
            return exact(*args, **kwargs)

        monkeypatch.setattr(core, "_usable_cores", lambda: 2)
        monkeypatch.setattr(core.threading, "Thread", Recorded)
        monkeypatch.setattr(oracle.np.fft, "rfft", rfft)
        with pytest.raises(RuntimeError, match="worker transform"):
            grid_conv_check(C1, C2, extent=12.0, spacing=0.04, epsilon=0.1)
        assert started and not any(t.is_alive() for t in started)

    def test_conv_values_are_fftconvolve_of_the_rings(self):
        c1, c2 = Circle((0.3, -0.2), 2.0), Circle((-0.1, 0.25), 3.0)
        rep = grid_conv_check(c1, c2, extent=12.0, spacing=0.02, epsilon=0.1)
        rings = [build_mollified_ring(c, 12.0, 0.02, 0.1).values for c in (c1, c2)]
        assert np.array_equal(rep.conv_values, fftconvolve(*rings) * 0.02**2)

    def test_default_grid_holds_one_ring_and_two_spectra_at_most(self, monkeypatch):
        # At the CLI's default grid a ring is 11.0 MiB and a padded spectrum 26.8 MiB; running the
        # two rings' transforms side by side would take the peak past 100 MiB.
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                grid_conv_check(C1, C2, extent=12.0, spacing=0.01, epsilon=0.05)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 85 * 2**20, (cores, peak / 2**20)

    def test_conv_values_own_their_memory(self):
        rep = grid_conv_check(Circle((0, 0), 1.0), Circle((0, 0), 1.0), extent=5.2, spacing=0.02, epsilon=0.05)
        n = build_mollified_ring(Circle((0, 0), 1.0), 5.2, 0.02, 0.05).values.shape[0]
        for values in (rep.conv_values, rep.swapped_values):
            assert values.shape == (n, n) and values.size == n * n
            assert values.base is None and values.flags.owndata

    def test_report_is_auditable(self):
        rep = grid_conv_check(Circle((0, 0), 1.0), Circle((0, 0), 1.0), extent=5.2, spacing=0.02, epsilon=0.05)
        assert isinstance(rep, GridConvReport)
        rel = np.abs(rep.grid_profile - rep.oracle_profile) / np.abs(rep.oracle_profile)
        assert abs(float(rel.max()) - rep.max_rel_error) < 1e-15
        assert rep.expected_mass == pytest.approx(4.0 * math.pi**2)
