import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ringconv.core import Circle, ParameterError, eval_conv
from ringconv.oracle import (
    GridConvReport,
    MollifiedGrid,
    RadialHistogram,
    build_mollified_ring,
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

    def test_counts_are_pinned(self):
        # sha256 of the little-endian int64 counts: any change of substream, arithmetic or order moves them.
        h, sector_counts = mc_conv_histogram(C1, C2, 1_572_864, 64, seed=13, sectors=16)
        digest = [hashlib.sha256(c.astype("<i8").tobytes()).hexdigest() for c in (h.counts, sector_counts)]
        assert digest == ["6018950d892ea5cec688ec615dac071ff241ee068ecc0e12af6a82a1931298f5",
                          "3c849988c0e5451ed0681f15dcebda9cdc60c34065c2d9eb72d8ee0365f86280"]

    def test_validation(self):
        # Counts above 2^20, the chunk size, are refused before anything is allocated.
        for samples, bins, sectors in ((0, 10, 1), (10, 0, 1), (10, 10, 0), (10, 2**20 + 1, 1), (10, 10, 2**20 + 1)):
            with pytest.raises(ValueError):
                mc_conv_histogram(C1, C2, samples, bins, seed=1, sectors=sectors)


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
        assert abs(g.mass - 4.0 * math.pi) / (4.0 * math.pi) < 1e-3

    def test_peak_on_the_ring(self):
        g = self.build()
        coords = g.coords()
        i = int(np.argmin(np.abs(coords)))          # y = 0 row
        j = int(np.argmin(np.abs(coords - 2.0)))    # x = 2 column
        peak = 1.0 / (math.sqrt(2.0 * math.pi) * 0.05)
        assert abs(g.values[i, j] - peak) / peak < 1e-9

    def test_tail_beyond_five_epsilon(self):
        g = self.build()
        coords = g.coords()
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
        assert abs(off.mass - 4.0 * math.pi) / (4.0 * math.pi) < 1e-3

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            MollifiedGrid(1.0, 0.01, 0.05, np.array([[1.0, np.inf], [0.0, 0.0]]))


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
        # The FFT product is commutative only up to rounding, so this is an
        # allclose statement, not a bitwise one.
        a = grid_conv_check(C1, C2, extent=12.0, spacing=0.02, epsilon=0.1)
        b = grid_conv_check(C2, C1, extent=12.0, spacing=0.02, epsilon=0.1)
        assert np.max(np.abs(a.conv_values - b.conv_values)) < 1e-9

    def test_support_clipping_rejected(self):
        # The second pair's summed centre fits, but each ring leaves the grid.
        for c1, c2 in ((C1, C2), (Circle((5.5, 0.0), 1.0), Circle((-5.5, 0.0), 1.0))):
            with pytest.raises(ParameterError) as exc:
                grid_conv_check(c1, c2, extent=10.0, spacing=0.02, epsilon=0.05)
            assert isinstance(exc.value, ValueError) and exc.value.param == "extent"

    def test_report_is_auditable(self):
        rep = grid_conv_check(Circle((0, 0), 1.0), Circle((0, 0), 1.0), extent=5.2, spacing=0.02, epsilon=0.05)
        assert isinstance(rep, GridConvReport)
        rel = np.abs(rep.grid_profile - rep.oracle_profile) / np.abs(rep.oracle_profile)
        assert abs(float(rel.max()) - rep.max_rel_error) < 1e-15
        assert rep.expected_mass == pytest.approx(4.0 * math.pi**2)
