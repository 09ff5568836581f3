import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ringconv import checks
from ringconv.core import _NODE_ROUNDING_LIMIT, ConvKernel, ParameterError, RadialProfile
from ringconv.hankel import (
    hankel_of_circle,
    hankel_of_conv,
    hankel_transform,
    neumann_product_check,
)
from ringconv.special import bessel_j0

from oracles import j0_zero_oracle

PAIRS = [(1.0, 1.0), (2.0, 3.0), (0.5, 2.5)]


def gaussian_profile():
    return RadialProfile(lambda rho: np.exp(-math.pi * np.asarray(rho, dtype=float) ** 2), (0.0, 4.0))


class TestHankelOfCircle:
    def test_zero_frequency_gives_circumference(self):
        assert abs(hankel_of_circle(1.0, 0.0) - 2.0 * math.pi) < 1e-14
        assert abs(hankel_of_circle(3.0, 0.0) - 6.0 * math.pi) < 1e-13

    def test_vanishes_at_scaled_bessel_zero(self):
        zero = j0_zero_oracle(2.40, 2.41)
        for radius in (1.0, 2.0, 3.0):
            r = zero / (2.0 * math.pi * radius)
            assert abs(hankel_of_circle(radius, r)) < 1e-9

    def test_array_input(self):
        r = np.linspace(0.0, 2.0, 9)
        expected = 2.0 * math.pi * 1.5 * bessel_j0(2.0 * math.pi * 1.5 * r)
        assert_allclose(hankel_of_circle(1.5, r), expected, rtol=0, atol=0)

    def test_rejects_bad_radius(self):
        for radius in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                hankel_of_circle(radius, 1.0)


class TestHankelOfConv:
    def test_zero_frequency_reproduces_mass(self):
        for r1, r2 in PAIRS:
            k = ConvKernel(r1, r2)
            assert abs(hankel_of_conv(k, 0.0) - k.mass) < 1e-10 * k.mass

    def test_unit_pair_at_seven_tenths(self):
        expected = 4.0 * math.pi**2 * bessel_j0(2.0 * math.pi * 0.7) ** 2
        got = hankel_of_conv(ConvKernel(1.0, 1.0), 0.7)
        assert abs(got - expected) < 1e-8 * 4.0 * math.pi**2

    def test_figure_pair_at_quarter(self):
        expected = (2.0 * math.pi) ** 2 * 6.0 * bessel_j0(math.pi) * bessel_j0(1.5 * math.pi)
        got = hankel_of_conv(ConvKernel(2.0, 3.0), 0.25, n=256)
        assert abs(got - expected) < 1e-8 * (2.0 * math.pi) ** 2 * 6.0

    def test_factorizes_into_circle_transforms(self):
        # The two sides come from unrelated code paths: singular quadrature
        # of the closed form against the J0 product in closed form.
        for r1, r2 in PAIRS:
            scale = 4.0 * math.pi**2 * r1 * r2
            r = np.linspace(0.0, 4.0 / (r1 + r2), 41)
            lhs = hankel_of_conv(ConvKernel(r1, r2), r)
            rhs = hankel_of_circle(r1, r) * hankel_of_circle(r2, r)
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    def test_array_matches_scalar(self):
        # Not bitwise: the matrix-vector product blocks its summation
        # differently for batched and single rows.
        k = ConvKernel(2.0, 3.0)
        r = np.array([0.0, 0.1, 0.25])
        assert_allclose(hankel_of_conv(k, r), [hankel_of_conv(k, float(v)) for v in r], rtol=1e-13)

    def test_factorizes_at_small_radius_ratios(self):
        # |J0| <= 1, so the transform moves by at most the mass times the rule's mean node-rounding
        # bound, which the rule holds under _NODE_ROUNDING_LIMIT.  Measured: 1.8e-13 of the mass at
        # (1.5, 0.1) and 4.5e-12 at (1, 3e-3).  Past the ratios the rule resolves, it names a radius.
        r = np.linspace(0.0, 2.0, 9)
        for r1, r2 in [(1.5, 0.1), (1.0, 3e-3)]:
            k = ConvKernel(r1, r2)
            rhs = hankel_of_circle(r1, r) * hankel_of_circle(r2, r)
            assert np.max(np.abs(hankel_of_conv(k, r) - rhs)) < _NODE_ROUNDING_LIMIT * k.mass
        for r1, r2 in [(1.5, 1e-9), (1.0, 3e-12)]:
            with pytest.raises(ParameterError) as exc:
                hankel_of_conv(ConvKernel(r1, r2), r)
            assert exc.value.param == "r2"


class TestHankelTransform:
    def test_distinct_radii_kernel_matches_dedicated_path(self):
        k = ConvKernel(2.0, 3.0)
        r = np.linspace(0.0, 0.8, 17)
        via_profile = hankel_transform(RadialProfile(k, k.support), r, 256)
        dedicated = hankel_of_conv(k, r, 256)
        assert_allclose(via_profile, dedicated, rtol=1e-12, atol=1e-12 * k.mass)

    def test_gaussian_is_a_fixed_point(self):
        r = np.linspace(0.0, 2.5, 26)
        out = hankel_transform(gaussian_profile(), r, 512)
        assert np.max(np.abs(out - np.exp(-math.pi * r**2))) < 1e-8

    def test_scalar_in_scalar_out(self):
        out = hankel_transform(gaussian_profile(), 0.5, 256)
        assert isinstance(out, float)
        assert abs(out - math.exp(-math.pi * 0.25)) < 1e-8

    def test_gaussian_round_trip_at_1024_nodes(self):
        once = RadialProfile(lambda r: hankel_transform(gaussian_profile(), r, 1024), (0.0, 4.0))
        s = np.linspace(0.0, 3.0, 61)
        twice = hankel_transform(once, s, 1024)
        assert np.max(np.abs(twice - np.exp(-math.pi * s * s))) < 1e-9

    def test_round_trip_check_sums_its_j0_matrix_in_blocks(self):
        # Formed whole, the inner transform's 1024 x 1024 J0 matrix and its temporaries peaked at 60.8 MB.
        tracemalloc.start()
        try:
            checks.gauss_roundtrip_check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestNeumannProduct:
    def test_zero_frequency_is_exact(self):
        lhs, rhs = neumann_product_check(2.0, 3.0, 0.0)
        assert abs(lhs - rhs) < 1e-15
        assert abs(rhs - 1.0) < 1e-15

    def test_reference_configuration(self):
        lhs, rhs = neumann_product_check(1.0, 2.0, 0.3, n=4096)
        assert abs(lhs - rhs) < 1e-10

    def test_average_converged_at_default_resolution(self):
        lhs, _ = neumann_product_check(1.0, 2.0, 0.3, n=4096)
        finer, _ = neumann_product_check(1.0, 2.0, 0.3, n=8192)
        assert abs(lhs - finer) < 1e-12

    def test_degenerate_small_circle_limit(self):
        lhs, rhs = neumann_product_check(1.5, 1e-9, 0.4)
        assert abs(lhs - rhs) < 1e-9
        assert abs(rhs - bessel_j0(2.0 * math.pi * 0.6)) < 1e-8

    @pytest.mark.parametrize("r1, r2", [(2.0, 3.0), (1.0, 1.0), (1.5, 1e-9)])
    def test_array_frequencies_have_the_bits_of_scalar_calls(self, r1, r2):
        # Up to r = 3 the J0 arguments run through every piece and past the asymptotic switch at 25.
        r = np.linspace(0.0, 3.0, 11)
        lhs, rhs = neumann_product_check(r1, r2, r, 512)
        scalar = np.array([neumann_product_check(r1, r2, float(x), 512) for x in r])
        assert lhs.tobytes() == scalar[:, 0].tobytes() and rhs.tobytes() == scalar[:, 1].tobytes()

    def test_holds_across_pairs_and_frequencies(self):
        for r1, r2 in PAIRS + [(1.5, 0.7)]:
            for r in (0.1, 0.55, 1.3):
                lhs, rhs = neumann_product_check(r1, r2, r)
                assert abs(lhs - rhs) < 1e-10
