import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ringconv.core import (
    Circle,
    ConvKernel,
    RadialProfile,
    SupportClass,
    classify,
    conv_via_roots,
    eval_conv,
    eval_conv_2d,
    interior_root,
    phi,
    phi_prime,
    psi,
    support_interval,
    total_mass,
)

radii = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)


class TestSupportInterval:
    def test_two_three(self):
        assert support_interval(2.0, 3.0) == (1.0, 5.0)

    def test_equal_radii_touch_origin(self):
        assert support_interval(1.0, 1.0) == (0.0, 2.0)
        assert support_interval(2.5, 2.5) == (0.0, 5.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            support_interval(0.0, 1.0)
        with pytest.raises(ValueError):
            support_interval(1.0, -2.0)


class TestClassify:
    def test_partition_cells(self):
        assert classify(0.5, 2.0, 3.0) is SupportClass.BELOW_SUPPORT
        assert classify(1.0, 2.0, 3.0) is SupportClass.LOWER_ENDPOINT
        assert classify(3.0, 2.0, 3.0) is SupportClass.INTERIOR
        assert classify(5.0, 2.0, 3.0) is SupportClass.UPPER_ENDPOINT
        assert classify(7.0, 2.0, 3.0) is SupportClass.ABOVE_SUPPORT

    def test_origin_wins_over_lower_endpoint(self):
        # Equal radii put the support's lower endpoint at 0; the origin
        # label still takes precedence there.
        assert classify(0.0, 1.0, 1.0) is SupportClass.ORIGIN
        assert classify(0.0, 2.0, 3.0) is SupportClass.ORIGIN

    def test_endpoint_comparison_is_exact(self):
        below = np.nextafter(1.0, 0.0)
        above = np.nextafter(1.0, 2.0)
        assert classify(below, 2.0, 3.0) is SupportClass.BELOW_SUPPORT
        assert classify(above, 2.0, 3.0) is SupportClass.INTERIOR
        assert classify(np.nextafter(5.0, 6.0), 2.0, 3.0) is SupportClass.ABOVE_SUPPORT

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            classify(-0.1, 2.0, 3.0)


class TestEvalConv:
    def test_zero_branches(self):
        assert eval_conv(0.5, 2.0, 3.0) == 0.0
        assert eval_conv(7.0, 2.0, 3.0) == 0.0

    def test_collapse_value_is_two(self):
        # At rho^2 = r1^2 + r2^2 both denominator factors equal 2 r1 r2.
        assert abs(eval_conv(math.hypot(2.0, 3.0), 2.0, 3.0) - 2.0) < 1e-12

    def test_unit_circles_at_one(self):
        # 4/sqrt(3); the sampling oracle reproduces this figure to MC error
        # (see test_oracle for the histogram version).
        assert abs(eval_conv(1.0, 1.0, 1.0) - 4.0 / math.sqrt(3.0)) < 1e-14

    def test_endpoints_return_infinity(self):
        assert eval_conv(1.0, 2.0, 3.0) == math.inf
        assert eval_conv(5.0, 2.0, 3.0) == math.inf

    def test_one_ulp_inside_is_finite_and_large(self):
        # The factored radicand keeps strictly interior floats out of the
        # endpoint sentinel: huge values, not inf.
        for rho in (np.nextafter(1.0, 2.0), np.nextafter(5.0, 0.0)):
            value = eval_conv(float(rho), 2.0, 3.0)
            assert math.isfinite(value) and value > 1e6

    def test_origin_rules(self):
        assert eval_conv(0.0, 2.0, 3.0) == 0.0
        assert eval_conv(0.0, 1.5, 1.5) == math.inf

    def test_array_evaluation_matches_scalar(self):
        rho = np.array([0.0, 0.5, 1.0, 2.0, math.hypot(2.0, 3.0), 5.0, 6.0])
        out = eval_conv(rho, 2.0, 3.0)
        assert_allclose(out, [eval_conv(float(r), 2.0, 3.0) for r in rho], rtol=0, atol=0)

    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(ValueError):
            eval_conv(-1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            eval_conv(np.array([1.0, math.nan]), 2.0, 3.0)

    @pytest.mark.parametrize("rho", [1e-160, 1e-200, 1e-300])
    def test_tiny_radius_for_equal_radii_is_two_over_rho(self, rho):
        # lo = 0, so the factored radicand rho^2 (4 - rho^2) underflows here.
        expected = 2.0 / rho
        assert abs(eval_conv(rho, 1.0, 1.0) - expected) <= 4 * np.spacing(expected)

    @pytest.mark.parametrize("rho, r1, r2, scale", [
        (3.0, 2.0, 2.5, 1e150),  # the radicand (2.5)(3.5)(1.5)(7.5)e600 overflows
        (1.0, 1.0, 1.5, 1e200),  # 4 r1 r2 itself overflows
        (1.0, 1.0, 1.5, 1e-200),  # 4 r1 r2 itself underflows
    ])
    @pytest.mark.parametrize("as_radius", [float, np.float64])
    def test_scaled_radii_out_of_the_float_range(self, rho, r1, r2, scale, as_radius):
        # NumPy scalar radii must not warn on overflow where Python floats would not.
        expected = eval_conv(rho, r1, r2)
        got = eval_conv(rho * scale, as_radius(r1 * scale), as_radius(r2 * scale))
        assert abs(got - expected) < 1e-14 * expected

    def test_density_beyond_the_float_range_is_inf(self):
        assert eval_conv(5e-324, 1.0, 1.0) == math.inf

    @settings(max_examples=300)
    @given(radii, radii, st.one_of(st.just(0.0), st.floats(min_value=1e-280, max_value=11.0)),
           st.integers(min_value=-60, max_value=60))
    def test_invariant_under_power_of_two_scaling(self, r1, r2, rho, k):
        a = eval_conv(rho, r1, r2)
        b = eval_conv(rho * 2.0**k, r1 * 2.0**k, r2 * 2.0**k)
        assert (math.isinf(a) and math.isinf(b)) or abs(b - a) <= 1e-14 * a

    @given(radii, radii, st.floats(min_value=0.0, max_value=11.0, allow_nan=False))
    def test_symmetric_in_the_radii_bitwise(self, r1, r2, rho):
        a = eval_conv(rho, r1, r2)
        b = eval_conv(rho, r2, r1)
        assert a == b or (math.isinf(a) and math.isinf(b))

    @given(radii, radii)
    def test_interior_minimum_at_collapse_radius(self, r1, r2):
        rho = math.hypot(r1, r2)
        center = eval_conv(rho, r1, r2)
        assert abs(center - 2.0) < 1e-12
        assert center < eval_conv(1.01 * rho, r1, r2)
        assert center < eval_conv(0.99 * rho, r1, r2)


class TestEvalConv2d:
    def test_shifted_origin_is_zero_for_distinct_radii(self):
        assert eval_conv_2d(1.0, 2.0, 2.0, 3.0, center=(1.0, 2.0)) == 0.0

    def test_concentric_collapse_point(self):
        assert abs(eval_conv_2d(math.hypot(2.0, 3.0), 0.0, 2.0, 3.0) - 2.0) < 1e-12

    def test_shift_of_the_unit_case(self):
        # Unit circles about (1, 0) and (0, 2): the density is radial about (1, 2).
        assert abs(eval_conv_2d(2.0, 2.0, 1.0, 1.0, center=(1.0, 2.0)) - 4.0 / math.sqrt(3.0)) < 1e-14

    def test_shift_covariance_is_exact(self):
        xs = np.linspace(-4.0, 4.0, 23)
        shifted = eval_conv_2d(xs, xs[::-1], 2.0, 3.0, center=(0.75, -1.25))
        concentric = eval_conv_2d(xs - 0.75, xs[::-1] + 1.25, 2.0, 3.0)
        assert np.array_equal(shifted, concentric)


class TestPsiPhi:
    def test_psi_extremes(self):
        assert psi(0.0, 2.0, 3.0) == 1.0
        assert psi(math.pi, 2.0, 3.0) == 5.0
        assert abs(psi(math.pi / 2.0, 2.0, 3.0) - math.hypot(2.0, 3.0)) < 1e-15

    def test_psi_clamps_at_zero_for_equal_radii(self):
        assert psi(0.0, 1.3, 1.3) == 0.0

    def test_psi_nondecreasing_on_half_period(self):
        theta = np.linspace(0.0, math.pi, 20001)
        for r1, r2 in [(1.0, 1.0), (2.0, 3.0), (0.5, 2.5)]:
            values = psi(theta, r1, r2)
            assert np.all(np.diff(values) >= 0.0)

    def test_phi_vanishes_at_the_quarter_turn_collapse(self):
        assert abs(phi(math.hypot(2.0, 3.0), math.pi / 2.0, 2.0, 3.0)) < 2e-16

    def test_phi_prime_pinned_zeros(self):
        for theta in (0.0, math.pi, 2.0 * math.pi):
            assert phi_prime(theta, 2.0, 3.0) == 0.0

    def test_phi_prime_quarter_turn_unit_circles(self):
        assert_allclose(phi_prime(math.pi / 2.0, 1.0, 1.0), -1.0 / math.sqrt(2.0), atol=1e-15)

    def test_phi_prime_nan_where_psi_vanishes(self):
        assert math.isnan(phi_prime(0.0, 1.0, 1.0))
        assert math.isnan(phi_prime(2.0 * math.pi, 1.0, 1.0))


class TestRootPath:
    def test_unit_root_is_sixty_degrees(self):
        assert abs(interior_root(1.0, 1.0, 1.0) - math.pi / 3.0) < 1e-12

    def test_unit_value(self):
        assert abs(conv_via_roots(1.0, 1.0, 1.0) - 4.0 / math.sqrt(3.0)) < 1e-12

    def test_collapse_value_via_roots(self):
        assert abs(conv_via_roots(math.hypot(2.0, 3.0), 2.0, 3.0) - 2.0) < 1e-12

    def test_rejects_non_interior(self):
        for rho in (0.5, 1.0, 5.0, 6.0):
            with pytest.raises(ValueError):
                conv_via_roots(rho, 2.0, 3.0)

    @settings(deadline=None)
    @given(radii, radii, st.floats(min_value=0.05, max_value=0.95))
    def test_agrees_with_closed_form(self, r1, r2, t):
        lo, hi = support_interval(r1, r2)
        rho = lo + t * (hi - lo)
        expected = eval_conv(rho, r1, r2)
        assert abs(conv_via_roots(rho, r1, r2) - expected) / expected < 1e-9


class TestTotalMass:
    def test_unit_circles(self):
        assert abs(total_mass(ConvKernel(1.0, 1.0)) - 4.0 * math.pi**2) < 1e-10

    def test_figure_radii(self):
        assert abs(total_mass(ConvKernel(2.0, 3.0)) - 24.0 * math.pi**2) < 1e-9

    def test_single_node_is_already_exact(self):
        k = ConvKernel(2.0, 3.0)
        assert abs(total_mass(k, 1) - k.mass) / k.mass < 1e-12

    @given(radii, radii, st.integers(min_value=1, max_value=200))
    def test_mass_conserved_for_any_node_count(self, r1, r2, n):
        k = ConvKernel(r1, r2)
        assert abs(total_mass(k, n) - k.mass) / k.mass < 1e-12


class TestKernelTypes:
    def test_circle_validation(self):
        with pytest.raises(ValueError):
            Circle((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            Circle((0.0, 0.0), math.inf)

    def test_circle_mass_and_points(self):
        c = Circle((1.0, -2.0), 2.0)
        assert abs(c.mass - 4.0 * math.pi) < 1e-15
        px, py = c.point(math.pi / 2.0)
        assert_allclose([px, py], [1.0, 0.0], atol=1e-15)

    def test_kernel_support_and_mass(self):
        k = ConvKernel(2.0, 3.0)
        assert k.support == (1.0, 5.0)
        assert abs(k.mass - 24.0 * math.pi**2) < 1e-12

    def test_radial_profile_of_the_kernel(self):
        k = ConvKernel(2.0, 3.0)
        profile = RadialProfile(k, k.support)
        assert profile.support == (1.0, 5.0)
        rho = np.array([2.0, 3.0, 4.0])
        assert_allclose(profile(rho), eval_conv(rho, 2.0, 3.0), rtol=0, atol=0)
        # A constant result is broadcast over the radii.
        assert RadialProfile(lambda rho: 1.5, (0.0, 1.0))(rho).tolist() == [1.5, 1.5, 1.5]
