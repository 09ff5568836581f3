import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from ringconv.core import (
    Circle,
    ConvKernel,
    ParameterError,
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
from oracles import conv_density_squared

radii = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
# Radii from 1e-150 to 1e150, at ratios up to 1e12 either way; a ratio exponent of 0 gives equal radii.
wide_radii = st.tuples(st.floats(-138.0, 138.0), st.floats(-12.0, 12.0)).map(
    lambda t: (10.0**t[0], 10.0**t[0] * 10.0**t[1]))


@st.composite
def wide_triples(draw, interior=True):
    """``(rho, r1, r2)`` on ``wide_radii``, rho uniform on the support or 1 to 50 ulps in from either end.

    With ``interior=False`` rho may also be 0, or uniform on ``[0, 1.5 (r1 + r2)]``.
    """
    r1, r2 = draw(wide_radii)
    lo, hi = support_interval(r1, r2)
    where = draw(st.sampled_from(["uniform", "lower", "upper"] + ([] if interior else ["zero", "anywhere"])))
    if where == "uniform":
        rho = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    elif where == "zero":
        rho = 0.0
    elif where == "anywhere":
        rho = draw(st.floats(0.0, 1.5)) * hi
    else:
        rho, toward = (lo, hi) if where == "lower" else (hi, lo)
        for _ in range(draw(st.integers(1, 50))):
            rho = math.nextafter(rho, toward)
    if interior:
        assume(lo < rho < hi)
    return rho, r1, r2


# Relative error allowed against the exact density: 8 units of the float's rounding, 2^-53.
ACCURACY = Fraction(8, 2**53)


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

    def test_overflowing_outer_radius_names_the_larger_radius(self):
        with pytest.raises(ParameterError) as exc:
            support_interval(1e308, 1.7e308)
        assert exc.value.param == "r2"


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
        # lo = 0, so the unscaled radicand rho^2 (4 - rho^2) is below the float range here.
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

    def test_overflowing_outer_radius_is_rejected(self):
        # With r1 + r2 = inf no radius lies beyond the support, so 0.0 here would be wrong.
        with pytest.raises(ParameterError) as exc:
            eval_conv(1.0, 1e308, 1e308)
        assert exc.value.param == "r1"

    def test_density_beyond_the_float_range_is_inf(self):
        assert eval_conv(5e-324, 1.0, 1.0) == math.inf

    @settings(max_examples=500)
    @given(wide_triples())
    def test_within_a_few_ulps_of_the_exact_density(self, triple):
        # Judged against the exact rational radicand, whose ends are not rounded.
        value = eval_conv(*triple)
        exact_squared = conv_density_squared(*triple)
        if math.isinf(value):
            assert exact_squared >= (Fraction(sys.float_info.max) * (1 - ACCURACY)) ** 2
        else:
            assert (1 - ACCURACY) ** 2 <= Fraction(value) ** 2 / exact_squared <= (1 + ACCURACY) ** 2

    @settings(max_examples=500)
    @given(wide_triples(interior=False), st.integers(min_value=-60, max_value=60))
    def test_invariant_under_power_of_two_scaling(self, triple, k):
        rho, r1, r2 = triple
        # A rho a few ulps from 0 is subnormal, and scaling it down rounds.
        assume(math.ldexp(math.ldexp(rho, k), -k) == rho)
        a = eval_conv(rho, r1, r2)
        b = eval_conv(math.ldexp(rho, k), math.ldexp(r1, k), math.ldexp(r2, k))
        assert a == b

    @settings(max_examples=500)
    @given(wide_triples(interior=False))
    def test_symmetric_in_the_radii_bitwise(self, triple):
        rho, r1, r2 = triple
        assert eval_conv(rho, r1, r2) == eval_conv(rho, r2, r1)

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

    def test_psi_stays_in_range_at_extreme_radii(self):
        # The squares of these radii overflow or underflow; psi forms none.
        assert psi(math.pi, 1e200, 1e200) == 2e200
        assert psi(0.0, 1e300, 3.0) == 1e300
        assert psi(math.pi, 1e-300, 1e-300) == 2e-300

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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_phi_prime_in_range_at_extreme_radii(self, scale):
        # r1 * r2 leaves the float range here; phi' is homogeneous of degree 1 in the radii.
        theta = np.array([0.3, 1.0, 2.5])
        assert_allclose(phi_prime(theta, 1.0 * scale, 1.5 * scale), scale * phi_prime(theta, 1.0, 1.5),
                        rtol=1e-14)
        assert_allclose(phi_prime(1.0, scale, scale), scale * phi_prime(1.0, 1.0, 1.0), rtol=1e-14)


class TestRootPath:
    def test_unit_root_is_sixty_degrees(self):
        assert abs(interior_root(1.0, 1.0, 1.0) - math.pi / 3.0) < 1e-12

    def test_unit_value(self):
        assert abs(conv_via_roots(1.0, 1.0, 1.0) - 4.0 / math.sqrt(3.0)) < 1e-12

    def test_collapse_value_via_roots(self):
        assert abs(conv_via_roots(math.hypot(2.0, 3.0), 2.0, 3.0) - 2.0) < 1e-12

    def test_rejects_non_interior(self):
        for rho in (0.5, 1.0, 5.0, 6.0, np.array([3.0, 5.0, 4.0])):
            with pytest.raises(ValueError):
                conv_via_roots(rho, 2.0, 3.0)
        for radius in (0.0, -1.0, math.inf, math.nan):
            for route in (interior_root, conv_via_roots):
                with pytest.raises(ValueError):
                    route(3.0, radius, 3.0)

    def test_array_call_matches_scalar_calls_bitwise(self):
        rho = np.array([[1.2, 2.5, 4.8], [0.3, 1.0, 1.9]])
        r1, r2 = np.array([[2.0], [1.0]]), np.array([[3.0], [1.0]])
        for route in (interior_root, conv_via_roots):
            values = route(rho, r1, r2)
            assert values.shape == rho.shape
            expected = [[route(float(p), float(a[0]), float(b[0])) for p in row]
                        for row, a, b in zip(rho, r1, r2)]
            assert np.array_equal(values, expected)
            assert type(route(1.0, 1.0, 1.0)) is float

    @settings(deadline=None, max_examples=200)
    @given(st.floats(min_value=-150.0, max_value=150.0), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=-40, max_value=40))
    def test_scale_free_over_the_float_range(self, exponent, log_ratio, t, k):
        r1 = 10.0**exponent
        r2 = r1 * 10.0**log_ratio
        lo, hi = support_interval(r1, r2)
        rho = lo + t * (hi - lo)
        value = conv_via_roots(rho, r1, r2)
        expected = eval_conv(rho, r1, r2)
        assert abs(value - expected) / expected < 1e-9
        assert conv_via_roots(*np.ldexp([rho, r1, r2], k)) == value

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

    @pytest.mark.parametrize("r1, r2", [
        (1.0, 1e7), (1e-3, 1e3), (1.5, 1e-9), (1e-150, 1e-150), (1e-100, 3e-100),
        (1e100, 1e100), (1e150, 1e150), (2.0, 3.0), (1.0, 1.0),
    ])
    def test_exact_at_extreme_radii_and_ratios(self, r1, r2):
        # The tolerance of checks.mass_check.  Outer nodes lie a few ulps from
        # the support's ends at ratio 1e-9, and the squares of 1e-150 radii are
        # below the normal range.
        k = ConvKernel(r1, r2)
        assert abs(total_mass(k) - k.mass) / k.mass < 1e-10

    def test_zero_nodes_is_not_blamed_on_a_radius(self):
        with pytest.raises(ValueError) as exc:
            total_mass(ConvKernel(2.0, 3.0), 0)
        assert not isinstance(exc.value, ParameterError)


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
