import gc
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ringconv import core
from ringconv.core import Circle
from ringconv.operators import (
    Field2D,
    RingMeasure,
    circle_average,
    circle_average_field,
    circle_mean,
    pair_with_test,
    restrict_to_circle,
)
from ringconv.oracle import smoothed_profile


def const_field(c):
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), c)


class TestRingMeasure:
    def test_uniform_mass_is_circumference(self):
        m = RingMeasure.uniform(Circle((0.0, 0.0), 2.0))
        assert abs(m.mass() - 4.0 * math.pi) < 1e-12

    def test_weighted_mass(self):
        m = RingMeasure(Circle((1.0, 1.0), 2.0), lambda t: 2.0 + np.cos(t))
        assert abs(m.mass() - 8.0 * math.pi) < 1e-12

    def test_density_values_broadcast_scalar_density(self):
        m = RingMeasure(Circle((0.0, 0.0), 1.0), lambda t: 3.0)
        vals = m.density_values(np.linspace(0.0, 2.0 * math.pi, 7))
        assert_allclose(vals, 3.0, rtol=0, atol=0)


class TestPairing:
    def test_constant_test_function_sees_the_mass(self):
        m = RingMeasure.uniform(Circle((0.0, 0.0), 2.0))
        assert abs(pair_with_test(m, const_field(1.0)) - 4.0 * math.pi) < 1e-12

    def test_coordinate_against_shifted_circle(self):
        # x1 integrates to (center x) * circumference; the oscillating part
        # cancels over full turns.
        R = 2.0
        m = RingMeasure.uniform(Circle((3.0, 0.0), R))
        f = lambda x, y: x
        assert abs(pair_with_test(m, f) - 6.0 * math.pi * R) < 1e-12

    def test_linearity(self):
        m = RingMeasure(Circle((0.5, -0.5), 1.5), lambda t: 1.0 + 0.3 * np.sin(2 * t))
        f = lambda x, y: x * y
        g = lambda x, y: np.cos(x) + y
        combo = lambda x, y: 2.0 * x * y - 0.7 * (np.cos(x) + y)
        lhs = pair_with_test(m, combo)
        rhs = 2.0 * pair_with_test(m, f) - 0.7 * pair_with_test(m, g)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))

    def test_multiplication_moves_across_the_pairing(self):
        # <f . delta_C, phi> must equal <delta_C, f phi>.
        c = Circle((0.3, -0.2), 1.7)
        f = lambda x, y: 1.0 + x**2 - 0.5 * y
        phi = lambda x, y: np.sin(x + 2 * y)
        lhs = pair_with_test(restrict_to_circle(f, c), phi)
        rhs = pair_with_test(RingMeasure.uniform(c), lambda x, y: f(x, y) * phi(x, y))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestRestriction:
    def test_radial_field_restricts_to_a_constant(self):
        f = lambda x, y: x**2 + y**2
        m = restrict_to_circle(f, Circle((0.0, 0.0), 2.0))
        vals = m.density_values(np.linspace(0.0, 2.0 * math.pi, 33))
        assert_allclose(vals, 4.0, rtol=0, atol=1e-12)

    def test_coordinate_restricts_to_cosine(self):
        R = 1.5
        m = restrict_to_circle(lambda x, y: x, Circle((0.0, 0.0), R))
        theta = np.linspace(0.0, 2.0 * math.pi, 50)
        assert_allclose(m.density_values(theta), R * np.cos(theta), atol=1e-15)

    def test_restricted_mass(self):
        f = lambda x, y: x**2 + y**2
        m = restrict_to_circle(f, Circle((0.0, 0.0), 2.0))
        assert abs(m.mass() - 2.0 * math.pi * 2.0 * 4.0) < 1e-11


class TestCircleAverage:
    def test_constant(self):
        R = 0.8
        got = circle_average(const_field(2.5), Circle((0.0, 0.0), R), (1.0, -2.0))
        assert abs(got - 2.5 * 2.0 * math.pi * R) < 1e-12

    def test_linear_field_sees_the_center_value(self):
        R = 0.8
        f = lambda x, y: x
        got = circle_average(f, Circle((0.0, 0.0), R), (1.2, -0.7))
        assert abs(got - 1.2 * 2.0 * math.pi * R) < 1e-12

    def test_squared_norm(self):
        # |x + R e(theta)|^2 averages to |x|^2 + R^2, carried on weight 2 pi R.
        R, x = 1.3, (0.6, -1.1)
        f = lambda px, py: px**2 + py**2
        expected = 2.0 * math.pi * R * (x[0] ** 2 + x[1] ** 2 + R**2)
        assert abs(circle_average(f, Circle((0.0, 0.0), R), x) - expected) < 1e-11

    def test_measure_center_does_not_enter(self):
        f = lambda x, y: np.sin(x) * np.cosh(y)
        a = circle_average(f, Circle((0.0, 0.0), 0.9), (0.4, 0.2))
        b = circle_average(f, Circle((5.0, -7.0), 0.9), (0.4, 0.2))
        assert a == b

    def test_only_values_on_the_circle_matter(self):
        # Two fields that agree on a thin band around the sampling circle
        # give bitwise-equal averages no matter how wildly they differ away
        # from it.
        x0, R = (0.4, 0.2), 0.9

        def base(x, y):
            return np.sin(x) + y

        def spoiled(x, y):
            dist = np.hypot(np.asarray(x) - x0[0], np.asarray(y) - x0[1])
            return np.where(np.abs(dist - R) < 0.25, base(x, y), 1e6)

        a = circle_average(base, Circle((0.0, 0.0), R), x0)
        b = circle_average(spoiled, Circle((0.0, 0.0), R), x0)
        assert a == b

    def test_constant_callable_is_broadcast(self):
        # A callable may return one number for all points; each operator
        # broadcasts it and matches the array-returning field bit for bit.
        c, x0 = Circle((0.3, -0.2), 1.7), (1.0, -2.0)
        scalar, array = (lambda x, y: 2.5), const_field(2.5)
        assert circle_average(scalar, c, x0) == circle_average(array, c, x0)
        m = RingMeasure.uniform(c)
        assert pair_with_test(m, scalar) == pair_with_test(m, array)
        theta = np.linspace(0.0, 2.0 * math.pi, 9)
        assert_array_equal(restrict_to_circle(scalar, c).density_values(theta),
                           restrict_to_circle(array, c).density_values(theta))

    def test_mean_normalizes_to_the_constant(self):
        got = circle_mean(const_field(2.5), Circle((0.0, 0.0), 0.8), (3.0, 4.0))
        assert abs(got - 2.5) < 1e-13


class TestCircleAverageField:
    def make_grid(self, func, extent=3.0, spacing=0.01):
        n = round(extent / spacing) + 1
        coords = -extent / 2.0 + np.arange(n) * spacing
        X, Y = np.meshgrid(coords, coords)
        return Field2D.from_grid(func(X, Y), spacing)

    # At a whole R / spacing the offsets at theta = 0 and pi/2 land exactly on the stencil's edge.
    @pytest.mark.parametrize("radius, spacing, side", [
        (0.5, 0.05, 21),
        (0.14, 0.02, 87),  # R / spacing is 7.000000000000001: those offsets are clipped onto the edge
        (0.5, 0.1, 11),
        (1e-14, 0.05, 41),  # no whole cell: the output keeps the input's shape
    ], ids=["ten-cells", "clipped-edge", "five-cells", "zero-cells"])
    def test_constant_grid(self, radius, spacing, side):
        f = self.make_grid(lambda x, y: np.full_like(x, 1.5), extent=2.0, spacing=spacing)
        out = circle_average_field(f, Circle((0.0, 0.0), radius), n=64)
        assert out.values.shape == (side, side)
        assert_allclose(out.values, 1.5 * 2.0 * math.pi * radius, rtol=1e-12)

    def test_stencil_matches_per_point_averages(self):
        # At 7.3 cells no circle node lies within an ulp of the grid's edge, so
        # every point's own bilinear circle average is defined.
        values = np.random.default_rng(11).standard_normal((41, 41))
        f = Field2D.from_grid(values, 0.1)
        circ = Circle((0.0, 0.0), 0.73)
        out = circle_average_field(f, circ, n=64)
        oc = out.grid_coords()
        ref = np.array([[circle_average(f, circ, (x, y), 64) for x in oc] for y in oc])
        assert np.max(np.abs(out.values - ref)) <= 1e-13 * 2.0 * math.pi * 0.73 * np.max(np.abs(values))

    def test_ramp_grid_is_exact(self):
        # Bilinear interpolation reproduces a linear field exactly and the
        # cosine sum over a full period is exact, so only rounding remains.
        f = self.make_grid(lambda x, y: x, extent=2.0, spacing=0.05)
        out = circle_average_field(f, Circle((0.0, 0.0), 0.3), n=128)
        expected = 2.0 * math.pi * 0.3 * out.grid_coords()[None, :]
        assert np.max(np.abs(out.values - np.broadcast_to(expected, out.values.shape))) < 1e-10

    def test_gaussian_probes_match_dense_quadrature(self):
        f = self.make_grid(lambda x, y: np.exp(-(x**2 + y**2)))
        analytic = lambda x, y: np.exp(-(x**2 + y**2))
        circ = Circle((0.0, 0.0), 1.0)
        out = circle_average_field(f, circ, n=256)
        assert out.values.shape == (101, 101)
        oc = out.grid_coords()
        for i in (0, 25, 50, 75, 100):
            for j in (0, 40, 100):
                ref = circle_average(analytic, circ, (float(oc[j]), float(oc[i])), n=4096)
                assert abs(out.values[i, j] - ref) < 1e-4

    def test_bands_keep_the_bits_of_one_pass(self, monkeypatch):
        # One core adds every tap over the whole output in one band; 87 output
        # rows split 44 + 43 on two cores and 29 + 29 + 29 on three.
        f = Field2D.from_grid(np.random.default_rng(5).standard_normal((101, 101)), 0.02)
        circ = Circle((0.0, 0.0), 0.14)
        monkeypatch.setattr(core, "_usable_cores", lambda: 1)
        serial = circle_average_field(f, circ, n=64).values
        assert serial.shape == (87, 87)
        for cores in (2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            assert np.array_equal(circle_average_field(f, circ, n=64).values, serial)

    def test_circle_must_fit(self):
        f = self.make_grid(lambda x, y: x + y, extent=1.0, spacing=0.1)
        with pytest.raises(ValueError):
            circle_average_field(f, Circle((0.0, 0.0), 0.6))

    def test_needs_a_sampled_field(self):
        with pytest.raises(ValueError):
            circle_average_field(const_field(1.0), Circle((0.0, 0.0), 0.5))


class TestMollifiedRingConsistency:
    def test_average_over_one_ring_matches_smoothed_kernel(self):
        # Averaging a radially mollified ring of radius r2 over circles of
        # radius r1 is the two-ring convolution smoothed once.  The smoothed
        # oracle bakes in two mollification passes (variance 2 eps^2), so
        # feeding it eps/sqrt(2) dials it back to a single pass.
        r1, r2, eps = 2.0, 3.0, 0.05
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * eps)
        ring = lambda x, y: norm * np.exp(-((np.hypot(x, y) - r2) ** 2) / (2.0 * eps**2))
        rho = np.array([1.5, 2.0, 3.0, 4.0, 4.5])
        want = smoothed_profile(rho, r1, r2, eps / math.sqrt(2.0))
        for k, r in enumerate(rho):
            got = circle_average(ring, Circle((0.0, 0.0), r1), (float(r), 0.0), n=4096)
            assert abs(got - want[k]) < 5e-3 * want[k]


class TestField2D:
    def test_bilinear_reproduces_bilinear_functions(self):
        coords = np.linspace(-1.0, 1.0, 21)
        X, Y = np.meshgrid(coords, coords)
        f = lambda x, y: 2.0 + 3.0 * x - y + 0.5 * x * y
        field = Field2D.from_grid(f(X, Y), 0.1)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1.0, 1.0, 50)
        ys = rng.uniform(-1.0, 1.0, 50)
        assert_allclose(field(xs, ys), f(xs, ys), atol=1e-13)

    def test_no_extrapolation(self):
        field = Field2D.from_grid(np.zeros((5, 5)), 0.5)
        for x in (1.25, math.nan):
            with pytest.raises(ValueError):
                field(x, 0.0)

    def test_sampled_field_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            ref = weakref.ref(Field2D.from_grid(np.zeros((5, 5)), 0.5))
            assert ref() is None
        finally:
            gc.enable()

    def test_scalar_call_returns_float(self):
        coords = np.linspace(-1.0, 1.0, 5)
        field = Field2D.from_grid(coords[None, :] + coords[:, None], 0.5)
        out = field(0.5, -1.0)
        assert isinstance(out, float) and out == -0.5

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Field2D.from_grid(np.zeros((3, 4)), 0.1)
        for spacing in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                Field2D.from_grid(np.zeros((3, 3)), spacing)
        with pytest.raises(ValueError):
            Field2D.from_grid(np.full((3, 3), np.nan), 0.1)

    def test_grid_coords_span_the_extent(self):
        field = Field2D.from_grid(np.zeros((11, 11)), 0.2)
        coords = field.grid_coords()
        assert abs(coords[0] + 1.0) < 1e-15 and abs(coords[-1] - 1.0) < 1e-15
        assert_allclose(np.diff(coords), 0.2, rtol=0, atol=1e-15)
