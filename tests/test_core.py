import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from ringconv import core
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
    _NODE_ROUNDING_LIMIT,
    _angular_rule,
)
from oracles import conv_density_squared

radii = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
# Radii from 1e-150 to 1e150, at ratios up to 1e12 either way; a ratio exponent of 0 gives equal radii.
wide_radii = st.tuples(st.floats(-138.0, 138.0), st.floats(-12.0, 12.0)).map(
    lambda t: (10.0**t[0], 10.0**t[0] * 10.0**t[1]))

# Radius pairs at ratios from 1e3 to 1e12, where roots-check's sweep radii put psi near a support end.
SWEEP_PAIRS = [
    (1e-12, 1e-3), (1e-12, 1.0), (1e-12, 3.0), (1e-12, 1e3), (1e-9, 1.0), (1e-9, 3.0), (1e-9, 1e3),
    (1e-3, 1e-12), (1e-3, 1e7), (1e-3, 1e9), (1.0, 1e-12), (1.0, 1e-9), (1.0, 1e7), (1.0, 1e9),
    (3.0, 1e-12), (3.0, 1e-9), (3.0, 1e7), (3.0, 1e9), (1e3, 1e-12), (1e3, 1e-9), (1e7, 1e-3), (1e7, 1.0),
    (1e9, 1e-3), (1e9, 1.0), (1e9, 3.0),
]


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


@st.composite
def triple_lists(draw):
    """One to eight ``wide_triples``, some moved onto an end of their support or onto the origin at equal radii."""
    triples = []
    for rho, r1, r2 in draw(st.lists(wide_triples(interior=False), min_size=1, max_size=8)):
        lo, hi = support_interval(r1, r2)
        where = draw(st.sampled_from(["as drawn", "lower end", "upper end", "origin at equal radii"]))
        if where == "origin at equal radii":
            rho, r2 = 0.0, r1
        elif where != "as drawn":
            rho = lo if where == "lower end" else hi
        triples.append((rho, r1, r2))
    return triples


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

    @settings(max_examples=300)
    @given(triple_lists())
    def test_broadcast_entries_have_the_bits_of_scalar_calls(self, triples):
        rho, r1, r2 = np.array(triples).T
        scalar = np.array([eval_conv(*triple) for triple in triples])
        assert eval_conv(rho, r1, r2).tobytes() == scalar.tobytes()
        # A column of radius pairs against a row of rho: every cell is its own scalar call.
        table = np.array([[eval_conv(p, a, b) for p in rho] for a, b in zip(r1, r2)])
        assert eval_conv(rho, r1[:, None], r2[:, None]).tobytes() == table.tobytes()
        assert eval_conv(rho[0], r1, r2).tobytes() == table[:, 0].tobytes()

    @given(st.lists(wide_radii, min_size=1, max_size=6), st.data())
    def test_broadcast_rejects_the_first_bad_pair_as_its_scalar_call_does(self, pairs, data):
        r1, r2 = np.array(pairs).T
        k = data.draw(st.integers(0, len(pairs) - 1))
        bad = data.draw(st.sampled_from(["non-positive r1", "non-positive r2", "overflow"]))
        if bad == "overflow":
            # Every pair from k on overflows r1 + r2; the first names its larger radius.
            r1[k:] = data.draw(st.lists(st.floats(1e308, 1.7e308), min_size=len(pairs) - k, max_size=len(pairs) - k))
            r2[k:] = data.draw(st.lists(st.floats(1e308, 1.7e308), min_size=len(pairs) - k, max_size=len(pairs) - k))
            with pytest.raises(ParameterError) as scalar:
                eval_conv(1.0, r1[k], r2[k])
            with pytest.raises(ParameterError) as broadcast:
                eval_conv(1.0, r1, r2)
            assert broadcast.value.param == scalar.value.param == ("r1" if r1[k] >= r2[k] else "r2")
            assert str(broadcast.value) == str(scalar.value)
        else:
            (r1 if bad == "non-positive r1" else r2)[k] = data.draw(st.sampled_from([0.0, -0.0, -1.0, -1e-300]))
            with pytest.raises(ValueError, match=bad.split()[1] + " must be a finite positive number"):
                eval_conv(np.ones(len(pairs)), r1, r2)

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

    @pytest.mark.parametrize("x, y, r1", [
        # 500 rows of 300 go in blocks of 218 rows, the last one short.
        (np.linspace(-6.0, 6.0, 300)[None, :], np.linspace(-5.0, 5.0, 500)[:, None], 2.0),
        (np.linspace(-6.0, 6.0, 2 * 2**16 + 5), 0.5, 2.0),
        (np.full((3, 4), 1.5), np.arange(4.0), np.linspace(1.0, 3.0, 4)),
        (1.5, -2.0, 2.0),
    ], ids=["column-by-row", "1-d", "full-2-d-and-radius-row", "0-d"])
    def test_blocks_and_cores_keep_the_bits_of_one_call(self, monkeypatch, x, y, r1):
        center = (0.25, -0.5)
        whole = eval_conv(np.hypot(np.asarray(x) - center[0], np.asarray(y) - center[1]), r1, 3.0)
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            got = eval_conv_2d(x, y, r1, 3.0, center)
            assert type(got) is type(whole) and np.shape(got) == np.shape(whole)
            assert np.array_equal(got, whole)

    def test_a_bad_point_in_the_last_block_raises_as_one_call_would(self, monkeypatch):
        x, y = np.linspace(-6.0, 6.0, 300), np.linspace(-5.0, 5.0, 500)
        y[-1] = np.nan
        with pytest.raises(ValueError) as whole:
            eval_conv(np.hypot(x[None, :], y[:, None]), 2.0, 3.0)
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            before = threading.active_count()
            with pytest.raises(ValueError) as exc:
                eval_conv_2d(x[None, :], y[:, None], 2.0, 3.0)
            assert type(exc.value) is type(whole.value) and str(exc.value) == str(whole.value)
            assert threading.active_count() == before

    def test_radii_are_checked_before_any_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(core, "_usable_cores", lambda: 3)
        monkeypatch.setattr(core.threading, "Thread", no_threads)
        c = np.linspace(-6.0, 6.0, 601)
        with pytest.raises(ParameterError) as exc:
            eval_conv_2d(c[None, :], c[:, None], 1e308, 1e308)
        assert exc.value.param == "r1"
        with pytest.raises(ValueError, match="r2 must be a finite positive number"):
            eval_conv_2d(c[None, :], c[:, None], 2.0, -1.0)

    def test_a_2401_grid_holds_little_beyond_its_output(self):
        # The output is 46 MB; full-grid temporaries once took the peak to 185 MB.
        c = -6.0 + np.arange(2401) * 0.005
        tracemalloc.start()
        try:
            eval_conv_2d(c[None, :], c[:, None], 2.0, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 70e6


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestSquareGrid:
    """``core._eval_conv_square``, the surface's grid from one triangle and its mirror."""

    @pytest.mark.parametrize("coords", [
        *(pytest.param(-6.0 + np.arange(n) * 12.0 / max(n - 1, 1), id=str(n)) for n in (1, 2, 3, 28, 601)),
        # 2401 rows go in blocks of 27, so the mirror copies cross 89 blocks.
        pytest.param(-6.0 + np.arange(2401) * 0.005, id="2401"),
        # Unsorted, both zeros, the support's ends and points on them, past them and at the collapse radius.
        pytest.param(np.array([0.3, -0.0, 5.0, -1.0, 0.0, 3.6055512754639896, -5.0, 1e-300, 6.5, -2.0]),
                     id="signed-zeros"),
    ])
    def test_keeps_the_bits_of_the_full_grid(self, monkeypatch, coords):
        whole = eval_conv_2d(coords[None, :], coords[:, None], 2.0, 3.0)
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            assert np.array_equal(bits(core._eval_conv_square(coords, 2.0, 3.0)), bits(whole)), cores

    def test_hypot_is_symmetric_to_the_bit(self):
        # The mirror copy holds only because np.hypot(a, b) and np.hypot(b, a) round alike.
        rng = np.random.default_rng(37)
        a, b = rng.standard_normal((2, 2**16)) * 10.0 ** rng.uniform(-3, 3, (2, 2**16))
        sub = rng.integers(1, 2**52, (2, 2**12)).view(float)
        big = 1e300 * rng.uniform(0.5, 1.7, (2, 2**12))
        for x, y in ((a, b), (*sub,), (*big,), (sub[0], a[:2**12]), (big[0], sub[1]), (-a, b)):
            assert np.array_equal(bits(np.hypot(x, y)), bits(np.hypot(y, x)))


class TestRowBlocks:
    @pytest.mark.parametrize("shape", [(500, 300), (2 * 2**16 + 5,), (5, 0), (0, 4), (87, 87), (2, 9)])
    def test_every_row_is_written_once(self, monkeypatch, shape):
        # More workers than cores, switching threads as often as the interpreter allows.
        monkeypatch.setattr(core, "_usable_cores", lambda: 8)
        visits = np.zeros(shape[0], dtype=np.int64)

        def visit(s):
            visits[s] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            core._on_row_blocks(visit, shape)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(visits, np.ones(shape[0], dtype=np.int64))


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

    def test_pinned_sin_keeps_the_bits_of_the_remainder_test(self):
        # sin(theta) times (remainder(theta, pi) != 0), bit for bit, at 0 and the multiples k pi (exact for
        # k = 0..8, 10, 12, 16, 2^40; rounded for 9 and 11), their three neighbours each side, both signs,
        # and inf and NaN; as an array within 8.5 pi, as one array with all of them, and one at a time.
        k = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 8.5, 9, 10, 11, 12, 16, 2.0**40])
        theta = [k * math.pi]
        for direction in (-np.inf, np.inf):
            step = theta[0]
            for _ in range(3):
                step = np.nextafter(step, direction)
                theta.append(step)
        theta = np.concatenate(theta + [-np.concatenate(theta), [np.inf, -np.inf, np.nan]])
        with np.errstate(invalid="ignore"):  # sin and remainder of inf
            expected = (np.sin(theta) * (np.remainder(theta, math.pi) != 0.0)).view(np.int64)
            within = np.abs(theta) <= 8.5 * math.pi
            assert np.array_equal(core._pinned_sin(theta[within]).view(np.int64), expected[within])
            assert np.array_equal(core._pinned_sin(theta).view(np.int64), expected)
            assert [np.float64(core._pinned_sin(t)).view(np.int64) for t in theta] == expected.tolist()

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
        assert abs(interior_root(1.0, 1.0, 1.0) - math.pi / 3.0) <= math.ulp(math.pi / 3.0)

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
        # Angles near both ends of (0, pi), so both of phi's branches run.
        theta = np.array([[1e-9, 1.3, 3.1], [0.4, 2.0, math.pi - 1e-9]])
        values = phi(rho, theta, r1, r2)
        expected = [[phi(float(p), float(t), float(a[0]), float(b[0])) for p, t in zip(prow, trow)]
                    for prow, trow, a, b in zip(rho, theta, r1, r2)]
        assert np.array_equal(values, expected)
        assert type(phi(1.0, 1.0, 1.0, 1.0)) is np.float64

    @pytest.mark.parametrize("r1, r2", SWEEP_PAIRS)
    def test_sweep_radii_within_a_few_ulps_of_the_exact_density(self, r1, r2):
        lo, hi = support_interval(r1, r2)
        rhos = lo + np.linspace(0.05, 0.95, 19) * (hi - lo)
        for rho, value in zip(rhos, conv_via_roots(rhos, r1, r2)):
            ratio = Fraction(float(value)) ** 2 / conv_density_squared(float(rho), r1, r2)
            assert (1 - 4e-15) ** 2 <= ratio <= (1 + 4e-15) ** 2

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

    @pytest.mark.parametrize("r1, r2, blamed", [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in [
        (1.0, 1e7, "r1"), (1e-3, 1e3, "r1"), (1.5, 1e-9, "r2"), (1e-150, 1e-150, None), (1e-100, 3e-100, None),
        (1e100, 1e100, None), (1e150, 1e150, None), (2.0, 3.0, None), (1.0, 1.0, None),
    ]])
    def test_exact_at_extreme_radii_and_ratios(self, r1, r2, blamed):
        # The tolerance of checks.mass_check at any magnitude.  At the three large ratios rounding the
        # nodes near the support's ends would move the mass by far more, so the rule names the smaller radius.
        k = ConvKernel(r1, r2)
        if blamed is None:
            assert abs(total_mass(k) - k.mass) / k.mass < 1e-10
        else:
            with pytest.raises(ParameterError) as exc:
                total_mass(k)
            assert exc.value.param == blamed

    @pytest.mark.parametrize("r1, r2, n", [(1.0, 1.0, 50000), (1e3, 1.0, 256), (1.0, 1e-4, 64)])
    def test_node_rounding_that_one_node_meets_names_nodes(self, r1, r2, n):
        with pytest.raises(ParameterError, match="fewer nodes would meet it") as exc:
            total_mass(ConvKernel(r1, r2), n)
        assert exc.value.param == "nodes"

    @pytest.mark.parametrize("r1, r2, blamed", [(1e300, 1e300, "r1"), (3e200, 1e200, "r1"), (1e200, 3e200, "r2"),
                                                (1e-300, 1e-300, "r1"), (1e-160, 3e-160, "r1")])
    def test_mass_out_of_the_normal_range_names_a_radius(self, r1, r2, blamed):
        with pytest.raises(ParameterError, match="normal float range") as exc:
            total_mass(ConvKernel(r1, r2))
        assert exc.value.param == blamed

    @given(radii, radii, st.integers(min_value=1, max_value=64))
    def test_second_moment_at_any_node_count(self, r1, r2, n):
        # rho^2 = r1^2 + r2^2 - 2 r1 r2 cos(theta) on the nodes, and the midpoint rule in theta
        # integrates cos(theta) to 0 at any n: the moment is mass (r1^2 + r2^2).
        rho, w = _angular_rule(r1, r2, n, _NODE_ROUNDING_LIMIT, "nodes")
        k = ConvKernel(r1, r2)
        assert abs(np.sum(w * rho**2) - k.mass * (r1**2 + r2**2)) < 1e-12 * k.mass * (r1**2 + r2**2)

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

    @pytest.mark.parametrize("make", [lambda r: Circle((0.0, 0.0), r), lambda r: ConvKernel(r, 1.0),
                                      lambda r: ConvKernel(1.0, r)])
    def test_one_object_takes_one_radius(self, make):
        # support_interval broadcasts over radius arrays; a Circle or a ConvKernel does not.
        with pytest.raises(TypeError):
            make(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_circle_rejects_a_centre_that_is_not_finite(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            Circle(center, 1.0)

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
