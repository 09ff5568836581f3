import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from ringconv import special
from ringconv.special import (
    bessel_j0,
    chebyshev_singular_rule,
    i0e,
    periodic_trapezoid_rule,
)

from oracles import i0e_series_oracle, j0_series_oracle, j0_series_term, j0_zero_oracle

# Relative tolerance of the scaled I0 against its exact-rational oracle, about 18 ulps.
I0E_RTOL = 4e-15
# Absolute tolerance of J0 against its exact-rational oracle on [0, 50]; the measured worst is 2.5e-16.
J0_ATOL = 1e-15
# Both sides of every J0 piece boundary, the last one J0's switch to its asymptotic expansion.
J0_EDGE_POINTS = [float(v) for e in special._J0_EDGES for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 99.0))]


def j0_abs_error(xs, terms):
    ref = np.array([j0_series_oracle(float(x), terms) for x in xs])
    return np.max(np.abs(bessel_j0(xs) - ref))


def i0e_rel_error(xs):
    ref = np.array([i0e_series_oracle(float(x)) for x in xs])
    return np.max(np.abs(i0e(xs) - ref) / ref)


class TestBesselJ0:
    def test_value_at_zero_is_one(self):
        assert bessel_j0(0.0) == 1.0

    def test_value_at_one(self):
        # Frozen output of the 40-term exact-rational series oracle.
        assert abs(bessel_j0(1.0) - 0.7651976865579666) < 1e-12

    def test_matches_series_oracle_below_eight(self):
        xs = np.array([*np.linspace(0.0, 8.0, 161), *(x for x in J0_EDGE_POINTS if x < 8.0)])
        assert j0_abs_error(xs, 40) < J0_ATOL

    def test_matches_series_oracle_through_fifty(self):
        # Every piece and the asymptotic branch; the oracle needs extra terms this far out.
        xs = np.array([*np.linspace(0.5, 50.0, 300), *J0_EDGE_POINTS])
        assert j0_abs_error(xs, 170) < J0_ATOL

    def test_first_zero(self):
        root = j0_zero_oracle(2.40, 2.41)
        assert abs(root - 2.404825557695773) < 1e-12
        assert abs(bessel_j0(root)) < 1e-9

    def test_truncation_error_below_first_omitted_term(self):
        # Partial sums of the series (in float) stay within the first
        # omitted term of the exact value, for x up to 8.
        for x in (1.0, 4.0, 8.0):
            exact = j0_series_oracle(x, terms=80)
            for terms in (12, 16, 24):
                partial = 1.0
                term = 1.0
                for k in range(1, terms):
                    term *= -(x * x) / 4.0 / (k * k)
                    partial += term
                bound = j0_series_term(x, terms) + 1e-13
                assert abs(partial - exact) <= bound

    def test_scalar_in_scalar_out(self):
        out = bessel_j0(1.5)
        assert isinstance(out, float)

    def test_array_matches_scalar_map(self):
        xs = np.array([0.0, 0.5, 3.0, 11.9, 12.1, 30.0])
        assert_allclose(bessel_j0(xs), [bessel_j0(float(x)) for x in xs], rtol=0, atol=0)

    @pytest.mark.parametrize("f, top", [(bessel_j0, 30.0), (i0e, 25.0)])
    def test_batched_values_have_the_bits_of_scalar_calls(self, f, top):
        # Each piece runs the same operations at every argument, so no value depends on its neighbours.
        # J0's range spans all of its pieces and its asymptotic branch.
        xs = np.array([*np.linspace(0.01, top, 2000), *J0_EDGE_POINTS])
        assert f(xs).tobytes() == np.array([f(float(x)) for x in xs]).tobytes()

    @pytest.mark.parametrize("split, sign, terms", [(25.0, 1.0, special._I0E_TERMS)])
    def test_term_count_is_the_first_below_1e_17_at_the_split(self, split, sign, terms):
        z, term, magnitudes = sign * split * split / 4.0, 1.0, []
        for k in range(1, terms + 1):
            term = term * z / (k * k)
            magnitudes.append(abs(term))
        assert magnitudes[-1] < 1e-17 <= magnitudes[-2]

    def test_coefficient_table_is_the_generator_output(self):
        # tools/j0_table.py derives the table in exact rationals; special.py holds its output verbatim.
        script = Path(__file__).resolve().parents[1] / "tools" / "j0_table.py"
        table = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True).stdout
        assert table in Path(special.__file__).read_text()

    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_even_by_construction(self, x):
        assert bessel_j0(-x) == bessel_j0(x)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_bounded_by_one(self, x):
        assert abs(bessel_j0(x)) <= 1.0 + 1e-9

    def test_huge_argument_is_finite_and_silent(self):
        # x * x overflows above about 1.3e154; the 1/x^2 terms are then below an ulp.
        x = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = bessel_j0(x)
        assert math.isfinite(value)
        assert abs(value) <= math.sqrt(2.0 / (math.pi * x))

    def test_peak_memory_is_set_by_the_largest_piece(self):
        # 58% of these arguments take the Hankel branch.  Scratch rows sized by that piece peak at
        # 37.7 MiB; rows sized by the whole input reach 47.7 MiB, and a Horner step that makes two
        # fresh arrays per term peaked at 50.7 MiB.
        x = np.random.default_rng(0).uniform(0.0, 60.0, 2**20)
        tracemalloc.start()
        try:
            bessel_j0(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 42 * 2**20


class TestI0e:
    def test_value_at_zero_is_one(self):
        assert i0e(0.0) == 1.0

    def test_series_branch_matches_oracle(self):
        assert i0e_rel_error(np.linspace(0.0, 25.0, 101)) < I0E_RTOL

    def test_asymptotic_branch_matches_oracle(self):
        assert i0e_rel_error(np.linspace(25.5, 120.0, 20)) < I0E_RTOL

    def test_switch_point(self):
        # x = 25 is the last series argument; one ulp on is asymptotic.
        below, above = 25.0, float(np.nextafter(25.0, 26.0))
        assert i0e_rel_error(np.array([below, above])) < I0E_RTOL
        assert abs(i0e(above) - i0e(below)) / i0e(below) < I0E_RTOL

    def test_large_arguments_do_not_overflow(self):
        # Leading asymptotic term 1/sqrt(2 pi x); the rest adds 1/(8x) + O(1/x^2) relative.
        for x in (1e3, 1e300):
            assert -1e-15 <= i0e(x) * math.sqrt(2.0 * math.pi * x) - 1.0 <= 1.0 / (4.0 * x) + 1e-15
        assert i0e(math.inf) == 0.0

    def test_scalar_in_scalar_out_and_even(self):
        assert isinstance(i0e(1.5), float)
        xs = np.array([0.0, 0.5, 3.0, 24.9, 25.1, 300.0])
        assert_allclose(i0e(-xs), [i0e(float(x)) for x in xs], rtol=0, atol=0)


class TestChebyshevSingularRule:
    def test_constant_integrates_to_pi(self):
        for n in (1, 2, 7, 64):
            nodes, weight = chebyshev_singular_rule(-1.0, 3.5, n)
            assert abs(weight * np.sum(np.ones_like(nodes)) - math.pi) < 1e-12

    def test_linear_moment(self):
        a, b = 0.3, 2.2
        nodes, weight = chebyshev_singular_rule(a, b, 16)
        assert abs(weight * np.sum(nodes) - math.pi * (a + b) / 2.0) < 1e-12

    def test_single_node_rule(self):
        nodes, weight = chebyshev_singular_rule(1.0, 3.0, 1)
        assert nodes.tolist() == [2.0]
        assert weight == math.pi

    def test_polynomial_moments_match_analytic(self):
        from oracles import chebyshev_weight_moment

        a, b, n = 0.3, 2.2, 8
        nodes, weight = chebyshev_singular_rule(a, b, n)
        for m in range(2 * n - 1):
            expected = chebyshev_weight_moment(a, b, m)
            assert abs(weight * np.sum(nodes**m) - expected) < 1e-12 * max(1.0, abs(expected))

    def test_nodes_strictly_inside_and_weights_uniform(self):
        a, b, n = -2.0, 5.0, 33
        nodes, weight = chebyshev_singular_rule(a, b, n)
        assert np.all(nodes > a) and np.all(nodes < b)
        assert weight == math.pi / n

    def test_rejects_bad_interval_and_count(self):
        with pytest.raises(ValueError):
            chebyshev_singular_rule(2.0, 2.0, 4)
        with pytest.raises(ValueError):
            chebyshev_singular_rule(3.0, 1.0, 4)
        with pytest.raises(ValueError):
            chebyshev_singular_rule(0.0, 1.0, 0)

    def test_node_outside_interval(self):
        # An interval two ulps wide rounds outer nodes onto its endpoints.
        with pytest.raises(ValueError):
            chebyshev_singular_rule(1.0, 1.0 + 4e-16, 256)


def trapezoid_sum(f, n):
    nodes, weight = periodic_trapezoid_rule(n)
    return weight * np.sum(f(nodes))


class TestPeriodicTrapezoid:
    def test_constant(self):
        for n in (1, 2, 5, 128):
            assert abs(trapezoid_sum(lambda t: 3.0 * np.ones_like(t), n) - 6.0 * math.pi) < 1e-12

    def test_cosine_vanishes(self):
        for n in (2, 3, 16):
            assert abs(trapezoid_sum(np.cos, n)) < 1e-13

    def test_cosine_squared(self):
        for n in (3, 4, 100):
            assert abs(trapezoid_sum(lambda t: np.cos(t) ** 2, n) - math.pi) < 1e-13

    def test_exact_on_trig_polynomials(self):
        rng = np.random.default_rng(7)
        n = 17
        coefs = rng.normal(size=(2, 8))

        def f(t):
            out = np.full_like(t, 0.5)
            for k in range(1, 9):
                out = out + coefs[0, k - 1] * np.cos(k * t) + coefs[1, k - 1] * np.sin(k * t)
            return out

        # Degree 8 < n = 17, so only the constant term survives: pi.
        assert abs(trapezoid_sum(f, n) - math.pi) < 1e-13

    def test_rule_object_layout(self):
        nodes, weight = periodic_trapezoid_rule(8)
        assert_allclose(nodes, np.arange(8) * math.pi / 4.0, rtol=0, atol=0)
        assert weight == math.pi / 4.0
