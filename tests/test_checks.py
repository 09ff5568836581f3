"""The check registry's contract, which run records will serialize.

Each check keeps the labels and the number of results its CLI command prints,
and ``ok`` follows from ``measured <= tol`` alone.
"""

import math

import numpy as np
import pytest

from ringconv import checks
from ringconv.core import Circle

PAIRS = [("1", "1"), ("2", "3"), ("0.5", "2.5")]
MINIMUM = ["interior minimum value 2 at sqrt(r1^2+r2^2)", "minimum strictly below 1% perturbations"]

# command -> (the registry calls its runner makes, at small sizes; the labels it prints)
RUNS = {
    "mc-check": (
        lambda: checks.mc_check(Circle((0.5, 0.0), 2.0), Circle((0.0, 0.0), 3.0), 20_000, 52, 7, 0.2, 8)[0],
        ["interior histogram agreement", "zero leakage outside the support",
         "sector uniformity (sigma units)", "shift equivariance (bitwise)"]),
    "grid-check": (
        lambda: checks.grid_check(Circle((0.0, 0.0), 1.0), Circle((0.0, 0.0), 1.0), 5.2, 0.04, 0.08),
        ["trimmed profile vs smoothed closed form", "grid mass vs analytic mass",
         "operand swap (bitwise)"]),
    "hankel-check": (
        lambda: checks.transform_product_check(checks.CHECK_PAIRS, 32) + checks.gauss_roundtrip_check(),
        [f"{kind} r1={a} r2={b}" for a, b in PAIRS for kind in ("product identity", "consistency square")]
        + ["gaussian self-inverse round trip"]),
    "neumann-check": (
        lambda: checks.neumann_check(checks.NEUMANN_PAIRS, 64),
        [f"angular average vs product r1={a} r2={b}" for a, b in PAIRS + [("1.5", "0.7")]]),
    "mass-check": (lambda: checks.mass_sweep_check(3), ["quadrature mass, 100 random pairs"]),
    "mass-check --r1": (lambda: checks.mass_check(1.0, 2.0, 8)[0], ["quadrature mass vs analytic"]),
    "roots-check": (
        lambda: checks.roots_random_check(np.random.default_rng(3)) + checks.interior_minimum_check([(1.0, 2.0)]),
        ["root-path vs closed form, 1000 random triples"] + MINIMUM),
    "roots-check --r1": (
        lambda: checks.roots_sweep_check(2.0, 3.0) + checks.interior_minimum_check([(2.0, 3.0)]),
        ["root-path vs closed form on a radial sweep"] + MINIMUM),
    "circle-average": (
        lambda: checks.ring_operator_check(2.0, (0.7, -0.4), 16, 1),
        ["average of a constant", "average of a linear field", "average of the squared norm",
         "radial restriction is constant", "pairing identity on 20 random smooth pairs"]),
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_labels_counts_and_verdicts(command):
    run, labels = RUNS[command]
    results = run()
    assert [r.label for r in results] == labels
    for r in results:
        assert isinstance(r.measured, float) and isinstance(r.tol, float)
        assert r.ok == (r.measured <= r.tol)
        assert r.elapsed >= 0.0


def test_nan_measurement_fails(monkeypatch):
    # A NaN at the first of the 11 frequencies must survive the running maximum.
    monkeypatch.setattr(checks, "neumann_product_check", lambda r1, r2, r, n: (np.where(r == 0.0, math.nan, r), r))
    results = checks.neumann_check([(1.0, 2.0), (0.5, 2.5)], 16)
    assert all(math.isnan(r.measured) for r in results)
    assert not any(r.ok for r in results)


@pytest.mark.parametrize("r1, r2", [(1e-9, 1.0), (3.0, 1e-12), (1e-12, 1e3), (1.5, 1e-9)])
def test_interior_minimum_value_at_thin_supports(r1, r2):
    # The support's ends round at these ratios; the density at hypot(r1, r2) is still 2 to rounding.
    result = checks.interior_minimum_check([(r1, r2)])[0]
    assert result.label == MINIMUM[0] and result.ok


@pytest.mark.parametrize("r1, r2", [(1e-12, 1e3), (1e3, 1e-12)])
def test_interior_minimum_probes_a_support_a_few_ulps_wide(r1, r2):
    # The support is about 18 ulps wide, so 1% of it rounds to 0; the step is floored at one ulp of
    # hypot(r1, r2), where the probes read 2.0130513 against a centre of 2.0000000000000004.
    value, below = checks.interior_minimum_check([(r1, r2)])
    assert value.ok and below.label == MINIMUM[1] and below.ok


def test_the_routes_meet_in_one_call_per_check_or_pair(monkeypatch):
    calls = {"eval_conv": 0, "neumann_product_check": 0}

    def counted(name):
        original = getattr(checks, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(checks, name, counted(name))
    rng = np.random.default_rng(1)
    checks.roots_random_check(rng)
    checks.interior_minimum_check(rng.uniform(0.1, 5.0, (100, 2)))
    assert calls["eval_conv"] == 2
    checks.neumann_check(checks.NEUMANN_PAIRS, 64)
    assert calls["neumann_product_check"] == len(checks.NEUMANN_PAIRS)


@pytest.mark.parametrize("seed", [0, 3, 12345, 2**63 - 1])
def test_roots_check_draws_the_stream_of_a_per_triple_loop(seed, monkeypatch):
    # One (1000, 3) draw takes the generator's doubles in the loop's order, pair then u, and leaves
    # the generator where the loop does, so the minimum check's pairs do not move either.
    loop = np.random.default_rng(seed)
    r1, r2, u = np.array([[*loop.uniform(0.1, 5.0, 2), loop.uniform(0.05, 0.95)] for _ in range(1000)]).T
    lo, hi = checks.support_interval(r1, r2)
    seen = []
    monkeypatch.setattr(checks, "conv_via_roots", lambda *args: seen.append(args) or checks.eval_conv(*args))
    rng = np.random.default_rng(seed)
    checks.roots_random_check(rng)
    assert [a.tobytes() for a in seen[0]] == [a.tobytes() for a in (lo + u * (hi - lo), r1, r2)]
    assert rng.uniform(0.1, 5.0, (100, 2)).tobytes() == loop.uniform(0.1, 5.0, (100, 2)).tobytes()


@pytest.mark.parametrize("samples", [20_000, 2**20 + 1])
def test_mc_check_runs_one_full_pass_and_a_one_chunk_pair(samples, monkeypatch):
    # One pool call: the full pass gives the histogram it returns, and the shift verdict compares the full
    # pass's chunk 0 with a one-chunk probe of the same radii about the origin.
    calls, pool = [], checks._sample_pool

    def recorded(jobs, *args):
        out = pool(jobs, *args)
        calls.append((jobs, out))
        return out

    monkeypatch.setattr(checks, "_sample_pool", recorded)
    c1, c2 = Circle((0.5, 0.0), 2.0), Circle((0.0, -1.0), 3.0)
    results, hist = checks.mc_check(c1, c2, samples, 52, 7, 0.2, 8)
    [(jobs, [((counts, _), _), (probe, first)])] = calls
    concentric = (Circle((0.0, 0.0), 2.0), Circle((0.0, 0.0), 3.0), min(samples, 2**20))
    assert jobs == [(c1, c2, samples), concentric]
    assert np.array_equal(hist.counts, counts) and hist.counts.sum() == samples
    assert all(np.array_equal(a, b) for a, b in zip(probe, first))
    assert results[3].label == "shift equivariance (bitwise)" and results[3].ok


def test_shift_verdict_fails_on_a_sampler_that_reads_the_centres(monkeypatch):
    # This pool moves one count between two interior bins of every job whose circles are not concentric,
    # in its total and in its chunk 0, so the counts depend on the shift while nothing leaks: only the
    # shift verdict may catch it.
    pool = checks._sample_pool

    def shift_dependent(jobs, *args):
        out = []
        for (c1, c2, _), parts in zip(jobs, pool(jobs, *args)):
            if c1.center != c2.center:
                for counts, _ in parts:
                    counts[30] -= 1
                    counts[31] += 1
            out.append(parts)
        return out

    monkeypatch.setattr(checks, "_sample_pool", shift_dependent)
    _, leakage, _, shift = checks.mc_check(Circle((0.5, 0.0), 2.0), Circle((0.0, 0.0), 3.0), 20_000, 52, 7, 0.2, 8)[0]
    assert leakage.label == "zero leakage outside the support" and leakage.ok
    assert shift.label == "shift equivariance (bitwise)"
    assert shift.measured == 1.0 and not shift.ok
