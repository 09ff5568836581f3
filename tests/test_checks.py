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
    "mass-check --r1": (lambda: checks.mass_check(1.0, 2.0, 8), ["quadrature mass vs analytic"]),
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


def test_nan_measurement_fails():
    results = checks.ring_operator_check(2.0, (math.nan, 0.0), 16, 1)
    assert all(math.isnan(r.measured) for r in results)
    assert not any(r.ok for r in results)


@pytest.mark.parametrize("r1, r2", [(1e-9, 1.0), (3.0, 1e-12), (1e-12, 1e3), (1.5, 1e-9)])
def test_interior_minimum_value_at_thin_supports(r1, r2):
    # The support's ends round at these ratios; the density at hypot(r1, r2) is still 2 to rounding.
    result = checks.interior_minimum_check([(r1, r2)])[0]
    assert result.label == MINIMUM[0] and result.ok
