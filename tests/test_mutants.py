"""Named defects, each one monkeypatch of a private function, and the check verdicts each must turn to FAIL.

The private functions are the closed form's ends and density, J0's pieces,
the root route's end offsets, which only a sweep at a wide radius ratio sees,
the Monte Carlo pool's dispatch of a block to its kernel, and the filtered
kernel's error bound, whose defects no verdict sees and the kernel edge test
must.

The table pins what each check sees: a verdict listed against a mutant must
FAIL under it, and every other verdict must still PASS.  The README's
validation section shows the same table.
"""

import numpy as np
import pytest

from ringconv import checks, core, oracle, special
from ringconv.core import Circle
from test_oracle import KERNEL_CASES, kernel_disagreements

_exact_ends, _interior_density, _j0_piece = core._exact_ends, core._interior_density, special._j0_piece
_end_offsets, _filter_bound = core._end_offsets, oracle._filter_bound


def _shifted_ends(r1, r2):
    lo, lo_err, hi, hi_err = _exact_ends(r1, r2)
    return lo, lo_err - 0.1 * lo, hi, hi_err + 0.1 * hi


def _cancelling_offsets(theta, r1, r2):
    rough, end, err, _ = _end_offsets(theta, r1, r2)
    return rough, end, err, (rough - end) - err


def _absolute_point(c1, c2, arrays, edges, counts, sector_counts):
    # The summed point formed about the origin, then moved back by b1 + b2: it rounds at the centres' scale.
    (t1, t2, _, _, _), _, _ = arrays
    (x1, y1), (x2, y2) = c1.center, c2.center
    dx = (x1 + c1.radius * np.cos(t1)) + (x2 + c2.radius * np.cos(t2)) - (x1 + x2)
    dy = (y1 + c1.radius * np.sin(t1)) + (y2 + c2.radius * np.sin(t2)) - (y1 + y2)
    oracle._bin_block(dx, dy, edges, counts, sector_counts)


MUTANTS = {
    # The closed form's ends moved by a tenth: eval_conv(2; 2, 3) goes from 3.024 to 2.669.
    "exact-ends-shift": (core, "_exact_ends", _shifted_ends),
    "density-scaled": (core, "_interior_density", lambda p, r1, r2: _interior_density(p, r1, r2) * (1.0 + 1e-6)),
    # Every J0 piece evaluated at x + 1e-9, the Hankel expansion's phase off by 1e-9.
    "j0-phase": (special, "_j0_piece", lambda k, x, *rows: _j0_piece(k, x + 1e-9, *rows)),
    # psi's offset from the nearer support end taken from psi's hypot, which cancels there.
    "end-offset-cancels": (core, "_end_offsets", _cancelling_offsets),
    # A sampler that forms the absolute point before it subtracts the centres.
    "absolute-point": (oracle, "_job_block", _absolute_point),
    # The filtered sampler kernel trusting its cheap bin and sector right up to each edge.
    "filter-margin-zero": (oracle, "_filter_bound", lambda *args: (0.0, 0.0, 0.0, 0.0)),
    # The filter's bound written for float64 trig, with its unit roundoff and ulps, whatever trig it takes:
    # the float32 route then trusts margins 1e8 to 3e8 times too narrow.
    "float32-bound-as-float64": (oracle, "_filter_bound", lambda *args: _filter_bound(*args[:-1], np.float64)),
}

HANKEL = [f"{kind} r1={r1:g} r2={r2:g}" for r1, r2 in checks.CHECK_PAIRS
          for kind in ("product identity", "consistency square")]
# Verdict -> the mutants that must turn it to FAIL.
KILLED_BY = {
    "mass-check (2, 3)": {"exact-ends-shift", "density-scaled"},
    # Both sides of the transform identities move with J0: they differ by 2.2e-10 of the mass against 1e-8.
    **{f"hankel-check {label}": {"exact-ends-shift", "density-scaled"} for label in HANKEL},
    "hankel-check gaussian self-inverse round trip": set(),
    # 1.4e-10 to 2.2e-10 against 1e-10: the average of J0(x + 1e-9) is not the product of two shifted J0s.
    **{f"neumann-check angular average vs product r1={r1:g} r2={r2:g}": {"j0-phase"}
       for r1, r2 in checks.NEUMANN_PAIRS},
    # The profile tolerance is 5%: a 1e-6 scaling is far below what the grid resolves.
    "grid-check profile": {"exact-ends-shift"},
    "roots-check root-path vs closed form, 1000 random triples": {"exact-ends-shift", "density-scaled"},
    "roots-check interior minimum value 2 at sqrt(r1^2+r2^2)": {"exact-ends-shift", "density-scaled"},
    # A constant factor keeps the minimum below its neighbours.
    "roots-check minimum strictly below 1% perturbations": {"exact-ends-shift"},
    # At a radius ratio of 1e9 the sweep radii put psi within a few ulps of its plateau near an end.
    "roots-check radial sweep (1, 1e-9)": {"exact-ends-shift", "density-scaled", "end-offset-cancels"},
    # Centres near 1e12 round the absolute point to about 1e-4, a count flip in every few hundred samples of
    # bins 0.1 wide; at |b| near 5 a flip has about a 5e-14 chance per sample and edge, and none shows.
    "mc-check shift equivariance (bitwise)": {"absolute-point"},
}


def _verdicts():
    results = {"mass-check (2, 3)": checks.mass_check(2.0, 3.0, 256)[0][0]}
    results.update((f"hankel-check {r.label}", r)
                   for r in checks.transform_product_check(checks.CHECK_PAIRS, 256) + checks.gauss_roundtrip_check())
    results.update((f"neumann-check {r.label}", r) for r in checks.neumann_check(checks.NEUMANN_PAIRS, 4096))
    results["grid-check profile"] = checks.grid_check(Circle((0.0, 0.0), 2.0), Circle((0.0, 0.0), 3.0),
                                                      12.0, 0.04, 0.1)[0]
    # roots-check at its default seed: the minimum's pairs continue the triples' stream.
    rng = np.random.default_rng(12345)
    roots = checks.roots_random_check(rng) + checks.interior_minimum_check(rng.uniform(0.1, 5.0, (100, 2)))
    results.update((f"roots-check {r.label}", r) for r in roots)
    results["roots-check radial sweep (1, 1e-9)"] = checks.roots_sweep_check(1.0, 1e-9)[0]
    results["mc-check shift equivariance (bitwise)"] = checks.mc_check(
        Circle((1e12, 0.0), 2.0), Circle((0.0, 1e12), 3.0), 20_000, 52, 7, 0.2, 8)[0][3]
    return results


@pytest.mark.parametrize("mutant", [None, *MUTANTS])
def test_verdict_table(mutant, monkeypatch):
    if mutant is not None:
        monkeypatch.setattr(*MUTANTS[mutant])
    results = _verdicts()
    assert sorted(results) == sorted(KILLED_BY)
    failed = {name for name, result in results.items() if not result.ok}
    assert failed == {name for name, killers in KILLED_BY.items() if mutant in killers}


def test_filter_margin_zero_is_killed_by_the_kernel_edge_test(monkeypatch):
    # Few random draws land within float32 rounding of an edge: at (2, 3) and the mc-check defaults this
    # mutant, like the next, moves 830 of 10,485,760 radii and 25 angles to a neighbouring bin or sector,
    # which no verdict sees, so no verdict row lists them.  On the edge pairs every case moves some.
    monkeypatch.setattr(*MUTANTS["filter-margin-zero"])
    assert all(kernel_disagreements(case)[0] > 0 for case in KERNEL_CASES)


def test_float32_bound_as_float64_is_killed_by_the_kernel_edge_test(monkeypatch):
    monkeypatch.setattr(*MUTANTS["float32-bound-as-float64"])
    assert all(kernel_disagreements(case)[0] > 0 for case in KERNEL_CASES)
