"""Acceptance gate: one check per shipped guarantee, one printed line each.

Every test prints ``PASS``/``FAIL criterion NN (label): detail`` before its
assertion so a full run reads as a scoreboard (run pytest with ``-s`` or
``-rA`` to see the lines).  Tolerances here are contractual; loosening one
is a behavior change, not a test fix.
"""

import math

import numpy as np
import pytest

from ringconv import checks
from ringconv.core import Circle
from ringconv.special import bessel_j0
from ringconv.cli import main

from oracles import j0_series_oracle, j0_zero_oracle

MC_SEED = 20260814


def report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} ({label}): {detail}")
    return ok


def within(result: checks.CheckResult) -> bool:
    """Strictly inside the tolerance; a bitwise check (tolerance 0) must measure 0."""
    return result.measured < result.tol if result.tol > 0.0 else result.ok


@pytest.fixture(scope="module")
def mc_results():
    # One full run on shifted circles serves both the histogram (01) and the
    # radiality (08) criteria; the shift half of 08 compares the run's first
    # 2^20-sample chunk on the shifted circles with a one-chunk probe on
    # concentric ones, bit for bit.  260 bins over [0, 5.2] have width 0.02 with edges
    # exactly at 1 and 5: the 200 bins covering [1, 5] plus flanking bins that
    # attest the zero-leakage claim.
    results, _ = checks.mc_check(Circle((1.0, 0.0), 2.0), Circle((0.0, 2.0), 3.0),
                                 10_000_000, 260, MC_SEED, 0.2, 360)
    return results


class TestAcceptance:
    def test_criterion_01_monte_carlo_histogram(self, mc_results):
        agreement, leakage, _, _ = mc_results
        ok = within(agreement) and within(leakage) and agreement.elapsed < 60.0
        assert report(1, "closed form vs Monte Carlo", ok,
                      f"max rel {agreement.measured:.3e} (tol 2e-2), "
                      f"stray counts {int(leakage.measured)}, {agreement.elapsed:.1f}s")

    def test_criterion_02_dual_path_equivalence(self):
        (result,) = checks.roots_random_check(np.random.default_rng(12345))
        assert report(2, "closed form vs root-and-slope path", within(result),
                      f"max rel {result.measured:.3e} over 1000 interior triples (tol 1e-9)")

    def test_criterion_03_transform_product_identity(self):
        pairs = [(1.0, 1.0), (2.0, 3.0), (0.5, 2.5)]
        results = checks.transform_product_check(pairs, 256)
        products, squares = results[0::2], results[1::2]
        worst_ratio = max(r.measured / ((2.0 * math.pi) ** 2 * r1 * r2)
                          for r, (r1, r2) in zip(products, pairs))
        ok = worst_ratio < 1e-8 and all(within(r) for r in squares)
        assert report(3, "transform of the kernel factorizes", ok,
                      f"max |err|/scale {worst_ratio:.3e} over 3 pairs x 41 radii (tol 1e-8)")

    def test_criterion_04_angular_average_identity(self):
        results = checks.neumann_check([(1.0, 1.0), (2.0, 3.0), (0.5, 2.5), (1.5, 0.7)], 4096)
        worst = max(r.measured for r in results)
        assert report(4, "angular average of J0 equals the product", worst < 1e-10,
                      f"max |lhs-rhs| {worst:.3e} over the frequency grid (tol 1e-10)")

    def test_criterion_05_mass_conservation(self):
        (result,) = checks.mass_sweep_check(777)
        assert report(5, "quadrature mass equals analytic mass", within(result),
                      f"max rel {result.measured:.3e} over 100 random pairs (tol 1e-12)")

    def test_criterion_06_interior_minimum(self):
        rng = np.random.default_rng(424242)
        value, strict = checks.interior_minimum_check([tuple(rng.uniform(0.1, 5.0, 2)) for _ in range(100)])
        ok = within(value) and within(strict)
        assert report(6, "interior minimum is 2 at the right-angle radius", ok,
                      f"max |value-2| {value.measured:.3e} (tol 1e-12), strict minimum {strict.ok}")

    def test_criterion_07_grid_convolution(self):
        profile, mass, swap = checks.grid_check(Circle((0, 0), 2.0), Circle((0, 0), 3.0),
                                                extent=12.0, spacing=0.01, epsilon=0.05)
        ok = within(profile) and within(mass) and within(swap) and profile.elapsed < 120.0
        assert report(7, "FFT grid convolution vs smoothed closed form", ok,
                      f"profile rel {profile.measured:.3e} (tol 5e-2), "
                      f"mass rel {mass.measured:.3e} (tol 5e-3), {profile.elapsed:.1f}s")

    def test_criterion_08_radiality_and_shift(self, mc_results):
        _, _, sectors, shift = mc_results
        ok = within(sectors) and within(shift)
        assert report(8, "sector uniformity and shift equivariance", ok,
                      f"max sector deviation {sectors.measured:.2f} sigma (tol 4), "
                      f"shifted chunk 0 and concentric one-chunk probe bit-identical {shift.ok}")

    def test_criterion_09_ring_operators(self):
        *averages, restriction, pairing = checks.ring_operator_check(2.0, (0.7, -0.4), 256, MC_SEED)
        # The averages are held to an absolute 1e-10, stricter than the
        # CLI's 1e-10 per unit of circumference.
        worst_avg = max(r.measured for r in averages)
        ok = worst_avg < 1e-10 and within(restriction) and within(pairing)
        assert report(9, "ring operator identities", ok,
                      f"averages {worst_avg:.3e} (tol 1e-10), restriction {restriction.measured:.3e} "
                      f"(tol 1e-12), pairing {pairing.measured:.3e} (tol 1e-10)")

    def test_criterion_10_bessel_j0(self):
        xs = np.linspace(0.0, 8.0, 161)
        grid_err = max(abs(float(bessel_j0(float(x))) - j0_series_oracle(float(x), terms=60)) for x in xs)
        brackets = [(2.3, 2.5), (5.4, 5.6), (8.5, 8.8), (11.7, 11.9), (14.8, 15.0)]
        zero_err = 0.0
        for lo, hi in brackets:
            root = j0_zero_oracle(lo, hi, terms=120)
            zero_err = max(zero_err, abs(float(bessel_j0(root))))
        ok = grid_err < 1e-10 and zero_err < 1e-10
        assert report(10, "self-contained J0 vs long-series oracle", ok,
                      f"grid err {grid_err:.3e}, residual at 5 oracle zeros {zero_err:.3e} (tol 1e-10)")

    def test_criterion_11_self_inverse_round_trip(self):
        (result,) = checks.gauss_roundtrip_check()
        assert report(11, "Gaussian double transform returns itself", within(result),
                      f"sup error {result.measured:.3e} over r in [0, 3] (tol 1e-6)")

    def test_criterion_12_cli_determinism(self, tmp_path, capsys):
        jobs = {
            "profile": ["profile"],
            "surface": ["surface", "--extent", "6", "--spacing", "0.05", "--format", "pgm"],
            "mc-check": ["mc-check", "--samples", "1000000", "--bins", "100",
                         "--sectors", "64", "--seed", str(MC_SEED)],
        }
        identical = True
        for name, argv in jobs.items():
            a = tmp_path / f"{name}-a.out"
            b = tmp_path / f"{name}-b.out"
            main(argv + ["-o", str(a)])
            main(argv + ["-o", str(b)])
            identical &= a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        ok = bool(identical)
        assert report(12, "repeated CLI runs are byte-identical", ok,
                      f"profile/surface/mc-check reruns identical {ok}")
