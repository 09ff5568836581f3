import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ringconv
from ringconv import checks, cli, core, oracle, special
from ringconv.cli import _table, build_parser, main, parse_args
from ringconv.core import Circle, ConvKernel, eval_conv, eval_conv_2d, support_interval
from ringconv.operators import _grid_side
from ringconv.oracle import mc_conv_histogram


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_defaults(self):
        cfg = parse_args(["mc-check"])
        assert (cfg.r1, cfg.r2) == (2.0, 3.0)
        assert cfg.samples == 10_000_000
        assert cfg.bins == 260
        assert cfg.margin == 0.2
        assert cfg.sectors == 360
        assert cfg.seed == 20260814
        assert cfg.explicit_radii is False

    def test_explicit_radius_flips_the_flag(self):
        cfg = parse_args(["mass-check", "--r1", "1"])
        assert cfg.explicit_radii is True
        assert (cfg.r1, cfg.r2) == (1.0, 3.0)

    def test_centers_become_tuples(self):
        cfg = parse_args(["mc-check", "--b1", "1.5", "-0.5"])
        assert cfg.b1 == (1.5, -0.5)
        assert cfg.b2 == (0.0, 0.0)

    def test_negative_radius_exits_2_and_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["profile", "--r2", "-1"])
        assert exc.value.code == 2
        assert "--r2" in capsys.readouterr().err

    def test_bad_seed_and_counts_rejected(self, capsys):
        for argv in (["mc-check", "--seed", "-3"], ["mc-check", "--samples", "0"],
                     ["profile", "--points", "x"]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err

    def test_non_finite_center_exits_2_and_names_the_flag(self, capsys):
        for argv, flag in ((["grid-check", "--b1", "nan", "0"], "--b1"),
                           (["circle-average", "--b1", "nan", "0"], "--b1"),
                           (["mc-check", "--b2", "0", "inf"], "--b2")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestProfile:
    def test_stdout_table(self, capsys):
        code, out, _ = run_main(["profile", "--points", "11"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,value"
        table = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
        assert table["0"] == "0"
        assert table["1"] == "inf"
        assert table["5"] == "inf"
        # The collapse radius is injected exactly; its value is 2 to rounding.
        collapse = [v for k, v in table.items() if abs(float(k) - 13 ** 0.5) < 1e-12]
        assert len(collapse) == 1
        assert abs(float(collapse[0]) - 2.0) < 1e-12

    def test_rows_are_sorted_and_cover_past_the_support(self, capsys):
        code, out, _ = run_main(["profile", "--r1", "1", "--r2", "1", "--points", "21"], capsys)
        assert code == 0
        rhos = [float(r.split(",")[0]) for r in out.strip().splitlines()[1:]]
        assert rhos == sorted(rhos)
        assert rhos[0] == 0.0 and rhos[-1] == 3.0

    def test_file_output_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["profile", "-o", str(a)]) == 0
        assert main(["profile", "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run_main(["profile", "-o", str(target)], capsys)
        assert code == 2
        assert "--output" in err


class TestSurface:
    def test_csv_layout(self, capsys):
        code, out, _ = run_main(
            ["surface", "--r1", "1", "--r2", "1", "--extent", "2", "--spacing", "0.5"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 25
        first = lines[1].split(",")
        assert float(first[0]) == -1.0 and float(first[1]) == -1.0

    def test_pgm_layout(self, capsys):
        code, out, _ = run_main(
            ["surface", "--r1", "1", "--r2", "1", "--extent", "2", "--spacing", "0.5",
             "--format", "pgm"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "P2"
        assert lines[1].startswith("#") and "r1=1" in lines[1]
        assert lines[2] == "5 5" and lines[3] == "255"
        shades = [int(tok) for row in lines[4:] for tok in row.split()]
        assert len(shades) == 25
        assert all(0 <= s <= 255 for s in shades)

    def test_pgm_is_byte_identical(self, tmp_path, capsys):
        argv = ["surface", "--extent", "4", "--spacing", "0.1", "--format", "pgm"]
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_passes_at_a_radius_ratio_of_46(self, capsys):
        # smoothed_profile's node-rounding limit is set against the profile's 5% tolerance, not the mass check's.
        code, out, err = run_main(["grid-check", "--r1", "0.12", "--r2", "5.5", "--epsilon", "0.02",
                                   "--spacing", "0.01", "--extent", "12"], capsys)
        assert code == 0 and err == ""
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_oversized_grid_exits_2(self, capsys):
        # The second ratio overflows to inf.
        for argv in (["surface", "--spacing", "0.001"],
                     ["surface", "--extent", "1e300", "--spacing", "1e-10"]):
            code, _, err = run_main(argv, capsys)
            assert code == 2
            assert "--spacing" in err


def expected_artifact(argv):
    """The artifact of ``argv``, formatted cell by cell from the library's values.

    Each cell goes through an f-string on its NumPy scalar, ``int`` or ``str``,
    so the CLI's array writers are held to the per-cell format.
    """
    cfg = parse_args(argv)
    if cfg.command == "profile":
        lo, hi = support_interval(cfg.r1, cfg.r2)
        rho = np.linspace(0.0, hi + 1.0, cfg.points)
        rho = np.unique(np.concatenate([rho, [lo, hi, math.hypot(cfg.r1, cfg.r2)]]))
        rows = [f"{r:.17g},{v:.17g}" for r, v in zip(rho, eval_conv(rho, cfg.r1, cfg.r2))]
        return "\n".join(["rho,value"] + rows) + "\n"
    if cfg.command == "mc-check":
        hist, _ = mc_conv_histogram(Circle(cfg.b1, cfg.r1), Circle(cfg.b2, cfg.r2), cfg.samples, cfg.bins,
                                    cfg.seed, sectors=cfg.sectors, margin=cfg.margin)
        rows = [f"{c:.17g},{int(k)},{d:.17g}" for c, k, d in zip(hist.centers, hist.counts, hist.density())]
        return "\n".join(["rho_center,count,density"] + rows) + "\n"
    n = _grid_side(cfg.extent, cfg.spacing)
    coords = -cfg.extent / 2.0 + np.arange(n) * cfg.spacing
    values = eval_conv_2d(coords[None, :], coords[:, None], cfg.r1, cfg.r2)
    if cfg.format == "csv":
        rows = [f"{coords[j]:.17g},{coords[i]:.17g},{values[i, j]:.17g}" for i in range(n) for j in range(n)]
        return "\n".join(["x,y,value"] + rows) + "\n"
    finite = values[np.isfinite(values)]
    vmax = float(np.percentile(finite, 99.0)) if finite.size else 1.0
    if vmax <= 0.0:
        vmax = 1.0
    shades = np.rint(np.clip(values / vmax, 0.0, 1.0) * 255.0).astype(int)
    header = [
        "P2",
        f"# ringconv surface r1={cfg.r1:.17g} r2={cfg.r2:.17g} extent={cfg.extent:.17g}"
        f" spacing={cfg.spacing:.17g} clip=p99 rows=y-ascending",
        f"{n} {n}",
        "255",
    ]
    return "\n".join(header + [" ".join(str(v) for v in row) for row in shades]) + "\n"


class TestArtifactBytes:
    @pytest.mark.parametrize("argv", [
        ["profile"],
        ["profile", "--r1", "1.7", "--r2", "3.5294117647058822", "--points", "20001"],
        ["surface", "--extent", "6", "--spacing", "0.05"],
        ["surface", "--extent", "6", "--spacing", "0.05", "--format", "pgm"],
        ["surface", "--r1", "1.3", "--r2", "2.2", "--extent", "5.3", "--spacing", "0.03"],
        ["surface", "--r1", "1.3", "--r2", "2.2", "--extent", "5.3", "--spacing", "0.013", "--format", "pgm"],
        # Grids of side 1 and 2, where the first shade of a row is also its last.
        ["surface", "--extent", "0.5", "--spacing", "1", "--format", "pgm"],
        ["surface", "--extent", "1", "--spacing", "1", "--format", "pgm"],
        # Every sample lies inside the inner hole, so the density is all zeros and vmax falls back to 1.
        ["surface", "--r1", "1", "--r2", "3", "--extent", "1", "--spacing", "0.1", "--format", "pgm"],
        # At this sample count a statistical verdict fails (exit 1); only the histogram is compared.
        ["mc-check", "--samples", "100000", "--bins", "77", "--sectors", "16", "--seed", "5"],
        # The benchmark's profile and surface CSV sizes.
        ["profile", "--r1", "1.9", "--r2", "3.1578947368421053", "--points", "200001"],
        ["surface", "--r1", "1.9", "--r2", "3.1578947368421053", "--extent", "12", "--spacing", "0.02"],
    ], ids=["profile-defaults", "profile-long", "surface-csv", "surface-pgm", "surface-csv-fine",
            "surface-pgm-fine", "surface-pgm-side-1", "surface-pgm-side-2", "surface-pgm-zeros",
            "mc-histogram", "profile-200001", "surface-csv-601"])
    def test_file_matches_the_per_cell_reference(self, argv, tmp_path, capsys, monkeypatch):
        expected = expected_artifact(argv).encode()
        path = tmp_path / "artifact"
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            code, out, err = run_main(argv + ["-o", str(path)], capsys)
            assert err == ""
            if argv[0] != "mc-check":
                assert code == 0 and out == ""
            assert path.read_bytes() == expected, f"on {cores} cores"

    @pytest.mark.parametrize("argv", [
        ["profile", "--points", "2001"],
        ["surface", "--extent", "6", "--spacing", "0.1"],
        ["surface", "--extent", "6", "--spacing", "0.1", "--format", "pgm"],
        ["mc-check", "--samples", "20000", "--bins", "40", "--sectors", "8"],
    ], ids=["profile", "surface-csv", "surface-pgm", "mc-histogram"])
    def test_exports_warn_nothing(self, argv, tmp_path, capsys):
        # A warning would print once per process, so a run's stderr would depend on the runs before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_main(argv + ["-o", str(tmp_path / "artifact")], capsys)
        assert err == "" and code in (0, 1)

    def test_table_keeps_the_text_of_each_cell(self):
        # Equal values with different bits (0.0 and -0.0, NaN payloads) must not share a text.
        nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                      0.1, 0.1, -0.0, 0.0, nan_payload, -np.nan, 5e-324, -1.7976931348623157e308])
        y = x[::-1]
        k = np.array([-7, 2**53 + 1, 2**63 - 1, -2**63, 0, -7, 2**53 + 1, 2**53, -1, 0, 9,
                      2**63 - 1, -2**53 - 1, 3, 3], dtype=np.int64)
        rows = [f"{a:.17g},{b:.17g},{c}" for a, b, c in zip(x, y, k)]
        assert b"".join(_table("x,y,k", x, y, k)) == ("\n".join(["x,y,k"] + rows) + "\n").encode()
        assert {"0", "-0"} <= {row.split(",")[0] for row in rows}

    def test_stdout_matches_the_per_cell_reference(self, capsys):
        argv = ["profile", "--points", "101"]
        code, out, err = run_main(argv, capsys)
        assert code == 0 and err == ""
        assert out == expected_artifact(argv)


def clip_cases():
    """Grids of several row blocks, each value +0.0 or more or +inf, as the density's are."""
    rng = np.random.default_rng(20261020)

    def grid(finite, rows=300, cols=500):
        out = np.full(rows * cols, np.inf)
        out[rng.choice(out.size, len(finite), replace=False)] = finite
        return out.reshape(rows, cols)

    density = rng.exponential(1.0, 150_000) * 10.0 ** rng.uniform(-5, 5, 150_000)
    density[rng.choice(density.size, 30_000, replace=False)] = 0.0
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)[:-1], [0.0, 5e-324]])
    top = np.nextafter(1.7976931348623157e308, 0.0) - np.arange(2000.0) * 2.0**970
    yield "inf-and-zeros", grid(density[:140_000])
    yield "all-inf", grid([])
    yield "one-finite", grid([3.7])
    yield "two-finite", grid([2.5, 7.25])
    # 12376 values put the percentile at rank 12251.25 and 12346 at 12221.55, so both of NumPy's
    # interpolation formulas run; between 0.1 and 1.1 the other formula would round differently.
    # Ranks k and k + 1 fall on one run of equal values, or on two.
    for n in (12376, 12346):
        k = int((n - 1) * 0.99)
        yield f"equal-at-k-{n}", grid(np.repeat([0.05, 0.1, 1.1], [k - 40, 80, n - k - 40]))
        yield f"split-at-k-{n}", grid(np.repeat([0.05, 0.1, 1.1], [k - 40, 41, n - k - 1]))
    yield "bucket-edges", grid(edges)
    yield "subnormals", grid(rng.integers(1, 2**52, 20_000).view(float))
    yield "near-the-largest-float", grid(np.concatenate([top, rng.uniform(0.0, 1e308, 4000)]))


class TestClipLevel:
    @pytest.mark.parametrize("values", [pytest.param(v, id=name) for name, v in clip_cases()])
    def test_equals_the_percentile_of_the_finite_values(self, values, monkeypatch):
        finite = values[np.isfinite(values)]
        expected = float(np.percentile(finite, 99.0)) if finite.size else 1.0
        copy = values.copy()
        # 8 workers, more than the cores, switching threads as often as the interpreter allows, would show a
        # count or a gathered bucket lost between the workers.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 3, 8):
                monkeypatch.setattr(core, "_usable_cores", lambda: cores)
                got = cli._clip_level(values)
                assert type(got) is float and np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(values, copy)

    def test_pgm_holds_little_beyond_its_values_and_shades(self, tmp_path, capsys, monkeypatch):
        # 1201 rows in 45 blocks: 8 bytes of value and 4 of shade text per pixel.  Copying the
        # finite values for the percentile once took the peak to 1.67 times that.
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                code, _, _ = run_main(["surface", "--spacing", "0.01", "--format", "pgm",
                                       "-o", str(tmp_path / "s.pgm")], capsys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and peak <= 1.1 * 12 * 1201**2, cores


# Both sides of each J0 edge and of i0e's split, the Hankel branch, every power of two (subnormals
# included), 1e154 where x * x overflows, 1e200, inf and -0.0.
FROZEN_ARGS = np.array([
    *(float(v) for e in (*special._J0_EDGES, special._I0E_SPLIT) for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 99.0))),
    *np.linspace(25.0, 200.0, 701), *(2.0**p for p in range(-1074, 1024)), 1e154, 1e200, math.inf, -0.0])


@pytest.mark.parametrize("name, digest", [
    ("bessel_j0", "4c47d4ee2afe5ef87c6d8b9e3ff69454607987eac6660caded88a78f5b85a8f9"),
    ("i0e", "9b6e82b0313e996be8422f3473fc7dc144c9f7cb1fa8b9e9959c2e94ad5ec1fc"),
    ("hankel-check", "c5d4270c1e2a10ee8edcd4ff9c8f3e415054f72e175c2852c1e19ab60d8492fb"),
    ("neumann-check", "7c50c1a1ba11577f1a1824cf1c46121ff10045e4e635d79699cf10476c362426"),
    ("roots-check", "6297066a8f4bbec8c44febe5629489c79d6f10ae365fdfb4daf5e7a206ee7288"),
])
def test_bessel_bits_and_check_stdout_are_frozen(name, digest, capsys):
    # sha256 of J0 and I0e (little-endian float64) over FROZEN_ARGS, and of each command's stdout at its
    # defaults, as the evaluators with a fresh array per Horner step and a per-triple root draw gave them.
    # J0's digest was retaken when J0(inf) became 0 (was NaN) and J0(2^1023), where pi x overflows, finite
    # (was -0.0); every other entry kept its bits.
    if name in ("bessel_j0", "i0e"):
        with np.errstate(all="ignore"):
            data = getattr(special, name)(FROZEN_ARGS).astype("<f8").tobytes()
    else:
        code, out, err = run_main([name], capsys)
        assert code == 0 and err == ""
        data = out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


def percent_text(values):
    return "\n".join(["x"] + ["%.17g" % v for v in values.tolist()] + [""]).encode()


class TestCellText:
    """The float cell kernel against Python's '%.17g' formatting, with which it shares no code."""

    @pytest.fixture(scope="class")
    def column(self):
        rng = np.random.default_rng(20261019)
        # Random bit patterns: every exponent, then the binades of 7.6e-6 to 7.2e16 around fixed notation.
        bits = rng.integers(-2**63, 2**63, 2**20, dtype=np.int64, endpoint=False)
        bits[2**16:] &= ~(0x7FF << 52)
        bits[2**16:] |= rng.integers(1023 - 17, 1023 + 57, 2**20 - 2**16) << 52
        # Powers of ten, the ends of the fixed-notation range, and each one's neighbours.
        powers = np.array([10.0**j for j in range(-30, 31)] + [float(f"1e{j}") for j in range(-323, 309)])
        powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        special = np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.5e-310,
                            1.7976931348623157e308, np.inf, np.nan])
        payloads = np.array([0x7FF0000000000001, 0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF], np.int64)
        column = np.concatenate([powers, special, payloads.view(float)])
        column = np.concatenate([bits.view(float), column, -column])
        return cli._cells(column), percent_text(column)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_matches_percent_format(self, column, cores, monkeypatch):
        cells, expected = column
        monkeypatch.setattr(core, "_usable_cores", lambda: cores)
        assert b"".join(_table("x", cells)) == expected

    def test_ties_round_half_even_in_the_kernel(self, monkeypatch):
        # m / 2**(17 - k) for odd m lies halfway between two 17-digit decimals of exponent k.
        rng = np.random.default_rng(7)
        ties = [2.0**49 + j / 8 for j in range(1, 64, 2)]
        for k in range(-4, 16):
            lo, hi = (math.ceil(Fraction(10)**j * 2**(17 - k)) for j in (k, k + 1))
            ties += [float(m) / 2**(17 - k) for m in rng.integers(lo, min(hi, 2**53), 50) | 1]
        ties = np.concatenate([ties, np.negative(ties)])
        seen = []
        monkeypatch.setattr(cli, "_fmt", lambda v: seen.append(v) or format(v, ".17g"))
        text = b"".join(_table("x", ties))
        assert text == percent_text(ties)
        assert seen == []
        assert b"\n562949953421312.12\n" in text and b"\n-562949953421312.38\n" in text

    def test_no_fixed_notation_value_reaches_the_fallback(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_fmt", lambda v: seen.append(v) or format(v, ".17g"))
        values = np.geomspace(1e-4, 9.999e15, 100_001)
        values = np.concatenate([values, -values])
        assert b"".join(_table("x", values)) == percent_text(values)
        # Among them are the ties, values whose 18th and last significant digit is a 5.
        assert sum(len(d) == 18 and d[-1] == 5 for d in (Decimal(v).as_tuple().digits for v in values.tolist()))
        assert seen == []

    def test_power_table_is_exact(self):
        # Dekker's product is exact when each half of the power has at most 26 significant bits.
        for e, (head, tail) in enumerate(cli._POWERS):
            assert Fraction(head) + Fraction(tail) == 10**e
            for half in (int(head), int(tail)):
                assert (half // (half & -half) if half else 0).bit_length() <= 26


class TestThreads:
    def test_every_thread_is_started_by_the_driver(self, tmp_path, capsys, monkeypatch):
        # core._on_cores starts every thread the package uses, in every command that runs on the cores.
        start, callers = threading.Thread.start, []

        def recorded(thread):
            callers.append(sys._getframe(1).f_code)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        monkeypatch.setattr(core, "_usable_cores", lambda: 3)
        for argv in (["grid-check", "--spacing", "0.04", "--epsilon", "0.1"], ["mc-check", "--samples", "3000000"],
                     ["surface", "-o", str(tmp_path / "s.csv")],
                     ["surface", "--format", "pgm", "-o", str(tmp_path / "s.pgm")],
                     ["profile", "-o", str(tmp_path / "p.csv")], ["circle-average"], ["hankel-check"]):
            run_main(argv, capsys)
        oracle.fftconvolve(np.ones((301, 301)), np.ones((301, 301)))
        assert callers and set(callers) == {core._on_cores.__code__}


class TestMcCheck:
    ARGS = ["mc-check", "--samples", "2000000", "--bins", "100", "--sectors", "64"]

    def test_passes_at_moderate_sample_count(self, capsys):
        code, out, _ = run_main(self.ARGS, capsys)
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_fails_honestly_when_starved_of_samples(self, capsys):
        code, out, _ = run_main(["mc-check", "--samples", "20000"], capsys)
        assert code == 1
        assert "FAIL interior histogram agreement" in out

    def test_histogram_export(self, tmp_path, capsys):
        path = tmp_path / "hist.csv"
        code, _, _ = run_main(self.ARGS + ["-o", str(path)], capsys)
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rho_center,count,density"
        assert len(lines) == 101
        counts = [int(row.split(",")[1]) for row in lines[1:]]
        assert sum(counts) == 2_000_000

    # Per sample count, from the sampler that ran the full pass and two one-chunk passes on two threads:
    # sha256 prefixes of the counts and sector counts (little-endian int64), of the verdicts' labels, exact
    # measurements, tolerances and outcomes, then the exit code and the prefixes of stdout and the -o file.
    PINNED = {
        2000: ("ab7dac95b0cead5b", "76b5577222bfaf6b", "8af30090d3d23ad2", 1, "d00720dd03beb38d", "ebbf53a1f3a14bca"),
        20_000: ("b6e2a9efb297ea39", "8648dd519ba441fd", "cc943d5958c5abc3", 1, "8045f599e1ec3733",
                 "a1353d7c88e0265e"),
        2**20: ("24241a31df9810cf", "bd72d845da75b6c0", "4c634438f9efe44e", 1, "812a876c512097a8",
                "da8fbdb31e4e746e"),
        2**20 + 1: ("4bf277d97199c886", "8c709089fe48ede7", "52d4e874c7b02f16", 1, "b040aaac8fd04fa9",
                    "63ba38f76ffe44b3"),
        3 * 2**20 + 12345: ("53a36189829d263b", "e1165c84abe1d560", "5deffac4bdd700ab", 1, "cb3ad9479accc1ae",
                            "6131334e77c1cb37"),
        10**7: ("112db696e08bb554", "e352c81d71372734", "3c7dc75bff189627", 0, "ad4e6d3250ae4c51",
                "d0e9a38515ca0408"),
    }

    @pytest.mark.parametrize("samples", list(PINNED))
    def test_keeps_its_bits_and_draws_each_sample_once(self, samples, tmp_path, capsys, monkeypatch):
        # One run draws the full pass and a concentric probe of min(samples, 2^20) samples, nothing more.
        seen, drawn, job_block = {}, [], oracle._job_block

        def recorded(name, fn):
            def call(*args):
                seen[name] = fn(*args)
                return seen[name]
            return call

        def counted_block(c1, c2, arrays, *args):
            drawn.append(arrays[0].shape[1])
            job_block(c1, c2, arrays, *args)

        def digest(data):
            return hashlib.sha256(data).hexdigest()[:16]

        monkeypatch.setattr(checks, "mc_check", recorded("check", checks.mc_check))
        monkeypatch.setattr(checks, "_sample_pool", recorded("pool", checks._sample_pool))
        monkeypatch.setattr(oracle, "_job_block", counted_block)
        path = tmp_path / "hist.csv"
        for cores in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cores", lambda: cores)
            drawn.clear()
            code, out, err = run_main(["mc-check", "--b1", "0.5", "-1", "--b2", "0", "0.25", "--samples",
                                       str(samples), "-o", str(path)], capsys)
            (results, hist), [((_, sector_counts), _), _] = seen["check"], seen["pool"]
            verdicts = [(r.label, r.measured.hex(), r.tol, r.ok) for r in results]
            assert err == "" and sum(drawn) == samples + min(samples, 2**20)
            assert (digest(hist.counts.astype("<i8").tobytes()), digest(sector_counts.astype("<i8").tobytes()),
                    digest(repr(verdicts).encode()), code, digest(out.encode()),
                    digest(path.read_bytes())) == self.PINNED[samples], f"on {cores} cores"

    # Two benchmark argvs whose statistical verdicts FAIL on a correct sampler (sector uniformity at 4.37
    # sigma, histogram agreement at 2.0345e-2): sha256 prefixes of stdout and the -o file, and the exit code.
    # A count that moves can turn such a verdict, so these pin the counts where a verdict sits on its bound.
    @pytest.mark.parametrize("argv, pinned", [
        (["--b1", "-2.923181899208531", "3.2844488527453066", "--b2", "-3.5071787691797973", "0.12804616436564853",
          "--seed", "3335203224"], (1, "9da55fbd5cf8b6ac", "de50e7aaae88c827")),
        (["--b1", "2.1891065376770094", "-1.688728088490048", "--b2", "4.330886636200264", "-3.9517522571467287",
          "--seed", "3248255051"], (1, "fc2adc6e30a47019", "18f4381a8abdc910")),
    ])
    def test_statistical_fails_keep_their_bits(self, argv, pinned, tmp_path, capsys):
        path = tmp_path / "hist.csv"
        code, out, err = run_main(["mc-check", *argv, "-o", str(path)], capsys)
        assert err == "" and "FAIL" in out
        assert (code, hashlib.sha256(out.encode()).hexdigest()[:16],
                hashlib.sha256(path.read_bytes()).hexdigest()[:16]) == pinned

    @pytest.mark.parametrize("argv, flag", [
        (["--r1", "1e-4", "--r2", "1e-4", "--samples", "1000"], "--margin"),
        # Rejected before allocation: a count vector never outweighs a 2^20-sample chunk.
        (["--bins", "1048577"], "--bins"),
        (["--sectors", "100000000"], "--sectors"),
        # The support collapses to the single float 3, so no bin centre lies strictly inside it.
        (["--r1", "1e-300", "--r2", "3", "--samples", "2000", "--bins", "40"], "--r1"),
        (["--r1", "3", "--r2", "1e-300", "--samples", "2000", "--bins", "40"], "--r2"),
        (["--r1", "1e-150", "--r2", "3", "--samples", "2000", "--bins", "40"], "--r1"),
        (["--r1", "3", "--r2", "1e-150", "--samples", "2000", "--bins", "40"], "--r2"),
    ], ids=["no-bin-in-support", "too-many-bins", "too-many-sectors", "collapsed-support-1e-300-3",
            "collapsed-support-3-1e-300", "collapsed-support-1e-150-3", "collapsed-support-3-1e-150"])
    def test_library_input_errors_exit_2_and_name_the_flag(self, argv, flag, capsys):
        code, out, err = run_main(["mc-check"] + argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: ")


class TestGridCheck:
    def test_passes_on_a_coarse_grid(self, capsys):
        code, out, _ = run_main(
            ["grid-check", "--r1", "1", "--r2", "1", "--extent", "5.2",
             "--spacing", "0.02", "--epsilon", "0.05"], capsys
        )
        assert code == 0
        assert out.count("PASS") == 3 and "FAIL" not in out
        assert "operand swap (bitwise)" in out

    @pytest.mark.parametrize("argv", [
        ["--r1", "1", "--r2", "0.5", "--b1", "0.2", "-0.1", "--extent", "5", "--spacing", "0.025"],
        ["--r1", "1", "--r2", "1", "--b1", "4.5", "0", "--b2", "-4.5", "0", "--spacing", "0.02"],
    ], ids=["shifted-centre", "opposite-centres"])
    def test_off_centre_pairs_that_fit_the_grid_pass(self, argv, capsys):
        # Each ring and the summed support fit; only the pair itself is convolved.
        code, out, _ = run_main(["grid-check"] + argv, capsys)
        assert code == 0
        assert out.count("PASS") == 3 and "FAIL" not in out

    @pytest.mark.parametrize("argv, flag", [
        (["--r1", "0.25", "--r2", "0.25", "--extent", "4", "--spacing", "0.02"], "--epsilon"),
        (["--epsilon", "0.01"], "--epsilon"),
        (["--extent", "8"], "--extent"),
        (["--r1", "1", "--r2", "1", "--extent", "1e200", "--spacing", "1e197", "--epsilon", "1e198"], "--spacing"),
        (["--r1", "1", "--r2", "1", "--extent", "1e156", "--spacing", "1e153", "--epsilon", "1e154"], "--epsilon"),
    ], ids=["empty-trimmed-range", "under-resolved-epsilon", "clipped-extent", "spacing-squared-overflows",
            "epsilon-squared-overflows"])
    def test_library_input_errors_exit_2_and_name_the_flag(self, argv, flag, capsys):
        code, out, err = run_main(["grid-check"] + argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: ") and "Traceback" not in err

    def test_stdout_is_the_same_at_every_power_of_two_scale(self, capsys):
        # The density depends on the lengths only through their ratios, and scaling by 2^k is exact, so each
        # scale must print the same bytes.  At 2^-505 the inverse transform overflowed and two verdicts FAILed.
        outs = set()
        for k in (-505, -200, 0, 200, 505):
            r1, r2, extent, spacing, epsilon = (repr(math.ldexp(v, k)) for v in (2.0, 3.0, 12.0, 0.04, 0.1))
            code, out, err = run_main(["grid-check", "--r1", r1, "--r2", r2, "--extent", extent,
                                       "--spacing", spacing, "--epsilon", epsilon], capsys)
            assert code == 0 and err == "", k
            outs.add(out)
        assert len(outs) == 1 and outs.pop().count("PASS") == 3

    def test_mass_out_of_range_is_the_one_line_on_stderr(self, capsys):
        # The defaults' lengths times 2^510: 4 pi^2 r1 r2 overflows.  The rings were built first, and their
        # Gaussians warned of an overflowing square before the mass rule named --r2.
        code, out, err = run_main(["grid-check", "--r1", "6.703903964971299e+153", "--r2", "1.0055855947456948e+154",
                                   "--extent", "4.022342378982779e+154", "--spacing", "1.3407807929942597e+152",
                                   "--epsilon", "3.3519519824856495e+152"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --r2: the mass 4 pi^2 r1 r2") and err.count("\n") == 1

    def test_passes_at_a_radius_ratio_of_46(self, capsys):
        # smoothed_profile's node-rounding limit is set against the profile's 5% tolerance, not the mass check's.
        code, out, err = run_main(["grid-check", "--r1", "0.12", "--r2", "5.5", "--epsilon", "0.02",
                                   "--spacing", "0.01", "--extent", "12"], capsys)
        assert code == 0 and err == ""
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_oversized_grid_exits_2(self, capsys):
        # Rejected before allocation: 12001 points per side is over 1 GB per grid.
        code, _, err = run_main(["grid-check", "--spacing", "0.001"], capsys)
        assert code == 2
        assert "--spacing" in err


class TestCircleAverage:
    @pytest.mark.parametrize("argv, flag", [
        (["--r1", "1e300"], "--r1"),
        (["--r1", "1e160"], "--r1"),
        (["--r1", "1e150"], "--r1"),
        (["--b1", "1e200", "0"], "--b1"),
    ], ids=["radius-1e300", "radius-1e160", "radius-1e150", "centre-1e200"])
    def test_library_input_errors_exit_2_and_name_the_flag(self, argv, flag, capsys):
        code, out, err = run_main(["circle-average"] + argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: ")

    def test_large_radius_passes(self, capsys):
        # The linear field's rounding error, about 4e-2 here, is over the constant 1e-10 * 2 pi R.
        code, out, _ = run_main(["circle-average", "--r1", "1e7"], capsys)
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    @pytest.mark.parametrize("r1", ["1", "3"])
    def test_far_centre_passes(self, r1, capsys):
        # The float nodes lie up to eps (R + |x|), about 2e-9 here, off the circle: over the constant 1e-12.
        code, out, err = run_main(["circle-average", "--r1", r1, "--b1", "1e7", "0"], capsys)
        assert code == 0 and err == ""
        assert out.count("PASS") == 5 and "FAIL" not in out


class TestIdentityChecks:
    def test_hankel_single_pair(self, capsys):
        code, out, _ = run_main(["hankel-check", "--r1", "1", "--r2", "2", "--nodes", "128"], capsys)
        assert code == 0
        assert "gaussian self-inverse round trip" in out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_neumann_single_pair(self, capsys):
        code, out, _ = run_main(["neumann-check", "--r1", "1", "--r2", "2"], capsys)
        assert code == 0
        assert out.count("PASS") == 1

    def test_mass_explicit_pair_reports_both_numbers(self, capsys):
        code, out, _ = run_main(["mass-check", "--r1", "1", "--r2", "1"], capsys)
        assert code == 0
        assert "computed mass 39.4784176044, expected 39.4784176044" in out
        assert "PASS" in out

    def test_mass_explicit_pair_runs_one_quadrature(self, monkeypatch, capsys):
        # The printed mass is the one the verdict measured, not a second quadrature.
        calls, total_mass = [], checks.total_mass
        monkeypatch.setattr(checks, "total_mass", lambda kernel, n: calls.append(n) or total_mass(kernel, n))
        code, out, _ = run_main(["mass-check", "--r1", "2", "--r2", "3", "--nodes", "64"], capsys)
        assert code == 0 and calls == [64]
        assert out.startswith(f"computed mass {total_mass(ConvKernel(2.0, 3.0), 64):.10f}, expected ")

    def test_mass_of_huge_radii_is_finite(self, capsys):
        # (2 pi r)^2 at r = 1e100 is in range; the quadrature must not overflow on the way.
        code, out, err = run_main(["mass-check", "--r1", "1e100", "--r2", "1e100"], capsys)
        assert code == 0 and err == ""
        assert "computed mass inf" not in out and "FAIL" not in out

    @pytest.mark.parametrize("argv", [
        ["--r1", "1e200"], ["--r1", "1e300", "--r2", "3"], ["--r1", "1e-300", "--r2", "1e-300"],
    ], ids=["radius-1e200", "radius-1e300", "radii-1e-300"])
    def test_neumann_at_extreme_radii(self, argv, capsys):
        code, out, err = run_main(["neumann-check"] + argv, capsys)
        assert code == 0 and err == ""
        assert out.count("PASS") == 1

    def test_mass_random_sweep(self, capsys):
        code, out, _ = run_main(["mass-check"], capsys)
        assert code == 0
        assert "100 random pairs" in out

    def test_roots_explicit_pair(self, capsys):
        code, out, _ = run_main(["roots-check", "--r1", "2", "--r2", "3"], capsys)
        assert code == 0
        assert out.count("PASS") == 3

    def test_roots_random_sweep(self, capsys):
        code, out, _ = run_main(["roots-check"], capsys)
        assert code == 0
        assert "1000 random triples" in out

    @pytest.mark.parametrize("r1, r2", [
        ("1e200", "1e200"), ("1e-200", "1e-200"), ("1e300", "1e300"), ("1e-300", "1e-300"), ("1", "1e3"),
        ("1e-3", "1e3"), ("1e-9", "1e-3"),
    ])
    def test_roots_at_extreme_radii_and_ratio(self, r1, r2, capsys):
        # r1 * r2 leaves the float range at the first four pairs; at (1, 1e3), 1% of rho_min leaves the
        # support; at the last two the support's ends round, and the density must not subtract them rounded.
        code, out, err = run_main(["roots-check", "--r1", r1, "--r2", r2], capsys)
        assert code == 0 and err == ""
        assert out.count("PASS") == 3

    def test_circle_average_suite(self, capsys):
        code, out, _ = run_main(["circle-average"], capsys)
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    @pytest.mark.parametrize("argv, flag", [
        (["hankel-check", "--r1", "1e-300"], "--r1"),
        (["hankel-check", "--r1", "1", "--r2", "1e-12"], "--r2"),
        (["mass-check", "--r1", "1", "--r2", "1e-12"], "--r2"),
        # 4 pi^2 r1 r2 overflows.
        (["mass-check", "--r1", "1e200", "--r2", "1e200"], "--r1"),
        (["roots-check", "--r1", "1e-300", "--r2", "1"], "--r1"),
        # r1 + r2 overflows, so the support has no float outer end.
        (["profile", "--r1", "1e308", "--r2", "1e308"], "--r1"),
        (["surface", "--r1", "1e308", "--r2", "1e308"], "--r1"),
        (["mc-check", "--r1", "1e308", "--r2", "1e308", "--samples", "1000"], "--r1"),
        (["roots-check", "--r1", "1e308", "--r2", "1e308"], "--r1"),
        (["hankel-check", "--r1", "1e308", "--r2", "1e308"], "--r1"),
        (["neumann-check", "--r1", "1e308", "--r2", "1e308"], "--r1"),
    ], ids=["hankel-collapsed-support", "hankel-thin-support", "mass-thin-support",
            "mass-squared-support-overflows", "roots-collapsed-support", "profile-outer-radius-overflows",
            "surface-outer-radius-overflows", "mc-outer-radius-overflows", "roots-outer-radius-overflows",
            "hankel-outer-radius-overflows", "neumann-outer-radius-overflows"])
    def test_degenerate_supports_exit_2_and_name_the_flag(self, argv, flag, capsys):
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("argv", [
        ["mass-check", "--r1", "1", "--r2", "1", "--nodes", "50000"],
        ["mass-check", "--r1", "1", "--r2", "1e3"],
        ["hankel-check", "--r1", "1e3", "--r2", "1"],
    ], ids=["mass-equal-radii", "mass-ratio-1e3", "hankel-ratio-1e3"])
    def test_node_rounding_that_fewer_nodes_meet_names_nodes(self, argv, capsys):
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --nodes: ") and "fewer nodes would meet it" in err

    def test_check_lines_show_measured_vs_tolerance(self, capsys):
        _, out, _ = run_main(["mass-check", "--r1", "1", "--r2", "1"], capsys)
        line = [l for l in out.splitlines() if l.startswith("PASS")][0]
        assert "measured" in line and "vs tolerance" in line


def run_child(*args):
    """Run a fresh interpreter that imports the same package as this process, installed or not."""
    src = str(Path(ringconv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = run_child("-m", "ringconv", "mass-check", "--r1", "1", "--r2", "1")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_import_loads_no_scipy(self):
        proc = run_child("-c", "import sys, ringconv; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    def test_import_loads_no_thread_pool(self):
        # The sampler's workers are plain threads: concurrent.futures (and the
        # logging it pulls in) would add to every command's start-up time.
        proc = run_child("-c", "import sys, ringconv; print('concurrent.futures' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout == "False\n"
