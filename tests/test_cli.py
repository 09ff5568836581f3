import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringconv
from ringconv.cli import build_parser, main, parse_args


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

    def test_oversized_grid_exits_2(self, capsys):
        # The second ratio overflows to inf.
        for argv in (["surface", "--spacing", "0.001"],
                     ["surface", "--extent", "1e300", "--spacing", "1e-10"]):
            code, _, err = run_main(argv, capsys)
            assert code == 2
            assert "--spacing" in err


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

    @pytest.mark.parametrize("argv, flag", [
        (["--r1", "1e-4", "--r2", "1e-4", "--samples", "1000"], "--margin"),
        # Rejected before allocation: a count vector never outweighs a 2^20-sample chunk.
        (["--bins", "1048577"], "--bins"),
        (["--sectors", "100000000"], "--sectors"),
    ], ids=["no-bin-in-support", "too-many-bins", "too-many-sectors"])
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
        assert "self-convolution swap (bitwise)" in out

    @pytest.mark.parametrize("argv, flag", [
        # In the first two the summed support fits, but the self-convolution's, centred at 2*b1, does not.
        (["--r1", "1", "--r2", "0.5", "--b1", "0.2", "-0.1", "--extent", "5", "--spacing", "0.025"],
         "--extent"),
        (["--r1", "1", "--r2", "1", "--b1", "4.5", "0", "--b2", "-4.5", "0", "--spacing", "0.02"],
         "--extent"),
        (["--r1", "0.25", "--r2", "0.25", "--extent", "4", "--spacing", "0.02"], "--epsilon"),
        (["--epsilon", "0.01"], "--epsilon"),
        (["--extent", "8"], "--extent"),
    ], ids=["shifted-centre", "opposite-centres", "empty-trimmed-range", "under-resolved-epsilon",
            "clipped-extent"])
    def test_library_input_errors_exit_2_and_name_the_flag(self, argv, flag, capsys):
        code, out, err = run_main(["grid-check"] + argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: ")

    def test_oversized_grid_exits_2(self, capsys):
        # Rejected before allocation: 12001 points per side is over 1 GB per grid.
        code, _, err = run_main(["grid-check", "--spacing", "0.001"], capsys)
        assert code == 2
        assert "--spacing" in err


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

    def test_circle_average_suite(self, capsys):
        code, out, _ = run_main(["circle-average"], capsys)
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_check_lines_show_measured_vs_tolerance(self, capsys):
        _, out, _ = run_main(["mass-check", "--r1", "1", "--r2", "1"], capsys)
        line = [l for l in out.splitlines() if l.startswith("PASS")][0]
        assert "measured" in line and "vs tolerance" in line


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # The child imports the same package as this process, installed or not.
        src = str(Path(ringconv.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ringconv", "mass-check", "--r1", "1", "--r2", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
