"""The four workloads: their operations, inputs drawn from the workload seed.

The seed changes values only (Monte Carlo seeds, circle centres, radii,
random pairs); sizes are fixed, so every run does the same amount of work.
Each operation is a ``ringconv.cli.main(argv)`` command or a public library
call, paired with a check written in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import verify

NAMES = ("mc", "grid", "checks", "export")

# Sizes, fixed for every seed.
MC_SAMPLES, MC_BINS, MC_MARGIN = 10_000_000, 260, 0.2  # mc-check defaults
WAVE_SIZE, WAVE_SPACING, WAVE_NODES = 401, 0.02, 256
PROFILE_POINTS = 200_001
SURFACE_EXTENT, CSV_SPACING, PGM_SPACING = 12.0, 0.02, 0.005


@dataclass
class Op:
    """One operation: ``call`` runs it, ``check(result, stdout)`` verifies it."""

    name: str  # span and metric name: "cli.<command>" or "bench.<library call>"
    call: Callable[[], object]
    check: Callable[[object, str], verify.Check]
    artifacts: tuple = ()


def _num(x) -> str:
    return repr(float(x))


def _cli_op(cli, argv, expected, statistical=None, artifact=None, check_artifact=None):
    def check(code, stdout):
        result = verify.Check()
        verify.cli_verdicts(result, code, stdout, expected, statistical)
        if artifact is not None:
            text = verify.read_artifact(result, artifact)
            if text is not None and check_artifact is not None:
                check_artifact(result, text)
        return result

    argv = [str(a) for a in argv] + (["-o", str(artifact)] if artifact is not None else [])
    return Op(f"cli.{argv[0]}", lambda: cli.main(argv), check,
              (artifact,) if artifact is not None else ())


def mc(rng, out: Path, ringconv):
    """``mc-check`` at its defaults with a seeded sampler seed and shifted centres.

    Two of its four verdicts are statistical tests; a FAIL there is a
    plausible chance outcome while the sector deviation stays within Z_MAX
    (the histogram itself is tested against its exact cell probabilities).
    """
    seed = int(rng.integers(0, 2**32))
    b1, b2 = rng.uniform(-5.0, 5.0, (2, 2))
    argv = ["mc-check", "--b1", _num(b1[0]), _num(b1[1]), "--b2", _num(b2[0]), _num(b2[1]),
            "--seed", seed]
    statistical = {
        "interior histogram agreement": lambda measured: True,
        "sector uniformity": lambda measured: measured <= verify.Z_MAX,
    }
    return [_cli_op(ringconv.cli, argv, 4, statistical, out / "mc_hist.csv",
                    lambda c, text: verify.mc_histogram(c, text, 2.0, 3.0, MC_SAMPLES,
                                                        MC_BINS, MC_MARGIN))]


def grid(rng, out: Path, ringconv):
    """``grid-check`` at its defaults, then ``circle_average_field`` of a plane wave.

    Centres keep the convolution's support inside the default 12-wide grid;
    the radius stays in (0.98, 1.0] so the output grid is always 301 x 301.
    """
    b1, b2 = rng.uniform(-0.35, 0.35, (2, 2))
    argv = ["grid-check", "--b1", _num(b1[0]), _num(b1[1]), "--b2", _num(b2[0]), _num(b2[1])]
    ops = [_cli_op(ringconv.cli, argv, 3)]

    radius = float(rng.uniform(0.985, 1.0))
    angle, kk, phase = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(1.5, 3.0), rng.uniform(0, 1)
    k = (kk * math.cos(angle), kk * math.sin(angle))
    extent = (WAVE_SIZE - 1) * WAVE_SPACING
    x = -extent / 2.0 + np.arange(WAVE_SIZE) * WAVE_SPACING
    wave = ringconv.Field2D.from_grid(np.cos(k[0] * x[None, :] + k[1] * x[:, None] + phase),
                                      WAVE_SPACING)
    circle = ringconv.Circle((0.0, 0.0), radius)

    def check(field, stdout):
        result = verify.Check()
        verify.plane_wave(result, field, radius, k, phase, extent, WAVE_SPACING)
        return result

    ops.append(Op("bench.circle_average_field",
                  lambda: ringconv.circle_average_field(wave, circle, WAVE_NODES), check))
    return ops


def checks(rng, out: Path, ringconv):
    """The transform, mass, root-route and ring-operator checks, seeded where seedable."""
    seeds = rng.integers(0, 2**31, 3)
    b1 = rng.uniform(-1.0, 1.0, 2)
    cli = ringconv.cli
    return [
        _cli_op(cli, ["hankel-check"], 7),
        _cli_op(cli, ["neumann-check"], 4),
        _cli_op(cli, ["mass-check", "--seed", seeds[0]], 1),
        _cli_op(cli, ["roots-check", "--seed", seeds[1]], 3),
        _cli_op(cli, ["circle-average", "--seed", seeds[2], "--b1", _num(b1[0]), _num(b1[1])], 5),
    ]


def export(rng, out: Path, ringconv):
    """A long profile and two surfaces, as files.

    r1 * r2 is held at 6, so the support annulus (area 4 pi r1 r2) covers the
    same share of every surface and the formatting work does not vary.
    """
    r1 = float(rng.uniform(1.5, 2.3))
    r2 = 6.0 / r1
    radii = ["--r1", _num(r1), "--r2", _num(r2)]
    extent = ["--extent", _num(SURFACE_EXTENT)]
    cli = ringconv.cli
    return [
        _cli_op(cli, ["profile", *radii, "--points", PROFILE_POINTS], 0, None,
                out / "profile.csv",
                lambda c, t: verify.profile_csv(c, t, r1, r2, PROFILE_POINTS)),
        _cli_op(cli, ["surface", *radii, *extent, "--spacing", _num(CSV_SPACING)], 0, None,
                out / "surface.csv",
                lambda c, t: verify.surface_csv(c, t, r1, r2, SURFACE_EXTENT, CSV_SPACING)),
        _cli_op(cli, ["surface", *radii, *extent, "--spacing", _num(PGM_SPACING),
                      "--format", "pgm"], 0, None, out / "surface.pgm",
                lambda c, t: verify.surface_pgm(c, t, r1, r2, SURFACE_EXTENT, PGM_SPACING)),
    ]


def build(name: str, seed: int, out: Path, ringconv):
    """The operations of one round of workload ``name``; the same for every round."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return {"mc": mc, "grid": grid, "checks": checks, "export": export}[name](rng, out, ringconv)
