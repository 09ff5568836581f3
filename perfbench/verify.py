"""Checks on every operation's output, written without ringconv's code.

A check returns ``Check``: the broken invariants it found (``problems``),
the labels of the program's own FAIL verdicts (``fails``), the subset of those
that are plausible statistical outcomes of a correct program
(``statistical``), and a ``signature`` of verdicts and artifact digests that
must repeat exactly whenever the same operation runs again.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import j0

VERDICT = re.compile(r"^(PASS|FAIL) (.+?): measured (\S+) vs tolerance (\S+)", re.M)

# Largest |z| accepted for a Monte Carlo count against its exact expectation:
# over a few hundred bins or sectors a correct sampler exceeds it with
# probability below 1e-6.
Z_MAX = 6.0


@dataclass
class Check:
    problems: list = field(default_factory=list)
    fails: list = field(default_factory=list)
    statistical: list = field(default_factory=list)
    signature: list = field(default_factory=list)
    bytes_written: int = 0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_verdicts(check: Check, code, stdout: str, expected: int, statistical=None):
    """Parse the PASS/FAIL lines and check them against the exit status.

    ``statistical`` maps a label prefix to a test of the measured value that
    says whether a FAIL under that label is a plausible chance outcome.
    """
    statistical = statistical or {}
    verdicts = [(m[1], m[2], float(m[3]), float(m[4])) for m in VERDICT.finditer(stdout)]
    check.signature.append(("exit", code))
    check.signature.extend(verdicts)
    if len(verdicts) != expected:
        check.problems.append(f"expected {expected} PASS/FAIL lines, got {len(verdicts)}")
    for verdict, label, measured, tol in verdicts:
        if (verdict == "PASS") != (measured <= tol) and not (verdict == "FAIL" and measured == tol):
            check.problems.append(f"{label}: {verdict} contradicts measured {measured:g} vs {tol:g}")
        if verdict == "FAIL":
            check.fails.append(label)
            plausible = next((ok for p, ok in statistical.items() if label.startswith(p)), None)
            if plausible is not None and plausible(measured):
                check.statistical.append(label)
    all_pass = all(v[0] == "PASS" for v in verdicts)
    if code != (0 if all_pass else 1):
        check.problems.append(f"exit status {code} with {'all PASS' if all_pass else 'a FAIL'}")


def read_artifact(check: Check, path) -> str | None:
    try:
        data = path.read_bytes()
    except OSError as exc:
        check.problems.append(f"artifact {path.name} missing: {exc}")
        return None
    check.signature.append((path.name, digest(data)))
    check.bytes_written += len(data)
    return data.decode()


def conv_formula(rho, r1: float, r2: float):
    """Closed-form density, coded from the formula with an unfactored radicand."""
    rho = np.asarray(rho, dtype=float)
    lo, hi = abs(r1 - r2), r1 + r2
    out = np.zeros_like(rho)
    inside = (rho > lo) & (rho < hi)
    p2 = rho[inside] ** 2
    out[inside] = 4.0 * r1 * r2 / np.sqrt((p2 - lo * lo) * (hi * hi - p2))
    out[(rho == lo) | (rho == hi)] = np.inf
    return out


def conv_tolerance(rho, r1: float, r2: float):
    """Relative tolerance for two roundings of the formula; loose near an endpoint."""
    lo, hi = abs(r1 - r2), r1 + r2
    p2 = np.asarray(rho, dtype=float) ** 2
    gap = np.minimum(np.abs(p2 - lo * lo), np.abs(hi * hi - p2))
    with np.errstate(divide="ignore"):
        return 1e-12 * (1.0 + hi * hi / gap)


def compare_formula(check: Check, what: str, rho, values, r1: float, r2: float):
    expected = conv_formula(rho, r1, r2)
    finite = np.isfinite(expected)
    if not np.array_equal(np.isfinite(values), finite) or not np.array_equal(
            values[~finite], expected[~finite]):
        check.problems.append(f"{what}: infinite rows differ from the exact endpoints")
        return
    err = np.abs(values[finite] - expected[finite])
    tol = conv_tolerance(rho[finite], r1, r2) * np.abs(expected[finite])
    bad = np.flatnonzero(err > tol)
    if bad.size:
        i = bad[0]
        check.problems.append(
            f"{what}: value {float(values[finite][i])!r} at rho={float(rho[finite][i])!r},"
            f" formula gives {float(expected[finite][i])!r}")


def sample_rows(count: int, extra=()):
    """About 4000 evenly spread row indices plus the ``extra`` ones."""
    rows = np.unique(np.concatenate([np.linspace(0, count - 1, 4000).astype(int), extra]))
    return rows.astype(int)


def profile_csv(check: Check, text, r1: float, r2: float, points: int):
    lo, hi = abs(r1 - r2), r1 + r2
    rho_in = np.unique(np.concatenate([np.linspace(0.0, hi + 1.0, points),
                                       [lo, hi, math.hypot(r1, r2)]]))
    lines = text.split("\n")
    if lines[0] != "rho,value" or lines[-1] != "" or len(lines) != rho_in.size + 2:
        check.problems.append("profile: wrong header or row count")
        return
    rows = lines[1:-1]
    special = np.searchsorted(rho_in, [lo, hi, math.hypot(r1, r2)])
    picks = sample_rows(len(rows), special)
    table = np.array([[float(x) for x in rows[i].split(",")] for i in picks])
    if not np.array_equal(table[:, 0], rho_in[picks]):
        check.problems.append("profile: radii differ from the requested grid")
        return
    compare_formula(check, "profile", table[:, 0], table[:, 1], r1, r2)
    rmin = float(rows[special[2]].split(",")[1])
    if abs(rmin - 2.0) > 1e-12:
        check.problems.append(f"profile: value {rmin!r} at sqrt(r1^2+r2^2), expected 2")
    if sum(row.endswith(",inf") for row in rows) != 2:
        check.problems.append("profile: expected one inf row per support endpoint")


def surface_coords(extent: float, spacing: float):
    n = int(round(extent / spacing)) + 1
    return -extent / 2.0 + np.arange(n) * spacing


def surface_csv(check: Check, text, r1: float, r2: float, extent: float, spacing: float):
    coords = surface_coords(extent, spacing)
    n = coords.size
    lines = text.split("\n")
    if lines[0] != "x,y,value" or lines[-1] != "" or len(lines) != n * n + 2:
        check.problems.append("surface csv: wrong header or row count")
        return
    picks = sample_rows(n * n)
    table = np.array([[float(x) for x in lines[1 + i].split(",")] for i in picks])
    i, j = np.divmod(picks, n)
    if not (np.array_equal(table[:, 0], coords[j]) and np.array_equal(table[:, 1], coords[i])):
        check.problems.append("surface csv: coordinates out of row-major y-ascending order")
        return
    rho = np.hypot(table[:, 0], table[:, 1])
    compare_formula(check, "surface csv", rho, table[:, 2], r1, r2)


def surface_pgm(check: Check, text, r1: float, r2: float, extent: float, spacing: float):
    coords = surface_coords(extent, spacing)
    n = coords.size
    head = text.split("\n", 4)
    if len(head) != 5 or head[0] != "P2" or head[2] != f"{n} {n}" or head[3] != "255":
        check.problems.append("surface pgm: wrong header")
        return
    rows = head[4].split("\n")
    if len(rows) != n + 1 or rows[-1] != "" or any(row.count(" ") != n - 1 for row in rows[:-1]):
        check.problems.append("surface pgm: wrong pixel count")
        return
    # The clip level is the 99th percentile of the finite values; the grid is
    # evaluated in row blocks so the check needs far less memory than the export.
    finite = []
    for block in np.array_split(np.arange(n), 16):
        values = conv_formula(np.hypot(coords[None, :], coords[block, None]), r1, r2)
        finite.append(values[np.isfinite(values)])
    finite = np.concatenate(finite)
    vmax = float(np.percentile(finite, 99.0, overwrite_input=True))
    del finite
    for i in np.linspace(0, n - 1, 64).astype(int):
        shades = np.array(rows[i].split(), dtype=np.int64)
        rho = np.hypot(coords, coords[i])
        expected = np.rint(np.clip(conv_formula(rho, r1, r2) / vmax, 0.0, 1.0) * 255.0)
        # Only a shade on a rounding boundary may differ between two roundings.
        off = np.flatnonzero(np.abs(shades - expected) > 1)
        if off.size:
            k = off[0]
            check.problems.append(
                f"surface pgm: shade {shades[k]} at rho={float(rho[k])!r},"
                f" formula gives {expected[k]:g}")
            return


def mc_histogram(check: Check, text, r1: float, r2: float, samples: int, bins: int,
                 margin: float):
    """Histogram artifact against its exact cell probabilities.

    The radius of r1 e(t1) + r2 e(t2) depends only on the uniform angle
    difference, so P(rho <= t) = 1 - arccos((t^2 - r1^2 - r2^2) / (2 r1 r2)) / pi.
    """
    lines = text.split("\n")
    if lines[0] != "rho_center,count,density" or lines[-1] != "" or len(lines) != bins + 2:
        check.problems.append("mc histogram: wrong header or row count")
        return
    table = np.array([[float(x) for x in row.split(",")] for row in lines[1:-1]])
    edges = np.linspace(0.0, r1 + r2 + margin, bins + 1)
    counts = table[:, 1]
    if not np.array_equal(table[:, 0], 0.5 * (edges[:-1] + edges[1:])):
        check.problems.append("mc histogram: bin centres differ from the requested bins")
    if counts.sum() != samples:
        check.problems.append(f"mc histogram: counts sum to {counts.sum():g}, not {samples}")
    area = math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
    density = counts / samples * (4.0 * math.pi**2 * r1 * r2) / area
    if np.any(np.abs(table[:, 2] - density) > 1e-12 * np.abs(density)):
        check.problems.append("mc histogram: density column differs from counts / annulus area")
    cosine = np.clip((edges**2 - r1 * r1 - r2 * r2) / (2.0 * r1 * r2), -1.0, 1.0)
    p = np.diff(1.0 - np.arccos(cosine) / math.pi)
    expected = samples * p
    lo, hi = abs(r1 - r2), r1 + r2
    width = edges[1] - edges[0]
    outside = (edges[1:] <= lo - width) | (edges[:-1] >= hi + width)
    if np.any(counts[outside] != 0):
        check.problems.append("mc histogram: samples outside the support")
    big = expected >= 25.0
    z = np.abs(counts[big] - expected[big]) / np.sqrt(expected[big] * (1.0 - p[big]))
    if z.size and z.max() > Z_MAX:
        check.problems.append(f"mc histogram: a bin is {z.max():.1f} sigma from its exact count")


def plane_wave(check: Check, field, radius: float, k, phase: float, extent: float,
               spacing: float):
    """``circle_average_field`` of cos(k.x + phase) against 2 pi R J0(|k| R) cos(k.x + phase).

    The field is bilinearly interpolated between samples, which is within
    (h |k|)^2 / 8 of the plane wave everywhere, so the circle integral of
    weight 2 pi R is within 2 pi R (h |k|)^2 / 8 of the closed form.
    """
    values = np.asarray(field.values)
    check.signature.append(("field", values.shape, digest(values.tobytes())))
    cells = math.ceil(radius / spacing - 1e-12)
    x = -extent / 2.0 + (cells + np.arange(values.shape[0])) * spacing
    kk = math.hypot(*k)
    expected = (2.0 * math.pi * radius * j0(kk * radius)
                * np.cos(k[0] * x[None, :] + k[1] * x[:, None] + phase))
    err = float(np.max(np.abs(values - expected)))
    tol = 2.0 * math.pi * radius * (spacing * kk) ** 2 / 8.0 + 1e-12
    check.signature.append(("plane wave error", err))
    if not err <= tol:
        check.problems.append(f"plane wave: error {err:.3e} above bound {tol:.3e}")
