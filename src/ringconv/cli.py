"""Command line front end: figure data exports plus a runner for every identity check.

Commands either write an artifact (``profile``, ``surface``, and optionally
``mc-check``) or print one ``PASS``/``FAIL`` line per result of a check in
``checks``, with the measured error against its tolerance.  Exit status is 0
when everything passed, 1 when any check failed, and 2 for a configuration
error whose message names the offending flag: argparse rejects bad flags, and
``run`` reports a ``ParameterError`` from the library the same way.  Artifacts
are assembled in memory before the output file is opened, so a failing run
never leaves a partial file, and identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
import threading

import numpy as np

from . import checks
from .checks import CheckResult
from .core import Circle, ConvKernel, ParameterError, _eval_conv_square, _on_row_blocks, eval_conv, support_interval
from .operators import _grid_side

__all__ = ["build_parser", "parse_args", "run", "main"]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    return parse


_positive_int = _int_at_least(1)
_seed_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringconv",
        description="Closed-form convolution of two circle impulses: exports and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def radii(p, r1_help="first circle radius", r2_help="second circle radius"):
        p.add_argument("--r1", type=_positive_float, default=None, help=r1_help + " (default 2)")
        p.add_argument("--r2", type=_positive_float, default=None, help=r2_help + " (default 3)")

    def centers(p):
        p.add_argument("--b1", type=_finite_float, nargs=2, default=(0.0, 0.0), metavar=("X", "Y"),
                       help="first circle center (default 0 0)")
        p.add_argument("--b2", type=_finite_float, nargs=2, default=(0.0, 0.0), metavar=("X", "Y"),
                       help="second circle center (default 0 0)")

    p = sub.add_parser("profile", help="CSV of the radial density on [0, r1+r2+1]")
    radii(p)
    p.add_argument("--points", type=_positive_int, default=601,
                   help="sample count; exact endpoint and minimum radii are added (default 601)")
    p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("surface", help="2-d density samples as CSV or an ASCII PGM image")
    radii(p)
    p.add_argument("--extent", type=_positive_float, default=12.0, help="grid side length (default 12)")
    p.add_argument("--spacing", type=_positive_float, default=0.05, help="grid spacing (default 0.05)")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv", help="output format (default csv)")
    p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("mc-check", help="Monte Carlo histogram vs the closed form")
    radii(p)
    centers(p)
    p.add_argument("--samples", type=_positive_int, default=10_000_000, help="sample count (default 1e7)")
    p.add_argument("--bins", type=_positive_int, default=260, help="histogram bins (default 260)")
    p.add_argument("--margin", type=_positive_float, default=0.2,
                   help="histogram range margin beyond r1+r2 (default 0.2)")
    p.add_argument("--sectors", type=_positive_int, default=360, help="radiality sectors (default 360)")
    p.add_argument("--seed", type=_seed_int, default=20260814, help="sampler seed (default 20260814)")
    p.add_argument("-o", "--output", default=None, help="optional histogram CSV path")

    p = sub.add_parser("grid-check", help="FFT convolution of mollified rings vs the closed form")
    radii(p)
    centers(p)
    p.add_argument("--epsilon", type=_positive_float, default=0.05, help="mollifier width (default 0.05)")
    p.add_argument("--spacing", type=_positive_float, default=0.01, help="grid spacing (default 0.01)")
    p.add_argument("--extent", type=_positive_float, default=12.0, help="grid side length (default 12)")

    p = sub.add_parser("hankel-check", help="transform product identity and self-inverse round trip")
    radii(p, "first radius for the identity sweep", "second radius for the identity sweep")
    p.add_argument("--nodes", type=_positive_int, default=256, help="quadrature nodes (default 256)")

    p = sub.add_parser("neumann-check", help="angular average of J0 vs the product of J0s")
    radii(p)
    p.add_argument("--nodes", type=_positive_int, default=4096, help="trapezoid nodes (default 4096)")

    p = sub.add_parser("mass-check", help="quadrature mass of the density vs the analytic mass")
    radii(p)
    p.add_argument("--nodes", type=_positive_int, default=256, help="quadrature nodes (default 256)")
    p.add_argument("--seed", type=_seed_int, default=777, help="seed for the random-pair sweep (default 777)")

    p = sub.add_parser("roots-check", help="root-and-slope evaluation vs the closed form")
    radii(p)
    p.add_argument("--seed", type=_seed_int, default=12345, help="seed for random triples (default 12345)")

    p = sub.add_parser("circle-average", help="ring-operator identities (averages, restriction, pairing)")
    p.add_argument("--r1", type=_positive_float, default=None, help="circle radius (default 2)")
    p.add_argument("--b1", type=_finite_float, nargs=2, default=(0.7, -0.4), metavar=("X", "Y"),
                   help="evaluation point and restriction center (default 0.7 -0.4)")
    p.add_argument("--nodes", type=_positive_int, default=256, help="quadrature nodes (default 256)")
    p.add_argument("--seed", type=_seed_int, default=20260814, help="seed for random smooth pairs")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed flags, with unset radii filled in and centres as tuples.

    ``explicit_radii`` records whether ``--r1`` or ``--r2`` was given, which
    switches some checks from their default sweep to that one pair.
    """
    args = build_parser().parse_args(argv)
    r2 = getattr(args, "r2", None)
    args.explicit_radii = args.r1 is not None or r2 is not None
    args.r1 = 2.0 if args.r1 is None else args.r1
    args.r2 = 3.0 if r2 is None else r2
    for name in ("b1", "b2"):
        if hasattr(args, name):
            setattr(args, name, tuple(getattr(args, name)))
    return args


def _emit(chunks: list, output: str | None) -> int:
    """Write the byte chunks of an artifact, all formed before anything is written."""
    if output is None:
        sys.stdout.write(b"".join(chunks).decode("ascii"))
        return 0
    try:
        with open(output, "wb") as f:
            f.writelines(chunks)
    except OSError as exc:
        print(f"error: --output: cannot write {output!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# A cell's text is at most 24 bytes ("-2.2250738585072014e-308"), NUL-padded.
_WIDTH = 24
# The bytes of each 4-digit group 0000 to 9999, one uint32 word per group.
_QUADS = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]


def _split_int(p: int) -> tuple[float, float]:
    """``p`` as a head of at most 26 significant bits plus the tail that makes it exact."""
    drop = max(0, p.bit_length() - 26)
    return float(p >> drop << drop), float(p & ((1 << drop) - 1))


# 10**e for e = 16 - k, where k in [-4, 15] is a fixed-notation value's decimal exponent.  Every such
# power is an exact double (5**20 < 2**53), so head + tail is 10**e exactly.
_POWERS = np.array([_split_int(10**e) for e in range(21)])


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - k)`` exactly, as ``hi + lo`` (Dekker's two-product against ``_POWERS``)."""
    head, tail = _POWERS[16 - k].T
    hi = a * (head + tail)
    c = 134217729.0 * a  # 2**27 + 1: Veltkamp's split of a into two halves of at most 26 bits
    ah = c - (c - a)
    al = a - ah
    return hi, ((ah * head - hi) + ah * tail + al * head) + al * tail


def _text_cells(texts: list[str]) -> np.ndarray:
    return np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(len(texts), _WIDTH)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The ``'%.17g'`` text of each of ``values`` as an ``(n, 24)`` NUL-padded byte matrix.

    Each value's text depends on that value alone, so ``_cell_block`` forms it in row blocks on every
    core, of about 2^14 values: each value's temporaries take several floats.
    """
    cells = np.zeros((len(values), _WIDTH), np.uint8)
    _on_row_blocks(lambda s: _cell_block(values[s], cells[s]), (len(values), 4))
    return cells


def _cell_block(values: np.ndarray, cells: np.ndarray) -> None:
    """Write the text of ``values`` into the zeroed rows ``cells``.

    Values with ``1e-4 <= |x| < 1e16`` are printed in fixed notation from the 17 digits of the
    nearest integer to ``|x| * 10**(16 - k)``, ``k`` being the value's decimal exponent; that
    product is exact, so the rounding is exact too, ties included.  Zeros are written directly;
    every other value goes through ``_fmt``.  Runs of equal ``k`` are laid out by slices, so the
    kernel is fastest on sorted input such as ``np.unique``'s.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    hi, lo = _scaled(a, k)
    # log10 can miss k by one next to a power of ten; y = hi + lo must lie in [1e16, 1e17).
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    redo = np.flatnonzero(high | (hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    k[redo] += np.where(high[redo], 1, -1)
    hi[redo], lo[redo] = _scaled(a[redo], k[redo])
    # hi is an even whole number (y >= 1e16 > 2**53), so y rounds half-even to hi + rint(lo).  That
    # is below 10**17: 10**(k + 1) is a double for k >= -1, and no double lies below 1e-3, 1e-2 or
    # 1e-1 by a relative 5e-18 or less, so no value in range rounds up into the next decimal exponent.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    digits = np.empty((len(n), 17), np.uint8)
    digits[:, 0] = n // 10**16 + ord("0")
    n %= 10**16
    quads = np.stack([n // 10**12, n // 10**8 % 10**4, n // 10**4 % 10**4, n % 10**4], axis=1)
    digits[:, 1:] = _QUADS[quads].view(np.uint8)
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)  # the last nonzero digit
    digits[np.arange(17) > np.maximum(last, k)[:, None]] = 0  # trailing fraction zeros
    dot = np.where(last > k, ord("."), 0).astype(np.uint8)  # no point when no fraction digit is left

    cells[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    bounds = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), len(k)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        r, e = slice(start, stop), int(k[start])
        if e >= 0:  # 1 + e integer digits, the point, 16 - e fraction digits
            cells[r, 1:e + 2] = digits[r, :e + 1]
            cells[r, e + 2] = dot[r]
            cells[r, e + 3:19] = digits[r, e + 1:]
        else:  # "0.", -1 - e zeros, the 17 digits
            cells[r, 1:2 - e] = ord("0")
            cells[r, 2] = ord(".")
            cells[r, 2 - e:19 - e] = digits[r]
    cells[zero, 1] = ord("0")  # over the one digit of the placeholder 1
    slow = ~(fast | zero)
    cells[slow] = _text_cells(list(map(_fmt, values[slow].tolist())))


def _cells(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of each distinct value of ``column`` as NUL-padded byte rows, and each cell's row.

    Float64 values are told apart by their bits, so ``0.0`` and ``-0.0`` (and NaN payloads) each
    keep the text of their own value; integers read as ``str`` gives them.
    """
    floats = column.dtype.kind == "f"
    distinct, inverse = np.unique(column.view(np.int64) if floats else column, return_inverse=True)
    if floats:
        return _float_cells(distinct.view(np.float64)), inverse
    return _text_cells(list(map(str, distinct.tolist()))), inverse


def _in_row_blocks(text_of, shape: tuple) -> list:
    """Views of one buffer holding ``text_of(s)``, a uint8 array of at most one byte per entry, for
    the row blocks ``s`` of ``shape`` in order, formed on every core.  The buffer is allocated here,
    so no worker thread's heap keeps the artifact's bytes."""
    rows, width = shape
    buf = np.empty(rows * width, np.uint8)
    sizes = {}

    def work(s):
        text = text_of(s)
        buf[s.start * width:s.start * width + text.size] = text
        sizes[s.start] = text.size

    _on_row_blocks(work, shape)
    return [buf[start * width:start * width + size] for start, size in sorted(sizes.items())]


def _table(header: str, *columns) -> list:
    """CSV chunks: ``header``, then one row per index of the columns.

    Each column is an array or a ``(cells, index)`` pair from ``_cells``.  Every float cell reads
    as ``_fmt`` gives it and every integer cell as ``str`` does.
    """
    columns = [c if isinstance(c, tuple) else _cells(c) for c in columns]

    def rows(s):
        out = np.empty((s.stop - s.start, len(columns), _WIDTH + 1), np.uint8)
        for j, (cells, index) in enumerate(columns):
            out[:, j, :_WIDTH] = cells[index[s]]
        out[:, :, _WIDTH] = ord(",")
        out[:, -1, _WIDTH] = ord("\n")
        out = out.ravel()
        return out[out != 0]

    return [f"{header}\n".encode(), *_in_row_blocks(rows, (len(columns[0][1]), len(columns) * (_WIDTH + 1)))]


# ---------------------------------------------------------------------------
# Artifact commands.
# ---------------------------------------------------------------------------

def _run_profile(cfg: argparse.Namespace) -> int:
    lo, hi = support_interval(cfg.r1, cfg.r2)
    rho = np.linspace(0.0, hi + 1.0, cfg.points)
    # The exact endpoint floats carry the inf rows; the collapse radius
    # carries the interior minimum value 2 exactly.
    rho = np.unique(np.concatenate([rho, [lo, hi, math.hypot(cfg.r1, cfg.r2)]]))
    return _emit(_table("rho,value", rho, eval_conv(rho, cfg.r1, cfg.r2)), cfg.output)


# The bits of +inf shifted right by 48: the key of the first bucket past the finite floats.
_INF_KEY = 0x7FF0


def _clip_level(values: np.ndarray) -> float:
    """``np.percentile(values[np.isfinite(values)], 99.0)``, or 1.0 where no value is finite, with no copy.

    Every value must be +0.0 or more, or +inf, as the density's are; then a float's bits, read as an
    int64, sort as the float does.  Each worker counts its row blocks' values by their top 16 bits, so
    the two order statistics the percentile interpolates are found in buckets, and only those buckets'
    values are gathered and partitioned (Floyd and Rivest, CACM 18(3), 1975).  They are interpolated
    as NumPy's ``linear`` method does.
    """
    counts = {}

    def count(s):
        part = np.bincount((values[s].view(np.int64) >> 48).ravel(), minlength=_INF_KEY + 1)
        mine = counts.setdefault(threading.get_ident(), part)
        if mine is not part:
            mine += part

    _on_row_blocks(count, values.shape)
    ends = np.cumsum(sum(counts.values())[:_INF_KEY])  # the finite values up to each bucket's end
    n = int(ends[-1])
    if n == 0:
        return 1.0
    index = (n - 1) * 0.99
    k = int(index)
    g = index - k
    first, last = np.searchsorted(ends, [k, min(k + 1, n - 1)], side="right")
    low, high = (float(np.int64(key << 48).view(float)) for key in (first, last + 1))
    parts = []

    def gather(s):
        block = values[s]
        parts.append(block[(block >= low) & (block < high)])

    _on_row_blocks(gather, values.shape)
    k -= int(ends[first - 1]) if first else 0
    pool = np.concatenate(parts)
    ranks = [k, min(k + 1, pool.size - 1)]
    pool.partition(ranks)
    a, b = pool[ranks]
    return float(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)


# The PGM text of each shade: "k " padded with NULs to 4 bytes.
_SHADE_BYTES = np.array([list(f"{k} ".encode().ljust(4, b"\0")) for k in range(256)], dtype=np.uint8)


def _run_surface(cfg: argparse.Namespace) -> int:
    n = _grid_side(cfg.extent, cfg.spacing)
    coords = -cfg.extent / 2.0 + np.arange(n) * cfg.spacing
    values = _eval_conv_square(coords, cfg.r1, cfg.r2)
    if cfg.format == "csv":
        # x runs fastest and y ascends; the coordinates' text is formed once for both columns.
        text, index = _cells(coords)
        return _emit(_table("x,y,value", (text, np.tile(index, n)), (text, np.repeat(index, n)), values.ravel()),
                     cfg.output)
    vmax = _clip_level(values)
    if vmax <= 0.0:
        vmax = 1.0
    header = (
        f"P2\n# ringconv surface r1={_fmt(cfg.r1)} r2={_fmt(cfg.r2)} extent={_fmt(cfg.extent)}"
        f" spacing={_fmt(cfg.spacing)} clip=p99 rows=y-ascending\n{n} {n}\n255\n"
    )

    def rows(s):
        # rint(clip(values / vmax, 0, 1) * 255), shaded in the values' own storage.
        block = values[s]
        block /= vmax
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        np.rint(block, out=block)
        # Each shade's 4 bytes are taken as one word, which NumPy gathers several
        # times faster than 4 single bytes.  A row's last shade ends in a newline.
        cells = _SHADE_BYTES.view(np.uint32)[block.astype(np.uint8)].view(np.uint8)
        ends = cells[:, -1]
        ends[ends == ord(" ")] = ord("\n")
        cells = cells.ravel()
        return cells[cells != 0]

    return _emit([header.encode(), *_in_row_blocks(rows, (n, 4 * n))], cfg.output)


# ---------------------------------------------------------------------------
# Check commands: each picks its inputs and prints what ``checks`` returns.
# ---------------------------------------------------------------------------

def _report(results: list[CheckResult]) -> int:
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.label}: measured {r.measured:.6e} vs tolerance {r.tol:.6e}")
    return 0 if all(r.ok for r in results) else 1


def _run_mc_check(cfg: argparse.Namespace) -> int:
    results, hist = checks.mc_check(Circle(cfg.b1, cfg.r1), Circle(cfg.b2, cfg.r2), cfg.samples,
                                    cfg.bins, cfg.seed, cfg.margin, cfg.sectors)
    code = _report(results)
    if cfg.output is not None:
        return _emit(_table("rho_center,count,density", hist.centers, hist.counts, hist.density()),
                     cfg.output) or code
    return code


def _run_grid_check(cfg: argparse.Namespace) -> int:
    return _report(checks.grid_check(Circle(cfg.b1, cfg.r1), Circle(cfg.b2, cfg.r2), cfg.extent,
                                     cfg.spacing, cfg.epsilon))


def _run_hankel_check(cfg: argparse.Namespace) -> int:
    pairs = [(cfg.r1, cfg.r2)] if cfg.explicit_radii else checks.CHECK_PAIRS
    return _report(checks.transform_product_check(pairs, cfg.nodes) + checks.gauss_roundtrip_check())


def _run_neumann_check(cfg: argparse.Namespace) -> int:
    pairs = [(cfg.r1, cfg.r2)] if cfg.explicit_radii else checks.NEUMANN_PAIRS
    return _report(checks.neumann_check(pairs, cfg.nodes))


def _run_mass_check(cfg: argparse.Namespace) -> int:
    if not cfg.explicit_radii:
        return _report(checks.mass_sweep_check(cfg.seed))
    results, mass = checks.mass_check(cfg.r1, cfg.r2, cfg.nodes)
    print(f"computed mass {mass:.10f}, expected {ConvKernel(cfg.r1, cfg.r2).mass:.10f}")
    return _report(results)


def _run_roots_check(cfg: argparse.Namespace) -> int:
    if cfg.explicit_radii:
        results = checks.roots_sweep_check(cfg.r1, cfg.r2)
        pairs = [(cfg.r1, cfg.r2)]
    else:
        # The minimum's pairs continue the stream the random triples came from.
        rng = np.random.default_rng(cfg.seed)
        results = checks.roots_random_check(rng)
        pairs = rng.uniform(0.1, 5.0, (100, 2))
    return _report(results + checks.interior_minimum_check(pairs))


def _run_circle_average(cfg: argparse.Namespace) -> int:
    return _report(checks.ring_operator_check(cfg.r1, cfg.b1, cfg.nodes, cfg.seed))


_RUNNERS = {
    "profile": _run_profile,
    "surface": _run_surface,
    "mc-check": _run_mc_check,
    "grid-check": _run_grid_check,
    "hankel-check": _run_hankel_check,
    "neumann-check": _run_neumann_check,
    "mass-check": _run_mass_check,
    "roots-check": _run_roots_check,
    "circle-average": _run_circle_average,
}


def run(args: argparse.Namespace) -> int:
    try:
        return _RUNNERS[args.command](args)
    except ParameterError as exc:
        print(f"error: --{exc.param}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(parse_args(argv))
