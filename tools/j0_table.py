"""Print the coefficient table of ``ringconv.special.bessel_j0``, derived in exact rationals.

Run from anywhere, with the standard library only:

    python tools/j0_table.py

It prints the block that ``src/ringconv/special.py`` holds verbatim, and
``tests/test_special.py`` runs it to check that the two agree.  To change the
table, change this script and paste its output over the block.  The package
never imports this file.

Up to x = 25, J0 is one polynomial per piece ``EDGES[k-1] < x <= EDGES[k]``,
in ``t = (x^2 - centre) * scale``.  The piece's interval in y = x^2 is
``[centre - 1/scale, centre + 1/scale]``, so t runs over [-1, 1]; piece 0 is
centred on y = 0, so its constant term, J0(0), is exactly 1.  As in SPECFUN
(Cody, "Algorithm 715", ACM TOMS 19(1), 1993), each piece has a fixed degree;
each polynomial is a Chebyshev economization (Hart et al., *Computer
Approximations*, 1968), made in three exact steps:

1. J0's power series ``sum_k (-y/4)^k / (k!)^2`` is re-expanded about the
   centre, with y = centre + t / scale taken at the float centre and scale the
   evaluator uses;
2. that Taylor polynomial in t is rewritten in Chebyshev polynomials, and its
   top terms are dropped while their absolute sum, a bound on the error they
   add on [-1, 1], stays below ``TAIL``;
3. the rest is turned back into powers of t and each coefficient is rounded
   once to a float.

Above x = 25 the package uses the Hankel expansion with exact integer
coefficients, so nothing else is fitted.
"""

from __future__ import annotations

import math
import textwrap
from fractions import Fraction

# Upper ends of the pieces in x.  Degrees grow with x: 10, 12, 15, 18, 19, 21.
EDGES = (2.0, 5.0, 9.0, 14.0, 19.0, 25.0)
# Power-series terms: the last is below 2^-200 at y = 625.
TERMS = 100
# Taylor degree in t before the Chebyshev truncation: the last is below 2^-80 on every piece.
DEGREE = 40
TAIL = Fraction(1, 2**57)


def j0_series() -> list[Fraction]:
    """The coefficients of J0(sqrt(y)) in powers of y: ``(-1/4)^k / (k!)^2``."""
    coefs = [Fraction(1)]
    for k in range(1, TERMS):
        coefs.append(coefs[-1] / (-4 * k * k))
    return coefs


def taylor(series: list[Fraction], centre: float, scale: float) -> list[Fraction]:
    """Coefficients of ``sum_k series[k] y^k`` in powers of t, at ``y = centre + t / scale``, up to ``DEGREE``."""
    c, h = Fraction(centre), 1 / Fraction(scale)
    powers = [Fraction(1)]
    for _ in series:
        powers.append(powers[-1] * c)
    return [h**j * sum(series[k] * math.comb(k, j) * powers[k - j] for k in range(j, len(series)))
            for j in range(DEGREE + 1)]


def chebyshev(n: int) -> list[list[int]]:
    """Integer power coefficients of T_0 .. T_n, from ``T_{k+1} = 2t T_k - T_{k-1}``."""
    table = [[1], [0, 1]]
    for _ in range(2, n + 1):
        up = [0] + [2 * v for v in table[-1]]
        table.append([a - b for a, b in zip(up, table[-2] + [0, 0])])
    return table[: n + 1]


def truncate(powers: list[Fraction]) -> list[Fraction]:
    """The power coefficients of ``powers``' Chebyshev series with its top terms dropped, up to ``TAIL`` in all."""
    n = len(powers) - 1
    table = chebyshev(n)
    rest, cheb = list(powers), [Fraction(0)] * (n + 1)
    for k in range(n, -1, -1):
        cheb[k] = rest[k] / table[k][k]
        for i, v in enumerate(table[k]):
            rest[i] -= cheb[k] * v
    dropped = Fraction(0)
    while n > 0 and dropped + abs(cheb[n]) < TAIL:
        dropped += abs(cheb[n])
        n -= 1
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        for i, v in enumerate(table[k]):
            out[i] += cheb[k] * v
    return out


def pieces() -> list[tuple[float, float, list[float]]]:
    """``(centre, scale, coefficients from the constant term up)`` for each piece."""
    series = j0_series()
    assert abs(series[-1]) * Fraction(EDGES[-1]) ** (2 * TERMS - 2) < Fraction(1, 2**200)
    out, lo = [], 0.0
    for hi in EDGES:
        a, b = -hi * hi if lo == 0.0 else lo * lo, hi * hi
        centre, scale = 0.5 * (a + b), 2.0 / (b - a)
        powers = taylor(series, centre, scale)
        assert abs(powers[-1]) < Fraction(1, 2**80)
        coefs = [float(c) for c in truncate(powers)]
        out.append((centre, scale, coefs))
        lo = hi
    assert out[0][2][0] == 1.0
    return out


def table() -> str:
    """The table block of ``special.py``."""
    lines = [
        "# J0 up to x = 25: on piece k, _J0_EDGES[k-1] < x <= _J0_EDGES[k], the polynomial with",
        "# coefficients ``coefs`` (constant term first) in t = (x^2 - centre) * scale, where the tuple",
        "# is (centre, scale, coefs).  Generated by tools/j0_table.py; change that script, not this block.",
        f"_J0_EDGES = {EDGES!r}",
        "_J0_PIECES = (",
    ]
    for centre, scale, coefs in pieces():
        lines.append(f"    ({centre!r}, {scale!r}, (")
        body = ", ".join(repr(c) for c in coefs) + ","
        lines += textwrap.wrap(body, 100, initial_indent=" " * 8, subsequent_indent=" " * 8,
                               break_on_hyphens=False)
        lines.append("    )),")
    lines.append(")")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(table(), end="")
