"""Independent reference implementations used only as test oracles.

Everything here is deliberately primitive: exact rational arithmetic and
bisection, sharing no code with the package, so a test that compares the
package against these is comparing two genuinely different routes.
"""

import math
from fractions import Fraction


def j0_series_oracle(x: float, terms: int = 40) -> float:
    """J0 by exact-rational partial sums of the defining power series.

    The float ``x`` is taken as the exact rational it denotes, every term is
    a Fraction, and only the final partial sum is rounded, so the result has
    no accumulation error at all; the only error is truncation, bounded by
    the first omitted term once the terms start shrinking.  40 terms cover
    ``|x| <= 8`` to far below float resolution; pass more for larger
    arguments (160 is ample through ``|x| = 50``).

    The sum is kept in integers over the common denominator
    ``d^n (n!)^2`` of its ``n + 1 = terms`` terms, where ``q = -x^2/4 = p/d``:
    term k is ``p^k d^(n-k) (n!/k!)^2``, and each step from term k - 1 divides
    exactly.  That is the same rational as a ``Fraction`` sum, without a gcd
    per term.
    """
    q = -Fraction(x) ** 2 / 4
    p, d, n = q.numerator, q.denominator, terms - 1
    term = total = den = d**n * math.factorial(n) ** 2
    for k in range(1, terms):
        term = term * p // (d * k * k)
        total += term
    return float(Fraction(total, den))


def j0_series_term(x: float, k: int) -> float:
    """Magnitude of the k-th series term, for remainder-bound checks."""
    return float(Fraction(x) ** (2 * k) / (4**k * math.factorial(k) ** 2))


def j0_zero_oracle(lo: float, hi: float, terms: int = 60) -> float:
    """Bisect the series oracle for a zero inside a published bracket."""
    f_lo = j0_series_oracle(lo, terms)
    f_hi = j0_series_oracle(hi, terms)
    if not f_lo * f_hi < 0.0:
        raise ValueError(f"bracket ({lo}, {hi}) does not straddle a sign change")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        f_mid = j0_series_oracle(mid, terms)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0.0) == (f_mid > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def chebyshev_weight_moment(a: float, b: float, m: int) -> float:
    """Analytic ``int_a^b u^m / sqrt((u - a)(b - u)) du``.

    Substituting ``u = c + d cos(phi)`` with c = (a+b)/2, d = (b-a)/2 turns
    the integral into ``int_0^pi (c + d cos phi)^m d phi``; expanding the
    binomial, odd cosine powers vanish and even powers integrate to
    ``pi (j-1)!! / j!!``.
    """
    c, d = 0.5 * (a + b), 0.5 * (b - a)
    total = 0.0
    for j in range(0, m + 1, 2):
        cos_power = math.pi * _double_factorial(j - 1) / _double_factorial(j)
        total += math.comb(m, j) * c ** (m - j) * d**j * cos_power
    return total


def i0e_series_oracle(x: float) -> float:
    """``I0(x) exp(-x)`` for ``x >= 0``, as the quotient of two exact-rational power series.

    ``I0(x) = sum (x^2/4)^k / (k!)^2`` and ``exp(x) = sum x^k / k!`` both have
    positive terms.  Each sum runs in Fractions until its term has fallen
    below 2^-80 of the running total while shrinking at least twofold per
    step, so the omitted tail is smaller than that last term.  Only the
    final quotient is rounded.
    """
    q = Fraction(x)

    def positive_series(ratio):
        term = total = Fraction(1)
        k = 0
        while True:
            k += 1
            r = ratio(k)
            term *= r
            total += term
            if r <= Fraction(1, 2) and term * 2**80 < total:
                return total

    i0 = positive_series(lambda k: q * q / (4 * k * k))
    exp = positive_series(lambda k: q / k)
    return float(i0 / exp)


def conv_density_squared(rho: float, r1: float, r2: float) -> Fraction:
    """The square of the closed-form density, ``16 r1^2 r2^2 / ((rho^2 - (r1 - r2)^2)((r1 + r2)^2 - rho^2))``, exactly.

    The floats are taken as the exact rationals they denote, so the
    radicand's ends are the exact ``|r1 - r2|`` and ``r1 + r2``, not their
    rounded floats.  ``rho`` must lie strictly inside that exact support.
    """
    p, a, b = Fraction(rho), Fraction(r1), Fraction(r2)
    return 16 * a * a * b * b / ((p * p - (a - b) ** 2) * ((a + b) ** 2 - p * p))
