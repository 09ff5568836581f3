"""Independent reference implementations used only as test oracles.

Everything here is deliberately primitive: exact rational arithmetic and
bisection, sharing no code with the package, so a test that compares the
package against these is comparing two genuinely different routes.
"""

import math
from decimal import Decimal, localcontext
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


# pi to 64 digits, for the 40-digit references below.
_PI = "3.141592653589793238462643383279502884197169399375105820974944592"


def _series(first, ratio, eps):
    """Sum of the terms ``first, first * ratio(1), ...`` until one falls below ``eps``."""
    total = term = first
    n = 1
    while abs(term) > eps:
        term = term * ratio(n)
        total += term
        n += 1
    return total


def sin_cos_40(x: float):
    """``(sin x, cos x)`` as Decimals good to about 40 digits: x reduced by pi/2 and two Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 60
        eps = Decimal(10) ** -50
        half = Decimal(_PI) / 2
        k = int((Decimal(x) / half).to_integral_value())
        r = Decimal(x) - k * half
        sq = -r * r
        s = _series(r, lambda n: sq / ((2 * n) * (2 * n + 1)), eps)
        c = _series(Decimal(1), lambda n: sq / ((2 * n - 1) * (2 * n)), eps)
        return ((s, c), (c, -s), (-s, -c), (-c, s))[k % 4]


def atan2_40(y: float, x: float):
    """The angle of ``(x, y)`` in (-pi, pi] as a Decimal good to about 40 digits; not at the origin.

    The ratio of the smaller to the larger coordinate is halved in angle twice,
    ``t -> t / (1 + sqrt(1 + t^2))``, and the arctangent series summed.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        pi, ay, ax = Decimal(_PI), abs(Decimal(y)), abs(Decimal(x))
        t = min(ay, ax) / max(ay, ax)
        for _ in range(2):
            t = t / (1 + (1 + t * t).sqrt())
        sq = -t * t
        a = 4 * _series(t, lambda n: sq * (2 * n - 1) / (2 * n + 1), Decimal(10) ** -50)
        if ay > ax:
            a = pi / 2 - a
        if x < 0:
            a = pi - a
        return -a if y < 0 else a


def hypot_40(x: float, y: float):
    """``sqrt(x^2 + y^2)`` as a Decimal good to about 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(x) ** 2 + Decimal(y) ** 2).sqrt()


def ulps_off(value: float, reference) -> float:
    """How many units in the last place of the reference the float ``value`` lies from it.

    The unit is the spacing of floats just below ``|reference|``, the finer one at a power of two.
    """
    below = math.nextafter(abs(float(reference)), 0.0)
    unit = math.nextafter(below, math.inf) - below
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs(Decimal(value) - reference) / Decimal(unit))
