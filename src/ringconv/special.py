"""Bessel J0, the scaled Bessel I0 and the two quadrature rules used throughout the package.

The Bessel evaluators are self-contained (numpy only) so that the transform
identities tested elsewhere do not silently compare a library against
itself.  Both are even and piecewise, and every argument runs its piece's fixed
operations, so a batched entry has the bits of its scalar call.  Up to x = 25,
J0 is a polynomial in x^2 on six pieces (from ``tools/j0_table.py``) and I0
its power series; above, both use one table of exact asymptotic coefficients.

Both quadrature rules give every node the same weight, so each returns
``(nodes, weight)``: a node array and one float, and a rule applied to ``f``
is ``weight * sum(f(nodes))``.  The Chebyshev singular rule serves integrals
with inverse-square-root endpoint weight in ``hankel.hankel_transform``, and
the periodic trapezoid is the uniform angular grid; integrals against the
kernel's density run on neither, but on ``core._angular_rule``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_j0",
    "i0e",
    "chebyshev_singular_rule",
    "periodic_trapezoid_rule",
]

# J0 up to x = 25: on piece k, _J0_EDGES[k-1] < x <= _J0_EDGES[k], the polynomial with
# coefficients ``coefs`` (constant term first) in t = (x^2 - centre) * scale, where the tuple
# is (centre, scale, coefs).  Generated by tools/j0_table.py; change that script, not this block.
_J0_EDGES = (2.0, 5.0, 9.0, 14.0, 19.0, 25.0)
_J0_PIECES = (
    (0.0, 0.25, (
        1.0, -1.0, 0.25, -0.027777777777777644, 0.0017361111111111093, -6.944444444519962e-05,
        1.9290123456866403e-06, -3.936759716531841e-08, 6.151187179675683e-10,
        -7.595784476223593e-12, 7.595366019910604e-14,
    )),
    (14.5, 0.09523809523809523, (
        -0.40264490753593746, -0.013266832492334396, 0.3874897243147858, -0.18286093506495496,
        0.03793202780006848, -0.004594745336836354, 0.00036923939007163194, -2.123123334767902e-05,
        9.190995834112095e-07, -3.1081443903665164e-08, 8.445245910382506e-10,
        -1.886973041221621e-11, 3.52263740029476e-13,
    )),
    (53.0, 0.03571428571428571, (
        0.2898043539955023, -0.1481507263735128, -0.4967305004213216, 0.2662621333848948,
        0.047580378096829856, -0.06934281842530214, 0.024663030686017717, -0.005062507870676574,
        0.000711525196714823, -7.410943658458948e-05, 6.00026509576432e-06, -3.9027310533687946e-07,
        2.0896480919115436e-08, -9.38791510330497e-10, 3.607294342200695e-11,
        -1.190757554722103e-12,
    )),
    (138.5, 0.017391304347826087, (
        -0.0053355248344921155, 0.5688426982428412, -0.10215996535362266, -0.5375297842779961,
        0.2181788566344566, 0.08793408455363111, -0.07382520041703297, 0.013776026835101096,
        0.002863226742130129, -0.0021984979537497643, 0.000631597943393368, -0.00011910024276120734,
        1.67697608791489e-05, -1.8703068594578725e-06, 1.7112078729010178e-07,
        -1.315371499056959e-08, 8.648060590934029e-10, -4.9824409859988574e-11,
        2.4863988392571874e-12,
    )),
    (278.5, 0.012121212121212121, (
        -0.19184882804230421, 0.10419741495214321, 0.5706400084958378, -0.2187968980748849,
        -0.2419278703278377, 0.1241726006666582, 0.018617522798431915, -0.02279058592228463,
        0.0038761262464687765, 0.0009133083868868332, -0.0005066289358221177, 8.570711403356449e-05,
        1.765205513475383e-07, -3.404988807675593e-06, 9.306971644097671e-07,
        -1.5825317224265649e-07, 2.0247109613878087e-08, -2.092285233998521e-09,
        1.8545508284091033e-10, -1.3690850555140388e-11,
    )),
    (493.0, 0.007575757575757576, (
        -0.14175129776871567, -0.26578198399428, 0.6618173174115315, 0.27326125040087734,
        -0.5421755578297439, -0.004589374098357708, 0.16070734715528878, -0.03591664252437763,
        -0.016941913948770555, 0.008439773041537762, -0.0003704998123237027, -0.000587738408831827,
        0.0001690524474396004, -8.492745922866456e-06, -6.0956856782527935e-06,
        1.8806252097433679e-06, -2.475787497444327e-07, 1.3094742918703665e-09,
        6.765732268341811e-09, -1.758280612164533e-09, 3.1179438701439594e-10,
        -3.889507366321678e-11,
    )),
)

# Series/asymptotic split for the scaled I0.  The series has positive terms,
# so it loses nothing to cancellation; from the split on, the first omitted
# asymptotic term is below 3e-16 relative.
_I0E_SPLIT = 25.0
_I0E_TERMS = 49

# Hankel asymptotic coefficients a_k = (-1)^k ((2k-1)!!)^2 / (k! 8^k), exact
# integers divided once to float.  I0's asymptotic series is sum |a_k| / x^k.
_A = [(-1) ** k * math.prod(range(1, 2 * k, 2)) ** 2 / (math.factorial(k) * 8**k) for k in range(16)]
# cos-phase polynomial in 1/x^2 uses a_0, a_2, ...; sin-phase uses a_1, a_3, ...
# From x = 25 on, the first omitted terms (2.7e-16 in p, 8.6e-17 in q) move J0 by under 5e-17.
_J0_P = [(-1) ** j * _A[2 * j] for j in range(8)]
_J0_Q = [(-1) ** j * _A[2 * j + 1] for j in range(8)]
_I0_ASYMPTOTIC = [abs(c) for c in _A]
_DBL_MAX = np.finfo(float).max


def _horner(coefs, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sum_j coefs[j] t^j`` into ``out``, highest power first: each step rounds as ``p * t + c``."""
    out.fill(coefs[-1])
    for c in reversed(coefs[:-1]):
        out *= t
        out += c
    return out


def _j0_piece(k: int, x: np.ndarray, out: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """J0 on piece ``k`` into ``out``: its polynomial, or past the last edge the Hankel expansion, whose phase is never rounded.

    ``t`` and ``u`` are scratch rows shaped like ``x``; nothing else is allocated.
    """
    if k < len(_J0_PIECES):
        centre, scale, coefs = _J0_PIECES[k]
        np.multiply(x, x, out=t)
        t -= centre
        t *= scale
        return _horner(coefs, t, out)
    # Above about 1.3e154 x * x overflows to inf, and inv2 = 0 is then right:
    # every 1/x^2 term is far below an ulp of the leading one.
    with np.errstate(over="ignore"):
        inv2 = np.divide(1.0, np.multiply(x, x, out=t), out=t)
    p, q = _horner(_J0_P, inv2, out), _horner(_J0_Q, inv2, u)
    q /= x
    # sqrt(2/(pi x)) (p cos(x - pi/4) - q sin(x - pi/4)), with cos x and sin x of the exact x.  At x = inf,
    # where they have no value, they are taken at DBL_MAX; dividing by sqrt(pi x) = inf then gives a signed
    # zero, and adding 0.0, which moves no other entry (none is zero), makes it the limit +0.
    diff = np.subtract(p, q, out=t)
    total = np.add(p, q, out=out)
    total *= np.cos(np.minimum(x, _DBL_MAX, out=u), out=u)
    diff *= np.sin(np.minimum(x, _DBL_MAX, out=u), out=u)
    total += diff
    # sqrt(pi x) as 2 sqrt((pi / 4) x): the same bits, and finite up to DBL_MAX, where pi x overflows.
    sqrt_pi_x = np.sqrt(np.multiply(np.pi / 4, x, out=t), out=t)
    sqrt_pi_x *= 2.0
    total /= sqrt_pi_x
    total += 0.0
    return total


def _i0e_piece(k: int, x: np.ndarray, out: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``I0(x) exp(-x)`` into ``out``: ``_I0E_TERMS`` power-series terms at k = 0, the asymptotic series at k = 1."""
    if k == 1:
        _horner(_I0_ASYMPTOTIC, np.divide(1.0, x, out=t), out)
        out /= np.sqrt(np.multiply(2.0 * np.pi, x, out=u), out=u)
        return out
    z = np.multiply(x, x, out=t)
    z /= 4.0
    term, total = u, out
    term.fill(1.0)
    total.fill(1.0)
    for j in range(1, _I0E_TERMS + 1):
        term *= z
        term /= j * j
        total += term
    total *= np.exp(np.negative(x, out=t), out=t)
    return total


def _even_piecewise(x, edges, piece):
    """An even function of ``x``: ``piece(k, |x|, out, t, u)`` where ``edges[k-1] < |x| <= edges[k]``, k = len(edges) above.

    Each piece writes into rows of one scratch array sized by the largest piece.  Its arguments are a
    boolean gather, about 4x faster than ``np.compress`` into a row on a Hankel block's banded masks.
    Accepts a scalar or an ndarray; returns a matching scalar or ndarray.
    """
    arr = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    k = np.zeros(arr.shape, dtype=np.uint8)
    above = [arr.size]
    for edge in edges:
        over = arr > edge
        k += over
        above.append(np.count_nonzero(over))
    counts = [a - b for a, b in zip(above, [*above[1:], 0])]
    scratch = np.empty((3, max(counts)))
    for j, n in enumerate(counts):
        if n:
            on = k == j
            out[on] = piece(j, arr[on], *scratch[:, :n])
    return float(out) if out.ndim == 0 else out


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Polynomials in x^2 on six pieces up to ``x = 25`` (degrees 10 to 21, from
    ``tools/j0_table.py``), the Hankel asymptotic expansion (eight cos- and
    eight sin-phase terms) above.  Absolute error is below 1e-15 on
    ``[0, 50]`` (2.5e-16 at worst on 10,000 points).  Finite at every
    finite argument, and 0, the limit, at ``+-inf``.  Even by
    construction: the argument's sign is dropped before evaluation.

    Accepts a scalar or an ndarray; returns a matching scalar or ndarray.
    """
    return _even_piecewise(x, _J0_EDGES, _j0_piece)


def i0e(x):
    """Exponentially scaled modified Bessel function of order zero, ``I0(x) exp(-|x|)``.

    Power series times ``exp(-x)`` up to ``x = 25``, asymptotic expansion
    ``sum |a_k| / x^k / sqrt(2 pi x)`` (sixteen terms) above, so large
    arguments never overflow.  Relative error is a few ulps.  Even by
    construction, like ``bessel_j0``.

    Accepts a scalar or an ndarray; returns a matching scalar or ndarray.
    """
    return _i0e(x)


def _i0e(x):
    """``i0e`` under a private name, for worker threads, which call no public function."""
    return _even_piecewise(x, (_I0E_SPLIT,), _i0e_piece)


def chebyshev_singular_rule(a: float, b: float, n: int) -> tuple[np.ndarray, float]:
    """Gauss-Chebyshev rule for the weight ``1/sqrt((u - a)(b - u))`` on (a, b).

    Returns ``(nodes, weight)``: the nodes ``(a+b)/2 + (b-a)/2 * cos((2k-1) pi / (2n))``
    for k = 1..n and the weight ``pi/n`` that every node shares, so the rule
    applied to ``f`` is ``weight * sum(f(nodes))``.  Exact for polynomials of
    degree < 2n against the weight; in particular ``f = 1`` integrates to pi
    for any n.  Raises ValueError unless every node lies strictly inside
    (a, b), which also rejects ``a >= b`` and intervals only a few ulps wide.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    k = np.arange(1, n + 1)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k - 1) * np.pi / (2 * n))
    if not (np.all(nodes > a) and np.all(nodes < b)):
        raise ValueError(f"({a}, {b}) does not hold {n} chebyshev nodes strictly inside it")
    return nodes, np.pi / n


def periodic_trapezoid_rule(n: int) -> tuple[np.ndarray, float]:
    """Uniform n-point rule on [0, 2pi): nodes ``2 pi j / n`` and their shared weight ``2 pi / n``.

    ``weight * sum(f(nodes))`` is spectrally accurate for smooth 2pi-periodic
    integrands, and exact to rounding on trigonometric polynomials of
    degree < n.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return np.arange(n) * (2.0 * np.pi / n), 2.0 * np.pi / n
