"""Bessel J0, the scaled Bessel I0 and the two quadrature rules used throughout the package.

The Bessel evaluators are self-contained (numpy only) so that the transform
identities tested elsewhere do not silently compare a library against
itself.  J0 and I0 share one power-series loop and one table of exact
asymptotic coefficients.

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

# Series/asymptotic split for J0.  Below the split the power series loses at
# most ~3e-12 to cancellation; above it the truncated Hankel expansion is
# good to ~2e-11.  Both sit well inside the 1e-10 contract on |x| <= 50.
_J0_SPLIT = 12.0
# The power series runs a fixed count of terms: at each split, the last is the first below 1e-17.
_J0_TERMS = 30
# Series/asymptotic split for the scaled I0.  The series has positive terms,
# so it loses nothing to cancellation; from the split on, the first omitted
# asymptotic term is below 3e-16 relative.
_I0E_SPLIT = 25.0
_I0E_TERMS = 49

# Hankel asymptotic coefficients a_k = (-1)^k ((2k-1)!!)^2 / (k! 8^k),
# built exactly in integers and rounded once to float.  I0's asymptotic
# series is sum |a_k| / x^k.
def _asymptotic_coefficients(count: int) -> list[float]:
    coefs = [1.0]
    num = 1
    for k in range(1, count):
        num *= (2 * k - 1) ** 2
        den = math.factorial(k) * 8**k
        coefs.append((-1) ** k * num / den)
    return coefs

_A = _asymptotic_coefficients(16)
# cos-phase polynomial in 1/x^2 uses a_0, a_2, ...; sin-phase uses a_1, a_3, ...
_J0_P = [(-1) ** j * _A[2 * j] for j in range(8)]
_J0_Q = [(-1) ** j * _A[2 * j + 1] for j in range(8)]


def _power_series(z: np.ndarray, terms: int) -> np.ndarray:
    """``sum_{k <= terms} z^k / (k!)^2``, each entry on its own: J0(x) at ``z = -x^2/4``, I0(x) at ``z = x^2/4``."""
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, terms + 1):
        term = term * z / (k * k)
        total = total + term
    return total


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    # Above about 1.3e154 x * x overflows to inf, and inv2 = 0 is then right:
    # every 1/x^2 term is far below an ulp of the leading one.
    with np.errstate(over="ignore"):
        inv2 = 1.0 / (x * x)
    p = np.full_like(x, _J0_P[-1])
    for c in reversed(_J0_P[:-1]):
        p = p * inv2 + c
    q = np.full_like(x, _J0_Q[-1])
    for c in reversed(_J0_Q[:-1]):
        q = q * inv2 + c
    q = q / x
    chi = x - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _i0e_asymptotic(x: np.ndarray) -> np.ndarray:
    inv = 1.0 / x
    p = np.full_like(x, abs(_A[-1]))
    for c in reversed(_A[:-1]):
        p = p * inv + abs(c)
    return p / np.sqrt(2.0 * np.pi * x)


def _even_piecewise(x, split: float, series, asymptotic):
    """An even function of ``x``: ``series(|x|)`` up to ``split``, ``asymptotic(|x|)`` above.

    Accepts a scalar or an ndarray; returns a matching scalar or ndarray.
    """
    arr = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    small = arr <= split
    out[small] = series(arr[small])
    out[~small] = asymptotic(arr[~small])
    return float(out) if out.ndim == 0 else out


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Power series below ``x = 12``, 30 terms by recurrence, Hankel asymptotic
    expansion (eight cos- and eight sin-phase terms) above.  Absolute error
    is below 1e-10 for ``|x| <= 50``.  Even by construction: the argument's
    sign is dropped before evaluation.

    Accepts a scalar or an ndarray; returns a matching scalar or ndarray.
    """
    return _even_piecewise(x, _J0_SPLIT, lambda s: _power_series(-(s * s) / 4.0, _J0_TERMS), _j0_asymptotic)


def i0e(x):
    """Exponentially scaled modified Bessel function of order zero, ``I0(x) exp(-|x|)``.

    Power series times ``exp(-x)`` up to ``x = 25``, asymptotic expansion
    ``sum |a_k| / x^k / sqrt(2 pi x)`` (sixteen terms) above, so large
    arguments never overflow.  Relative error is a few ulps.  Even by
    construction, like ``bessel_j0``.

    Accepts a scalar or an ndarray; returns a matching scalar or ndarray.
    """
    return _even_piecewise(x, _I0E_SPLIT, lambda s: _power_series(s * s / 4.0, _I0E_TERMS) * np.exp(-s),
                           _i0e_asymptotic)


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
