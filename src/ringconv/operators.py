"""Ring measures and the multiplication/convolution operators against them.

A circle impulse pairs with a test function by integrating over the circle
in arclength.  Multiplying the impulse by a continuous function only sees
the function's restriction to the circle; convolving a function with the
impulse replaces each value by an arclength-weighted average over a circle
of the same radius about the evaluation point.

A function on the plane is any callable ``f(x, y)`` taking coordinate arrays
and returning values of their shape (a constant is broadcast).  ``Field2D``
is such a callable for a sampled grid, and ``circle_average_field`` applies
the convolution at every point of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Circle, ParameterError, _on_row_blocks, _values_of_shape
from .special import periodic_trapezoid_rule

__all__ = [
    "RingMeasure",
    "Field2D",
    "pair_with_test",
    "restrict_to_circle",
    "circle_average",
    "circle_mean",
    "circle_average_field",
]


@dataclass(frozen=True)
class RingMeasure:
    """A measure ``density(theta) ds`` on a circle, with ``ds = R d theta``.

    ``density`` maps angle (radians, 2pi-periodic) to a real weight against
    arclength.  With density identically 1 this is the plain circle impulse
    of total mass ``2 pi R``.
    """

    circle: Circle
    density: object

    @classmethod
    def uniform(cls, circle: Circle) -> "RingMeasure":
        return cls(circle, lambda theta: np.ones_like(np.asarray(theta, dtype=float)))

    def density_values(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return _values_of_shape(self.density(theta), theta.shape)

    def mass(self, n: int = 1024) -> float:
        return pair_with_test(self, lambda x, y: 1.0, n)


_MAX_GRID_SIDE = 4001


def _grid_side(extent: float, spacing: float) -> int:
    """Points per side of the centred grid; over the cap, a ``ParameterError`` naming spacing."""
    # min() keeps a ratio that overflowed to inf away from round().
    n = int(round(min(extent / spacing, _MAX_GRID_SIDE))) + 1
    if n > _MAX_GRID_SIDE:
        raise ParameterError("spacing", f"grid would exceed {_MAX_GRID_SIDE} points per side")
    return n


def _half_width(n: int, spacing: float) -> float:
    """Half the side ``(n-1)*spacing`` of a centred ``n``-point grid: it spans ``[-half, half]``."""
    return (n - 1) * spacing / 2.0


def _grid_coords(n: int, spacing: float) -> np.ndarray:
    """The ``n`` coordinates of a centred grid side: ``-half + j*spacing``."""
    return -_half_width(n, spacing) + np.arange(n) * spacing


@dataclass(frozen=True)
class Field2D:
    """A real-valued function on the plane, sampled on a centred square grid.

    ``values`` is row-major with ``values[i, j]`` the sample at
    ``(-extent/2 + j*spacing, -extent/2 + i*spacing)``.  Calling the field
    interpolates bilinearly and refuses to extrapolate, so a ``Field2D`` is a
    callable ``f(x, y)`` like any other the operators take.
    """

    values: np.ndarray
    spacing: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("sampled field values must be a square 2-d array")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("sampled field needs a finite spacing > 0")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled field values must be finite")

    @classmethod
    def from_grid(cls, values, spacing: float) -> "Field2D":
        return cls(values, float(spacing))

    @property
    def extent(self) -> float:
        """Side length ``(n - 1) * spacing`` of the grid."""
        return 2.0 * _half_width(self.values.shape[0], self.spacing)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = self.values.shape[0]
        half = _half_width(n, self.spacing)
        if not (np.all(x >= -half) and np.all(x <= half) and np.all(y >= -half) and np.all(y <= half)):
            raise ValueError("point outside the sampled grid; no extrapolation")
        fx = np.clip((x + half) / self.spacing, 0.0, n - 1.0)
        fy = np.clip((y + half) / self.spacing, 0.0, n - 1.0)
        j0 = np.minimum(fx.astype(int), n - 2)
        i0 = np.minimum(fy.astype(int), n - 2)
        tx = fx - j0
        ty = fy - i0
        v = self.values
        vals = (
            v[i0, j0] * (1 - tx) * (1 - ty)
            + v[i0, j0 + 1] * tx * (1 - ty)
            + v[i0 + 1, j0] * (1 - tx) * ty
            + v[i0 + 1, j0 + 1] * tx * ty
        )
        return float(vals) if vals.ndim == 0 else vals

    def grid_coords(self) -> np.ndarray:
        return _grid_coords(self.values.shape[0], self.spacing)


def pair_with_test(m: RingMeasure, phi, n: int = 1024) -> float:
    """The pairing ``<density . ds, phi> = R * int density(theta) phi(on-circle point) d theta``."""
    theta, weight = periodic_trapezoid_rule(n)
    px, py = m.circle.point(theta)
    vals = m.density_values(theta) * phi(px, py)
    return m.circle.radius * float(np.sum(weight * vals))


def restrict_to_circle(f, c: Circle) -> RingMeasure:
    """Multiplication by the impulse: ``f . delta_C`` keeps only f's values on C.

    The density is ``theta -> f(center + R e(theta))``.  For f radial about
    the circle's center this is the constant profile value at radius R.
    """
    def density(theta):
        px, py = c.point(theta)
        return f(px, py)

    return RingMeasure(c, density)


def circle_average(f, c: Circle, x: tuple[float, float], n: int = 1024) -> float:
    """Arclength integral of f over the radius-R circle about x.

    This realizes convolution with the circle impulse of radius ``c.radius``:
    the value is ``int_0^{2pi} f(x + R e(theta)) R d theta`` with total weight
    ``2 pi R`` (a sum, not a mean; see ``circle_mean``).  Only the circle's
    radius enters; its own center is irrelevant to where the average is taken.
    """
    return pair_with_test(RingMeasure.uniform(Circle(x, c.radius)), f, n)


def circle_mean(f, c: Circle, x: tuple[float, float], n: int = 1024) -> float:
    """``circle_average`` normalized by the circumference: an actual mean of f."""
    return circle_average(f, c, x, n) / (2.0 * math.pi * c.radius)


def _smooth_length(n: int) -> int:
    """The smallest ``m >= n`` with no prime factor above 5, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _spectrum(values: np.ndarray, side: int) -> np.ndarray:
    """``rfft2(values, (side, side))`` with its bits: an ``rfft`` of each row block, then an in-place
    ``fft`` of each column block, on the usable cores."""
    out = np.zeros((side, side // 2 + 1), dtype=complex)
    _on_row_blocks(lambda s: np.fft.rfft(values[s], side, axis=1, out=out[s]), values.shape)
    _on_row_blocks(lambda s: np.fft.fft(out[:, s], axis=0, out=out[:, s]), out.shape[::-1])
    return out


def _spectral_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the spectral product ``a * b`` to ``out``, which may be ``a`` or ``b``, and return it.

    The product is written out in real arithmetic with the same operations
    for either operand order, so swapping ``a`` and ``b`` gives the same bits.
    ``a.imag * b.imag`` goes through a temporary and the imaginary part is
    written first, so overwriting an operand changes no bit either.
    """
    imag_imag = a.imag * b.imag
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    np.subtract(a.real * b.real, imag_imag, out=out.real)
    return out


def _centred_inverse(product: np.ndarray, h: int, n: int, scale: float) -> np.ndarray:
    """``irfft2(product)[h:h + n, h:h + n] * scale`` as a new array; ``product`` is overwritten.

    The columns are transformed in ``product``, then only the kept rows, each
    in blocks on the usable cores, so no full padded real grid is made.
    """
    side = product.shape[0]
    _on_row_blocks(lambda s: np.fft.ifft(product[:, s], axis=0, out=product[:, s]), product.shape[::-1])
    out = np.empty((n, n))

    def rows(s):
        np.multiply(np.fft.irfft(product[h + s.start:h + s.stop], side, axis=1)[:, h:h + n], scale, out=out[s])

    _on_row_blocks(rows, (n, side))
    return out


def circle_average_field(f: Field2D, c: Circle, n: int = 256) -> Field2D:
    """Apply ``circle_average`` at every grid point of a sampled field.

    The output grid keeps the input spacing but is shrunk by ``R`` on every
    side (rounded outward to whole cells) so that each averaging circle stays
    inside the input grid.  Each output point samples the field at the same
    offsets in cells, so the operator is one fixed stencil of bilinear weights,
    applied as one FFT convolution on the grid oracle's row-block transforms,
    which keep their bits on any number of cores.  The field is scaled by a
    power of two to ``max|f|`` in [0.5, 1) and back, so no spectrum overflows.
    Raises if the circle does not fit.
    """
    if not isinstance(f, Field2D):
        raise ValueError("circle_average_field needs a sampled field")
    r = c.radius
    cells = math.ceil(r / f.spacing - 1e-12)
    size = f.values.shape[0]
    out_size = size - 2 * cells
    if out_size < 1:
        raise ValueError(f"circle of radius {r} does not fit inside the grid (extent {f.extent})")
    theta, weight = periodic_trapezoid_rule(n)
    # Node offsets in cells from the stencil's corner; one clipped onto the far edge has fraction 0, so the extra
    # row and column only ever get weight 0.  They are dropped, and convolving with the flipped rest correlates.
    offsets = np.clip(cells + r / f.spacing * np.stack([np.cos(theta), np.sin(theta)]), 0.0, 2 * cells)
    (tx, ty), (j, i) = np.modf(offsets)
    side = 2 * cells + 2
    corner = (i * side + j).astype(int)
    stencil = np.bincount(np.concatenate([corner, corner + 1, corner + side, corner + side + 1]),
                          np.concatenate([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty]),
                          minlength=side * side).reshape(side, side)
    e = int(np.frexp(max(f.values.max(), -f.values.min()))[1])
    # A side >= ``size`` keeps wrap-around off the output, 2 * cells in; the scaled copy goes before ``b`` is made.
    a = _spectrum(np.ldexp(f.values, -e), _smooth_length(size))
    b = _spectrum(stencil[-2::-1, -2::-1], a.shape[0])
    _on_row_blocks(lambda s: _spectral_product(a[s], b[s], out=a[s]), a.shape)
    del b
    out = _centred_inverse(a, 2 * cells, out_size, r * weight)
    return Field2D.from_grid(np.ldexp(out, e, out=out), f.spacing)
