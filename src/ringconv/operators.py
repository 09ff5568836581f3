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

from .core import Circle, ParameterError, _values_of_shape
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
        if not self.spacing or self.spacing <= 0.0:
            raise ValueError("sampled field needs spacing > 0")
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
    rule = periodic_trapezoid_rule(n)
    px, py = m.circle.point(rule.nodes)
    vals = m.density_values(rule.nodes) * phi(px, py)
    return m.circle.radius * float(np.sum(rule.weights * vals))


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


def circle_average_field(f: Field2D, c: Circle, n: int = 256) -> Field2D:
    """Apply ``circle_average`` at every grid point of a sampled field.

    The output grid keeps the input spacing but is shrunk by ``R`` on every
    side (rounded outward to whole cells) so that each averaging circle stays
    inside the input grid; off-grid circle points are filled by the field's
    bilinear interpolation.  Raises if the circle does not fit at all.
    """
    if not isinstance(f, Field2D):
        raise ValueError("circle_average_field needs a sampled field")
    r = c.radius
    cells = math.ceil(r / f.spacing - 1e-12)
    size = f.values.shape[0]
    out_size = size - 2 * cells
    if out_size < 1:
        raise ValueError(f"circle of radius {r} does not fit inside the grid (extent {f.extent})")
    rule = periodic_trapezoid_rule(n)
    cos_t = r * np.cos(rule.nodes)
    sin_t = r * np.sin(rule.nodes)
    half = _half_width(size, f.spacing)
    coords = -half + (cells + np.arange(out_size)) * f.spacing
    out = np.empty((out_size, out_size))
    # Every sample point is inside the grid by construction, but the border
    # rows can land an ulp past it through rounding in `coords`; clamping
    # moves those points back by that ulp without admitting real outsiders.
    px = np.clip(coords[:, None] + cos_t, -half, half)
    # Row at a time: rows are independent, so memory stays at O(row * n) and
    # any row partitioning across workers would reproduce the same output.
    for i, y in enumerate(coords):
        py = np.clip(np.broadcast_to(y + sin_t, px.shape), -half, half)
        out[i] = r * (2.0 * math.pi / n) * np.sum(f(px, py), axis=-1)
    return Field2D.from_grid(out, f.spacing)
