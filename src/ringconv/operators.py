"""Ring measures and the multiplication/convolution operators against them.

A circle impulse pairs with a test function by integrating over the circle
in arclength.  Multiplying the impulse by a continuous function only sees
the function's restriction to the circle; convolving a function with the
impulse replaces each value by an arclength-weighted average over a circle
of the same radius about the evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Circle, _values_of_shape
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
        rule = periodic_trapezoid_rule(n)
        return self.circle.radius * float(np.sum(rule.weights * self.density_values(rule.nodes)))


@dataclass(frozen=True)
class Field2D:
    """A real-valued function on the plane, optionally backed by a grid.

    ``func`` takes coordinate arrays ``(x, y)`` and returns values of the
    same shape.  Sampled fields carry a centered square grid: ``values`` is
    row-major with ``values[i, j]`` the sample at
    ``(-extent/2 + j*spacing, -extent/2 + i*spacing)``, and the evaluator is
    bilinear interpolation that refuses to extrapolate.
    """

    func: object
    values: np.ndarray | None = None
    spacing: float | None = None
    extent: float | None = None

    def __post_init__(self):
        if self.values is not None:
            values = np.asarray(self.values, dtype=float)
            object.__setattr__(self, "values", values)
            if values.ndim != 2 or values.shape[0] != values.shape[1]:
                raise ValueError("sampled field values must be a square 2-d array")
            if not self.spacing or self.spacing <= 0.0:
                raise ValueError("sampled field needs spacing > 0")
            if not np.all(np.isfinite(values)):
                raise ValueError("sampled field values must be finite")
            object.__setattr__(self, "extent", float((values.shape[0] - 1) * self.spacing))

    @classmethod
    def from_function(cls, func) -> "Field2D":
        return cls(func)

    @classmethod
    def from_grid(cls, values, spacing: float) -> "Field2D":
        field = cls(None, values=values, spacing=float(spacing))
        object.__setattr__(field, "func", field._interpolate)
        return field

    @property
    def is_sampled(self) -> bool:
        return self.values is not None

    def _interpolate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        half = self.extent / 2.0
        if np.any(x < -half) or np.any(x > half) or np.any(y < -half) or np.any(y > half):
            raise ValueError("point outside the sampled grid; no extrapolation")
        n = self.values.shape[0]
        fx = np.clip((x + half) / self.spacing, 0.0, n - 1.0)
        fy = np.clip((y + half) / self.spacing, 0.0, n - 1.0)
        j0 = np.minimum(fx.astype(int), n - 2)
        i0 = np.minimum(fy.astype(int), n - 2)
        tx = fx - j0
        ty = fy - i0
        v = self.values
        return (
            v[i0, j0] * (1 - tx) * (1 - ty)
            + v[i0, j0 + 1] * tx * (1 - ty)
            + v[i0 + 1, j0] * (1 - tx) * ty
            + v[i0 + 1, j0 + 1] * tx * ty
        )

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        vals = _values_of_shape(self.func(x, y), x.shape)
        return float(vals) if x.ndim == 0 else vals

    def grid_coords(self) -> np.ndarray:
        if not self.is_sampled:
            raise ValueError("field has no grid")
        return -self.extent / 2.0 + np.arange(self.values.shape[0]) * self.spacing


def pair_with_test(m: RingMeasure, phi: Field2D, n: int = 1024) -> float:
    """The pairing ``<density . ds, phi> = R * int density(theta) phi(on-circle point) d theta``."""
    rule = periodic_trapezoid_rule(n)
    px, py = m.circle.point(rule.nodes)
    vals = m.density_values(rule.nodes) * phi(px, py)
    return m.circle.radius * float(np.sum(rule.weights * vals))


def restrict_to_circle(f: Field2D, c: Circle) -> RingMeasure:
    """Multiplication by the impulse: ``f . delta_C`` keeps only f's values on C.

    The density is ``theta -> f(center + R e(theta))``.  For f radial about
    the circle's center this is the constant profile value at radius R.
    """
    def density(theta):
        px, py = c.point(theta)
        return f(px, py)

    return RingMeasure(c, density)


def circle_average(f: Field2D, c: Circle, x: tuple[float, float], n: int = 1024) -> float:
    """Arclength integral of f over the radius-R circle about x.

    This realizes convolution with the circle impulse of radius ``c.radius``:
    the value is ``int_0^{2pi} f(x + R e(theta)) R d theta`` with total weight
    ``2 pi R`` (a sum, not a mean; see ``circle_mean``).  Only the circle's
    radius enters; its own center is irrelevant to where the average is taken.
    """
    rule = periodic_trapezoid_rule(n)
    r = c.radius
    px = x[0] + r * np.cos(rule.nodes)
    py = x[1] + r * np.sin(rule.nodes)
    return r * float(np.sum(rule.weights * f(px, py)))


def circle_mean(f: Field2D, c: Circle, x: tuple[float, float], n: int = 1024) -> float:
    """``circle_average`` normalized by the circumference: an actual mean of f."""
    return circle_average(f, c, x, n) / (2.0 * math.pi * c.radius)


def circle_average_field(f: Field2D, c: Circle, n: int = 256) -> Field2D:
    """Apply ``circle_average`` at every grid point of a sampled field.

    The output grid keeps the input spacing but is shrunk by ``R`` on every
    side (rounded outward to whole cells) so that each averaging circle stays
    inside the input grid; off-grid circle points are filled by the field's
    bilinear interpolation.  Raises if the circle does not fit at all.
    """
    if not f.is_sampled:
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
    coords = -f.extent / 2.0 + (cells + np.arange(out_size)) * f.spacing
    out = np.empty((out_size, out_size))
    # Every sample point is inside the grid by construction, but the border
    # rows can land an ulp past it through rounding in `coords`; clamping
    # moves those points back by that ulp without admitting real outsiders.
    half = f.extent / 2.0
    px = np.clip(coords[:, None] + cos_t, -half, half)
    # Row at a time: rows are independent, so memory stays at O(row * n) and
    # any row partitioning across workers would reproduce the same output.
    for i, y in enumerate(coords):
        py = np.clip(np.broadcast_to(y + sin_t, px.shape), -half, half)
        out[i] = r * (2.0 * math.pi / n) * np.sum(f(px, py), axis=-1)
    return Field2D.from_grid(out, f.spacing)
