#!/usr/bin/env python3
# A circle impulse acts on functions two ways: multiplying restricts to the
# circle, convolving averages over circles.  Both are a few lines here.

import math

import numpy as np

from ringconv import (
    Circle,
    Field2D,
    RingMeasure,
    circle_average,
    circle_average_field,
    circle_mean,
    pair_with_test,
    restrict_to_circle,
)

circle = Circle((0.0, 0.0), 2.0)
print(f"uniform ring measure on radius {circle.radius:g}: mass {RingMeasure.uniform(circle).mass():.6f}"
      f" (2 pi R = {2 * math.pi * circle.radius:.6f})")
print()

# Pairing integrates over the circle in arclength.  A constant sees the
# mass; the x coordinate sees the center.
shifted = RingMeasure.uniform(Circle((3.0, 0.0), 2.0))
print(f"<ring at (3,0), x> = {pair_with_test(shifted, lambda x, y: x):.6f} "
      f"(center x times circumference = {3 * 2 * math.pi * 2:.6f})")

# Multiplying by the impulse keeps only the values on the circle; for a
# radial function that is a single number.
def squared(x, y):
    return x**2 + y**2


measure = restrict_to_circle(squared, circle)
values = measure.density_values(np.linspace(0, 2 * math.pi, 8, endpoint=False))
print(f"rho^2 restricted to the radius-2 circle: {values}")
print()

# Convolving with the impulse averages over a circle about each point.
x = (0.6, -1.1)
got = circle_average(squared, Circle((0.0, 0.0), 1.3), x)
expected = 2 * math.pi * 1.3 * (x[0] ** 2 + x[1] ** 2 + 1.3**2)
print(f"average of |p|^2 over the radius-1.3 circle about {x}:")
print(f"  computed {got:.9f}, analytic |x|^2 + R^2 on weight 2 pi R = {expected:.9f}")
print(f"  as a mean: {circle_mean(squared, Circle((0.0, 0.0), 1.3), x):.9f} vs {x[0]**2 + x[1]**2 + 1.3**2:.9f}")
print()

# The same operator applied to every node of a sampled grid.  Averaging a
# Gaussian bump over unit circles spreads it into a ring.
spacing = 0.02
n = round(6.0 / spacing) + 1
coords = -3.0 + np.arange(n) * spacing
X, Y = np.meshgrid(coords, coords)
bump = Field2D.from_grid(np.exp(-8.0 * (X**2 + Y**2)), spacing)
averaged = circle_average_field(bump, Circle((0.0, 0.0), 1.0), n=128)
mid = averaged.values.shape[0] // 2
print("slice through the circle-averaged Gaussian bump (peak moved to radius 1):")
out_coords = averaged.grid_coords()
row = averaged.values[mid]
for j in range(0, len(row), len(row) // 10):
    print(f"  x={out_coords[j]:+5.2f}  {row[j]:.5f}")
print(f"  argmax at |x| = {abs(out_coords[int(np.argmax(row))]):.2f}")
