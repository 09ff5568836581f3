#!/usr/bin/env python3
# The transform-domain picture: convolving circle impulses multiplies their
# Hankel transforms, and the transform is its own inverse.

import math

import numpy as np

from ringconv import (
    ConvKernel,
    RadialProfile,
    bessel_j0,
    hankel_of_circle,
    hankel_of_conv,
    hankel_transform,
    neumann_product_check,
)

r1, r2 = 2.0, 3.0
kernel = ConvKernel(r1, r2)

print("transform of the kernel vs product of the circle transforms")
print("  r      quadrature        product           abs diff")
for r in [0.0, 0.1, 0.25, 0.5, 1.0, 2.0]:
    lhs = hankel_of_conv(kernel, r)
    rhs = hankel_of_circle(r1, r) * hankel_of_circle(r2, r)
    print(f"{r:5.2f}  {lhs:16.9f}  {rhs:16.9f}  {abs(lhs - rhs):.2e}")
print()

# At r = 0 the transform is the total mass, and each circle contributes its
# circumference.
print(f"at r=0: {hankel_of_conv(kernel, 0.0):.9f} vs mass {kernel.mass:.9f}")
print()

# The identity rests on the angular average of J0 over the two-circle
# distance collapsing to a product of J0s.
print("angular average of J0(2 pi r Psi(theta)) vs J0(2 pi r1 r) J0(2 pi r2 r)")
for r in [0.2, 0.7, 1.5]:
    lhs, rhs = neumann_product_check(r1, r2, r)
    print(f"  r={r:4.2f}: lhs {lhs:+.12f}  rhs {rhs:+.12f}  diff {abs(lhs - rhs):.2e}")
print()

# exp(-pi rho^2) is a fixed point of the transform; transforming twice must
# return the profile itself.
gauss = RadialProfile(lambda rho: np.exp(-math.pi * np.asarray(rho) ** 2), (0.0, 4.0))
n = 1024
once = RadialProfile(lambda s: hankel_transform(gauss, s, n), (0.0, 4.0))
grid = np.linspace(0.0, 3.0, 61)
twice = hankel_transform(once, grid, n)
print(f"gaussian fixed point: sup |H g - g|       = {np.max(np.abs(hankel_transform(gauss, grid, n) - gauss(grid))):.2e}")
print(f"self-inverse:         sup |H (H g) - g|   = {np.max(np.abs(twice - gauss(grid))):.2e}")
print()

zero = 2.404825557695773  # first positive zero of J0
print(f"J0 vanishes where the circle transform must: J0({zero}) = {bessel_j0(zero):.2e}")
print(f"circle transform of radius 1 at r = zero/(2 pi): {hankel_of_circle(1.0, zero / (2 * math.pi)):.2e}")
