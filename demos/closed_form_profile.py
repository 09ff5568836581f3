#!/usr/bin/env python3
# Walk the radial density of the convolution of two circle impulses across
# its annulus of support and poke at the places where something happens.

import math

import numpy as np

from ringconv import ConvKernel, classify, conv_via_roots, eval_conv, interior_root, total_mass

r1, r2 = 2.0, 3.0
kernel = ConvKernel(r1, r2)
lo, hi = kernel.support

print(f"radii {r1:g} and {r2:g}: support is the open annulus ({lo:g}, {hi:g})")
print(f"analytic mass {kernel.mass:.6f} = 4 pi^2 r1 r2")
print(f"quadrature mass {total_mass(kernel):.6f} (exact for any rule size)")
print()

print(" rho   class            value")
for rho in [0.0, 0.5, lo, 1.5, 2.5, math.hypot(r1, r2), 4.5, hi, 6.0]:
    value = eval_conv(rho, r1, r2)
    label = classify(rho, r1, r2).name.lower().replace("_", " ")
    print(f"{rho:5.3f}  {label:16s} {value}")
print()

# The density blows up like an inverse square root at both endpoints but
# stays integrable; halving the distance to the endpoint grows the value
# by about sqrt(2).
for d in [1e-2, 1e-4, 1e-6, 1e-8]:
    print(f"value at hi - {d:.0e}: {eval_conv(hi - d, r1, r2):12.3f}")
print()

# Interior minimum: exactly 2, where the two radii meet at a right angle.
rho_min = math.hypot(r1, r2)
print(f"minimum at sqrt(r1^2 + r2^2) = {rho_min:.6f}: value {eval_conv(rho_min, r1, r2):.15f}")
print()

# Same numbers by a completely different route: find the angle where the
# two-point distance equals rho, then sum the reciprocal slopes there.
# Both routes take the whole array of radii in one call.
print(" rho    closed form      via roots        rel diff")
rhos = np.linspace(1.2, 4.8, 7)
for rho, a, b in zip(rhos, eval_conv(rhos, r1, r2), conv_via_roots(rhos, r1, r2)):
    print(f"{rho:5.2f}  {a:.12f}  {b:.12f}  {abs(a - b) / a:.2e}")

theta = interior_root(1.0, 1.0, 1.0)
print()
print(f"unit circles at rho=1: root angle {theta:.15f} (pi/3 = {math.pi / 3:.15f})")
print(f"value {eval_conv(1.0, 1.0, 1.0):.15f} = 4/sqrt(3)")
