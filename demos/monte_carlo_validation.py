#!/usr/bin/env python3
# Check the closed form against dumb sampling: add a random point of one
# circle to a random point of the other, histogram the radius, divide by
# annulus area, compare.

import numpy as np

from ringconv import Circle, eval_conv, grid_conv_check, mc_conv_histogram

c1 = Circle((0.0, 0.0), 2.0)
c2 = Circle((0.0, 0.0), 3.0)
samples = 2_000_000
seed = 20260814
sectors = 90

# One pass gives the radius histogram and the angle-sector counts of the same draws.
hist, counts = mc_conv_histogram(c1, c2, samples, bins=100, seed=seed, sectors=sectors)
density = hist.density()
centers = hist.centers

print(f"{samples:,} samples, 100 bins over [0, 5.2]")
print(" rho    sampled   closed    rel")
for i in range(20, 100, 8):
    expected = eval_conv(float(centers[i]), 2.0, 3.0)
    if expected == 0.0 or not np.isfinite(expected):
        continue
    print(f"{centers[i]:5.3f}  {density[i]:8.5f}  {expected:8.5f}  {abs(density[i] - expected) / expected:.1%}")

stray = hist.counts[(hist.edges[1:] <= 1.0) | (hist.edges[:-1] >= 5.0)].sum()
print(f"samples outside the support annulus: {int(stray)}")
print()

# The sampled measure is radial about the sum of the centers, so sector
# counts should be flat to Poisson noise.
mean = samples / sectors
worst = np.max(np.abs(counts - mean)) / np.sqrt(mean)
print(f"radiality over {sectors} sectors: worst deviation {worst:.2f} sigma")
print()

# Shifting the circles only translates the picture.  The sampler works in
# centered coordinates, so the histogram does not change by a single count.
shifted, _ = mc_conv_histogram(Circle((1.0, 0.0), 2.0), Circle((0.0, 2.0), 3.0), samples, 100, seed,
                               sectors=sectors)
print(f"shifted-centers histogram bit-identical: {np.array_equal(hist.counts, shifted.counts)}")
print()

# Entirely different oracle: rasterize the circles as mollified rings,
# convolve the grids with FFTs, take the radial profile.
report = grid_conv_check(c1, c2, extent=12.0, spacing=0.02, epsilon=0.1)
print(f"grid convolution (spacing 0.02, mollifier 0.1):")
print(f"  trimmed profile vs smoothed closed form: max rel {report.max_rel_error:.2e}")
print(f"  grid mass {report.mass:.4f} vs analytic {report.expected_mass:.4f} "
      f"(rel {report.mass_rel_error:.1e})")
