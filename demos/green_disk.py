"""Discrete Green's function of the unit disk, checked against log(1/|x|).

Builds the disk at h = 1/64, solves for the Green's function with the pole
at the origin, prints the sup error against the closed form, and writes a
grayscale render next to this script.
"""

import os

import numpy as np

from subglue import NodeSet, green_function, is_harmonic, rasterize_ball
from subglue.fieldio import write_pgm

h = 1 / 64
disk = rasterize_ball((0, 0), 1.0, origin=(-1, -1), spacing=h, shape=(129, 129))
green = green_function(disk, (0.0, 0.0))
print(
    f"solved in {green.iterations} CG iterations over {green.unknowns} unknowns, "
    f"stencil residual {green.residual:.2e}"
)

# the unit disk's Green's function with pole at the centre is log(1/|x|)
r = np.sqrt(disk.distance2_to((0, 0)))
oracle = np.where(r > 0, -np.log(np.maximum(r, 1e-300)), 0.0)
err = np.abs(green.values - oracle)[disk.mask & (r >= 0.1)]
print(f"sup |g - log(1/|x|)| over |x| >= 0.1: {err.max():.4f}")

# discretely harmonic away from the pole node and its stencil ring
ring = green.pole_set().dilate("axis")
report = is_harmonic(green.field, NodeSet(disk, disk.interior_mask() & ~ring.mask), 10 * h)
print(report)

out = os.path.join(os.path.dirname(__file__), "green_disk.pgm")
write_pgm(green.field, out)
print(f"render written to {out}")
