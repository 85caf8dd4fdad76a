# Effective gauge potentials of the degenerate beam pair.
#
# Two Laguerre-Gaussian probes with opposite orbital angular momentum and
# matched envelopes produce ratio fields xi2 = conj(xi1).  In that
# configuration the three effective vector potentials collapse: A1 vanishes
# and A2 = -A3 becomes the pure vortex field l/r in the azimuthal direction,
# on every point where the ratios are above their floor (all but the axis
# and the far corners of the box).

import numpy as np

from vxsim.beams import lg_beams
from vxsim.gauge import gauge_potentials, vortex_gauge_field
from vxsim.grid import make_grid

grid = make_grid(128, 128, 16.0, 16.0)

for l in (1, 2, 3):
    gauge = gauge_potentials(lg_beams(grid, l, -l, 0.8, 2.0, 12.0, 6.0))
    mask = gauge.mask

    scale = np.max(np.abs(gauge.a2[:, mask]))
    a1 = np.max(np.abs(gauge.a1[:, mask])) / scale
    sum23 = np.max(np.abs(gauge.a2 + gauge.a3)[:, mask]) / scale

    # compare A2 against the ideal vortex profile over the whole mask
    ideal = vortex_gauge_field(grid, l)
    dev = np.max(np.abs(gauge.a2[:, mask] - ideal[:, mask])) / np.max(np.abs(ideal[:, mask]))

    print(f"l = {l}:  |A1|/|A2| = {a1:.2e}   |A2+A3|/|A2| = {sum23:.2e}   "
          f"A2 vs l/r on the mask = {dev:.2e}   masked points = {mask.size - mask.sum()}")
