# Slow-light out-coupling along the condensate column.
#
# The control amplitude falls off toward the exit face, so the probe
# polariton decelerates from c to the atomic beam speed v0.  Print the group
# velocity profile, the accumulated delay, and check that photon flux in
# equals atom flux out once the pulse is mapped onto the matter wave.

import numpy as np

from vxsim.grid import make_grid
from vxsim.diagnostics import LoopSpec, winding
from vxsim.outcoupling import (
    EnvelopeHistory,
    OutcouplingParams,
    delay,
    delay_table,
    output_field,
    output_map,
    time_flux,
)

params = OutcouplingParams(g1=1.0, g2=1.0, omega0_1=10.0, omega0_2=10.0,
                           n=1.0, v0=0.1, c=1.0, length=1.0)

print("z       V_g      tau(z)")
for z, vg, tau in delay_table(params, 1, n_rows=11):
    print(f"{z:.2f}  {vg:7.4f}  {tau:7.4f}")

tau = delay(params, 1)
print(f"\ntotal delay {tau:.4f}  (bounds {params.length / params.c:.1f} .. "
      f"{params.length / params.v0:.1f})")

# a Gaussian pulse with an l = 1 transverse ring, mapped to the exit face
grid = make_grid(64, 64, 16.0, 16.0)
times = np.linspace(0.0, 8.0, 81)
ring = (grid.r_map / 2.0) * np.exp(-((grid.r_map / 2.0) ** 2))
pulse = np.exp(-(((times - 4.0) / 1.0) ** 2))
history = EnvelopeHistory(grid=grid, times=times, pulse=pulse, transverse=ring)

mapped = output_map(history, params, 2, phase_j=grid.phi_map)
flux_in = time_flux(history, params.c)
flux_out = time_flux(mapped, params.v0)
print(f"photon flux in  {flux_in:.6f}")
print(f"atom flux out   {flux_out:.6f}   (relative error "
      f"{abs(flux_out - flux_in) / flux_in:.1e})")

peak = int(np.argmax(np.abs(mapped.pulse)))
w = winding(output_field(mapped, peak), LoopSpec(center=(0.0, 0.0), radius=2.0))
print(f"output vortex charge {int(w)} at t = {mapped.times[peak]:.2f}")
