"""
Adiabatic dark-state loading
============================

Ramp the two probe beams over a Thomas-Fermi cloud and watch the ground
population transfer into the two vortex flavors while the excited levels
stay empty.
"""

from vxsim.beams import lg_beams
from vxsim.evolution import (
    Ramp,
    dark_state_error,
    initial_state,
    qp_cancel_potential,
    run_adiabatic_loading,
    thomas_fermi_density,
)
from vxsim.grid import make_grid

grid = make_grid(64, 64, 16.0, 16.0)
beams = lg_beams(grid, 1, -1, 0.8, 2.0, 12.0, 6.0)
rho = thomas_fermi_density(grid, 1.0, 5.0)

# engineered traps, as runs build them: V1 cancels the background's quantum
# pressure and its own mean field u*rho, and the slaved levels need no trap
# of their own
u = 0.02
v1 = qp_cancel_potential(grid, rho) - u * rho

state = initial_state(grid, rho, v1, u=u)
ramp = Ramp(5.0)

print("step      t     P1        P2        P3        P4+P5")


def progress(i, st):
    p = st.populations() / st.populations().sum()
    print(f"{i + 1:4d}  {st.t:5.2f}  {p[0]:.6f}  {p[1]:.6f}  "
          f"{p[2]:.6f}  {p[3] + p[4]:.2e}")


# observing every 100th step lets the 99 steps between fuse their kinetic halves
result = run_adiabatic_loading(state, beams, 0.01, 600, ramp,
                               snapshot_cb=progress, observe=range(100, 601, 100))

print()
print(f"dark-state error : {result.dark_state_error:.2e}")
print(f"excited fraction : {result.p4 + result.p5:.2e}")
print(f"norm drift       : {result.norm_drift:.2e}")
print(f"target residual  : {dark_state_error(result.state, beams):.2e}")
