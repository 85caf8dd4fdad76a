"""Dark-state reduction: effective gauge potentials and trap engineering.

With probe/control ratios xi_j = |xi_j| exp(i R_j) the condensate dark state
is (1, -xi1, -xi2)/sqrt(Xi1), Xi1 = 1 + s1 + s2 with s_j = |xi_j|^2, and the
two reduced vortex flavors see real effective vector potentials built from
the two phase currents J_j = Im(xi_j* grad xi_j) = s_j grad R_j:

    A1 = (J1 + J2) / Xi1                = (s1 grad R1 + s2 grad R2) / Xi1
    A2 = (J1 - (1 + s1) J2 / s2) / Xi1  = (s1 grad R1 - (1 + s1) grad R2) / Xi1
    A3 = (J2 - (1 + s2) J1 / s1) / Xi1  = (s2 grad R2 - (1 + s2) grad R1) / Xi1

These are the imaginary parts of the complex dark-state potentials (see
``docs/gauge_identities.md``); the normalization factors of the reduced
flavor equations are Xi1, Xi2 = Xi1/s2 and Xi3 = Xi1/s1.

The beams fix each ratio's phase, R_j = l_j phi + (kp_j - kc_j) . r, so
grad R_j = l_j grad(phi) + kp_j - kc_j is taken in closed form and the
right-hand forms divide by Xi1 >= 1 alone.  They are evaluated wherever
both ratio moduli are above 1e-6 of their peaks; the other points, among
them the axis point of a vortex probe, hold NaN.

Conventions fixed by the stationary vortex solutions: for equal ratio
moduli, opposite probe charges l1 = -l2 = l and no wavevector tilts,
A1 = 0 and A2 = -A3 = +l grad(phi), so a flavor-2 vortex exp(+il phi) with
charge q2 = +1 is covariantly constant.

Runs do not use these potentials.  In ``flavor_fields`` each reduced flavor
follows its own ratio, for any beam pair (Juzeliunas, Ohberg, Ruseckas &
Klein, PRA 71 (2005) 053614; Dalibard, Gerbier, Juzeliunas & Ohberg, RMP 83
(2011) 1523): flavor q sees grad R_q = J_q/|xi_q|^2, with no mask.  At the
degenerate point grad R1 = A2 and grad R2 = A3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import BeamSet, ratio_factors
from .errors import MaskError, TrapSolveError
from .evolution import qp_cancel_potential
from .grid import SpectralGrid

__all__ = [
    "EffectiveGauge",
    "TrapSolution",
    "flavor_fields",
    "gauge_potentials",
    "effective_potentials",
    "solve_traps",
    "vortex_gauge_field",
]

# ratio moduli below this fraction of their peak are left out of the mask
_XI_FLOOR = 1e-6


def _abs2(vec: np.ndarray) -> np.ndarray:
    """Pointwise |A|^2 of a real 2-vector field."""
    return vec[0] ** 2 + vec[1] ** 2


@dataclass(frozen=True)
class EffectiveGauge:
    """Gauge data of the dark-state reduction on one grid.

    ``a1``/``a2``/``a3`` are the real potentials, shape (2, nx, ny), NaN
    outside ``mask``; ``s1``/``s2`` are the squared ratio moduli
    |xi1|^2, |xi2|^2 on the whole grid.  Iterating yields (a1, a2, a3).
    """

    grid: SpectralGrid
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    mask: np.ndarray

    def __iter__(self):
        return iter((self.a1, self.a2, self.a3))


def gauge_potentials(beams: BeamSet) -> EffectiveGauge:
    """Effective vector potentials A1, A2, A3 of the beams' two ratios.

    Each ratio's phase gradient is ``vortex_gauge_field(grid, l_j)`` plus
    its tilt ``kp_j - kc_j``, as in :func:`flavor_fields`.  The mask keeps
    every point where both ``|xi_j|`` are above 1e-6 of their own peaks;
    masked points are NaN.  Raises :class:`~vxsim.errors.MaskError` if
    nothing survives or a control underflows.
    """
    grid = beams.grid
    (m1, l1, k1), (m2, l2, k2) = ratio_factors(beams)
    mask = (m1 > _XI_FLOOR * float(m1.max())) & (m2 > _XI_FLOOR * float(m2.max()))
    if not mask.any():
        raise MaskError("no evaluable points: a ratio is below its floor everywhere")

    s1 = m1**2
    s2 = m2**2
    g1 = vortex_gauge_field(grid, l1) + k1[:, None, None]
    g2 = vortex_gauge_field(grid, l2) + k2[:, None, None]
    big1 = 1.0 + s1 + s2

    a1 = (s1 * g1 + s2 * g2) / big1
    a2 = (s1 * g1 - (1.0 + s1) * g2) / big1
    a3 = (s2 * g2 - (1.0 + s2) * g1) / big1

    bad = ~mask
    for arr in (a1, a2, a3):
        arr[:, bad] = np.nan

    return EffectiveGauge(grid=grid, a1=a1, a2=a2, a3=a3, s1=s1, s2=s2, mask=mask)


def flavor_fields(beams: BeamSet, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fields the reduced flavors integrate: ``(a, w)``, one per ratio.

    Flavor 2 is slaved to ``-xi1 sqrt(rho)`` and flavor 3 to
    ``-xi2 sqrt(rho)``; flavor q sees the phase gradient of its ratio,
    ``a[q] = grad R_q = l_q grad(phi) + kp_q - kc_q``, shape (2, 2, nx, ny),
    and the geometric scalar potential ``w[q] = qp_cancel_potential(grid,
    (p_q/c_q)^2 rho)``, shape (2, nx, ny), which cancels the kinetic energy
    of the slaved amplitude.  Raises :class:`~vxsim.errors.MaskError` if a
    control underflows.
    """
    grid = beams.grid
    a = np.empty((2, 2) + grid.shape)
    w = np.empty((2,) + grid.shape)
    for q, (m, l, k) in enumerate(ratio_factors(beams)):
        a[q] = vortex_gauge_field(grid, l) + k[:, None, None]
        w[q] = qp_cancel_potential(grid, m**2 * rho)
    return a, w


def effective_potentials(
    v1: np.ndarray,
    v2: np.ndarray,
    v3: np.ndarray,
    gauge: EffectiveGauge,
    eps21: float = 0.0,
    eps31: float = 0.0,
):
    """Effective flavor potentials (Veff1, Veff2, Veff3), NaN off the mask.

        Veff1 = Xi1^-1 [V1 + |xi1|^2 V2 + |xi2|^2 V3 + |A1|^2/(2 Xi1)]
        Veff2 = Xi2^-1 [V2 + (eps21 + V1)/|xi2|^2 - V3 |xi1|^2/|xi2|^2
                        + |A2|^2/(2 Xi2)]
        Veff3 = the 1 <-> 2, 2 <-> 3 mirror of Veff2.

    The level shifts follow the beam detunings by subscript antisymmetry:
    pass eps21 = -beams.eps12 and eps31 = -beams.eps13.
    """
    s1, s2 = gauge.s1, gauge.s2
    big1 = 1.0 + s1 + s2

    veff1 = (v1 + s1 * v2 + s2 * v3 + _abs2(gauge.a1) / (2.0 * big1)) / big1
    with np.errstate(divide="ignore", invalid="ignore"):
        big2 = big1 / s2
        big3 = big1 / s1
        veff2 = (v2 + (eps21 + v1) / s2 - v3 * s1 / s2 + _abs2(gauge.a2) / (2.0 * big2)) / big2
        veff3 = (v3 + (eps31 + v1) / s1 - v2 * s2 / s1 + _abs2(gauge.a3) / (2.0 * big3)) / big3

    bad = ~gauge.mask
    veff1 = np.where(bad, np.nan, veff1)
    veff2 = np.where(bad, np.nan, veff2)
    veff3 = np.where(bad, np.nan, veff3)
    return veff1, veff2, veff3


@dataclass(frozen=True)
class TrapSolution:
    """Traps zeroing the second and third effective potentials.

    ``v2``/``v3`` are 0 outside the mask.  ``max_residual`` is the largest
    on-mask magnitude of the two effective potentials evaluated at the
    solution, relative to the scale of the inhomogeneous terms; it vanishes
    exactly when the two zero conditions are mutually consistent.  Unpacks
    as ``(v2, v3)``.
    """

    v2: np.ndarray
    v3: np.ndarray
    max_residual: float

    def __iter__(self):
        return iter((self.v2, self.v3))


def solve_traps(
    v1: np.ndarray,
    gauge: EffectiveGauge,
    eps21: float = 0.0,
    eps31: float = 0.0,
    rtol: float = 1e-8,
) -> TrapSolution:
    """Choose V2(r), V3(r) so that Veff2 = Veff3 = 0 pointwise.

    The two conditions form, at each point, the linear system

        [[1, -c], [-1/c, 1]] (V2, V3) = (-b2, -b3),   c = |xi1|^2/|xi2|^2,

    whose matrix is identically rank one (the two flavors are slaved to a
    single dark state, so the conditions are one physical constraint).  The
    returned traps are the minimum-norm least-squares solution

        V2 = c (b3 - b2 c) / (1 + c^2)^2,   V3 = -c V2,

    which satisfies both conditions exactly whenever they are consistent
    (b2 + c b3 = 0), e.g. for eps31 = -eps21 with V1 = A = 0, and degrades
    gracefully otherwise.  If the relative residual exceeds ``rtol`` the
    conditions are not simultaneously satisfiable and
    :class:`~vxsim.errors.TrapSolveError` reports the worst point.  Pass
    ``rtol=numpy.inf`` to accept the least-squares compromise regardless.
    """
    v1 = np.asarray(v1, dtype=float)
    grid = gauge.grid
    if v1.shape != grid.shape:
        raise ValueError("v1 must match the grid shape")
    mask = gauge.mask

    s1, s2 = gauge.s1, gauge.s2
    big1 = 1.0 + s1 + s2
    with np.errstate(divide="ignore", invalid="ignore"):
        big2 = big1 / s2
        big3 = big1 / s1
        b2 = (eps21 + v1) / s2 + _abs2(gauge.a2) / (2.0 * big2)
        b3 = (eps31 + v1) / s1 + _abs2(gauge.a3) / (2.0 * big3)
        c = s1 / s2

    v2 = np.zeros(grid.shape)
    v3 = np.zeros(grid.shape)
    cm = c[mask]
    v2[mask] = cm * (b3[mask] - b2[mask] * cm) / (1.0 + cm**2) ** 2
    v3[mask] = -cm * v2[mask]

    # residuals are the effective potentials themselves at the solution
    res2 = np.full(grid.shape, np.nan)
    res3 = np.full(grid.shape, np.nan)
    res2[mask] = (v2[mask] - cm * v3[mask] + b2[mask]) / big2[mask]
    res3[mask] = (v3[mask] - v2[mask] * (s2[mask] / s1[mask]) + b3[mask]) / big3[mask]

    scale = max(
        float(np.max(np.abs(b2[mask] / big2[mask]))),
        float(np.max(np.abs(b3[mask] / big3[mask]))),
    )
    worst = max(float(np.max(np.abs(res2[mask]))), float(np.max(np.abs(res3[mask]))))
    max_residual = 0.0 if scale == 0.0 else worst / scale
    if max_residual > rtol:
        flat = np.where(mask, np.maximum(np.abs(res2), np.abs(res3)), -np.inf)
        i, j = np.unravel_index(int(np.argmax(flat)), grid.shape)
        raise TrapSolveError(
            "zero-potential conditions are inconsistent: relative residual "
            f"{max_residual:.3e} > {rtol:.1e} at grid point ({i}, {j}), "
            f"x = {grid.x[i]:.4g}, y = {grid.y[j]:.4g}"
        )
    return TrapSolution(v2=v2, v3=v3, max_residual=max_residual)


def vortex_gauge_field(grid: SpectralGrid, l: int) -> np.ndarray:
    """The pure vortex vector potential l*grad(phi) = l*(-y, x)/r^2.

    Shape (2, nx, ny).  The value on the axis point (if the grid hits r = 0
    exactly) is set to 0; the physical fields carried there vanish.
    """
    r2 = grid.xm**2 + grid.ym**2
    with np.errstate(divide="ignore", invalid="ignore"):
        ax = -l * grid.ym / r2
        ay = l * grid.xm / r2
    origin = r2 == 0.0
    ax[origin] = 0.0
    ay[origin] = 0.0
    return np.stack([ax, ay])

