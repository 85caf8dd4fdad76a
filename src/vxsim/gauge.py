"""Dark-state reduction: effective gauge potentials and trap engineering.

With probe/control ratios xi1, xi2 the condensate dark state is
(1, -xi1, -xi2)/sqrt(Xi1), Xi1 = 1 + |xi1|^2 + |xi2|^2, and the two reduced
vortex flavors see effective vector potentials

    A1 = (xi1* grad xi1 + xi2* grad xi2) / Xi1
    A2 = (-grad xi2 + xi1*(xi2 grad xi1 - xi1 grad xi2)) / (Xi1 xi2)
    A3 = (-grad xi1 + xi2*(xi1 grad xi2 - xi2 grad xi1)) / (Xi1 xi1)

(the A2, A3 forms are the quotient-rule expansions of the raw expressions
Xi2^-1 [(1/xi2*) grad(1/xi2) + (xi1*/xi2*) grad(xi1/xi2)] and its 1<->2
mirror, collected over a common denominator so the only poles left are the
physical ones at xi2 = 0 resp. xi1 = 0).  In Hermitian mode the imaginary
part of each expression is taken, which reduces to the phase-gradient forms
|xi|^2 grad R / Xi with xi_j = |xi_j| exp(i R_j); these are the real vector
potentials entering the reduced flavor equations.

Conventions fixed by the stationary vortex solutions: for equal ratio
moduli, opposite probe charges l1 = -l2 = l and no wavevector tilts,
A1 = 0 and A2 = -A3 = +l grad(phi), so a flavor-2 vortex exp(+il phi) with
charge q2 = +1 is covariantly constant.

All ratio divisions are evaluated on a mask that excludes a small disc
around the beam axis and any point where a ratio modulus falls below a
relative floor; excluded points hold NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import BeamSet
from .errors import MaskError, TrapSolveError
from .grid import SpectralGrid, gradient

__all__ = [
    "EffectiveGauge",
    "TrapSolution",
    "gauge_potentials",
    "effective_potentials",
    "solve_traps",
    "vortex_gauge_field",
    "fill_masked",
]

# ratio moduli below this fraction of their peak are left out of the mask
_XI_FLOOR = 1e-6


def _vector_gradient(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    # Transform real and imaginary parts separately: conjugate-pair ratios
    # (xi2 = conj(xi1), the degenerate configuration) then pick up exactly
    # conjugate roundoff, so the Hermitian-mode cancellations A1 = 0 and
    # A2 + A3 = 0 survive at the floor of the evaluation mask, where a single
    # complex transform would leave noise amplified by 1/|xi|.
    rx, ry = gradient(values.real, grid)
    ix, iy = gradient(values.imag, grid)
    return np.stack([rx + 1j * ix, ry + 1j * iy])


def _abs2(vec: np.ndarray) -> np.ndarray:
    """Pointwise |A|^2 of a 2-vector field, real for both real and complex A."""
    return np.abs(vec[0]) ** 2 + np.abs(vec[1]) ** 2


@dataclass(frozen=True)
class EffectiveGauge:
    """Gauge data of the dark-state reduction on one grid.

    Vector fields have shape (2, nx, ny): real in Hermitian mode, complex
    otherwise.  ``big_xi1/2/3`` are the normalization factors Xi_alpha
    (all >= 1 on the mask).  Points outside ``mask`` hold NaN in the vector
    and Xi2/Xi3 fields.  Iterating yields (a1, a2, a3).
    """

    grid: SpectralGrid
    xi1: np.ndarray
    xi2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    big_xi1: np.ndarray
    big_xi2: np.ndarray
    big_xi3: np.ndarray
    mask: np.ndarray
    hermitian_mode: bool

    def __iter__(self):
        return iter((self.a1, self.a2, self.a3))


def gauge_potentials(
    xi1: np.ndarray,
    xi2: np.ndarray,
    grid: SpectralGrid,
    hermitian_mode: bool = True,
    r_core: float | None = None,
) -> EffectiveGauge:
    """Effective vector potentials A1, A2, A3 from the two beam ratios.

    Gradients are spectral.  The evaluation mask drops a disc of radius
    ``r_core`` (default ``2*max(dx, dy)``) around the axis plus every point
    where ``|xi_j|`` is below 1e-6 of its own peak; masked points
    are NaN.  Raises :class:`~vxsim.errors.MaskError` if nothing survives.
    """
    xi1 = np.asarray(xi1, dtype=np.complex128)
    xi2 = np.asarray(xi2, dtype=np.complex128)
    if xi1.shape != grid.shape or xi2.shape != grid.shape:
        raise ValueError("xi fields must match the grid shape")
    if r_core is None:
        r_core = 2.0 * max(grid.dx, grid.dy)

    m1 = np.abs(xi1)
    m2 = np.abs(xi2)
    mask = (
        (grid.r_map > r_core)
        & (m1 > _XI_FLOOR * float(m1.max()))
        & (m2 > _XI_FLOOR * float(m2.max()))
    )
    if not mask.any():
        raise MaskError("no evaluable points: ratios below floor everywhere outside the core")

    g1 = _vector_gradient(xi1, grid)
    g2 = _vector_gradient(xi2, grid)
    s1 = m1**2
    s2 = m2**2
    big1 = 1.0 + s1 + s2

    a1 = (np.conj(xi1) * g1 + np.conj(xi2) * g2) / big1

    with np.errstate(divide="ignore", invalid="ignore"):
        a2 = (-g2 + np.conj(xi1) * (xi2 * g1 - xi1 * g2)) / (big1 * xi2)
        a3 = (-g1 + np.conj(xi2) * (xi1 * g2 - xi2 * g1)) / (big1 * xi1)
        big2 = big1 / s2
        big3 = big1 / s1

    if hermitian_mode:
        a1 = np.ascontiguousarray(a1.imag)
        a2 = np.ascontiguousarray(a2.imag)
        a3 = np.ascontiguousarray(a3.imag)

    bad = ~mask
    # complex arrays need NaN in both parts, else .imag stays 0 off-mask
    fill = np.nan if hermitian_mode else complex(np.nan, np.nan)
    for arr in (a1, a2, a3):
        arr[:, bad] = fill
    big2 = big2.copy()
    big3 = big3.copy()
    big2[bad] = np.nan
    big3[bad] = np.nan

    return EffectiveGauge(
        grid=grid,
        xi1=xi1,
        xi2=xi2,
        a1=a1,
        a2=a2,
        a3=a3,
        big_xi1=big1,
        big_xi2=big2,
        big_xi3=big3,
        mask=mask,
        hermitian_mode=hermitian_mode,
    )


def effective_potentials(
    beams: BeamSet | None,
    v1: np.ndarray,
    v2: np.ndarray,
    v3: np.ndarray,
    gauge: EffectiveGauge,
    eps21: float | None = None,
    eps31: float | None = None,
):
    """Effective flavor potentials (Veff1, Veff2, Veff3), NaN off the mask.

        Veff1 = Xi1^-1 [V1 + |xi1|^2 V2 + |xi2|^2 V3 + |A1|^2/(2 Xi1)]
        Veff2 = Xi2^-1 [V2 + (eps21 + V1)/|xi2|^2 - V3 |xi1|^2/|xi2|^2
                        + |A2|^2/(2 Xi2)]
        Veff3 = the 1 <-> 2, 2 <-> 3 mirror of Veff2.

    The level shifts default to the beam detunings by subscript antisymmetry
    (eps21 = -beams.eps12, eps31 = -beams.eps13); pass them explicitly to
    override, in which case ``beams`` may be None.
    """
    if eps21 is None:
        if beams is None:
            raise ValueError("need beams or explicit eps21")
        eps21 = -beams.eps12
    if eps31 is None:
        if beams is None:
            raise ValueError("need beams or explicit eps31")
        eps31 = -beams.eps13

    s1 = np.abs(gauge.xi1) ** 2
    s2 = np.abs(gauge.xi2) ** 2
    big1, big2, big3 = gauge.big_xi1, gauge.big_xi2, gauge.big_xi3

    veff1 = (v1 + s1 * v2 + s2 * v3 + _abs2(gauge.a1) / (2.0 * big1)) / big1
    with np.errstate(divide="ignore", invalid="ignore"):
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

    s1 = np.abs(gauge.xi1) ** 2
    s2 = np.abs(gauge.xi2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        b2 = (eps21 + v1) / s2 + _abs2(gauge.a2) / (2.0 * gauge.big_xi2)
        b3 = (eps31 + v1) / s1 + _abs2(gauge.a3) / (2.0 * gauge.big_xi3)
        c = s1 / s2

    v2 = np.zeros(grid.shape)
    v3 = np.zeros(grid.shape)
    cm = c[mask]
    v2[mask] = cm * (b3[mask] - b2[mask] * cm) / (1.0 + cm**2) ** 2
    v3[mask] = -cm * v2[mask]

    # residuals are the effective potentials themselves at the solution
    res2 = np.full(grid.shape, np.nan)
    res3 = np.full(grid.shape, np.nan)
    res2[mask] = (v2[mask] - cm * v3[mask] + b2[mask]) / gauge.big_xi2[mask]
    res3[mask] = (v3[mask] - v2[mask] * (s2[mask] / s1[mask]) + b3[mask]) / gauge.big_xi3[mask]

    scale = max(
        float(np.max(np.abs(b2[mask] / gauge.big_xi2[mask]))),
        float(np.max(np.abs(b3[mask] / gauge.big_xi3[mask]))),
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


def fill_masked(field: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Copy with NaN replaced by ``fill`` (for feeding masked outputs to evolution)."""
    out = np.array(field, copy=True)
    out[~np.isfinite(out)] = fill
    return out
