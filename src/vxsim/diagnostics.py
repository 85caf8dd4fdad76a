"""Observables: winding numbers, circulation, analytic vortex states, comparisons.

Loop quantities sample the complex field itself by bilinear interpolation and
only then take arguments; interpolating a wrapped phase directly would invent
jumps at the branch cut.  The sum of wrapped phase differences around a
closed loop telescopes to an exact multiple of 2*pi, so the reported residual
is a resolution diagnostic, not a quantization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beams import BeamSet, xi_ratios
from .errors import PhaseUndefinedError
from .grid import Field, SpectralGrid

__all__ = [
    "LoopSpec",
    "WindingResult",
    "CompareReport",
    "winding",
    "circulation",
    "loop_integral",
    "analytic_state",
    "compare_states",
]

#: phase is considered undefined below this fraction of the field's peak
AMPLITUDE_FLOOR = 1e-8


@dataclass(frozen=True)
class LoopSpec:
    """A sampling circle for loop integrals.

    The radius must exceed 3 grid cells (checked against the grid at use
    time) and the whole circle must lie inside the box.
    """

    center: tuple[float, float]
    radius: float
    n_samples: int = 256

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("loop radius must be positive")
        if self.n_samples < 64:
            raise ValueError("need at least 64 loop samples")

    def points(self, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
        if self.radius <= 3.0 * max(grid.dx, grid.dy):
            raise ValueError(
                f"loop radius {self.radius} under-resolved: need > 3 cells "
                f"({3.0 * max(grid.dx, grid.dy):.4g})"
            )
        theta = 2.0 * np.pi * np.arange(self.n_samples) / self.n_samples
        px = self.center[0] + self.radius * np.cos(theta)
        py = self.center[1] + self.radius * np.sin(theta)
        if (
            px.min() < grid.x[0] or px.max() > grid.x[-1]
            or py.min() < grid.y[0] or py.max() > grid.y[-1]
        ):
            raise ValueError("loop exits the grid")
        return px, py


def _bilinear(values: np.ndarray, grid: SpectralGrid, px: np.ndarray, py: np.ndarray):
    """Sample a gridded field at arbitrary in-box points."""
    fx = (px - grid.x[0]) / grid.dx
    fy = (py - grid.y[0]) / grid.dy
    ix = np.clip(np.floor(fx).astype(int), 0, grid.nx - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, grid.ny - 2)
    tx = fx - ix
    ty = fy - iy
    return (
        (1 - tx) * (1 - ty) * values[ix, iy]
        + tx * (1 - ty) * values[ix + 1, iy]
        + (1 - tx) * ty * values[ix, iy + 1]
        + tx * ty * values[ix + 1, iy + 1]
    )


def _loop_samples(field: Field, loop: LoopSpec) -> np.ndarray:
    px, py = loop.points(field.grid)
    samples = _bilinear(field.values, field.grid, px, py)
    peak = float(np.max(np.abs(field.values)))
    low = np.abs(samples) <= AMPLITUDE_FLOOR * peak
    if low.any():
        k = int(np.argmax(low))
        raise PhaseUndefinedError(
            f"amplitude {np.abs(samples[k]):.3e} below {AMPLITUDE_FLOOR:.0e} of peak "
            f"{peak:.3e} at loop sample {k}; phase undefined there"
        )
    return samples


def _loop_phase_total(field: Field, loop: LoopSpec) -> float:
    ang = np.angle(_loop_samples(field, loop))
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(d))


@dataclass(frozen=True)
class WindingResult:
    """Integer winding plus the pre-rounding residual (in turns)."""

    value: int
    residual: float

    def __int__(self):
        return self.value


def winding(field: Field, loop: LoopSpec) -> WindingResult:
    """Winding number of the field's phase around the loop.

    Raises :class:`~vxsim.errors.PhaseUndefinedError` if any loop sample
    falls below the amplitude floor.
    """
    turns = _loop_phase_total(field, loop) / (2.0 * np.pi)
    value = int(np.rint(turns))
    return WindingResult(value=value, residual=float(turns - value))


def circulation(field: Field, loop: LoopSpec) -> float:
    """Loop integral of the phase-gradient velocity, = 2*pi*winding exactly
    up to the winding residual (hbar = m = 1)."""
    return _loop_phase_total(field, loop)


def loop_integral(vec: np.ndarray, grid: SpectralGrid, loop: LoopSpec) -> float:
    """Line integral of a real 2-vector field around the loop (midpoint rule)."""
    px, py = loop.points(grid)
    theta = 2.0 * np.pi * np.arange(loop.n_samples) / loop.n_samples
    ax = _bilinear(vec[0], grid, px, py)
    ay = _bilinear(vec[1], grid, px, py)
    if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
        raise ValueError("vector field is masked (NaN) on the loop")
    tang = loop.radius * 2.0 * np.pi / loop.n_samples
    return float(np.sum((-ax * np.sin(theta) + ay * np.cos(theta)) * tang))


def analytic_state(beams: BeamSet, rho: np.ndarray, u: float, t: float) -> tuple[Field, Field]:
    """The closed-form dark-state flavor fields on a stationary background.

        phi_2 = -xi1 * sqrt(rho) * exp(-i t U rho),
        phi_3 = -xi2 * sqrt(rho) * exp(-i t U rho),

    each flavor carrying its own probe/control ratio, phase included.
    Restricted to untilted beams: with wavevector tilts the dynamical phase
    integrates along moving characteristics that leave the periodic box, so
    comparisons are not defined; a tilted BeamSet raises ``ValueError``.
    """
    for name in ("kp1", "kp2", "kc1", "kc2"):
        if any(abs(k) != 0.0 for k in getattr(beams, name)):
            raise ValueError("analytic_state requires zero beam wavevector tilts")
    rho = np.asarray(rho, dtype=float)
    slaved = -np.sqrt(rho) * np.exp(-1j * t * u * rho)
    return tuple(Field(grid=beams.grid, values=xi * slaved) for xi in xi_ratios(beams))


@dataclass(frozen=True)
class CompareReport:
    """Outcome of comparing two states up to a global phase."""

    l2_error: float
    global_phase: float
    windings_a: tuple[int, ...]
    windings_b: tuple[int, ...]

    @property
    def windings_agree(self) -> bool:
        return self.windings_a == self.windings_b


def compare_states(a: Field, b: Field, loops: tuple[LoopSpec, ...] = ()) -> CompareReport:
    """L2 distance between two fields modulo one global phase.

    The optimal phase exp(i*theta) multiplying ``b`` is the closed form
    theta = arg(sum conj(a)*b) (minimizes the L2 distance).  The L2 error is
    normalized by the larger of the two field norms, making the metric
    symmetric.  Windings of both fields are measured on each loop given.
    """
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    grid = a.grid
    av = a.values
    bv = b.values

    overlap = complex(np.sum(np.conj(av) * bv))
    theta = float(np.angle(overlap)) if overlap != 0 else 0.0
    bv_aligned = bv * np.exp(-1j * theta)

    na = float(np.sqrt(grid.integrate(np.abs(av) ** 2)))
    nb = float(np.sqrt(grid.integrate(np.abs(bv) ** 2)))
    denom = max(na, nb)
    if denom == 0.0:
        l2 = 0.0
    else:
        l2 = float(np.sqrt(grid.integrate(np.abs(av - bv_aligned) ** 2))) / denom

    wa = tuple(winding(a, lp).value for lp in loops)
    wb = tuple(winding(b, lp).value for lp in loops)
    return CompareReport(l2_error=l2, global_phase=theta, windings_a=wa, windings_b=wb)
