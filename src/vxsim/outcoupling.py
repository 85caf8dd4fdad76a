"""Stationary-beam out-coupling: slow light delay and the probe-to-atom map.

A weak probe pulse entering the condensate column at z = 0 rides a control
amplitude Omega0_j(z) that decreases monotonically to (nearly) zero at the
exit z = L, so the polariton slows from c down to the atomic beam velocity
v0 and leaves as a matter wave.  Classical envelopes only: the quantum
statistics carried by the probe are out of scope here.

Group velocity and delay:

    V_g = c (1 + (g^2 n / Omega0^2)(v0/c)) / (1 + g^2 n / Omega0^2)
    tau_j(L) = integral_0^L dz / V_g^(j)(z)

Output map at the exit face:

    Phi_j(r, t)|_L = -sqrt(c/v0) * E(r, t - tau_j)|_0 * exp(i S_j(r))

with S_j the transverse vortex phase of the corresponding flavor.  The
sqrt(c/v0) factor converts photon flux to atom flux, so
integral |Phi|^2 v0 dt = integral |E|^2 c dt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import QuadratureError
from .grid import Field, SpectralGrid

__all__ = [
    "OutcouplingParams",
    "EnvelopeHistory",
    "group_velocity",
    "delay",
    "delay_table",
    "output_map",
    "time_flux",
    "output_field",
]

#: relative floor applied to the control profile (keeps 1/V_g integrable)
PROFILE_FLOOR = 1e-6


def _default_profile(s: float) -> float:
    # s = z/L in [0, 1]
    return math.cos(0.5 * math.pi * s) ** 2


@dataclass(frozen=True)
class OutcouplingParams:
    """Column parameters for the two out-coupled flavors.

    ``omega0_1``/``omega0_2`` are the control amplitudes at the entrance
    z = 0; along the column they follow ``profile(z/L)`` (default
    cos^2(pi z / 2L)), clipped at ``PROFILE_FLOOR`` of the entrance value so
    the group velocity reaches v0 smoothly instead of dividing by zero.
    """

    g1: float
    g2: float
    omega0_1: float
    omega0_2: float
    n: float
    v0: float
    c: float
    length: float
    profile: Callable[[float], float] | None = None

    def __post_init__(self):
        if not (0.0 < self.v0 < self.c):
            raise ValueError("need 0 < v0 < c")
        if self.omega0_1 <= 0 or self.omega0_2 <= 0:
            raise ValueError("entrance control amplitudes must be positive")
        if self.g1 < 0 or self.g2 < 0 or self.n < 0:
            raise ValueError("couplings and density must be non-negative")
        if self.length <= 0:
            raise ValueError("column length must be positive")

    def _shape(self, z: float) -> float:
        f = self.profile if self.profile is not None else _default_profile
        return max(float(f(z / self.length)), PROFILE_FLOOR)

    def omega0(self, j: int, z: float) -> float:
        peak = {1: self.omega0_1, 2: self.omega0_2}[j]
        return peak * self._shape(z)

    def coupling(self, j: int) -> float:
        return {1: self.g1, 2: self.g2}[j]


def group_velocity(g: float, n: float, omega0: float, v0: float, c: float) -> float:
    """Polariton group velocity for coupling g, density n, control omega0."""
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    x = g * g * n / (omega0 * omega0)
    return (c + x * v0) / (1.0 + x)


def _vg_at(params: OutcouplingParams, j: int, z: float) -> float:
    return group_velocity(params.coupling(j), params.n, params.omega0(j, z), params.v0, params.c)


def delay(params: OutcouplingParams, j: int) -> float:
    """Transit time tau_j = integral dz / V_g(z) over the column."""
    L = params.length
    breaks = (0.8 * L, 0.95 * L, 0.99 * L)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(
                lambda z: 1.0 / _vg_at(params, j, z),
                0.0,
                L,
                points=breaks,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-12,
            )
        except IntegrationWarning as exc:
            raise QuadratureError(f"delay quadrature did not converge: {exc}") from exc
    if not math.isfinite(val) or err > 1e-8 * max(abs(val), 1.0):
        raise QuadratureError(f"delay quadrature error estimate {err:.2e} too large")
    return float(val)


def delay_table(params: OutcouplingParams, j: int, n_rows: int = 101):
    """Rows (z, V_g(z), cumulative tau(z)) for export."""
    if n_rows < 2:
        raise ValueError("need at least two rows")
    zs = np.linspace(0.0, params.length, n_rows)
    rows = []
    tau = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for k, z in enumerate(zs):
            if k > 0:
                try:
                    seg, _ = quad(
                        lambda s: 1.0 / _vg_at(params, j, s),
                        zs[k - 1],
                        z,
                        limit=200,
                        epsabs=1e-13,
                        epsrel=1e-12,
                    )
                except IntegrationWarning as exc:
                    raise QuadratureError(f"delay table segment {k}: {exc}") from exc
                tau += seg
            rows.append((float(z), _vg_at(params, j, float(z)), float(tau)))
    return rows


@dataclass(frozen=True)
class EnvelopeHistory:
    """A complex transverse envelope recorded on a strictly increasing time grid."""

    grid: SpectralGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=np.complex128)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two time samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if values.shape != (len(times),) + self.grid.shape:
            raise ValueError("values must have shape (n_t, nx, ny)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def sample(self, t: float) -> np.ndarray:
        """Linear interpolation between recorded frames."""
        times = self.times
        if t < times[0]:
            raise ValueError(
                f"requested time {t:.6g} precedes recorded history start {times[0]:.6g}"
            )
        if t > times[-1]:
            raise ValueError(f"requested time {t:.6g} is past recorded history end")
        k = int(np.searchsorted(times, t, side="right") - 1)
        if k >= len(times) - 1:
            return self.values[-1].copy()
        w = (t - times[k]) / (times[k + 1] - times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]


def output_map(
    history: EnvelopeHistory,
    params: OutcouplingParams,
    j: int,
    phase_j: np.ndarray,
) -> EnvelopeHistory:
    """Matter-wave envelope at the exit face for flavor j in {2, 3}.

    Flavor 2 rides probe/control pair 1, flavor 3 pair 2.  The output is
    tabulated on the input time grid shifted by the delay, which covers the
    whole pulse.
    """
    if j not in (2, 3):
        raise ValueError("flavor j must be 2 or 3")
    pair = 1 if j == 2 else 2
    tau = delay(params, pair)
    factor = -math.sqrt(params.c / params.v0) * np.exp(1j * np.asarray(phase_j))
    # the output at t + tau is the recorded frame at t
    frames = factor * history.values
    return EnvelopeHistory(grid=history.grid, times=history.times + tau, values=frames)


def time_flux(history: EnvelopeHistory, speed: float) -> float:
    """speed * integral dt integral dx dy |f|^2 over the recorded window."""
    grid = history.grid
    per_slice = np.array([grid.integrate(np.abs(v) ** 2) for v in history.values])
    return float(speed * np.trapezoid(per_slice, history.times))


def output_field(history: EnvelopeHistory, index: int) -> Field:
    """One time slice as a Field (for winding diagnostics)."""
    return Field(grid=history.grid, values=history.values[index])
