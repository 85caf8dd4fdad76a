"""Probe and control beam profiles, Rabi fields and dark-state ratios.

The level scheme couples a common ground component to two excited components
through two orbital-angular-momentum probe beams, and each excited component
to its own meta-stable component through a control beam.  Everything downstream
(dark-state loading, synthetic gauge fields, out-coupling phases) is driven by
the two complex ratios ``xi_j = Omega_pj / Omega_cj``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import MaskError, WeakProbeWarning
from .grid import SpectralGrid, gradient

__all__ = [
    "lg_amplitude",
    "rabi_field",
    "BeamSet",
    "lg_beams",
    "xi_ratios",
    "validity_metric",
]

#: hard ceiling on probe/control amplitude ratio
RATIO_MAX = 0.3
#: ratios above this are allowed but drift outside the weak-probe regime
RATIO_WARN = 0.1
#: control amplitudes below this trigger the division guard in xi_ratios
CONTROL_FLOOR = 1e-30


def lg_amplitude(r, l: int, waist: float, peak: float):
    """Laguerre-Gauss-like ring amplitude ``peak * (r/w)^|l| * exp(-r^2/w^2)``.

    For ``l = 0`` this is a plain Gaussian.  For ``l != 0`` the profile
    vanishes like ``r^|l|`` on the axis and peaks at ``r = w*sqrt(|l|/2)``.
    """
    if waist <= 0:
        raise ValueError(f"waist must be positive, got {waist}")
    if peak < 0:
        raise ValueError(f"peak must be non-negative, got {peak}")
    r = np.asarray(r, dtype=float)
    return peak * (r / waist) ** abs(l) * np.exp(-(r ** 2) / waist ** 2)


def rabi_field(amplitude, l: int, kvec, grid: SpectralGrid):
    """Complex Rabi field ``amplitude * exp(i*(l*phi + k . r))``.

    ``kvec`` is the in-plane wavevector tilt (kx, ky); the longitudinal
    carrier never enters the transverse problem.
    """
    amplitude = np.asarray(amplitude, dtype=float)
    if amplitude.shape != grid.shape:
        raise ValueError("amplitude shape does not match grid")
    kx, ky = float(kvec[0]), float(kvec[1])
    phase = l * grid.phi_map + kx * grid.xm + ky * grid.ym
    return amplitude * np.exp(1j * phase)


@dataclass(frozen=True)
class BeamSet:
    """The four beams driving the five-level scheme, plus detunings.

    Amplitudes are real non-negative arrays on the grid.  OAM indices ``l1``
    and ``l2`` belong to the probes; controls carry no orbital phase.  The
    two-photon detunings ``eps12``/``eps13`` and single-photon detunings
    ``eps14``/``eps15`` sit on the diagonal of the coupling matrix.

    Construction enforces the weak-probe contract: the pointwise
    probe/control ratio must stay at or below ``RATIO_MAX`` (0.3), and
    a :class:`~vxsim.errors.WeakProbeWarning` is emitted above 0.1.
    """

    grid: SpectralGrid
    p1: np.ndarray
    p2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    l1: int
    l2: int
    kp1: tuple[float, float] = (0.0, 0.0)
    kp2: tuple[float, float] = (0.0, 0.0)
    kc1: tuple[float, float] = (0.0, 0.0)
    kc2: tuple[float, float] = (0.0, 0.0)
    eps12: float = 0.0
    eps13: float = 0.0
    eps14: float = 0.0
    eps15: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "c1", "c2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} amplitude shape {arr.shape} does not match grid")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} amplitude contains non-finite values")
            if np.any(arr < 0):
                raise ValueError(f"{name} amplitude must be non-negative")
            object.__setattr__(self, name, arr)
        worst = 0.0
        for p, c, tag in ((self.p1, self.c1, "p1/c1"), (self.p2, self.c2, "p2/c2")):
            ok = c > CONTROL_FLOOR
            if np.any(~ok & (p > CONTROL_FLOOR)):
                raise ValueError(f"{tag}: probe amplitude present where control underflows")
            ratio = np.max(p[ok] / c[ok]) if np.any(ok) else 0.0
            if ratio > RATIO_MAX:
                raise ValueError(
                    f"{tag}: max probe/control ratio {ratio:.3g} exceeds ratio_max={RATIO_MAX}"
                )
            worst = max(worst, ratio)
        if worst > RATIO_WARN:
            warnings.warn(
                f"probe/control ratio {worst:.3g} exceeds {RATIO_WARN}; "
                "weak-probe approximations degrade",
                WeakProbeWarning,
                stacklevel=2,
            )

    # The complex Rabi fields.  The ramp scales these by a scalar envelope at
    # step time, so they are computed once here.
    def omega_p1(self):
        return rabi_field(self.p1, self.l1, self.kp1, self.grid)

    def omega_p2(self):
        return rabi_field(self.p2, self.l2, self.kp2, self.grid)

    def omega_c1(self):
        return rabi_field(self.c1, 0, self.kc1, self.grid)

    def omega_c2(self):
        return rabi_field(self.c2, 0, self.kc2, self.grid)


def lg_beams(
    grid: SpectralGrid,
    l1: int,
    l2: int,
    probe_peak: float,
    probe_waist: float,
    control_peak: float,
    control_waist: float,
    **kwargs,
) -> BeamSet:
    """Standard configuration: LG probes, Gaussian controls.

    Controls must be near-uniform over the probe ring, so their waist has to
    be at least three times the probe waist.
    """
    if control_waist < 3.0 * probe_waist:
        raise ValueError(
            "control waist must be at least 3x the probe waist "
            f"(got {control_waist} vs {probe_waist})"
        )
    r = grid.r_map
    return BeamSet(
        grid=grid,
        p1=lg_amplitude(r, l1, probe_waist, probe_peak),
        p2=lg_amplitude(r, l2, probe_waist, probe_peak),
        c1=lg_amplitude(r, 0, control_waist, control_peak),
        c2=lg_amplitude(r, 0, control_waist, control_peak),
        l1=l1,
        l2=l2,
        **kwargs,
    )


def xi_ratios(beams: BeamSet):
    """Complex dark-state ratios ``(xi1, xi2) = (Op1/Oc1, Op2/Oc2)``.

    The full optical phases ride along: ``xi_j = |xi_j| * exp(i*R_j)`` with
    ``R_j = (kp_j - kc_j) . r + l_j * phi``.

    Raises
    ------
    MaskError
        If a control amplitude underflows the division guard anywhere.
    """
    for name, c in (("c1", beams.c1), ("c2", beams.c2)):
        if np.any(c < CONTROL_FLOOR):
            bad = np.argwhere(c < CONTROL_FLOOR)[0]
            raise MaskError(
                f"control {name} amplitude below {CONTROL_FLOOR:g} at index "
                f"({bad[0]}, {bad[1]}); xi is undefined there"
            )
    xi1 = beams.omega_p1() / beams.omega_c1()
    xi2 = beams.omega_p2() / beams.omega_c2()
    return xi1, xi2


def validity_metric(xi: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Pointwise adiabatic-gauge validity ratio ``|grad|xi|^2| / (|xi|^2 |grad R|)``.

    The gauge-potential reduction assumes amplitude gradients are dominated by
    phase gradients; values well below 1 mark the trustworthy region.  Points
    with ``|xi|`` below ``1e-12`` of its peak are returned as NaN; points with
    vanishing phase gradient return inf.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    mod2 = np.abs(xi) ** 2
    peak2 = float(np.max(mod2))
    if peak2 == 0.0:
        return np.full(grid.shape, np.nan)
    gx, gy = gradient(mod2, grid)
    amp_grad = np.hypot(gx.real, gy.real)
    dxr, dyr = gradient(xi, grid)
    # |xi|^2 * grad R = Im(conj(xi) * grad xi)
    px = (np.conj(xi) * dxr).imag
    py = (np.conj(xi) * dyr).imag
    denom = np.hypot(px, py)
    out = np.full(grid.shape, np.nan)
    live = mod2 > (1e-12) ** 2 * peak2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0, amp_grad / denom, np.inf)
    out[live] = ratio[live]
    return out
