"""Split-step evolution of the five coupled matter fields.

Strang splitting per step: half a kinetic step applied spectrally to every
component, one full local step coupling the internal levels pointwise, half a
kinetic step.  The local Hamiltonian at each grid point is the 5x5 coupling
matrix of the two probe and two control beams plus a diagonal of detunings,
traps and mean-field shifts frozen at the pre-step densities.

Level ordering everywhere: index 0 is the ground component, 1 and 2 the two
meta-stable components, 3 and 4 the two excited components.  Probe 1 couples
0<->3, probe 2 couples 0<->4, control 1 couples 1<->3, control 2 couples
2<->4.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._fft import fft2, ifft2
from .beams import BeamSet
from .errors import AdiabaticityWarning, DivergenceError
from .grid import SpectralGrid, laplacian

__all__ = [
    "MatterState",
    "Ramp",
    "LoadingResult",
    "initial_state",
    "thomas_fermi_density",
    "qp_cancel_potential",
    "advisory_dt",
    "local_step",
    "step",
    "run_adiabatic_loading",
]

#: series engine gives up beyond this many terms (dt far above advisory)
_SERIES_MAX_TERMS = 32


@dataclass
class MatterState:
    """Five complex fields plus the static problem data they evolve under.

    ``phi`` has shape (5, nx, ny).  ``traps`` has shape (5, nx, ny) and holds
    the component potentials V1..V5.  Functions that advance a state mutate it
    in place and return it; callers that need the old state must copy first
    (states are cheap: ``state.copy()``).
    """

    grid: SpectralGrid
    phi: np.ndarray
    traps: np.ndarray
    u: float
    t: float = 0.0

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.complex128)
        if self.phi.shape != (5,) + self.grid.shape:
            raise ValueError(f"phi must have shape (5, nx, ny), got {self.phi.shape}")
        self.traps = np.asarray(self.traps, dtype=float)
        if self.traps.shape != (5,) + self.grid.shape:
            raise ValueError(f"traps must have shape (5, nx, ny), got {self.traps.shape}")

    def copy(self) -> "MatterState":
        return MatterState(
            grid=self.grid, phi=self.phi.copy(), traps=self.traps, u=self.u, t=self.t
        )

    def densities(self) -> np.ndarray:
        return np.abs(self.phi) ** 2

    def norm(self) -> float:
        return float(np.sqrt(self.grid.integrate(np.sum(self.densities(), axis=0))))

    def populations(self) -> np.ndarray:
        """Per-component integrated populations (length 5)."""
        dens = self.densities()
        return np.array([self.grid.integrate(d) for d in dens])


def initial_state(grid: SpectralGrid, rho: np.ndarray, traps: np.ndarray, u: float) -> MatterState:
    """All atoms in the ground component: ``phi1 = sqrt(rho)``, rest zero."""
    phi = np.zeros((5,) + grid.shape, dtype=np.complex128)
    phi[0] = np.sqrt(np.asarray(rho, dtype=float))
    return MatterState(grid=grid, phi=phi, traps=traps, u=u)


def thomas_fermi_density(grid: SpectralGrid, rho0: float, radius: float, rim: float = 0.05):
    """Smooth Thomas-Fermi-like bump.

    A softplus rounding of ``rho0 * max(0, 1 - r^2/R^2)``: equal to the
    parabola in the bulk, rounded over a relative width ``rim`` at the edge,
    decaying smoothly outside so spectral derivatives stay clean.
    """
    if radius <= 0 or rho0 < 0 or rim <= 0:
        raise ValueError("radius and rim must be positive, rho0 non-negative")
    u = 1.0 - (grid.r_map / radius) ** 2
    return rho0 * rim * np.logaddexp(0.0, u / rim)


def qp_cancel_potential(grid: SpectralGrid, rho: np.ndarray, floor: float = 1e-8):
    """Trap that makes ``sqrt(rho)`` kinetic-free: ``laplacian(sqrt(rho))/(2*sqrt(rho))``.

    With this as V1, the ground component evolves as
    ``sqrt(rho) * exp(-i*u*rho*t)`` until interaction-driven transport sets
    in, which keeps the background stationary on loading timescales.  The
    ratio is zeroed where ``rho`` is below ``floor`` of its peak (the value is
    irrelevant there and the quotient is noise).
    """
    rho = np.asarray(rho, dtype=float)
    amp = np.sqrt(rho)
    lap = laplacian(amp, grid).real
    out = np.zeros(grid.shape)
    live = rho > floor * float(np.max(rho))
    out[live] = 0.5 * lap[live] / amp[live]
    return out


def advisory_dt(grid: SpectralGrid) -> float:
    """Stability advisory: ``min(dx, dy)^2 / pi`` (Nyquist kinetic phase ~ pi)."""
    return min(grid.dx, grid.dy) ** 2 / math.pi


@dataclass(frozen=True)
class Ramp:
    """Probe envelope ``sin^2(pi*t / (2*T))`` rising over ``ramp_time``, then 1."""

    ramp_time: float

    def envelope(self, t: float) -> float:
        if self.ramp_time <= 0.0 or t >= self.ramp_time:
            return 1.0
        if t <= 0.0:
            return 0.0
        return math.sin(0.5 * math.pi * t / self.ramp_time) ** 2


class _LocalHamiltonian:
    """Per-step pointwise 5x5 Hamiltonian application.

    Caches the complex Rabi fields of a BeamSet; the ramp enters as a scalar
    ``scale`` on the probe pair.  The mean field uses the total density of the
    three lower components at the pre-step time.
    """

    def __init__(self, beams: BeamSet):
        self.op1 = beams.omega_p1()
        self.op2 = beams.omega_p2()
        self.oc1 = beams.omega_c1()
        self.oc2 = beams.omega_c2()
        self.eps = (beams.eps12, beams.eps13, beams.eps14, beams.eps15)

    def diagonal(self, state: MatterState) -> np.ndarray:
        dens = state.densities()
        rho_low = dens[0] + dens[1] + dens[2]
        e12, e13, e14, e15 = self.eps
        diag = np.empty((5,) + state.grid.shape)
        mf = state.u * rho_low
        diag[0] = state.traps[0] + mf
        diag[1] = e12 + state.traps[1] + mf
        diag[2] = e13 + state.traps[2] + mf
        diag[3] = e14 + state.traps[3]
        diag[4] = e15 + state.traps[4]
        return diag

    def matvec(self, v: np.ndarray, diag: np.ndarray, scale: float) -> np.ndarray:
        op1 = scale * self.op1
        op2 = scale * self.op2
        out = np.empty_like(v)
        out[0] = diag[0] * v[0] + np.conj(op1) * v[3] + np.conj(op2) * v[4]
        out[1] = diag[1] * v[1] + np.conj(self.oc1) * v[3]
        out[2] = diag[2] * v[2] + np.conj(self.oc2) * v[4]
        out[3] = diag[3] * v[3] + op1 * v[0] + self.oc1 * v[1]
        out[4] = diag[4] * v[4] + op2 * v[0] + self.oc2 * v[2]
        return out

    def dense(self, state: MatterState, scale: float) -> np.ndarray:
        """Explicit (nx*ny, 5, 5) matrices for the eigh engine."""
        diag = self.diagonal(state)
        n = state.grid.nx * state.grid.ny
        m = np.zeros((n, 5, 5), dtype=np.complex128)
        for a in range(5):
            m[:, a, a] = diag[a].ravel()
        op1 = (scale * self.op1).ravel()
        op2 = (scale * self.op2).ravel()
        oc1 = self.oc1.ravel()
        oc2 = self.oc2.ravel()
        m[:, 3, 0] = op1
        m[:, 0, 3] = np.conj(op1)
        m[:, 4, 0] = op2
        m[:, 0, 4] = np.conj(op2)
        m[:, 3, 1] = oc1
        m[:, 1, 3] = np.conj(oc1)
        m[:, 4, 2] = oc2
        m[:, 2, 4] = np.conj(oc2)
        return m


def _apply_exp_series(ham: _LocalHamiltonian, state: MatterState, dt: float, scale: float):
    """phi <- exp(-i*dt*M) phi by an adaptively truncated power series.

    Exact to machine precision in the supported regime: dt sits at or below
    the kinetic advisory, so dt*||M|| << 1 and a handful of terms converge.
    """
    diag = ham.diagonal(state)
    term = state.phi
    acc = state.phi.copy()
    ref = float(np.max(np.abs(acc)))
    if not np.isfinite(ref):
        # NaN never satisfies the convergence test; report the real problem
        raise DivergenceError("non-finite field values")
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = ham.matvec(term, diag, scale) * (-1j * dt / k)
        acc += term
        if float(np.max(np.abs(term))) <= 1e-16 * ref:
            state.phi = acc
            return
    raise DivergenceError(
        "local propagator series did not converge; dt is far above the advisory bound"
    )


def _apply_exp_eigh(ham: _LocalHamiltonian, state: MatterState, dt: float, scale: float):
    """phi <- exp(-i*dt*M) phi by unitary diagonalization of each 5x5."""
    m = ham.dense(state, scale)
    w, vecs = np.linalg.eigh(m)
    v = state.phi.reshape(5, -1).T[..., None]
    proj = np.matmul(vecs.conj().transpose(0, 2, 1), v)
    proj *= np.exp(-1j * dt * w)[..., None]
    out = np.matmul(vecs, proj)[..., 0]
    state.phi = np.ascontiguousarray(out.T.reshape(state.phi.shape))


def local_step(
    state: MatterState,
    beams: BeamSet,
    dt: float,
    scale: float = 1.0,
    engine: str = "series",
) -> MatterState:
    """Apply the pointwise internal-level propagator ``exp(-i*dt*(H+D))``.

    ``engine="series"`` (default) applies an adaptively truncated power
    series, exact at working precision for dt at the advisory scale;
    ``engine="eigh"`` uses batched unitary diagonalization (several times
    slower).  Both agree to 1e-12; the default is chosen for the runtime
    budget.
    """
    ham = _LocalHamiltonian(beams)
    _apply_local(ham, state, dt, scale, engine)
    return state


def _apply_local(ham, state, dt, scale, engine):
    if engine == "series":
        _apply_exp_series(ham, state, dt, scale)
    elif engine == "eigh":
        _apply_exp_eigh(ham, state, dt, scale)
    else:
        raise ValueError(f"unknown local-step engine {engine!r}")


def _kinetic_phase(grid: SpectralGrid, dt: float) -> np.ndarray:
    # half-step factor: exp(-i * (k^2/2) * dt/2)
    return np.exp(-0.25j * grid.k2 * dt)


def step(
    state: MatterState,
    beams: BeamSet,
    dt: float,
    scale: float = 1.0,
    engine: str = "series",
    _half_kinetic: np.ndarray | None = None,
    _ham: _LocalHamiltonian | None = None,
    _step_index: int | None = None,
) -> MatterState:
    """One Strang step: half kinetic, local 5x5 propagator, half kinetic.

    Mutates and returns ``state``; ``state.t`` advances by ``dt``.  Raises
    :class:`~vxsim.errors.DivergenceError` if non-finite values appear.
    """
    half = _half_kinetic if _half_kinetic is not None else _kinetic_phase(state.grid, dt)
    ham = _ham if _ham is not None else _LocalHamiltonian(beams)
    state.phi = ifft2(half * fft2(state.phi))
    _apply_local(ham, state, dt, scale, engine)
    state.phi = ifft2(half * fft2(state.phi))
    state.t += dt
    peak = float(np.max(np.abs(state.phi)))
    if not np.isfinite(peak):
        raise DivergenceError("non-finite field values", step=_step_index)
    return state


@dataclass
class LoadingResult:
    """Outcome of an adiabatic loading run."""

    state: MatterState
    dark_state_error: float
    p4: float
    p5: float
    norm_initial: float
    norm_final: float
    n_steps: int

    @property
    def norm_drift(self) -> float:
        return abs(self.norm_final - self.norm_initial) / self.norm_initial


def dark_state_error(state: MatterState, beams: BeamSet, scale: float = 1.0) -> float:
    """Relative L2 distance between phi2 and the dark-state target -xi1*phi1.

    The second meta-stable component is checked implicitly through the
    excited populations; this metric tracks the loaded vortex flavor.
    """
    from .beams import xi_ratios

    xi1, _ = xi_ratios(beams)
    target = -scale * xi1 * state.phi[0]
    diff = state.phi[1] - target
    num = state.grid.integrate(np.abs(diff) ** 2)
    den = state.grid.integrate(np.abs(state.phi[1]) ** 2)
    if den == 0.0:
        return float("inf")
    return float(np.sqrt(num / den))


def run_adiabatic_loading(
    state: MatterState,
    beams: BeamSet,
    dt: float,
    n_steps: int,
    ramp: Ramp,
    engine: str = "series",
    fidelity_floor: float = 0.9,
    snapshot_cb=None,
) -> LoadingResult:
    """Ramp the probes up over the dark state and report loading quality.

    The envelope is evaluated at the step midpoint (keeps the Strang step
    second order for the time-dependent Hamiltonian).  ``snapshot_cb``, if
    given, is called as ``snapshot_cb(step_index, state)`` after every step.

    Emits :class:`~vxsim.errors.AdiabaticityWarning` when the final
    dark-state fidelity ``1 - error`` falls below ``fidelity_floor``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    norm0 = state.norm()
    half = _kinetic_phase(state.grid, dt)
    ham = _LocalHamiltonian(beams)
    for i in range(n_steps):
        s = ramp.envelope(state.t + 0.5 * dt)
        step(
            state,
            beams,
            dt,
            scale=s,
            engine=engine,
            _half_kinetic=half,
            _ham=ham,
            _step_index=i,
        )
        if snapshot_cb is not None:
            snapshot_cb(i, state)
    s_final = ramp.envelope(state.t)
    err = dark_state_error(state, beams, scale=s_final)
    pops = state.populations()
    total = float(np.sum(pops))
    result = LoadingResult(
        state=state,
        dark_state_error=err,
        p4=pops[3] / total,
        p5=pops[4] / total,
        norm_initial=norm0,
        norm_final=state.norm(),
        n_steps=n_steps,
    )
    if 1.0 - err < fidelity_floor:
        warnings.warn(
            f"dark-state fidelity {1.0 - err:.4f} below floor {fidelity_floor}",
            AdiabaticityWarning,
            stacklevel=2,
        )
    return result
