"""Split-step evolution of the five coupled matter fields.

Strang splitting per step: half a kinetic step applied spectrally to every
component, one full local step coupling the internal levels pointwise, half a
kinetic step.  Within a run, the half kinetic steps between two observed
steps fuse into full ones (:class:`SplitStepper`).  The local Hamiltonian at
each grid point is the 5x5 coupling matrix of the two probe and two control
beams plus a diagonal of detunings, the ground-level trap and mean-field
shifts frozen at the pre-step densities.

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
from .beams import BeamSet, rabi_field, ratio_factors
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
    "dark_state_error",
    "observed_steps",
    "SplitStepper",
    "step",
    "run_adiabatic_loading",
]

#: the local series gives up beyond this many terms (dt*max|M| far above 1)
_SERIES_MAX_TERMS = 32

#: grid points per block of the local series: a block's fields, term buffers
#: and ten coupling blocks (about 1.6 MB) fit in a 2 MB L2 cache
_BLOCK_POINTS = 4096


@dataclass
class MatterState:
    """Five complex fields plus the static problem data they evolve under.

    ``phi`` has shape (5, nx, ny).  ``traps`` has shape (nx, ny) and holds
    the ground-level potential V1; the other four levels carry no trap, so
    their diagonal is the beams' detuning (plus, on levels 2 and 3, the mean
    field).  Functions that advance a state mutate it
    in place and return it: each step overwrites the buffer of ``phi``, so
    callers and callbacks that keep a state or a component of it must copy
    it (states are cheap: ``state.copy()``).  ``norm`` and ``populations``
    square one component at a time into one reused buffer.
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
        if self.traps.shape != self.grid.shape:
            raise ValueError(f"traps must have shape (nx, ny), got {self.traps.shape}")

    def copy(self) -> "MatterState":
        return MatterState(
            grid=self.grid, phi=self.phi.copy(), traps=self.traps, u=self.u, t=self.t
        )

    def _densities(self):
        d = np.empty(self.grid.shape)
        for p in self.phi:
            np.abs(p, out=d)
            yield np.multiply(d, d, out=d)

    def norm(self) -> float:
        total = np.zeros(self.grid.shape)
        for d in self._densities():
            total += d
        return float(np.sqrt(self.grid.integrate(total)))

    def populations(self) -> np.ndarray:
        """Per-component integrated populations (length 5)."""
        return np.array([self.grid.integrate(d) for d in self._densities()])


def initial_state(grid: SpectralGrid, rho: np.ndarray, traps: np.ndarray, u: float) -> MatterState:
    """All atoms in the ground component: ``phi1 = sqrt(rho)``, rest zero;
    ``traps`` is the ground-level potential V1."""
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


def qp_cancel_potential(grid: SpectralGrid, rho: np.ndarray):
    """Trap that makes ``sqrt(rho)`` kinetic-free: ``laplacian(sqrt(rho))/(2*sqrt(rho))``.

    Runs set V1 to this minus ``u*rho``, which also cancels the
    background's own mean field (a Thomas-Fermi cloud is stationary where
    V + u*rho is constant), so the ground component stands still as
    ``sqrt(rho)`` with no ``exp(-i*u*rho*t)`` phase.  The ratio is zeroed
    where ``rho`` is below 1e-8 of its peak (the value is irrelevant there
    and the quotient is noise).
    """
    rho = np.asarray(rho, dtype=float)
    amp = np.sqrt(rho)
    lap = laplacian(amp, grid).real
    out = np.zeros(grid.shape)
    live = rho > 1e-8 * float(np.max(rho))
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


def observed_steps(observe, n_steps: int) -> list[int]:
    """The step counts after which a driver of ``n_steps`` steps hands out a
    whole state, in order: each count in ``observe``, and the last step."""
    steps = set(observe)
    outside = sorted(k for k in steps if not 1 <= k <= n_steps)
    if outside:
        raise ValueError(f"observed step {outside[0]} is outside 1..{n_steps}")
    return sorted(steps | ({n_steps} if n_steps else set()))


class SplitStepper:
    """Strang split-step propagator of one run: ``n_steps`` steps of ``dt``.

    A step is half a kinetic step, the pointwise 5x5 propagator and half a
    kinetic step.  Between observed steps the trailing half of one step and
    the leading half of the next fuse into one full kinetic step (Bao,
    Jaksch & Markowich, J. Comput. Phys. 187 (2003) 318): one transform pair
    per step instead of two.  The field is a whole state only after an
    observed step, which is the last step and each step count in
    ``observe``; ``closed`` says whether the latest step was one.

    Built once per run from the beams: holds the full kinetic phase, each
    Rabi field once, scaled in place by ``-i*dt`` (blocks derive the
    conjugate couplings), and the local series' work arrays, sized from the
    beams' grid, so that a fused step makes no field-sized temporaries.  The
    half kinetic phase is built from the grid only by a step that applies
    it (the first step, and each step that opens or closes on an observed
    one), and no step keeps it across the local series.  The ramp enters
    each step as a scalar ``scale`` on the probe pair.  The mean field uses
    the total density of the three lower components at the pre-step time.
    Steps transform ``state.phi`` in place and overwrite its buffer; a state
    of another grid shape raises ``ValueError``.  ``terms`` counts the local
    series terms summed over blocks and steps.
    """

    def __init__(self, beams: BeamSet, dt: float, n_steps: int = 1, observe=()):
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        self.dt = dt
        self.n_steps = n_steps
        self._observed = frozenset(observed_steps(observe, n_steps))
        self.index = 0
        self.closed = True
        self.terms = 0
        self._grid = beams.grid
        self._full = self._kinetic_phase(-0.5j)
        # entries (3, 0), (4, 0), (3, 1), (4, 2) of -i*dt*M, scaled in place;
        # each block derives their conjugates at (0, 3), (0, 4), (1, 3), (2, 4)
        self._probes = (beams.omega_p1(), beams.omega_p2())
        self._controls = (beams.omega_c1(), beams.omega_c2())
        for field in self._probes + self._controls:
            field *= -1j * dt
        self._eps = (beams.eps12, beams.eps13)
        # the excited levels' diagonal is eps14/eps15 alone; where both are
        # zero, their first coupling product opens the term and the diagonal
        # product stops at row 2
        self._excited_diag = bool(beams.eps14 or beams.eps15)
        self._shape = beams.grid.shape
        nx, ny = self._shape
        # grid sizes are powers of two, so the blocks tile the grid exactly
        rows = min(nx, max(1, _BLOCK_POINTS // ny))
        self._blocks = [slice(start, start + rows) for start in range(0, nx, rows)]
        # work arrays of one block: two series terms, a product, the lower
        # density, the real diagonal of levels 1..3, the diagonal and six
        # couplings; the real ones are contiguous, which numpy writes faster
        # than the real part of a complex array
        self._terms = np.empty((2, 5, rows, ny), dtype=np.complex128)
        self._tmp = np.empty((rows, ny), dtype=np.complex128)
        self._rho_low = np.empty((rows, ny))
        self._real = np.empty((3, rows, ny))
        # -i*dt times the real diagonal: each block writes only the
        # imaginary part of rows 0..2, so no float-to-complex cast buffer;
        # rows 3 and 4 hold the excited levels' constant detunings
        self._diag = np.zeros((5, rows, ny), dtype=np.complex128)
        self._diag[3].imag = beams.eps14 * -dt
        self._diag[4].imag = beams.eps15 * -dt
        self._scaled = np.empty((6, rows, ny), dtype=np.complex128)

    def _check_shape(self, state: MatterState):
        if state.grid.shape != self._shape:
            raise ValueError(f"state grid {state.grid.shape} is not the stepper's {self._shape}")

    def advance(self, state: MatterState, scale: float = 1.0):
        """Take the run's next step; ``state.t`` advances by ``dt``."""
        self._check_shape(state)
        if self.index >= self.n_steps:
            raise ValueError(f"all {self.n_steps} steps of this stepper are taken")
        self._kick(state, self._kinetic_phase(-0.25j) if self.closed else self._full)
        self.local(state, scale)
        self.closed = self.index + 1 in self._observed
        if self.closed:
            self._kick(state, self._kinetic_phase(-0.25j))
        state.t += self.dt
        self.index += 1

    def _kinetic_phase(self, coef: complex) -> np.ndarray:
        """``exp(coef * k2 * dt)``, formed in the plane it returns; casting
        ``k2`` into that plane first leaves the products no cast buffer."""
        phase = self._grid.k2.astype(np.complex128)
        phase *= coef
        phase *= self.dt
        return np.exp(phase, out=phase)

    def _kick(self, state: MatterState, phase: np.ndarray):
        spec = fft2(state.phi, overwrite_x=True)
        spec *= phase
        state.phi = ifft2(spec, overwrite_x=True)

    def local(self, state: MatterState, scale: float = 1.0):
        """phi <- exp(-i*dt*M) phi by an adaptively truncated power series.

        Exact to machine precision in the supported regime: dt sits at or
        below the kinetic advisory, so dt*||M|| << 1 and a handful of terms
        converge.  The series runs block by block over the grid rows, each
        block until its own terms fall below the tolerance, so that a
        block's fields, term buffers and couplings stay in cache across its
        terms.  Terms are added to ``state.phi`` in place.

        The tolerance scales with the largest ``|phi|``.  The ground
        component's modulus is always taken; another component's only where
        1.5 times its largest real or imaginary part can reach the largest
        modulus so far (``|z| <= sqrt(2) * max(|Re z|, |Im z|)``), so the
        scale is the same value either way.  A term's convergence test
        reduces its largest part first and its smallest only when that
        largest is within the tolerance.  Where eps14 and eps15 are both
        zero, the excited levels' rows skip the diagonal product.
        """
        self._check_shape(state)
        phi = state.phi
        # one contiguous component block at a time: abs of a strided one
        # goes through a ufunc buffer
        scratch = self._real[0]
        ref = 0.0
        for c, component in enumerate(phi):
            if c:
                flat = component.view(np.float64)
                if 1.5 * max(float(flat.max()), -float(flat.min())) < ref:
                    continue
            size = float(np.max([np.abs(component[b], out=scratch).max()
                                 for b in self._blocks]))
            if not math.isfinite(size):
                # NaN never satisfies the convergence test; report the real problem
                raise DivergenceError("non-finite field values", step=self.index)
            ref = max(ref, size)
        # max(|Re|, |Im|) <= tol/sqrt(2) implies |term| <= tol
        tol = 1e-16 * ref / math.sqrt(2.0)
        for block in self._blocks:
            self._local_block(state, block, scale, tol)

    def _local_block(self, state, block, scale, tol):
        phi = state.phi[:, block]
        tmp, rho_low, real, diag = self._tmp, self._rho_low, self._real, self._diag
        rho_low.fill(0.0)
        for p in phi[:3]:
            for part in (p.real, p.imag):
                np.square(part, out=real[0])
                rho_low += real[0]
        np.multiply(state.u, rho_low, out=rho_low)
        # V1 on the ground level, the two-photon detunings on levels 2 and 3,
        # each plus the mean field
        np.add(state.traps[block], rho_low, out=real[0])
        for level, eps in zip(real[1:], self._eps):
            np.add(rho_low, eps, out=level)
        np.multiply(real, -self.dt, out=diag.imag[:3])
        p1, p2, p1c, p2c, c1c, c2c = self._scaled
        for out, a in zip((p1, p2), self._probes):
            np.multiply(scale, a[block], out=out)
        c1, c2 = (a[block] for a in self._controls)
        # f*conj(O) = -conj(f*O) up to the sign of a zero part (f = -i*dt)
        for out, a in zip((p1c, p2c, c1c, c2c), (p1, p2, c1, c2)):
            np.negative(a.view(np.float64), out=out.view(np.float64))
            np.conjugate(out, out=out)
        couplings = ((0, p1c, 3), (0, p2c, 4), (1, c1c, 3), (2, c2c, 4),
                     (3, p1, 0), (3, c1, 1), (4, p2, 0), (4, c2, 2))
        if self._excited_diag:
            ndiag, heads, adds = 5, (), couplings
        else:
            ndiag, heads, adds = 3, couplings[4::2], couplings[:4] + couplings[5::2]
        # term k is built from term k-1, in the other buffer; term 0 is phi
        src = phi
        for k in range(1, _SERIES_MAX_TERMS + 1):
            term = self._terms[k % 2]
            if src is phi:
                # row by row: a block of phi is no one contiguous stretch,
                # and a stacked product with it goes through a ufunc buffer
                for row in range(ndiag):
                    np.multiply(diag[row], src[row], out=term[row])
            else:
                np.multiply(diag[:ndiag], src[:ndiag], out=term[:ndiag])
            for row, coupling, col in heads:
                np.multiply(coupling, src[col], out=term[row])
            for row, coupling, col in adds:
                np.multiply(coupling, src[col], out=tmp)
                term[row] += tmp
            flat = term.view(np.float64)
            flat *= 1.0 / k
            phi += term
            # max(max, -min) <= tol only if max <= tol: take min only then
            size = float(flat.max())
            if size <= tol:
                size = max(size, -float(flat.min()))
                if size <= tol:
                    self.terms += k
                    return
            if not math.isfinite(size):
                raise DivergenceError("non-finite field values", step=self.index)
            src = term
        if not np.isfinite(phi).all():
            # a term whose parts overflowed to -inf alone passes the test of
            # its maximum; phi holds it
            raise DivergenceError("non-finite field values", step=self.index)
        raise DivergenceError(self._unconverged(state, block, diag, couplings), step=self.index)

    def _unconverged(self, state, block, diag, couplings) -> str:
        """Why a block's series did not converge: the largest entry of
        ``dt*M`` there, a diagonal (its trap, and on levels 1..3 its mean
        field) or a beam coupling, with its levels and grid point."""
        names = ("probe 1", "probe 2", "control 1", "control 2")
        # the first four couplings are the conjugates of the last four
        entries = [np.abs(d) for d in diag] + [np.abs(c) for _, c, _ in couplings[:4]]
        sizes = [float(e.max()) for e in entries]
        which = int(np.argmax(sizes))
        i, j = np.unravel_index(int(np.argmax(entries[which])), entries[which].shape)
        if which < 5:
            # building diag left u*rho, the mean field of levels 1..3, in _rho_low
            mean = f", mean field u*rho = {self._rho_low[i, j]:.3e}" if which < 3 else ""
            trap = state.traps[block][i, j] if which == 0 else 0.0
            cause = f"the level-{which + 1} diagonal (trap V{which + 1} = {trap:.3e}{mean})"
        else:
            row, _, col = couplings[which - 5]
            cause = f"the {names[which - 5]} coupling of levels {row + 1} and {col + 1}"
        i += block.start
        advisory = advisory_dt(state.grid)
        verdict = "exceeds" if self.dt > advisory else "is within"
        return (f"local propagator series did not converge in {_SERIES_MAX_TERMS} terms: "
                f"dt*max|M| = {sizes[which]:.3e}, set by {cause} at grid point ({i}, {j}); "
                f"dt = {self.dt:g} {verdict} the advisory bound {advisory:.6g}")


def step(
    state: MatterState,
    beams: BeamSet,
    dt: float,
    scale: float = 1.0,
    stepper: SplitStepper | None = None,
) -> MatterState:
    """One split step of ``dt``: half kinetic, local 5x5 propagator, half kinetic.

    Mutates and returns ``state``; ``state.t`` advances by ``dt``.  Given a
    run's ``stepper`` (built from the same ``beams`` and ``dt``), this is
    that run's next step, whose kinetic halves fuse with its neighbours'
    unless it is observed (see :class:`SplitStepper`).  Raises
    :class:`~vxsim.errors.DivergenceError` if non-finite values appear.
    """
    if stepper is None:
        stepper = SplitStepper(beams, dt)
    stepper.advance(state, scale)
    return state


@dataclass
class LoadingResult:
    """Outcome of an adiabatic loading run; ``series_terms`` is the local
    series terms of all steps, summed over blocks."""

    state: MatterState
    dark_state_error: float
    p4: float
    p5: float
    norm_initial: float
    norm_final: float
    n_steps: int
    series_terms: int

    @property
    def norm_drift(self) -> float:
        return abs(self.norm_final - self.norm_initial) / self.norm_initial


def dark_state_error(state: MatterState, beams: BeamSet, scale: float = 1.0) -> float:
    """Relative L2 distance between phi2 and the dark-state target -xi1*phi1.

    The second meta-stable component is checked implicitly through the
    excited populations; this metric tracks the loaded vortex flavor.
    """
    xi1 = rabi_field(*ratio_factors(beams)[0], beams.grid)
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
    fidelity_floor: float = 0.9,
    snapshot_cb=None,
    observe=(),
) -> LoadingResult:
    """Ramp the probes up over the dark state and report loading quality.

    The envelope is evaluated at the step midpoint (keeps the Strang step
    second order for the time-dependent Hamiltonian).  ``snapshot_cb``, if
    given, is called as ``snapshot_cb(step_index, state)`` after each
    observed step: after ``step_index + 1`` steps for each count in
    ``observe``, and after the last step.  Kinetic half-steps fuse between
    observed steps, so fewer observed steps mean fewer transforms.  Each
    step overwrites ``state.phi``'s buffer, so ``snapshot_cb`` must copy what
    it keeps.  A count outside ``1..n_steps`` raises ``ValueError``.

    Emits :class:`~vxsim.errors.AdiabaticityWarning` when the final
    dark-state fidelity ``1 - error`` falls below ``fidelity_floor``.
    """
    norm0 = state.norm()
    stepper = SplitStepper(beams, dt, n_steps, observe)
    for i in range(n_steps):
        step(state, beams, dt, scale=ramp.envelope(state.t + 0.5 * dt), stepper=stepper)
        if snapshot_cb is not None and stepper.closed:
            snapshot_cb(i, state)
    series_terms = stepper.terms
    del stepper  # its work arrays are not needed by the checks below
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
        series_terms=series_terms,
    )
    if 1.0 - err < fidelity_floor:
        warnings.warn(
            f"dark-state fidelity {1.0 - err:.4f} below floor {fidelity_floor}",
            AdiabaticityWarning,
            stacklevel=2,
        )
    return result
