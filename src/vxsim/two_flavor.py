"""Reduced two-flavor dynamics in the dark-state gauge background.

Each flavor obeys, with its charge q (+1 for flavor 2, -1 for flavor 3)
folding the common Hermitian gauge field into a_q = q*A,

    i d/dt phi = 1/2 (i grad + a_q)^2 phi + Veff phi + U rho phi

expanded for spectral application as

    1/2 (-lap phi + i (div a_q) phi + 2 i a_q . grad phi + |a_q|^2 phi)
        + (Veff + U rho) phi,

with the first-derivative and divergence pieces applied together as the
symmetrized product i/2 (a_q . D + D . a_q), which is Hermitian on the
grid exactly (not just in the continuum).

The Hamiltonian does not depend on time (``rho`` is frozen and the gauge
field is static), so the propagator only lands where the state is observed:
at the requested step counts and at the last step, not at every ``dt``.
Each advance applies the operator exponential on one Lanczos basis
(full reorthogonalization, at most ``_LANCZOS_MAX`` vectors) and takes the
largest time step, up to the next observed step, whose a-posteriori residual
estimate is below ``_LANCZOS_TOL`` (the step-size control of Hochbruck &
Lubich, SIAM J. Numer. Anal. 34 (1997) 1911, and of Expokit, Sidje, ACM
TOMS 24 (1998) 130).  Per-flavor norms are conserved to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._fft import fft2, ifft2
from .errors import CoreSingularityError, DivergenceError
from .evolution import observed_steps
from .grid import SpectralGrid

__all__ = ["KrylovWork", "evolve_two_flavor"]

_LANCZOS_TOL = 1e-13
# The live basis (nx*ny*16 bytes a vector) sets the branch's peak memory: on
# a 128^2 hold a cap of 30 instead of 20 vectors adds another 2.3 MB (2.5 %)
# of peak resident size, for fewer, longer advances.
_LANCZOS_MAX = 20
# Bisection halvings of a step that a full basis cannot take in one advance;
# they fix the admissible step to 2^-30 of the interval left.
_TAU_BISECTIONS = 30
# An advance below this fraction of dt counts as a collapsed step.
_TAU_FLOOR = 2.0**-10


@dataclass
class KrylovWork:
    """Solver work of the reduced propagator, summed over both flavors:
    Lanczos bases built (one per Krylov advance) and operator applications."""

    krylov_steps: int = 0
    matvecs: int = 0


def _require_finite(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise ValueError(
            f"{name} contains non-finite values; fill masked gauge outputs "
            "(gauge.fill_masked) before evolving"
        )


def _as_real_vector(name: str, a, grid: SpectralGrid) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise ValueError(f"{name} must be a real (Hermitian-mode) vector field")
        a = a.real
    a = a.astype(float, copy=False)
    if a.shape != (2,) + grid.shape:
        raise ValueError(f"{name} must have shape (2, nx, ny)")
    _require_finite(name, a)
    return a


def _core_guard(aq: np.ndarray, rho: np.ndarray, phi: np.ndarray, a_max: float):
    """Large-|A| points must be void: both the background and the flavor field
    below 1e-10 of their peaks there, else the core is unresolved."""
    mag = np.sqrt(aq[0] ** 2 + aq[1] ** 2)
    hot = mag > a_max
    if not hot.any():
        return
    rho_ok = rho[hot] < 1e-10 * float(rho.max())
    phi_ok = np.abs(phi[hot]) < 1e-10 * float(np.abs(phi).max())
    bad = ~(rho_ok & phi_ok)
    if bad.any():
        i, j = np.argwhere(hot)[np.argmax(bad)]
        raise CoreSingularityError(
            f"|A| = {mag[i, j]:.3e} > {a_max:.1e} at grid point ({i}, {j}) "
            "where the fields do not vanish; refine the grid or mask the core"
        )


class _FlavorOperator:
    """Matvec of the expanded minimal-coupling Hamiltonian for one flavor.

    The cross term is applied in the symmetrized form i/2 (a.D + D.a): the
    spectral derivative D is exactly anti-self-adjoint and a is a real
    multiplier, so this combination is Hermitian on the grid even where
    pointwise products alias; the naive a.D + (div a)/2 form is not, and the
    defect is what Lanczos amplifies.  In the continuum the two agree.
    """

    def __init__(self, grid: SpectralGrid, aq: np.ndarray, local: np.ndarray):
        self.half_k2 = 0.5 * grid.k2
        self.ikx = 1j * grid.kx_grad[:, None]
        self.iky = 1j * grid.ky_grad[None, :]
        self.aqx = aq[0]
        self.aqy = aq[1]
        self.local = local + 0.5 * (aq[0] ** 2 + aq[1] ** 2)

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        f = fft2(phi)
        a_dot_grad = self.aqx * ifft2(self.ikx * f) + self.aqy * ifft2(self.iky * f)
        # the kinetic and divergence pieces share one inverse transform
        kinetic_and_div = ifft2(
            self.half_k2 * f
            + 0.5j * (self.ikx * fft2(self.aqx * phi) + self.iky * fft2(self.aqy * phi))
        )
        return kinetic_and_div + 0.5j * a_dot_grad + self.local * phi


def _lanczos_advance(op, phi: np.ndarray, t: float, work: KrylovWork):
    """One Krylov advance ``phi <- exp(-i tau H) phi`` with ``tau <= t``.

    The basis grows until the residual estimate at ``tau = t`` converges or
    ``_LANCZOS_MAX`` vectors are built; then ``tau`` is the largest step
    (found by bisection on the last eigen-decomposition) whose estimate is
    below ``_LANCZOS_TOL``.  Returns ``(phi, tau)``.
    """
    shape = phi.shape
    v = phi.ravel()
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return phi, t
    # rows are the basis vectors; untouched rows cost no resident memory
    basis = np.empty((_LANCZOS_MAX, v.size), dtype=np.complex128)
    np.divide(v, beta0, out=basis[0])
    alphas: list[float] = []
    betas: list[float] = []
    w = op(basis[0].reshape(shape)).ravel()
    alphas.append(float(np.real(np.vdot(basis[0], w))))
    w = w - alphas[0] * basis[0]
    while True:
        b = float(np.linalg.norm(w))
        # spectral decomposition of the current tridiagonal projection
        lam, s = eigh_tridiagonal(alphas, betas)

        def residual(tau: float) -> float:
            # residual estimate for the Krylov exponential (no tau factor:
            # the off-diagonal coupling itself sets the neglected-term scale)
            return b * abs(s[-1] @ (np.exp(-1j * tau * lam) * s[0]))

        if b < 1e-14 or residual(t) < _LANCZOS_TOL:
            tau = t
            break
        m = len(alphas)
        if m == _LANCZOS_MAX:
            lo, hi = 0.0, t
            for _ in range(_TAU_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if residual(mid) < _LANCZOS_TOL:
                    lo = mid
                else:
                    hi = mid
            tau = lo
            break
        betas.append(b)
        np.divide(w, b, out=basis[m])
        w = op(basis[m].reshape(shape)).ravel()
        alphas.append(float(np.real(np.vdot(basis[m], w))))
        w = w - alphas[m] * basis[m] - betas[m - 1] * basis[m - 1]
        # full reorthogonalization, classical Gram-Schmidt twice; the
        # projections live @ conj(w) are conjugated so no conjugate copy of
        # the basis is ever built
        live = basis[: m + 1]
        for _ in range(2):
            w -= np.conj(live @ np.conj(w)) @ live
    n = len(alphas)
    work.krylov_steps += 1
    work.matvecs += n
    col = s @ (np.exp(-1j * tau * lam) * s[0])
    return (beta0 * (col @ basis[:n])).reshape(shape), tau


def _propagate(op, phi: np.ndarray, t: float, dt: float, work: KrylovWork, step: int):
    """``phi <- exp(-i t H) phi`` in as many Krylov advances as it takes."""
    left = t
    while left > 0.0:
        phi, tau = _lanczos_advance(op, phi, left, work)
        if tau < left and tau < _TAU_FLOOR * dt:
            raise DivergenceError(
                f"Krylov step collapsed to {tau:.3e} (< dt/{1 / _TAU_FLOOR:.0f}) "
                f"with {_LANCZOS_MAX} Lanczos vectors",
                step=step,
            )
        left -= tau
    return phi


def evolve_two_flavor(
    phi2: np.ndarray,
    phi3: np.ndarray,
    a: np.ndarray,
    veff2: np.ndarray,
    veff3: np.ndarray,
    rho: np.ndarray,
    u: float,
    dt: float,
    n_steps: int,
    grid: SpectralGrid,
    a_max: float = 1e3,
    callback=None,
    observe=(),
    work: KrylovWork | None = None,
):
    """Propagate both flavors for ``n_steps`` of ``dt``; returns new arrays.

    ``a`` is the common gauge field; flavor 2 sees ``+a``, flavor 3 ``-a``.
    ``callback(step_index, phi2, phi3)``, if given, runs after
    ``step_index + 1`` steps for each count in ``observe``, and after the
    last step.  The propagator advances straight from one such step to the
    next, so fewer observed steps mean fewer, longer Krylov advances.  A
    count outside ``1..n_steps`` raises ``ValueError``.  Pass a
    :class:`KrylovWork` as ``work`` to have the solver work added to it.

    Raises :class:`~vxsim.errors.CoreSingularityError` if ``|A| > a_max``
    anywhere the background or flavor fields are non-negligible, and
    :class:`~vxsim.errors.DivergenceError` if the evolution produces
    non-finite values or a Krylov step collapses below ``dt / 1024``.
    """
    ends = observed_steps(observe, n_steps)
    phi2 = np.array(phi2, dtype=np.complex128)
    phi3 = np.array(phi3, dtype=np.complex128)
    rho = np.asarray(rho, dtype=float)
    for name, arr in (("phi2", phi2), ("phi3", phi3), ("rho", rho),
                      ("veff2", veff2), ("veff3", veff3)):
        if np.asarray(arr).shape != grid.shape:
            raise ValueError(f"{name} must match the grid shape")
        _require_finite(name, np.asarray(arr))

    a = _as_real_vector("a", a, grid)
    _core_guard(a, rho, phi2, a_max)
    _core_guard(a, rho, phi3, a_max)

    mf = u * rho
    op2 = _FlavorOperator(grid, a, np.asarray(veff2, dtype=float) + mf)
    op3 = _FlavorOperator(grid, -a, np.asarray(veff3, dtype=float) + mf)
    if work is None:
        work = KrylovWork()

    done = 0
    for end in ends:
        phi2 = _propagate(op2, phi2, (end - done) * dt, dt, work, end - 1)
        phi3 = _propagate(op3, phi3, (end - done) * dt, dt, work, end - 1)
        done = end
        if not (np.all(np.isfinite(phi2)) and np.all(np.isfinite(phi3))):
            raise DivergenceError("non-finite flavor fields", step=end - 1)
        if callback is not None:
            callback(end - 1, phi2, phi3)
    return phi2, phi3
