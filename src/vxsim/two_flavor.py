"""Reduced two-flavor dynamics in the dark-state gauge background.

Each flavor q obeys, with its own real gauge field a_q,

    i d/dt phi = 1/2 (i grad + a_q)^2 phi + Veff phi + U rho phi

expanded for spectral application as

    1/2 (-lap phi + i (div a_q) phi + 2 i a_q . grad phi + |a_q|^2 phi)
        + (Veff + U rho) phi,

with the first-derivative and divergence pieces applied together as the
symmetrized product i/2 (a_q . D + D . a_q), which is Hermitian on the
grid exactly (not just in the continuum).  Every term but the local one
acts along one axis j at a time, so an application takes 1-D transforms
F_j only:

    H phi = (Veff + U rho + 1/2 |a_q|^2) phi + sum_j (b0_j + a_qj b1_j),
    b0_j = F_j^-1 (1/2 k_j^2 F_j phi - 1/2 k_j F_j (a_qj phi)),
    b1_j = F_j^-1 (-1/2 k_j F_j phi),

with the Nyquist-zeroed k_j in the first-derivative terms: four one-axis
transform calls per application, a forward and an inverse per axis, each
on the stacked pair of both flavors.

The Hamiltonian does not depend on time (``rho`` is frozen and the gauge
fields are static), so the propagator only lands where the state is observed:
at the requested step counts and at the last step, not at every ``dt``.
Both flavors are one stacked ``(2, nx, ny)`` field under one operator,
propagated by a Chebyshev expansion of the operator exponential (Tal-Ezer &
Kosloff, J. Chem. Phys. 81 (1984) 3967): three vectors, no
reorthogonalization and no step control.  Its vectors do not depend on the
time, so one recurrence serves up to ``_GROUP`` consecutive observed steps,
each summed into its own accumulator; the next group starts from the last
state of the one before.  The expansion needs the spectrum's bounds, found
once per call: the least local potential bounds it below exactly, and a
short Lanczos run plus its residual bounds it above (Zhou & Li, Linear
Algebra Appl. 435 (2011) 480).  Per-flavor norms are conserved to machine
precision; a norm that moves by more than ``_NORM_TOL`` means the upper
bound was too low.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from ._fft import fft2, ifft2
from .errors import CoreSingularityError, DivergenceError
from .evolution import observed_steps
from .grid import SpectralGrid

__all__ = ["KrylovWork", "evolve_two_flavor"]

# Lanczos steps of the upper spectral bound, one operator application each.
_BOUND_STEPS = 20
# Largest relative change of a flavor's norm from its initial value.
_NORM_TOL = 1e-10
# Gauge-field magnitude above which the background and the flavor fields
# must vanish (the core guard).
_A_MAX = 1e3
# Observed steps one Chebyshev recurrence serves.  Each holds one whole
# state as its accumulator until the recurrence ends, so this caps the
# memory: 25 observed stretches at 64^2 take 720 matvecs one at a time, 396
# in groups of 4 and 239 in one group, whose 25 accumulators add 3.2 MB.
# Beside the accumulators, a recurrence holds a fixed seven states whatever
# the group size: its three vectors and product temp, and the operator's
# three work arrays.
_GROUP = 4


@dataclass
class KrylovWork:
    """Solver work of the reduced propagator: Chebyshev recurrences (one per
    group of up to ``_GROUP`` observed steps) and applications of the
    stacked two-flavor operator, the bound estimate's included."""

    krylov_steps: int = 0
    matvecs: int = 0


def _require_finite(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise ValueError(
            f"{name} contains non-finite values; fill masked gauge outputs "
            "(gauge.fill_masked) before evolving"
        )


def _as_real_vectors(name: str, a, grid: SpectralGrid) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real vector fields")
    a = a.astype(float, copy=False)
    if a.shape != (2, 2) + grid.shape:
        raise ValueError(f"{name} must have shape (2, 2, nx, ny)")
    _require_finite(name, a)
    return a


def _core_guard(aq: np.ndarray, rho: np.ndarray, phi: np.ndarray):
    """Points with |A| > ``_A_MAX`` must be void: both the background and the
    flavor field below 1e-10 of their peaks there, else the core is unresolved."""
    mag = np.sqrt(aq[0] ** 2 + aq[1] ** 2)
    hot = mag > _A_MAX
    if not hot.any():
        return
    rho_ok = rho[hot] < 1e-10 * float(rho.max())
    phi_ok = np.abs(phi[hot]) < 1e-10 * float(np.abs(phi).max())
    bad = ~(rho_ok & phi_ok)
    if bad.any():
        i, j = np.argwhere(hot)[np.argmax(bad)]
        raise CoreSingularityError(
            f"|A| = {mag[i, j]:.3e} > {_A_MAX:.1e} at grid point ({i}, {j}) "
            "where the fields do not vanish; refine the grid or mask the core"
        )


class _FlavorOperator:
    """Matvec of the expanded minimal-coupling Hamiltonian of both flavors,
    stacked on the first axis, each with its own gauge field in ``aq``.

    The cross term is applied in the symmetrized form i/2 (a.D + D.a): the
    spectral derivative D is exactly anti-self-adjoint and a is a real
    multiplier, so this combination is Hermitian on the grid even where
    pointwise products alias; the naive a.D + (div a)/2 form is not, and the
    expansion would amplify the defect.  In the continuum the two agree.

    A multiplier of k_j alone commutes with the transform along the other
    axis, so each axis j is applied with 1-D transforms F_j along it only:

        H phi = local phi + sum_j (b0_j + a_j b1_j),
        b0_j = F_j^-1 (1/2 k_j^2 F_j phi - 1/2 k_j,grad F_j (a_j phi)),
        b1_j = F_j^-1 (-1/2 k_j,grad F_j phi),

    with ``local`` holding the potential and 1/2 |a|^2.  Per axis one forward
    transform serves the stacked pair ``[phi, a_j phi]`` and one inverse the
    pair ``[b0_j, b1_j]``: four one-axis calls per application.  A call works
    in place in the operator's three work states and in ``out``; given
    ``out`` (not ``phi`` itself), it makes no field-sized temporaries.
    """

    def __init__(self, grid: SpectralGrid, aq: np.ndarray, local: np.ndarray):
        # per axis: (transform axis, a_j, 1/2 k_j^2, -1/2 k_j,grad), the
        # wavenumbers shaped to broadcast along that axis
        self.axes = (
            (-2, aq[:, 0], 0.5 * grid.kx[:, None] ** 2, -0.5 * grid.kx_grad[:, None]),
            (-1, aq[:, 1], 0.5 * grid.ky**2, -0.5 * grid.ky_grad),
        )
        self.local = local + 0.5 * (aq[:, 0] ** 2 + aq[:, 1] ** 2)
        self._work = np.empty((3,) + local.shape, dtype=np.complex128)

    def __call__(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``H phi`` into ``out`` (a new array if None); ``phi`` is not written."""
        if out is None:
            out = np.empty(phi.shape, dtype=np.complex128)
        w = self._work
        np.multiply(self.local, phi, out=out)
        for axis, a, half_k2, minus_half_k in self.axes:
            np.copyto(w[0], phi)
            np.multiply(a, phi, out=w[1])
            f = fft2(w[:2], overwrite_x=True, axes=(axis,))
            # f <- [1/2 k^2 f0 - 1/2 k f1, -1/2 k f0]; w[2] holds -1/2 k f1
            np.multiply(minus_half_k, f[1], out=w[2])
            np.multiply(minus_half_k, f[0], out=f[1])
            np.multiply(half_k2, f[0], out=f[0])
            f[0] += w[2]
            b = ifft2(f, overwrite_x=True, axes=(axis,))
            np.multiply(a, b[1], out=b[1])
            out += b[0]
            out += b[1]
        return out


def eigh_tridiagonal(d, e):
    """Eigenvalues (ascending) and eigenvectors of the symmetric tridiagonal
    matrix with diagonal ``d`` and off-diagonal ``e``, by a dense ``eigh``."""
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.linalg.eigh(t)


def _spectral_bounds(op: _FlavorOperator, local: np.ndarray, work: KrylovWork):
    """``(lo, hi)`` enclosing the spectrum of ``op``.

    ``lo = min(local)`` is exact: the kinetic and gauge part is
    1/2 (P - a)^H (P - a) + 1/2 (k^2 - k_grad^2) >= 0 on the grid.  ``hi`` is
    the top Ritz value of ``_BOUND_STEPS`` Lanczos steps (three vectors, no
    reorthogonalization) from a fixed random start, plus the residual norm
    of its Ritz pair.  The Ritz pair comes from a dense numpy ``eigh`` of the
    ``_BOUND_STEPS`` x ``_BOUND_STEPS`` tridiagonal Lanczos matrix.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(local.shape) + 1j * rng.standard_normal(local.shape)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    w, t = np.empty((2,) + v.shape, dtype=np.complex128)
    alphas, betas = [], []
    beta = 0.0
    for _ in range(_BOUND_STEPS):
        op(v, out=w)
        alpha = float(np.vdot(v, w).real)
        # w -= alpha * v + beta * v_prev, and v_prev is free after it
        np.multiply(alpha, v, out=t)
        np.multiply(beta, v_prev, out=v_prev)
        t += v_prev
        w -= t
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        np.divide(w, beta, out=v_prev)
        v_prev, v = v, v_prev
    work.matvecs += _BOUND_STEPS
    theta, s = eigh_tridiagonal(alphas, betas[:-1])
    return float(local.min()), float(theta[-1] + abs(betas[-1] * s[-1, -1]))


def _flavor_norms(phi: np.ndarray) -> np.ndarray:
    """L2 norm of each flavor; unlike ``norm(phi, axis=(1, 2))`` it makes no
    whole-field temporaries."""
    return np.array([np.linalg.norm(p) for p in phi])


def _chebyshev_advance(op, phi: np.ndarray, times, lo: float, hi: float,
                       work: KrylovWork):
    """Yield ``exp(-i t H) phi`` for each of the increasing ``times``, in
    order, for ``H`` with spectrum in ``[lo, hi]``.

    With ``H = mid + half * X`` the expansion is
    ``exp(-i mid t) sum_k (2 - [k = 0]) (-i)^k J_k(half t) T_k(X)``; the
    Bessel factors fall off faster than exponentially once ``k > half t``,
    and a time's sum stops where they drop below 1e-16.  The vectors
    ``T_k(X) phi`` do not depend on ``t``, so one three-term recurrence
    serves every time (Kosloff, Annu. Rev. Phys. Chem. 45 (1994) 145), each
    with its own accumulator.  A time's state is yielded as soon as its sum
    is complete, while the recurrence runs on for the later times; it is
    not touched after that, and neither is ``phi``.  The recurrence rotates
    three vectors and one product temp, allocated once per call.
    """
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    z = half * np.asarray(times, dtype=float)
    # the last term above 1e-16 lies near z + 12 z^(1/3); this length covers it
    k = np.arange(int(z[-1] + 20.0 * z[-1] ** (1.0 / 3.0)) + 40)
    coef = jv(k, z[:, None])
    above = np.abs(coef) >= 1e-16
    # terms per time: a later time never needs fewer than an earlier one
    n_terms = np.maximum.accumulate([max(2, int(np.nonzero(row)[0][-1]) + 1) for row in above])
    coef = 2.0 * (-1j) ** k * coef
    coef[:, 0] *= 0.5

    prev, cur, nxt, prod = np.empty((4,) + phi.shape, dtype=np.complex128)

    def x(v, out):  # (H - mid) / half
        work.matvecs += 1
        op(v, out=prod)
        np.multiply(mid, v, out=out)
        np.subtract(prod, out, out=out)
        out /= half

    work.krylov_steps += 1
    np.copyto(prev, phi)
    x(prev, cur)
    outs = []
    for c in coef:
        out = c[0] * prev
        np.multiply(c[1], cur, out=prod)
        out += prod
        outs.append(out)
    n = 2  # terms summed so far
    for j, end in enumerate(n_terms):
        while n < end:
            # nxt <- 2 X cur - prev
            x(cur, nxt)
            np.multiply(2.0, nxt, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            for out, c in zip(outs[j:], coef[j:]):
                np.multiply(c[n], cur, out=prod)
                out += prod
            n += 1
        outs[j] *= np.exp(-1j * mid * times[j])
        yield outs[j]


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
    callback=None,
    observe=(),
    work: KrylovWork | None = None,
):
    """Propagate both flavors for ``n_steps`` of ``dt``; returns new arrays.

    ``a`` stacks the real gauge fields of the two flavors, shape
    (2, 2, nx, ny): flavor 2 sees ``a[0]``, flavor 3 ``a[1]``; a complex
    ``a`` raises ``ValueError``.
    ``callback(step_index, phi2, phi3)``, if given, runs after
    ``step_index + 1`` steps for each count in ``observe``, and after the
    last step.  The propagator lands only on those steps: one Chebyshev
    recurrence from the last state of the group before yields the states of
    up to ``_GROUP`` of them in order, and each is checked and handed to the
    callback as soon as its sum is complete.  A count outside
    ``1..n_steps`` raises ``ValueError``.  Pass a :class:`KrylovWork` as
    ``work`` to have the solver work added to it.

    Raises :class:`~vxsim.errors.CoreSingularityError` if a flavor's
    ``|a_q| > _A_MAX`` anywhere the background or that flavor's field is
    non-negligible, and
    :class:`~vxsim.errors.DivergenceError` if the evolution produces
    non-finite values or an observed state's flavor norm has moved by more
    than ``_NORM_TOL`` (the spectral bound was too low).
    """
    ends = observed_steps(observe, n_steps)
    phi2 = np.asarray(phi2, dtype=np.complex128)
    phi3 = np.asarray(phi3, dtype=np.complex128)
    rho = np.asarray(rho, dtype=float)
    for name, arr in (("phi2", phi2), ("phi3", phi3), ("rho", rho),
                      ("veff2", veff2), ("veff3", veff3)):
        if np.asarray(arr).shape != grid.shape:
            raise ValueError(f"{name} must match the grid shape")
        _require_finite(name, np.asarray(arr))

    a = _as_real_vectors("a", a, grid)
    _core_guard(a[0], rho, phi2)
    _core_guard(a[1], rho, phi3)

    mf = u * rho
    local = np.stack([np.asarray(veff2, dtype=float) + mf, np.asarray(veff3, dtype=float) + mf])
    op = _FlavorOperator(grid, a, local)
    if work is None:
        work = KrylovWork()
    lo, hi = _spectral_bounds(op, local, work)

    phi = np.stack([phi2, phi3])
    norms = _flavor_norms(phi)
    scale = np.where(norms > 0.0, norms, 1.0)
    done = 0
    for first in range(0, len(ends), _GROUP):
        group = ends[first:first + _GROUP]
        times = [(end - done) * dt for end in group]
        for end, phi in zip(group, _chebyshev_advance(op, phi, times, lo, hi, work)):
            if not np.all(np.isfinite(phi)):
                raise DivergenceError("non-finite flavor fields", step=end - 1)
            drift = float(np.max(np.abs(_flavor_norms(phi) - norms) / scale))
            if drift > _NORM_TOL:
                raise DivergenceError(
                    f"flavor norm moved by {drift:.3e}; the "
                    f"spectral bound {hi:.6g} is below the top of the spectrum",
                    step=end - 1,
                )
            if callback is not None:
                callback(end - 1, phi[0], phi[1])
        done = group[-1]
    return phi[0], phi[1]
