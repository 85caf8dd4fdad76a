"""Reduced two-flavor dynamics in the dark-state gauge background.

Each flavor q obeys, with its own real gauge field a_q,

    i d/dt phi = 1/2 (i grad + a_q)^2 phi + Veff phi

expanded for spectral application as

    1/2 (-lap phi + i (div a_q) phi + 2 i a_q . grad phi + |a_q|^2 phi)
        + Veff phi,

with the first-derivative and divergence pieces applied together as the
symmetrized product i/2 (a_q . D + D . a_q), which is Hermitian on the
grid exactly (not just in the continuum).  Every term but the local one
acts along one axis j at a time, so an application takes 1-D transforms
F_j only:

    H phi = (Veff + 1/2 |a_q|^2) phi + sum_j (b0_j + a_qj b1_j),
    b0_j = F_j^-1 (1/2 k_j^2 F_j phi - 1/2 k_j F_j (a_qj phi)),
    b1_j = F_j^-1 (-1/2 k_j F_j phi),

with the Nyquist-zeroed k_j in the first-derivative terms: four one-axis
transform calls per application, a forward and an inverse per axis, each
on the stacked pair of both flavors.

The Hamiltonian does not depend on time (the potentials and the gauge
fields are static), so the propagator only lands where the state is observed:
at the requested step counts and at the last step, not at every ``dt``.
Both flavors are one stacked ``(2, nx, ny)`` field under one operator,
propagated by a Chebyshev expansion of the operator exponential (Tal-Ezer &
Kosloff, J. Chem. Phys. 81 (1984) 3967): two vectors updated in place, the
first of them the buffer of the state it starts from, no
reorthogonalization and no step control.  Its Bessel coefficients come
from Miller's backward recurrence, normalized by the sum rule
J_0 + 2 sum J_2k = 1 (Abramowitz & Stegun 9.1.46, 9.12), so the module
needs numpy alone.  The expansion's vectors do not depend on the time, so
one recurrence serves up to ``_GROUP`` consecutive observed steps, each
summed into its own accumulator; the next group starts from the last state
of the one before.  The expansion needs the spectrum's bounds, found
once per call: the least local potential bounds it below exactly, and a
short Lanczos run plus its residual bounds it above (Zhou & Li, Linear
Algebra Appl. 435 (2011) 480).  The Lanczos start is drawn from the stdlib
generator with a fixed seed, so a run loads no ``numpy.random`` either.
Both three-term recurrences take one operator application,
``out <- H phi - out``, as their step; it works in two states of its own
and builds its local potential in the buffer of ``veff``.  Per-flavor
norms are conserved to machine precision; a norm that moves by more than
``_NORM_TOL`` means the upper bound was too low.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

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
# Beside the accumulators, a recurrence holds a fixed four states whatever
# the group size: its two vectors, the first of them the buffer of the
# state it starts from, and the operator's two work states, the first of
# which also holds the accumulation product between calls.
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


def _as_field(name: str, arr, lead: tuple, grid: SpectralGrid, dtype=float) -> np.ndarray:
    """``arr`` as a finite ``dtype`` array of shape ``lead + grid.shape``,
    copied only if it is not one already; a real ``dtype`` rejects complex
    input, even with a zero imaginary part."""
    arr = np.asarray(arr)
    if dtype is float and np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real")
    arr = arr.astype(dtype, copy=False)
    if arr.shape != lead + grid.shape:
        raise ValueError(f"{name} must have shape ({''.join(f'{n}, ' for n in lead)}nx, ny)")
    _require_finite(name, arr)
    return arr


def _core_guard(aq: np.ndarray, rho: np.ndarray, phi: np.ndarray):
    """Points with |A| > ``_A_MAX`` must be void: both the background and the
    flavor field at most 1e-10 of their peaks there, else the core is
    unresolved; a field that is zero everywhere is void everywhere."""
    mag = np.sqrt(aq[0] ** 2 + aq[1] ** 2)
    hot = mag > _A_MAX
    if not hot.any():
        return
    rho_ok = rho[hot] <= 1e-10 * float(rho.max())
    phi_ok = np.abs(phi[hot]) <= 1e-10 * float(np.abs(phi).max())
    bad = ~(rho_ok & phi_ok)
    if bad.any():
        i, j = np.argwhere(hot)[np.argmax(bad)]
        raise CoreSingularityError(
            f"|A| = {mag[i, j]:.3e} > {_A_MAX:.1e} at grid point ({i}, {j}) "
            "where the fields do not vanish; refine the grid or mask the core"
        )


class _FlavorOperator:
    """Matvec of the expanded minimal-coupling Hamiltonian of both flavors,
    stacked on the first axis, each with its own gauge field in ``aq`` and
    its own potential in ``veff``.

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
    transform serves the stacked pair ``[f0, f1] = F_j [phi, a_j phi]`` and
    one inverse the pair ``[b1_j, b0_j]``: four one-axis calls per
    application.  The pair is finished in place.  Away from the Nyquist line
    k_j^2 = k_j,grad^2, so ``f0 <- -k_j,grad f0`` and
    ``f1 <- (f1 + f0) (-1/2 s k_j,grad)`` give b0_j's transform and
    ``f0 <- 1/2 s f0`` b1_j's, where ``s`` is the factor of :meth:`rescale`
    (1 before it); on the Nyquist line b0_j's transform is
    1/2 s k_nyq^2 times the saved line of ``f0``.  A call ``op(phi, out)``
    sets ``out <- H phi - out``, the step of both three-term recurrences, in
    place in the operator's two work states and in ``out`` (not ``phi``
    itself), with no field-sized temporaries.  The first work state,
    ``product``, is free between calls.

    ``local`` is built in the buffer of ``veff``, which is overwritten.
    ``lo`` is the least potential, ``min(veff)``; :meth:`rescale`
    then turns the multipliers into those of 2 (H - mid) / half once, for
    the Chebyshev recurrence.
    """

    def __init__(self, grid: SpectralGrid, aq: np.ndarray, veff: np.ndarray):
        # per axis: (transform axis, a_j, k_j,grad, Nyquist line, k_nyq^2,
        # the line's save buffer), the wavenumbers shaped to broadcast along
        # that axis
        lead = veff.shape[:1]
        self._axes = (
            (-2, aq[:, 0], grid.kx_grad[:, None], (Ellipsis, grid.nx // 2, slice(None)),
             grid.kx[grid.nx // 2] ** 2, np.empty(lead + (grid.ny,), dtype=np.complex128)),
            (-1, aq[:, 1], grid.ky_grad, (Ellipsis, grid.ny // 2),
             grid.ky[grid.ny // 2] ** 2, np.empty(lead + (grid.nx,), dtype=np.complex128)),
        )
        self.local = veff
        self.lo = float(self.local.min())
        self.local += 0.5 * (aq[:, 0] ** 2 + aq[:, 1] ** 2)
        self._work = np.empty((2,) + veff.shape, dtype=np.complex128)
        self.product = self._work[0]
        self._scale(1.0)

    def _scale(self, s: float):
        """Multipliers of ``s`` times the kinetic and gauge part."""
        self._half_s = 0.5 * s
        self.axes = tuple(
            (axis, a, -k_grad, -self._half_s * k_grad, nyq, self._half_s * k_nyq2, line)
            for axis, a, k_grad, nyq, k_nyq2, line in self._axes
        )

    def rescale(self, mid: float, half: float):
        """Apply 2 (H - mid) / half from now on instead of ``H``."""
        scale = 2.0 / half
        self.local -= mid
        self.local *= scale
        self._scale(scale)

    def __call__(self, phi: np.ndarray, out: np.ndarray):
        """``out <- H phi - out``; ``phi`` is not written."""
        w = self._work
        np.multiply(self.local, phi, out=w[0])
        np.subtract(w[0], out, out=out)
        for axis, a, minus_k, minus_half_sk, nyq, half_s_k_nyq2, line in self.axes:
            np.copyto(w[0], phi)
            np.multiply(a, phi, out=w[1])
            f = fft2(w, overwrite_x=True, axes=(axis,))
            # f <- [-1/2 s k f0, 1/2 s (k^2 f0 - k f1)], the transforms of b1, b0
            f0, f1 = f
            np.copyto(line, f0[nyq])
            f0 *= minus_k
            f1 += f0
            f1 *= minus_half_sk
            np.multiply(half_s_k_nyq2, line, out=f1[nyq])
            f0 *= self._half_s
            b1, b0 = ifft2(f, overwrite_x=True, axes=(axis,))
            np.multiply(a, b1, out=b1)
            out += b0
            out += b1


def eigh_tridiagonal(d, e):
    """Eigenvalues (ascending) and eigenvectors of the symmetric tridiagonal
    matrix with diagonal ``d`` and off-diagonal ``e``, by a dense ``eigh``."""
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.linalg.eigh(t)


def _spectral_bounds(op: _FlavorOperator, work: KrylovWork):
    """``(lo, hi)`` enclosing the spectrum of ``op``.

    ``lo = op.lo`` is exact: the kinetic and gauge part is
    1/2 (P - a)^H (P - a) + 1/2 (k^2 - k_grad^2) >= 0 on the grid.  ``hi`` is
    the top Ritz value of ``_BOUND_STEPS`` Lanczos steps (two vectors, no
    reorthogonalization) from a fixed pseudo-random start, plus the residual
    norm of its Ritz pair.  The start's real and imaginary parts are uniform
    in [-1/2, 1/2), drawn from the stdlib ``random.Random(0)``, which numpy
    imports anyway, so a run loads no ``numpy.random``.  The Ritz pair comes
    from a dense numpy ``eigh`` of the ``_BOUND_STEPS`` x ``_BOUND_STEPS``
    tridiagonal Lanczos matrix.
    """
    v = np.empty(op.local.shape, dtype=np.complex128)
    rng = random.Random(0)
    # 53 random bits per part, one row of the interleaved float view at a
    # time, so the draw makes no state-sized temporary
    for row in v.view(np.float64).reshape(-1, 2 * v.shape[-1]):
        bits = np.frombuffer(rng.randbytes(8 * row.size), dtype="<u8") >> 11
        np.multiply(bits, 2.0**-53, out=row)
        row -= 0.5
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    prod = op.product
    alphas, betas = [], []
    beta = 0.0
    for _ in range(_BOUND_STEPS):
        # v_prev <- H v - beta v_prev - alpha v, the next Lanczos vector
        v_prev *= beta
        op(v, out=v_prev)
        alpha = float(np.vdot(v, v_prev).real)
        np.multiply(alpha, v, out=prod)
        v_prev -= prod
        alphas.append(alpha)
        beta = float(np.linalg.norm(v_prev))
        betas.append(beta)
        v_prev /= beta
        v_prev, v = v, v_prev
    work.matvecs += _BOUND_STEPS
    theta, s = eigh_tridiagonal(alphas, betas[:-1])
    return op.lo, float(theta[-1] + abs(betas[-1] * s[-1, -1]))


def _flavor_norms(phi: np.ndarray) -> np.ndarray:
    """L2 norm of each flavor; unlike ``norm(phi, axis=(1, 2))`` it makes no
    whole-field temporaries."""
    return np.array([np.linalg.norm(p) for p in phi])


def _bessel_j(n: int, z: float) -> np.ndarray:
    """``J_0(z), ..., J_(n-1)(z)`` by Miller's backward recurrence
    (Abramowitz & Stegun 9.1.27, 9.12).

    ``J_(k-1) = (2k/z) J_k - J_(k+1)`` runs down from ``J_(n+20) = 1``,
    ``J_(n+21) = 0``; downward it is stable, so the trial values are
    proportional to the Bessel functions up to an error that the start's
    distance past the last order makes negligible.  The sum rule
    ``J_0 + 2 (J_2 + J_4 + ...) = 1`` (9.1.46) normalizes them.  Whenever a
    value passes 1e200 every value so far is scaled by 1e-200, so nothing
    overflows (the highest orders underflow to 0 instead).  ``z = 0`` gives
    ``J_0 = 1`` and zeros exactly.
    """
    j = np.zeros(n)
    if z == 0.0:
        j[0] = 1.0
        return j
    later, cur, total = 0.0, 1.0, 0.0  # J_(k+1), J_k and the sum rule's part
    for k in range(n + 20, -1, -1):
        if abs(cur) > 1e200:
            later, cur, total = later * 1e-200, cur * 1e-200, total * 1e-200
            j[k + 1:] *= 1e-200
        if k < n:
            j[k] = cur
        if k % 2 == 0:
            total += cur if k == 0 else 2.0 * cur
        later, cur = cur, 2.0 * k / z * cur - later
    j /= total
    return j


def _bessel_table(z: np.ndarray) -> np.ndarray:
    """``J_k(z_i)`` for each of the increasing arguments ``z``, one row each,
    for ``k`` from 0 to past the last order whose factor is above 1e-16 at
    ``z[-1]``: that order lies near ``z + 12 z^(1/3)``, and the length
    ``z + 20 z^(1/3) + 40`` covers it."""
    n = int(z[-1] + 20.0 * z[-1] ** (1.0 / 3.0)) + 40
    return np.array([_bessel_j(n, float(zi)) for zi in z])


def _chebyshev_advance(op, phi: np.ndarray, times, mid: float, half: float,
                       work: KrylovWork):
    """Yield ``exp(-i t H) phi`` for each of the increasing ``times``, in
    order, for ``H = mid + half * X`` with spectrum in ``mid -+ half``;
    ``op`` applies ``Y = 2 X`` (:meth:`_FlavorOperator.rescale`).

    The expansion is
    ``exp(-i mid t) sum_k (2 - [k = 0]) (-i)^k J_k(half t) T_k(X)``, with
    the Bessel factors from Miller's backward recurrence (:func:`_bessel_j`);
    they fall off faster than exponentially once ``k > half t``, and a
    time's sum stops where they drop below 1e-16.  The vectors
    ``T_k(X) phi`` do not depend on ``t``, so one three-term recurrence
    serves every time (Kosloff, Annu. Rev. Phys. Chem. 45 (1994) 145), each
    with its own accumulator.  A step ``T_(k+1) = Y T_k - T_(k-1)`` is one
    call of ``op``, written over ``T_(k-1)``: two vectors, ``phi`` itself as
    ``T_0`` and one allocated per call, and ``op.product`` for the
    accumulation.  ``phi`` is thus overwritten.  A time's state is yielded
    as soon as its sum is complete, while the recurrence runs on for the
    later times; it is not touched after that.
    """
    coef = _bessel_table(half * np.asarray(times, dtype=float))
    k = np.arange(coef.shape[1])
    above = np.abs(coef) >= 1e-16
    # terms per time: a later time never needs fewer than an earlier one
    n_terms = np.maximum.accumulate([max(2, int(np.nonzero(row)[0][-1]) + 1) for row in above])
    coef = 2.0 * (-1j) ** k * coef
    coef[:, 0] *= 0.5

    prev, cur = phi, np.zeros_like(phi)
    prod = op.product
    work.krylov_steps += 1
    work.matvecs += 1
    op(prev, out=cur)
    cur *= 0.5  # T_1 = X phi
    outs = []
    for c in coef:
        out = c[0] * prev
        np.multiply(c[1], cur, out=prod)
        out += prod
        outs.append(out)
    n = 2  # terms summed so far
    for j, end in enumerate(n_terms):
        while n < end:
            work.matvecs += 1
            op(cur, out=prev)
            prev, cur = cur, prev
            for out, c in zip(outs[j:], coef[j:]):
                np.multiply(c[n], cur, out=prod)
                out += prod
            n += 1
        outs[j] *= np.exp(-1j * mid * times[j])
        yield outs[j]


def evolve_two_flavor(
    phi: np.ndarray,
    a: np.ndarray,
    veff: np.ndarray,
    rho: np.ndarray,
    dt: float,
    n_steps: int,
    grid: SpectralGrid,
    callback=None,
    observe=(),
    work: KrylovWork | None = None,
):
    """Propagate both flavors, stacked in ``phi`` (2, nx, ny), for
    ``n_steps`` of ``dt``; returns the stacked state of the last step.
    The propagation works in the buffers it is handed: a complex128 ``phi``
    is the first recurrence vector and a float ``veff`` holds the operator's
    local potential, so both are overwritten (other dtypes are converted to
    copies first).

    ``a`` stacks the real gauge fields of the two flavors, shape
    (2, 2, nx, ny), and ``veff`` their real potentials, shape (2, nx, ny):
    flavor 2 (``phi[0]``) sees ``a[0]`` and ``veff[0]``, flavor 3 ``a[1]``
    and ``veff[1]``.  The real background ``rho`` (nx, ny) enters only the
    core guard.  A complex ``a``, ``veff`` or ``rho`` raises ``ValueError``,
    even with a zero imaginary part.
    ``callback(step_index, phi)``, if given, runs with the stacked state
    after ``step_index + 1`` steps for each count in ``observe``, and after
    the last step.  The propagator lands only on those steps: one Chebyshev
    recurrence from the last state of the group before yields the states of
    up to ``_GROUP`` of them in order, and each is checked and handed to the
    callback as soon as its sum is complete.  The last state of a group is
    the first recurrence vector of the next, so a state handed to the
    callback holds its values only until the callback returns.  A count
    outside ``1..n_steps`` raises ``ValueError``.  Pass a :class:`KrylovWork` as
    ``work`` to have the solver work added to it.

    Raises :class:`~vxsim.errors.CoreSingularityError` if a flavor's
    ``|a_q| > _A_MAX`` anywhere the background or that flavor's field is
    non-negligible, and
    :class:`~vxsim.errors.DivergenceError` if the evolution produces
    non-finite values or an observed state's flavor norm has moved by more
    than ``_NORM_TOL`` (the spectral bound was too low).
    """
    ends = observed_steps(observe, n_steps)
    phi = _as_field("phi", phi, (2,), grid, np.complex128)
    rho = _as_field("rho", rho, (), grid)
    veff = _as_field("veff", veff, (2,), grid)
    a = _as_field("a", a, (2, 2), grid)
    for q in range(2):
        _core_guard(a[q], rho, phi[q])

    op = _FlavorOperator(grid, a, veff)
    if work is None:
        work = KrylovWork()
    lo, hi = _spectral_bounds(op, work)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    op.rescale(mid, half)

    norms = _flavor_norms(phi)
    scale = np.where(norms > 0.0, norms, 1.0)
    done = 0
    for first in range(0, len(ends), _GROUP):
        group = ends[first:first + _GROUP]
        times = [(end - done) * dt for end in group]
        for end, phi in zip(group, _chebyshev_advance(op, phi, times, mid, half, work)):
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
                callback(end - 1, phi)
        done = group[-1]
    return phi
