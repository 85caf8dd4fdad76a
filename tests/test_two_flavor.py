import tracemalloc

import numpy as np
import pytest
from scipy.special import jv

from vxsim import two_flavor
from vxsim._fft import fft2, ifft2
from vxsim.errors import CoreSingularityError, DivergenceError
from vxsim.gauge import vortex_gauge_field
from vxsim.grid import Field, make_grid
from vxsim.diagnostics import LoopSpec, winding
from vxsim.two_flavor import KrylovWork, evolve_two_flavor


@pytest.fixture(scope="module")
def grid32():
    return make_grid(32, 32, 16.0, 16.0)


@pytest.fixture(scope="module")
def vortex_background(grid64):
    """Charge +1 ring seed, its gauge field, and smooth background fields."""
    f = (grid64.r_map / 1.5) * np.exp(-((grid64.r_map / 1.5) ** 2))
    seed = f * np.exp(1j * grid64.phi_map)
    veff = 0.3 * np.exp(-grid64.r_map**2 / 8.0)
    rho = np.exp(-grid64.r_map**2 / 18.0)
    return seed, vortex_gauge_field(grid64, 1), veff, rho


def zeros2(grid):
    return np.zeros((2,) + grid.shape)


def kspace_propagator(grid, a0, t, sign):
    # same derivative convention as the operator: full k^2 for the
    # Laplacian, Nyquist-zeroed kx for the first derivative
    h = 0.5 * grid.k2 + sign * a0 * grid.kx_grad[:, None] + 0.5 * a0**2
    return np.exp(-1j * t * h)


def test_free_evolution_matches_spectral(grid64):
    psi0 = np.exp(-(grid64.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    z = np.zeros(grid64.shape)
    p2, p3 = evolve_two_flavor(psi0, psi0, zeros2(grid64), z, z, z, 0.0, 0.0125, 20, grid64)
    exact = ifft2(np.exp(-0.5j * 0.25 * grid64.k2) * fft2(psi0))
    assert np.abs(p2 - exact).max() < 1e-12
    assert np.abs(p3 - exact).max() < 1e-12


def test_constant_gauge_field_exact(grid64):
    """A uniform A = (a0, 0) only shifts the kinetic parabola: flavor 2 sees
    (kx - a0)^2 and flavor 3 (kx + a0)^2, both diagonal in k space."""
    psi0 = np.exp(-(grid64.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    z = np.zeros(grid64.shape)
    a0 = 0.7
    a = np.stack([a0 * np.ones(grid64.shape), np.zeros(grid64.shape)])
    p2, p3 = evolve_two_flavor(psi0, psi0, a, z, z, z, 0.0, 0.0125, 20, grid64)
    spec = fft2(psi0)
    ex2 = ifft2(kspace_propagator(grid64, a0, 0.25, -1) * spec)
    ex3 = ifft2(kspace_propagator(grid64, a0, 0.25, +1) * spec)
    assert np.abs(p2 - ex2).max() < 1e-12
    assert np.abs(p3 - ex3).max() < 1e-12


def test_time_reversal_pairing(grid64, vortex_background):
    """H(-A) = conj(H(+A)) holds exactly on the grid, so conjugating a
    forward-evolved flavor-2 state and running it as flavor 3 (which sees
    -A) rewinds it to the conjugate initial state."""
    seed, vg, veff, rho = vortex_background
    none = np.zeros_like(seed)
    fwd, _ = evolve_two_flavor(seed, none, vg, veff, veff, rho, 0.5, 0.01, 30, grid64)
    _, back = evolve_two_flavor(none, np.conj(fwd), vg, veff, veff, rho, 0.5, 0.01, 30, grid64)
    assert np.abs(back - np.conj(seed)).max() < 1e-12


def test_winding_preserved(grid64, vortex_background):
    seed, vg, _, _ = vortex_background
    z = np.zeros(grid64.shape)
    p2, p3 = evolve_two_flavor(seed, np.conj(seed), vg, z, z, z, 0.0, 0.01, 50, grid64)
    loop = LoopSpec(center=(0.0, 0.0), radius=2.0)
    assert winding(Field(grid64, p2), loop).value == 1
    assert winding(Field(grid64, p3), loop).value == -1


def test_norm_conserved(grid64, vortex_background):
    seed, vg, veff, rho = vortex_background
    n0 = np.linalg.norm(seed)
    p2, p3 = evolve_two_flavor(seed, np.conj(seed), vg, veff, veff, rho, 0.5, 0.01, 100, grid64)
    assert abs(np.linalg.norm(p2) - n0) / n0 < 1e-12
    assert abs(np.linalg.norm(p3) - n0) / n0 < 1e-12


def test_big_step_subdivides_not_degrades(grid32):
    # one step far beyond dt's scale is one long expansion that still
    # converges, not a silently truncated one
    psi0 = np.exp(-(grid32.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    z = np.zeros(grid32.shape)
    a0 = 0.7
    a = np.stack([a0 * np.ones(grid32.shape), np.zeros(grid32.shape)])
    p2, _ = evolve_two_flavor(psi0, psi0, a, z, z, z, 0.0, 2.0, 1, grid32)
    ex = ifft2(kspace_propagator(grid32, a0, 2.0, -1) * fft2(psi0))
    assert np.abs(p2 - ex).max() < 1e-12


def test_zero_field_stays_zero(grid32):
    z = np.zeros(grid32.shape)
    zero = np.zeros(grid32.shape, dtype=complex)
    p2, p3 = evolve_two_flavor(zero, zero, zeros2(grid32), z, z, z, 1.0, 0.1, 3, grid32)
    assert not p2.any() and not p3.any()


def test_core_guard_raises_on_live_fields(grid32):
    z = np.zeros(grid32.shape)
    ones = np.ones(grid32.shape, dtype=complex)
    hot = np.stack([1e4 * np.ones(grid32.shape), z])
    with pytest.raises(CoreSingularityError, match="refine the grid"):
        evolve_two_flavor(ones, ones, hot, z, z, np.ones(grid32.shape), 0.0, 0.01, 1, grid32)


def test_core_guard_allows_void_core(grid64, vortex_background, monkeypatch):
    # |A| exceeds the bound next to the axis, but both the background and
    # the flavor fields are exactly zero there
    monkeypatch.setattr(two_flavor, "_A_MAX", 3.9)
    seed, vg, _, rho = vortex_background
    void = grid64.r_map < 0.5
    seed = np.where(void, 0.0, seed)
    rho = np.where(void, 0.0, rho)
    z = np.zeros(grid64.shape)
    evolve_two_flavor(seed, np.conj(seed), vg, z, z, rho, 0.3, 0.01, 2, grid64)


def test_nan_inputs_rejected(grid32):
    z = np.zeros(grid32.shape)
    psi = np.ones(grid32.shape, dtype=complex)
    vbad = z.copy()
    vbad[3, 3] = np.nan
    with pytest.raises(ValueError, match="fill_masked"):
        evolve_two_flavor(psi, psi, zeros2(grid32), vbad, z, z, 0.0, 0.01, 1, grid32)


def test_argument_validation(grid32):
    z = np.zeros(grid32.shape)
    psi = np.ones(grid32.shape, dtype=complex)
    with pytest.raises(ValueError, match="grid shape"):
        evolve_two_flavor(psi[:4], psi, zeros2(grid32), z, z, z, 0.0, 0.01, 1, grid32)
    with pytest.raises(ValueError, match=r"\(2, nx, ny\)"):
        evolve_two_flavor(psi, psi, z, z, z, z, 0.0, 0.01, 1, grid32)
    # complex gauge fields are rejected even with a zero imaginary part
    for a in (zeros2(grid32) + 0.1j, zeros2(grid32).astype(complex)):
        with pytest.raises(ValueError, match="real vector field"):
            evolve_two_flavor(psi, psi, a, z, z, z, 0.0, 0.01, 1, grid32)
    for observe in ({0}, {2}):
        with pytest.raises(ValueError, match="outside 1..1"):
            evolve_two_flavor(psi, psi, zeros2(grid32), z, z, z, 0.0, 0.01, 1, grid32,
                              observe=observe)


def test_callback_sequence(grid32):
    psi = np.exp(-(grid32.r_map**2)).astype(complex)
    z = np.zeros(grid32.shape)
    seen = []
    evolve_two_flavor(
        psi, psi, zeros2(grid32), z, z, z, 0.0, 0.01, 4, grid32,
        callback=lambda i, p2, p3: seen.append((i, p2.shape)), observe=range(1, 5),
    )
    assert [i for i, _ in seen] == [0, 1, 2, 3]
    assert all(s == grid32.shape for _, s in seen)


def _every_step(grid, background, n_steps, work=None):
    """Reference path: a callback at every step pins an advance to each dt."""
    seed, vg, veff, rho = background
    seen = []
    out = evolve_two_flavor(
        seed, np.conj(seed), vg, veff, veff, rho, 0.5, 0.01, n_steps, grid,
        callback=lambda i, p2, p3: seen.append((i, p2.copy(), p3.copy())),
        observe=range(1, n_steps + 1), work=work,
    )
    return out, seen


def test_one_advance_matches_every_step(grid64, vortex_background):
    seed, vg, veff, rho = vortex_background
    (ref2, ref3), _ = _every_step(grid64, vortex_background, 100)
    p2, p3 = evolve_two_flavor(seed, np.conj(seed), vg, veff, veff, rho, 0.5, 0.01, 100, grid64)
    assert np.abs(p2 - ref2).max() < 1e-12
    assert np.abs(p3 - ref3).max() < 1e-12


def test_callback_every_fires_on_its_steps(grid64, vortex_background):
    seed, vg, veff, rho = vortex_background
    _, ref = _every_step(grid64, vortex_background, 23)
    seen = []
    evolve_two_flavor(
        seed, np.conj(seed), vg, veff, veff, rho, 0.5, 0.01, 23, grid64,
        callback=lambda i, p2, p3: seen.append((i, p2.copy(), p3.copy())),
        observe=range(5, 24, 5),
    )
    assert [i for i, _, _ in seen] == [4, 9, 14, 19, 22]
    for i, p2, p3 in seen:
        _, r2, r3 = ref[i]
        assert np.abs(p2 - r2).max() < 1e-12
        assert np.abs(p3 - r3).max() < 1e-12


def test_unobserved_hold_saves_matvecs(grid64, vortex_background):
    seed, vg, veff, rho = vortex_background
    stepped = KrylovWork()
    _every_step(grid64, vortex_background, 100, work=stepped)
    held = KrylovWork()
    evolve_two_flavor(
        seed, np.conj(seed), vg, veff, veff, rho, 0.5, 0.01, 100, grid64, work=held
    )
    # one recurrence per group of up to four observed steps, for both
    # flavors at once
    assert stepped.krylov_steps == 25
    assert held.krylov_steps == 1
    assert 0 < held.matvecs <= stepped.matvecs // 2


def _terms(z):
    """Chebyshev terms of one time: up to the last Bessel factor >= 1e-16."""
    coef = np.abs(jv(np.arange(int(z) + 200), z))
    return max(2, int(np.nonzero(coef >= 1e-16)[0][-1]) + 1)


def test_one_recurrence_serves_a_group_of_observed_steps(grid64, vortex_background):
    seed, vg, veff, rho = vortex_background
    dt, ends = 0.01, list(range(5, 41, 5))
    work = KrylovWork()
    seen = []
    evolve_two_flavor(
        seed, np.conj(seed), vg, veff, veff, rho, 0.5, dt, 40, grid64,
        callback=lambda i, p2, p3: seen.append((i, p2.copy(), p3.copy())),
        observe=ends, work=work,
    )
    assert [i + 1 for i, _, _ in seen] == ends
    # reference: a chain of calls that each advance one stretch
    p2, p3 = seed, np.conj(seed)
    for _, s2, s3 in seen:
        p2, p3 = evolve_two_flavor(p2, p3, vg, veff, veff, rho, 0.5, dt, 5, grid64)
        peak = max(np.abs(p2).max(), np.abs(p3).max())
        assert np.abs(s2 - p2).max() <= 1e-12 * peak
        assert np.abs(s3 - p3).max() <= 1e-12 * peak

    # two groups of four observed steps, 20 steps each; a group's one
    # recurrence is as long as its last time needs
    local = np.stack([veff + 0.5 * rho, veff + 0.5 * rho])
    op = two_flavor._FlavorOperator(grid64, np.stack([vg, -vg]), local)
    lo, hi = two_flavor._spectral_bounds(op, local, KrylovWork())
    group_terms = _terms(0.5 * (hi - lo) * 20 * dt)
    assert work.matvecs == two_flavor._BOUND_STEPS + 2 * (group_terms - 1)
    assert work.krylov_steps == 2


def test_grouping_bounds_memory(grid64, vortex_background):
    # every time of a group holds its own accumulator, one state, until the
    # recurrence ends: a group of four holds three states more than one
    # unobserved stretch, where one recurrence over all 25 steps would hold
    # 24 more
    seed, vg, veff, rho = vortex_background
    seed3 = np.conj(seed)
    state = seed.nbytes + seed3.nbytes

    def peak(observe):
        tracemalloc.start()
        try:
            evolve_two_flavor(seed, seed3, vg, veff, veff, rho, 0.5, 0.01, 25, grid64,
                              observe=observe)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(range(1, 26)) - peak(()) <= 4 * state


def test_low_spectral_bound_raises(grid64, vortex_background, monkeypatch):
    # components above a too-low bound grow like cosh(k acosh x) with the
    # term count k, so the norm guard has to fire
    bounds = two_flavor._spectral_bounds

    def low(op, local, work):
        lo, hi = bounds(op, local, work)
        return lo, 0.8 * hi

    monkeypatch.setattr(two_flavor, "_spectral_bounds", low)
    seed, vg, veff, rho = vortex_background
    with pytest.raises(DivergenceError, match="spectral bound"):
        evolve_two_flavor(seed, np.conj(seed), vg, veff, veff, rho, 0.5, 0.01, 100, grid64)


def test_spectral_bounds_enclose_exact_spectrum(grid64):
    """Under a uniform A = (a0, 0) the operator is diagonal in k space with
    eigenvalues 1/2 k^2 -+ a0 kx + 1/2 a0^2 for the two flavors."""
    a0 = 0.7
    a = np.stack([a0 * np.ones(grid64.shape), np.zeros(grid64.shape)])
    local = np.zeros((2,) + grid64.shape)
    op = two_flavor._FlavorOperator(grid64, np.stack([a, -a]), local)
    exact = np.stack([0.5 * grid64.k2 + sign * a0 * grid64.kx_grad[:, None] + 0.5 * a0**2
                      for sign in (-1, +1)])
    work = KrylovWork()
    lo, hi = two_flavor._spectral_bounds(op, local, work)
    assert work.matvecs == two_flavor._BOUND_STEPS
    assert lo <= exact.min()
    assert exact.max() <= hi <= 1.01 * exact.max()

    psi0 = np.exp(-(grid64.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    t = 1.0
    advance = KrylovWork()
    (out,) = two_flavor._chebyshev_advance(op, np.stack([psi0, psi0]), [t], lo, hi, advance)
    z = 0.5 * (hi - lo) * t
    assert advance.krylov_steps == 1
    assert advance.matvecs <= z + 12.0 * z ** (1.0 / 3.0) + 40
    ex = ifft2(np.exp(-1j * t * exact) * fft2(psi0))
    assert np.abs(out - ex).max() < 1e-12


def test_eigh_tridiagonal_matches_scipy():
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(7)
    d, e = rng.standard_normal(20), rng.standard_normal(19)
    theta, s = two_flavor.eigh_tridiagonal(d, e)
    ref_theta, ref_s = eigh_tridiagonal(d, e)
    assert np.abs(theta - ref_theta).max() <= 1e-12 * np.abs(ref_theta).max()
    assert np.abs(np.abs(s[-1, :]) - np.abs(ref_s[-1, :])).max() <= 1e-10


def test_spectral_bounds_agree_with_scipy_tridiagonal(grid64, vortex_background, monkeypatch):
    from scipy.linalg import eigh_tridiagonal

    seed, vg, veff, rho = vortex_background
    local = np.stack([veff + 0.5 * rho, veff + 0.5 * rho])
    op = two_flavor._FlavorOperator(grid64, np.stack([vg, -vg]), local)
    lo, hi = two_flavor._spectral_bounds(op, local, KrylovWork())
    monkeypatch.setattr(two_flavor, "eigh_tridiagonal", eigh_tridiagonal)
    ref_lo, ref_hi = two_flavor._spectral_bounds(op, local, KrylovWork())
    assert lo == ref_lo
    assert hi == pytest.approx(ref_hi, rel=1e-12)


def _vortex_operator(grid, l):
    """Operator, stacked state and gauge field of a charge-``l`` vortex hold
    over a non-uniform local potential."""
    r = grid.r_map
    seed = (r / 1.5) * np.exp(-((r / 1.5) ** 2)) * np.exp(1j * l * grid.phi_map)
    vg = vortex_gauge_field(grid, l)
    local = np.stack([0.3 * np.exp(-r**2 / 8.0) + 0.5 * np.exp(-r**2 / 18.0)] * 2)
    aq = np.stack([vg, -vg])
    return two_flavor._FlavorOperator(grid, aq, local), np.stack([seed, np.conj(seed)]), aq


def test_operator_writes_out_and_allocates_nothing(grid128):
    # within one call numpy's ufunc iterator buffers up to 8192 elements of a
    # broadcast or cast operand: a whole stacked state at 64^2, a quarter of
    # one at 128^2, where the allocating form raised the peak by 6.3 states
    op, phi, _ = _vortex_operator(grid128, 1)
    before = phi.copy()
    out = np.empty_like(phi)
    assert op(phi, out) is out
    assert np.array_equal(phi, before)
    # the allocating per-axis form of the same products and sums, in the
    # same order, gives the same values
    expected = op.local * phi
    for axis, a, half_k2, minus_half_k in op.axes:
        f0 = fft2(phi, axes=(axis,))
        f1 = fft2(a * phi, axes=(axis,))
        b0 = ifft2(half_k2 * f0 + minus_half_k * f1, axes=(axis,))
        b1 = ifft2(minus_half_k * f0, axes=(axis,))
        expected = expected + b0 + a * b1
    assert np.array_equal(out, expected)
    assert np.array_equal(op(phi), out)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            op(phi, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < phi.nbytes


def test_operator_matches_two_dimensional_form(grid64):
    # the former application: 2-D transforms with the symmetrized cross term
    # i/2 (a.D + D.a), D = ifft2(ik fft2(.)), and the kinetic and divergence
    # pieces under one inverse transform
    op, phi, aq = _vortex_operator(grid64, 2)
    ax, ay = aq[:, 0], aq[:, 1]
    ikx = 1j * grid64.kx_grad[:, None]
    iky = 1j * grid64.ky_grad[None, :]
    f = fft2(phi)
    a_dot_grad = ax * ifft2(ikx * f) + ay * ifft2(iky * f)
    kinetic_and_div = ifft2(0.5 * grid64.k2 * f + 0.5j * (ikx * fft2(ax * phi) + iky * fft2(ay * phi)))
    expected = kinetic_and_div + 0.5j * a_dot_grad + op.local * phi
    assert np.abs(op(phi) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_operator_is_hermitian_on_the_grid(grid64):
    op, phi, _ = _vortex_operator(grid64, 2)
    rng = np.random.default_rng(11)
    u, v = (rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape)
            for _ in range(2))
    u_hv = np.vdot(u, op(v))
    assert abs(u_hv - np.vdot(op(u), v)) <= 1e-13 * abs(u_hv)


def test_recurrence_leaves_its_start_and_yielded_states_alone(grid64, vortex_background):
    # the recurrence works in its own vectors: a state it has yielded, and
    # the vector it started from, keep their values while it runs on
    seed, vg, veff, rho = vortex_background
    local = np.stack([veff + 0.5 * rho, veff + 0.5 * rho])
    op = two_flavor._FlavorOperator(grid64, np.stack([vg, -vg]), local)
    lo, hi = two_flavor._spectral_bounds(op, local, KrylovWork())
    phi = np.stack([seed, np.conj(seed)])
    start = phi.copy()
    seen = []
    for out in two_flavor._chebyshev_advance(op, phi, [0.05, 0.1, 0.2], lo, hi, KrylovWork()):
        seen.append((out, out.copy()))
    assert np.array_equal(phi, start)
    assert len({id(out) for out, _ in seen}) == 3
    for out, at_yield in seen:
        assert np.array_equal(out, at_yield)
