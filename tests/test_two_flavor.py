import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import jv

from vxsim import lg_beams, two_flavor, xi_ratios
from vxsim._fft import fft2, ifft2
from vxsim.errors import CoreSingularityError, DivergenceError
from vxsim.evolution import thomas_fermi_density
from vxsim.gauge import flavor_fields, vortex_gauge_field
from vxsim.grid import Field, make_grid
from vxsim.diagnostics import LoopSpec, winding
from vxsim.two_flavor import KrylovWork, evolve_two_flavor


@pytest.fixture(scope="module")
def grid32():
    return make_grid(32, 32, 16.0, 16.0)


@pytest.fixture(scope="module")
def vortex_background(grid64):
    """Charge +1 ring seed, the gauge fields of it (flavor 2) and of its
    conjugate (flavor 3), a smooth background and a potential with a mean
    field of it, 0.5 rho."""
    f = (grid64.r_map / 1.5) * np.exp(-((grid64.r_map / 1.5) ** 2))
    seed = f * np.exp(1j * grid64.phi_map)
    rho = np.exp(-grid64.r_map**2 / 18.0)
    veff = 0.3 * np.exp(-grid64.r_map**2 / 8.0) + 0.5 * rho
    vg = vortex_gauge_field(grid64, 1)
    return seed, np.stack([vg, -vg]), veff, rho


def zeros2(grid):
    return np.zeros((2, 2) + grid.shape)


def pair(field):
    """The same field for both flavors, stacked."""
    return np.stack([field, field])


def uniform_fields(grid, a2, a3):
    """Per-flavor uniform gauge fields (a2, 0) and (a3, 0)."""
    z = np.zeros(grid.shape)
    return np.stack([np.stack([a * np.ones(grid.shape), z]) for a in (a2, a3)])


def kspace_propagator(grid, a0, t, sign):
    # same derivative convention as the operator: full k^2 for the
    # Laplacian, Nyquist-zeroed kx for the first derivative
    h = 0.5 * grid.k2 + sign * a0 * grid.kx_grad[:, None] + 0.5 * a0**2
    return np.exp(-1j * t * h)


def test_free_evolution_matches_spectral(grid64):
    psi0 = np.exp(-(grid64.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    z = np.zeros(grid64.shape)
    p2, p3 = evolve_two_flavor(pair(psi0), zeros2(grid64), pair(z), z, 0.0125, 20, grid64)
    exact = ifft2(np.exp(-0.5j * 0.25 * grid64.k2) * fft2(psi0))
    assert np.abs(p2 - exact).max() < 1e-12
    assert np.abs(p3 - exact).max() < 1e-12


def test_constant_gauge_field_exact(grid64):
    """Uniform fields (a2, 0) and (a3, 0) only shift each flavor's kinetic
    parabola: flavor 2 sees (kx - a2)^2 and flavor 3 (kx - a3)^2, both
    diagonal in k space; each flavor sees its own field alone."""
    psi0 = np.exp(-(grid64.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    z = np.zeros(grid64.shape)
    a = uniform_fields(grid64, 0.7, -0.3)
    p2, p3 = evolve_two_flavor(pair(psi0), a, pair(z), z, 0.0125, 20, grid64)
    spec = fft2(psi0)
    ex2 = ifft2(kspace_propagator(grid64, 0.7, 0.25, -1) * spec)
    ex3 = ifft2(kspace_propagator(grid64, -0.3, 0.25, -1) * spec)
    assert np.abs(p2 - ex2).max() < 1e-12
    assert np.abs(p3 - ex3).max() < 1e-12


def test_time_reversal_pairing(grid64, vortex_background):
    """H(-A) = conj(H(+A)) holds exactly on the grid, so conjugating a
    forward-evolved flavor-2 state and running it as flavor 3 (which sees
    -A) rewinds it to the conjugate initial state."""
    seed, aq, veff, rho = vortex_background
    none = np.zeros_like(seed)
    fwd, _ = evolve_two_flavor(np.stack([seed, none]), aq, pair(veff), rho, 0.01, 30, grid64)
    _, back = evolve_two_flavor(np.stack([none, np.conj(fwd)]), aq, pair(veff), rho, 0.01,
                                30, grid64)
    assert np.abs(back - np.conj(seed)).max() < 1e-12


@pytest.mark.parametrize("l, bound", [(1, 3e-2), (2, 2e-3)])
def test_reduced_seed_is_stationary_without_interaction(grid64, l, bound):
    # at u = 0 each flavor's geometric scalar potential W cancels the kinetic
    # energy of its slaved amplitude, so the dark-state seed -xi_q sqrt(rho)
    # of the acceptance beams barely moves over T = 2 (125 steps of 0.016):
    # by an L2-relative 1.60e-2 at l = 1 and 9.7e-4 at l = 2, against 0.566
    # and 0.605 with W zeroed
    rho = thomas_fermi_density(grid64, 1.0, 5.0, 0.05)
    beams = lg_beams(grid64, l, -l, 0.8, 2.0, 12.0, 6.0)
    xi = xi_ratios(beams)
    a, w = flavor_fields(beams, rho)
    seed = -np.stack(xi) * np.sqrt(rho)
    for veff, lo, hi in ((w, 0.0, bound), (np.zeros_like(w), 0.5, np.inf)):
        # the call overwrites the seed and the potential it is handed
        phi = evolve_two_flavor(seed.copy(), a, veff.copy(), rho, 0.016, 125, grid64)
        for p, s in zip(phi, seed):
            assert lo < np.linalg.norm(p - s) / np.linalg.norm(s) < hi


def test_winding_preserved(grid64, vortex_background):
    seed, aq, _, _ = vortex_background
    z = np.zeros(grid64.shape)
    p2, p3 = evolve_two_flavor(np.stack([seed, np.conj(seed)]), aq, pair(z), z, 0.01, 50,
                               grid64)
    loop = LoopSpec(center=(0.0, 0.0), radius=2.0)
    assert winding(Field(grid64, p2), loop).value == 1
    assert winding(Field(grid64, p3), loop).value == -1


def test_norm_conserved(grid64, vortex_background):
    seed, aq, veff, rho = vortex_background
    n0 = np.linalg.norm(seed)
    p2, p3 = evolve_two_flavor(np.stack([seed, np.conj(seed)]), aq, pair(veff), rho, 0.01,
                               100, grid64)
    assert abs(np.linalg.norm(p2) - n0) / n0 < 1e-12
    assert abs(np.linalg.norm(p3) - n0) / n0 < 1e-12


def test_big_step_subdivides_not_degrades(grid32):
    # one step far beyond dt's scale is one long expansion that still
    # converges, not a silently truncated one
    psi0 = np.exp(-(grid32.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    z = np.zeros(grid32.shape)
    a0 = 0.7
    a = uniform_fields(grid32, a0, -a0)
    p2, _ = evolve_two_flavor(pair(psi0), a, pair(z), z, 2.0, 1, grid32)
    ex = ifft2(kspace_propagator(grid32, a0, 2.0, -1) * fft2(psi0))
    assert np.abs(p2 - ex).max() < 1e-12


def test_zero_field_stays_zero(grid32):
    z = np.zeros(grid32.shape)
    zero = np.zeros(grid32.shape, dtype=complex)
    p2, p3 = evolve_two_flavor(pair(zero), zeros2(grid32), pair(z), z, 0.1, 3, grid32)
    assert not p2.any() and not p3.any()


def test_core_guard_raises_on_live_fields(grid32):
    z = np.zeros(grid32.shape)
    ones = np.ones(grid32.shape, dtype=complex)
    hot = uniform_fields(grid32, 1e4, 0.0)
    with pytest.raises(CoreSingularityError, match="refine the grid"):
        evolve_two_flavor(pair(ones), hot, pair(z), np.ones(grid32.shape), 0.01, 1, grid32)


def test_core_guard_is_per_flavor(grid32):
    # flavor 3's field is hot where its own state and the background vanish;
    # flavor 2's live state there does not matter, as it sees no hot field
    ring = grid32.r_map > 6.0
    a = uniform_fields(grid32, 0.0, 0.0)
    a[1, 0, ring] = 1e4
    rho = np.exp(-(grid32.r_map**2))
    phi2 = np.ones(grid32.shape, dtype=complex)
    phi3 = np.where(ring, 0.0, rho).astype(complex)
    z = np.zeros(grid32.shape)
    evolve_two_flavor(np.stack([phi2, phi3]), a, pair(z), rho, 1e-6, 1, grid32)
    with pytest.raises(CoreSingularityError, match="refine the grid"):
        evolve_two_flavor(np.stack([phi3, phi2]), a, pair(z), rho, 1e-6, 1, grid32)


def test_core_guard_takes_a_zero_field_as_void(grid32):
    # a field that is zero everywhere is void everywhere: neither an empty
    # flavor under a hot field nor an empty background trips the guard
    ring = grid32.r_map > 6.0
    a = uniform_fields(grid32, 0.0, 0.0)
    a[:, 0, ring] = 1e4
    live = np.exp(-(grid32.r_map**2))
    empty = np.zeros(grid32.shape)
    evolve_two_flavor(np.stack([live, empty]), a, pair(empty), live, 1e-6, 1, grid32)
    evolve_two_flavor(pair(live), a, pair(empty), empty, 1e-6, 1, grid32)


def test_core_guard_allows_void_core(grid64, vortex_background, monkeypatch):
    # |A| exceeds the bound next to the axis, but both the background and
    # the flavor fields are exactly zero there
    monkeypatch.setattr(two_flavor, "_A_MAX", 3.9)
    seed, aq, _, rho = vortex_background
    void = grid64.r_map < 0.5
    seed = np.where(void, 0.0, seed)
    rho = np.where(void, 0.0, rho)
    z = np.zeros(grid64.shape)
    evolve_two_flavor(np.stack([seed, np.conj(seed)]), aq, pair(0.3 * rho), rho, 0.01, 2,
                      grid64)


def test_nan_inputs_rejected(grid32):
    z = np.zeros(grid32.shape)
    psi = np.ones(grid32.shape, dtype=complex)
    vbad = z.copy()
    vbad[3, 3] = np.nan
    with pytest.raises(ValueError, match=r"non-finite values; .*numpy\.nan_to_num"):
        evolve_two_flavor(pair(psi), zeros2(grid32), np.stack([vbad, z]), z, 0.01, 1, grid32)


def test_argument_validation(grid32):
    z = np.zeros(grid32.shape)
    psi = np.ones(grid32.shape, dtype=complex)
    with pytest.raises(ValueError, match=r"phi must have shape \(2, nx, ny\)"):
        evolve_two_flavor(pair(psi[:4]), zeros2(grid32), pair(z), z, 0.01, 1, grid32)
    with pytest.raises(ValueError, match=r"phi must have shape \(2, nx, ny\)"):
        evolve_two_flavor(psi, zeros2(grid32), pair(z), z, 0.01, 1, grid32)
    with pytest.raises(ValueError, match=r"veff must have shape \(2, nx, ny\)"):
        evolve_two_flavor(pair(psi), zeros2(grid32), z, z, 0.01, 1, grid32)
    with pytest.raises(ValueError, match=r"rho must have shape \(nx, ny\)"):
        evolve_two_flavor(pair(psi), zeros2(grid32), pair(z), pair(z), 0.01, 1, grid32)
    with pytest.raises(ValueError, match=r"\(2, 2, nx, ny\)"):
        evolve_two_flavor(pair(psi), zeros2(grid32)[0], pair(z), z, 0.01, 1, grid32)
    # complex gauge fields are rejected even with a zero imaginary part
    for a in (zeros2(grid32) + 0.1j, zeros2(grid32).astype(complex)):
        with pytest.raises(ValueError, match="a must be real"):
            evolve_two_flavor(pair(psi), a, pair(z), z, 0.01, 1, grid32)
    for observe in ({0}, {2}):
        with pytest.raises(ValueError, match="outside 1..1"):
            evolve_two_flavor(pair(psi), zeros2(grid32), pair(z), z, 0.01, 1, grid32,
                              observe=observe)


def test_complex_potential_rejected(grid32):
    # a complex potential is an error, not a warning that drops its
    # imaginary part, even when that part is zero
    z = np.zeros(grid32.shape)
    psi = pair(np.ones(grid32.shape, dtype=complex))
    for veff, rho, name in ((pair(z) + 0.1j, z, "veff"), (pair(z).astype(complex), z, "veff"),
                            (pair(z), z + 0.1j, "rho"), (pair(z), z.astype(complex), "rho")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} must be real"):
                evolve_two_flavor(psi, zeros2(grid32), veff, rho, 0.01, 1, grid32)


def test_callback_sequence(grid32):
    psi = np.exp(-(grid32.r_map**2)).astype(complex)
    z = np.zeros(grid32.shape)
    seen = []
    evolve_two_flavor(
        pair(psi), zeros2(grid32), pair(z), z, 0.01, 4, grid32,
        callback=lambda i, phi: seen.append((i, phi.shape)), observe=range(1, 5),
    )
    assert [i for i, _ in seen] == [0, 1, 2, 3]
    assert all(s == (2,) + grid32.shape for _, s in seen)


def _every_step(grid, background, n_steps, work=None):
    """Reference path: a callback at every step pins an advance to each dt."""
    seed, aq, veff, rho = background
    seen = []
    out = evolve_two_flavor(
        np.stack([seed, np.conj(seed)]), aq, pair(veff), rho, 0.01, n_steps, grid,
        callback=lambda i, phi: seen.append((i, *phi.copy())),
        observe=range(1, n_steps + 1), work=work,
    )
    return out, seen


def test_one_advance_matches_every_step(grid64, vortex_background):
    seed, aq, veff, rho = vortex_background
    (ref2, ref3), _ = _every_step(grid64, vortex_background, 100)
    p2, p3 = evolve_two_flavor(np.stack([seed, np.conj(seed)]), aq, pair(veff), rho, 0.01,
                               100, grid64)
    assert np.abs(p2 - ref2).max() < 1e-12
    assert np.abs(p3 - ref3).max() < 1e-12


def test_callback_every_fires_on_its_steps(grid64, vortex_background):
    seed, aq, veff, rho = vortex_background
    _, ref = _every_step(grid64, vortex_background, 23)
    seen = []
    evolve_two_flavor(
        np.stack([seed, np.conj(seed)]), aq, pair(veff), rho, 0.01, 23, grid64,
        callback=lambda i, phi: seen.append((i, *phi.copy())),
        observe=range(5, 24, 5),
    )
    assert [i for i, _, _ in seen] == [4, 9, 14, 19, 22]
    for i, p2, p3 in seen:
        _, r2, r3 = ref[i]
        assert np.abs(p2 - r2).max() < 1e-12
        assert np.abs(p3 - r3).max() < 1e-12


def test_unobserved_hold_saves_matvecs(grid64, vortex_background):
    seed, aq, veff, rho = vortex_background
    stepped = KrylovWork()
    _every_step(grid64, vortex_background, 100, work=stepped)
    held = KrylovWork()
    evolve_two_flavor(
        np.stack([seed, np.conj(seed)]), aq, pair(veff), rho, 0.01, 100, grid64, work=held
    )
    # one recurrence per group of up to four observed steps, for both
    # flavors at once
    assert stepped.krylov_steps == 25
    assert held.krylov_steps == 1
    assert 0 < held.matvecs <= stepped.matvecs // 2


@pytest.mark.parametrize("z", [0.0, 1e-3, 1.0, 50.0, 760.0, 1500.0])
def test_miller_bessel_factors_match_scipy(z):
    # over the orders the recurrence sums; the residual at z = 1500 (3.0e-14)
    # is jv's own error: Miller agrees with 40-digit values to 2.2e-16
    (row,) = two_flavor._bessel_table(np.array([z]))
    assert np.abs(row - jv(np.arange(len(row)), z)).max() <= 3e-14
    if z == 0.0:
        assert row[0] == 1.0 and not row[1:].any()


def _terms(z):
    """Chebyshev terms of one time: up to the last Bessel factor >= 1e-16."""
    coef = np.abs(jv(np.arange(int(z) + 200), z))
    return max(2, int(np.nonzero(coef >= 1e-16)[0][-1]) + 1)


def test_one_recurrence_serves_a_group_of_observed_steps(grid64, vortex_background):
    seed, aq, veff, rho = vortex_background
    dt, ends = 0.01, list(range(5, 41, 5))
    work = KrylovWork()
    seen = []
    evolve_two_flavor(
        np.stack([seed, np.conj(seed)]), aq, pair(veff), rho, dt, 40, grid64,
        callback=lambda i, phi: seen.append((i, *phi.copy())),
        observe=ends, work=work,
    )
    assert [i + 1 for i, _, _ in seen] == ends
    # reference: a chain of calls that each advance one stretch
    p2, p3 = seed, np.conj(seed)
    for _, s2, s3 in seen:
        p2, p3 = evolve_two_flavor(np.stack([p2, p3]), aq, pair(veff), rho, dt, 5, grid64)
        peak = max(np.abs(p2).max(), np.abs(p3).max())
        assert np.abs(s2 - p2).max() <= 1e-12 * peak
        assert np.abs(s3 - p3).max() <= 1e-12 * peak

    # two groups of four observed steps, 20 steps each; a group's one
    # recurrence is as long as its last time needs
    op = two_flavor._FlavorOperator(grid64, aq, pair(veff))
    lo, hi = two_flavor._spectral_bounds(op, KrylovWork(), grid64)
    group_terms = _terms(0.5 * (hi - lo) * 20 * dt)
    assert work.matvecs == two_flavor._BOUND_STEPS + 2 * (group_terms - 1)
    assert work.krylov_steps == 2


def _traced_peak(phi, aq, veff, rho, grid, observe):
    """Peak traced bytes of one 25-step call, the seed copied inside the
    trace: a group after the first starts from a state the call made, so
    the seed counts in every case alike."""
    tracemalloc.start()
    try:
        evolve_two_flavor(phi.copy(), aq, veff, rho, 0.01, 25, grid, observe=observe)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grouping_bounds_memory(grid64, vortex_background):
    # every time of a group holds its own accumulator, one state, until the
    # recurrence ends: a group of four holds three states more than one
    # unobserved stretch, where one recurrence over all 25 steps would hold
    # 24 more
    seed, aq, veff, rho = vortex_background
    phi = np.stack([seed, np.conj(seed)])
    every, one = (_traced_peak(phi, aq, pair(veff), rho, grid64, observe)
                  for observe in (range(1, 26), ()))
    assert every - one <= 4 * phi.nbytes


def test_one_observed_stretch_holds_few_states(grid128):
    # one unobserved stretch at 128^2 holds, in stacked states, the seed,
    # which is the recurrence's first vector, its second vector, the
    # operator's two work states and one accumulator, plus about a quarter
    # state of ufunc buffers; the operator's potential lives in the buffer of
    # veff, made outside the trace: 5.30 measured, the same with the Lanczos
    # start drawn row by row from the stdlib generator as from numpy's,
    # pinned with under half a state of margin, so one more half-state array
    # fails (a recurrence beside a copy of the seed, with a third work state
    # and a potential of its own, held 7.80; a four-vector one 11.55; the
    # stdlib start drawn one flavor plane at a time 5.79, all at once 6.29)
    r = grid128.r_map
    seed = (r / 1.5) * np.exp(-((r / 1.5) ** 2)) * np.exp(2j * grid128.phi_map)
    phi = np.stack([seed, np.conj(seed)])
    vg = vortex_gauge_field(grid128, 2)
    rho = np.exp(-r**2 / 18.0)
    veff = pair(0.3 * np.exp(-r**2 / 8.0) + 0.5 * rho)
    peak = _traced_peak(phi, np.stack([vg, -vg]), veff, rho, grid128, ())
    assert peak <= 5.75 * phi.nbytes


def test_low_spectral_bound_raises(grid64, vortex_background, monkeypatch):
    # components above a too-low bound grow like cosh(k acosh x) with the
    # term count k, so the norm guard has to fire
    bounds = two_flavor._spectral_bounds

    def low(op, work, grid):
        lo, hi = bounds(op, work, grid)
        return lo, 0.8 * hi

    monkeypatch.setattr(two_flavor, "_spectral_bounds", low)
    seed, aq, veff, rho = vortex_background
    with pytest.raises(DivergenceError, match="spectral bound"):
        evolve_two_flavor(np.stack([seed, np.conj(seed)]), aq, pair(veff), rho, 0.01, 100,
                          grid64)


def test_spectral_bounds_enclose_exact_spectrum(grid64):
    """Under a uniform A = (a0, 0) the operator is diagonal in k space with
    eigenvalues 1/2 k^2 -+ a0 kx + 1/2 a0^2 for the two flavors."""
    a0 = 0.7
    a = np.stack([a0 * np.ones(grid64.shape), np.zeros(grid64.shape)])
    z = np.zeros(grid64.shape)
    op = two_flavor._FlavorOperator(grid64, np.stack([a, -a]), pair(z))
    exact = np.stack([0.5 * grid64.k2 + sign * a0 * grid64.kx_grad[:, None] + 0.5 * a0**2
                      for sign in (-1, +1)])
    work = KrylovWork()
    lo, hi = two_flavor._spectral_bounds(op, work, grid64)
    assert work.matvecs == two_flavor._BOUND_STEPS
    assert lo <= exact.min()
    assert exact.max() <= hi <= 1.01 * exact.max()

    psi0 = np.exp(-(grid64.r_map**2) / (2.0 * 1.5**2)).astype(complex)
    t = 1.0
    advance = KrylovWork()
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    op.rescale(mid, half)
    (out,) = two_flavor._chebyshev_advance(op, pair(psi0), [t], mid, half, advance)
    z = half * t
    assert advance.krylov_steps == 1
    assert advance.matvecs <= z + 12.0 * z ** (1.0 / 3.0) + 40
    ex = ifft2(np.exp(-1j * t * exact) * fft2(psi0))
    assert np.abs(out - ex).max() < 1e-12


@pytest.mark.parametrize("l", [1, 2])
def test_spectral_bounds_enclose_dense_spectrum(grid16, l):
    # a vortex's gauge field and a non-uniform potential couple every k, so
    # the exact extremes come from the dense matrix of the operator; hi
    # passes the top by 2.1e-5 (l = 1) and 4.8e-5 (l = 2) of it, pinned at
    # 1e-4
    op, phi, _ = _vortex_operator(grid16, l)
    basis = np.zeros(phi.size, dtype=complex)
    h = np.empty((phi.size, phi.size), dtype=complex)
    for j in range(phi.size):
        basis[j] = 1.0
        h[:, j] = _apply(op, basis.reshape(phi.shape)).ravel()
        basis[j] = 0.0
    exact = np.linalg.eigvalsh(h)
    lo, hi = two_flavor._spectral_bounds(op, KrylovWork(), grid16)
    assert lo <= exact[0]
    assert exact[-1] <= hi <= (1.0 + 1e-4) * exact[-1]


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

    seed, aq, veff, rho = vortex_background
    op = two_flavor._FlavorOperator(grid64, aq, pair(veff))
    lo, hi = two_flavor._spectral_bounds(op, KrylovWork(), grid64)
    monkeypatch.setattr(two_flavor, "eigh_tridiagonal", eigh_tridiagonal)
    ref_lo, ref_hi = two_flavor._spectral_bounds(op, KrylovWork(), grid64)
    assert lo == ref_lo
    assert hi == pytest.approx(ref_hi, rel=1e-12)


def _vortex_operator(grid, l):
    """Operator, stacked state and gauge field of a charge-``l`` vortex hold
    over a non-uniform local potential."""
    r = grid.r_map
    seed = (r / 1.5) * np.exp(-((r / 1.5) ** 2)) * np.exp(1j * l * grid.phi_map)
    vg = vortex_gauge_field(grid, l)
    veff = pair(0.3 * np.exp(-r**2 / 8.0) + 0.5 * np.exp(-r**2 / 18.0))
    aq = np.stack([vg, -vg])
    op = two_flavor._FlavorOperator(grid, aq, veff)
    return op, np.stack([seed, np.conj(seed)]), aq


def _apply(op, phi):
    """``H phi``: one call on a zero-filled ``out``."""
    out = np.zeros_like(phi)
    op(phi, out)
    return out


def test_operator_writes_out_and_allocates_nothing(grid128):
    # within one call numpy's ufunc iterator buffers up to 8192 elements of a
    # broadcast or cast operand: a whole stacked state at 64^2, a quarter of
    # one at 128^2, where the allocating form raised the peak by 6.3 states
    op, phi, aq = _vortex_operator(grid128, 1)
    # a checkerboard puts content on both Nyquist lines, whose b0 transform
    # comes from the saved line
    i, j = np.indices(grid128.shape)
    phi = phi + 0.01 * (-1.0) ** (i + j)
    before = phi.copy()
    out = np.zeros_like(phi)
    op(phi, out)
    assert np.array_equal(phi, before)
    # the allocating per-axis form of the same products and sums, in the
    # same order, gives the same values
    expected = op.local * phi
    kinetic = np.zeros_like(phi)
    for axis, a, minus_k, minus_half_sk, nyq, half_s_k_nyq2, _ in op.axes:
        f0 = fft2(phi, axes=(axis,))
        f1 = fft2(a * phi, axes=(axis,))
        g0 = minus_k * f0
        g1 = (f1 + g0) * minus_half_sk
        g1[nyq] = half_s_k_nyq2 * f0[nyq]
        b0 = ifft2(g1, axes=(axis,))
        b1 = ifft2(op._half_s * g0, axes=(axis,))
        expected = expected + b0 + a * b1
        kinetic = kinetic + b0 + a * b1
    assert np.array_equal(out, expected)
    # the same terms with 1/2 k^2 written out, the Nyquist lines included
    direct = op.local * phi
    for axis, a, k, k_grad in ((-2, aq[:, 0], grid128.kx[:, None], grid128.kx_grad[:, None]),
                               (-1, aq[:, 1], grid128.ky, grid128.ky_grad)):
        f0, f1 = fft2(phi, axes=(axis,)), fft2(a * phi, axes=(axis,))
        direct += ifft2(0.5 * k**2 * f0 - 0.5 * k_grad * f1, axes=(axis,))
        direct += a * ifft2(-0.5 * k_grad * f0, axes=(axis,))
    assert np.abs(out - direct).max() <= 1e-13 * np.abs(direct).max()
    # out <- H phi - out: subtracting the local product it held leaves the
    # per-axis terms alone
    out = op.local * phi
    op(phi, out)
    assert np.array_equal(out, kinetic)

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
    assert np.abs(_apply(op, phi) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_operator_is_hermitian_on_the_grid(grid64):
    op, phi, _ = _vortex_operator(grid64, 2)
    rng = np.random.default_rng(11)
    u, v = (rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape)
            for _ in range(2))
    u_hv = np.vdot(u, _apply(op, v))
    assert abs(u_hv - np.vdot(_apply(op, u), v)) <= 1e-13 * abs(u_hv)


def test_rescaled_operator_is_the_chebyshev_step(grid64):
    # after rescale(mid, half) one call gives 2 (H - mid) / half phi - out
    op, phi, _ = _vortex_operator(grid64, 2)
    h_phi = _apply(op, phi)
    mid, half = 3.0, 40.0
    op.rescale(mid, half)
    out = phi.copy()
    op(phi, out)
    expected = 2.0 * (h_phi - mid * phi) / half - phi
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def test_recurrence_leaves_its_start_and_yielded_states_alone(grid64, vortex_background):
    # the vector it starts from is its first vector, so that is overwritten;
    # a state it has yielded is a vector of its own and keeps its values
    # while the recurrence runs on
    seed, aq, veff, rho = vortex_background
    op = two_flavor._FlavorOperator(grid64, aq, pair(veff))
    lo, hi = two_flavor._spectral_bounds(op, KrylovWork(), grid64)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    op.rescale(mid, half)
    phi = np.stack([seed, np.conj(seed)])
    start = phi.copy()
    seen = []
    for out in two_flavor._chebyshev_advance(op, phi, [0.05, 0.1, 0.2], mid, half,
                                             KrylovWork()):
        seen.append((out, out.copy()))
    assert not np.array_equal(phi, start)
    assert not any(np.shares_memory(out, phi) for out, _ in seen)
    assert len({id(out) for out, _ in seen}) == 3
    for out, at_yield in seen:
        assert np.array_equal(out, at_yield)
