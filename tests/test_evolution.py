import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import vxsim.evolution as evolution
from vxsim._fft import fft2, ifft2
from vxsim.beams import BeamSet, lg_beams, xi_ratios
from vxsim.errors import AdiabaticityWarning, DivergenceError
from vxsim.evolution import (
    MatterState,
    Ramp,
    SplitStepper,
    advisory_dt,
    dark_state_error,
    initial_state,
    qp_cancel_potential,
    run_adiabatic_loading,
    step,
    thomas_fermi_density,
)
from vxsim.grid import make_grid
from vxsim.two_flavor import evolve_two_flavor


def _loaded_state(grid, u):
    """Thomas-Fermi background under its quantum-pressure trap V1."""
    rho = thomas_fermi_density(grid, 1.0, 5.0)
    return initial_state(grid, rho, qp_cancel_potential(grid, rho), u)


def _blank_state(grid, u=0.0):
    return MatterState(
        grid=grid,
        phi=np.zeros((5,) + grid.shape, dtype=complex),
        traps=np.zeros(grid.shape),
        u=u,
    )


def test_state_shape_validation(grid16):
    with pytest.raises(ValueError, match="phi"):
        MatterState(grid=grid16, phi=np.zeros((4,) + grid16.shape),
                    traps=np.zeros(grid16.shape), u=0.0)
    # V1 is the only trap: a stack of one per level is rejected
    with pytest.raises(ValueError, match=r"traps must have shape \(nx, ny\)"):
        MatterState(grid=grid16, phi=np.zeros((5,) + grid16.shape),
                    traps=np.zeros((5,) + grid16.shape), u=0.0)


def test_initial_state_population(grid64):
    rho = thomas_fermi_density(grid64, 1.0, 5.0)
    state = initial_state(grid64, rho, np.zeros(grid64.shape), 0.0)
    pops = state.populations()
    assert pops[0] == pytest.approx(grid64.integrate(rho))
    assert np.all(pops[1:] == 0.0)
    assert state.norm() == pytest.approx(np.sqrt(pops[0]))


def test_rabi_oscillation_single_control(uniform_beams, grid16):
    # control 1 couples the first meta-stable component to its excited
    # partner: a clean two-level Rabi flop P_e = sin^2(omega t)
    omega = 0.8
    beams = uniform_beams(grid16, c1=omega)
    state = _blank_state(grid16)
    state.phi[1] = 1.0
    dt = 0.01
    for _ in range(125):
        step(state, beams, dt)
    t = state.t
    pops = state.populations()
    p_e = pops[3] / np.sum(pops)
    assert t == pytest.approx(1.25)
    assert p_e == pytest.approx(np.sin(omega * t) ** 2, abs=1e-10)


def test_lambda_system_bright_state_oracle(uniform_beams, grid16):
    # probe + control from the ground component: the bright-state flop
    # P_e = (op/oeff)^2 sin^2(oeff t), oeff = sqrt(op^2 + oc^2)
    op, oc = 0.09, 1.0
    oeff = np.hypot(op, oc)
    beams = uniform_beams(grid16, p1=op, c1=oc)
    state = _blank_state(grid16)
    state.phi[0] = 1.0
    dt = 0.005
    for _ in range(200):
        step(state, beams, dt)
    pops = state.populations()
    p_e = pops[3] / np.sum(pops)
    assert p_e == pytest.approx((op / oeff) ** 2 * np.sin(oeff * state.t) ** 2, abs=1e-10)


def _eigh_local_step(state, beams, dt, scale=1.0):
    """Oracle for the local series: phi <- exp(-i*dt*M) phi by unitary
    diagonalization of each pointwise 5x5 matrix."""
    dens = np.abs(state.phi) ** 2
    mf = state.u * (dens[0] + dens[1] + dens[2])
    diag = (state.traps + mf, beams.eps12 + mf, beams.eps13 + mf, beams.eps14, beams.eps15)
    n = state.grid.nx * state.grid.ny
    m = np.zeros((n, 5, 5), dtype=np.complex128)
    for a in range(5):
        m[:, a, a] = np.ravel(diag[a])
    for row, col, omega in ((3, 0, scale * beams.omega_p1()), (4, 0, scale * beams.omega_p2()),
                            (3, 1, beams.omega_c1()), (4, 2, beams.omega_c2())):
        m[:, row, col] = omega.ravel()
        m[:, col, row] = np.conj(omega).ravel()
    w, vecs = np.linalg.eigh(m)
    v = state.phi.reshape(5, -1).T[..., None]
    proj = np.matmul(vecs.conj().transpose(0, 2, 1), v)
    proj *= np.exp(-1j * dt * w)[..., None]
    out = np.matmul(vecs, proj)[..., 0]
    state.phi = np.ascontiguousarray(out.T.reshape(state.phi.shape))


def _oracle_step(state, beams, dt, scale):
    half = np.exp(-0.25j * state.grid.k2 * dt)
    state.phi = np.fft.ifft2(half * np.fft.fft2(state.phi))
    _eigh_local_step(state, beams, dt, scale)
    state.phi = np.fft.ifft2(half * np.fft.fft2(state.phi))


def test_engines_agree(weak_beams64, grid64):
    grid32 = make_grid(32, 32, 16.0, 16.0)
    # the standard weak pair with an excited-level detuning, and the
    # acceptance strengths (controls 12, probes 0.8) with tilted controls and
    # level shifts, so that every coupling is complex and every detuning
    # non-zero
    weak = replace(weak_beams64, eps14=0.5, eps15=0.5)
    acceptance = lg_beams(grid32, l1=1, l2=-1, probe_peak=0.8, probe_waist=2.0,
                          control_peak=12.0, control_waist=6.0, kc1=(0.4, 0.0),
                          kc2=(0.0, -0.4), eps12=0.02, eps13=-0.03, eps14=0.5, eps15=-0.4)
    for grid, beams, u in ((grid64, weak, 0.4), (grid32, acceptance, 0.02)):
        a = _loaded_state(grid, u)
        # populate every level so that every coupling acts
        for level in range(1, 5):
            a.phi[level] = 0.1 * np.exp(1j * level * grid.phi_map) * a.phi[0]
        b = a.copy()
        for k in range(5):
            scale = 0.6 + 0.1 * k
            step(a, beams, 0.004, scale=scale)
            _oracle_step(b, beams, 0.004, scale)
        assert np.max(np.abs(a.phi - b.phi)) <= 1e-12 * np.max(np.abs(b.phi))


def test_dark_state_is_local_fixed_point(weak_beams64, grid64):
    xi1, xi2 = xi_ratios(weak_beams64)
    f = np.sqrt(thomas_fermi_density(grid64, 1.0, 5.0))
    state = _blank_state(grid64)
    state.phi[0] = f
    state.phi[1] = -xi1 * f
    state.phi[2] = -xi2 * f
    before = state.phi.copy()
    SplitStepper(weak_beams64, 0.05).local(state)
    assert np.max(np.abs(state.phi - before)) < 1e-14
    assert dark_state_error(state, weak_beams64) < 1e-12


def test_free_gaussian_spreading(grid64, uniform_beams):
    # <r^2>(t) = a^2 (1 + t^2/a^4) for psi0 = exp(-r^2/(2 a^2)); with no
    # potential at all the split evolution is exactly spectral
    beams = uniform_beams(grid64)
    state = _blank_state(grid64)
    state.phi[0] = np.exp(-0.5 * grid64.r_map**2)
    for _ in range(50):
        step(state, beams, 0.004)
    t = state.t
    dens = np.abs(state.phi[0]) ** 2
    m2 = grid64.integrate(grid64.r_map**2 * dens) / grid64.integrate(dens)
    assert m2 == pytest.approx(1.0 + t**2, rel=1e-9)


def test_norm_conservation_during_loading(weak_beams64, grid64):
    rho = thomas_fermi_density(grid64, 1.0, 5.0)
    state = initial_state(grid64, rho, np.zeros(grid64.shape), 0.4)
    # 50 steps cover 2% of the ramp, so the final fidelity check warns
    with pytest.warns(AdiabaticityWarning):
        result = run_adiabatic_loading(
            state, weak_beams64, dt=0.004, n_steps=50, ramp=Ramp(10.0)
        )
    assert result.norm_drift < 1e-12
    assert result.n_steps == 50


def test_local_step_conserves_norm(uniform_beams, grid16):
    beams = uniform_beams(grid16, c1=1.0)
    state = _blank_state(grid16, u=1.0)
    state.phi[0] = 1.0
    state.phi[1] = 0.5j
    n0 = state.norm()
    SplitStepper(beams, 0.01).local(state)
    assert abs(state.norm() - n0) / n0 < 1e-13


def test_series_divergence_reported(uniform_beams, grid16):
    beams = uniform_beams(grid16, c1=10.0)
    state = _blank_state(grid16)
    state.phi[1] = 1.0
    with pytest.raises(DivergenceError, match="advisory"):
        SplitStepper(beams, 100.0).local(state)


def test_series_divergence_names_the_detuning(uniform_beams, grid16):
    # no trap anywhere: dt*max|M| = 500 is eps14 on the level-4 diagonal
    beams = uniform_beams(grid16, eps14=500.0)
    state = _blank_state(grid16)
    state.phi[3] = 1.0
    with pytest.raises(DivergenceError) as exc:
        SplitStepper(beams, 1.0).local(state)
    assert ("dt*max|M| = 5.000e+02, set by the level-4 diagonal "
            "(trap V4 = 0.000e+00, detuning eps14 = 5.000e+02)") in str(exc.value)


def test_step_flags_nonfinite(uniform_beams, grid16):
    beams = uniform_beams(grid16)
    state = _blank_state(grid16)
    state.phi[0] = 1.0
    state.phi[0, 3, 3] = np.nan
    with pytest.raises(DivergenceError, match="non-finite"):
        step(state, beams, 0.01)


def test_ramp_profile():
    ramp = Ramp(4.0)
    assert ramp.envelope(-1.0) == 0.0
    assert ramp.envelope(0.0) == 0.0
    assert ramp.envelope(2.0) == pytest.approx(0.5)
    assert ramp.envelope(4.0) == 1.0
    assert ramp.envelope(9.0) == 1.0
    ts = np.linspace(0.0, 4.0, 100)
    vals = [ramp.envelope(t) for t in ts]
    assert np.all(np.diff(vals) >= 0.0)
    assert Ramp(0.0).envelope(0.0) == 1.0


def test_advisory_dt(grid128):
    assert advisory_dt(grid128) == pytest.approx(0.125**2 / np.pi)
    assert 0.004 < advisory_dt(grid128)


def test_thomas_fermi_profile(grid64):
    rho = thomas_fermi_density(grid64, 2.0, 5.0, rim=0.05)
    c = grid64.nx // 2
    assert rho[c, c] == pytest.approx(2.0, rel=1e-8)
    k_edge = int(round(5.0 / grid64.dx))
    assert rho[c + k_edge, c] == pytest.approx(2.0 * 0.05 * np.log(2.0), rel=1e-6)
    assert rho[c, c] > rho[c + 8, c] > rho[c + 16, c] > rho[c + 24, c]
    assert rho[c + 28, c] < 1e-9
    with pytest.raises(ValueError):
        thomas_fermi_density(grid64, 1.0, -5.0)
    with pytest.raises(ValueError):
        thomas_fermi_density(grid64, -1.0, 5.0)


def test_qp_cancel_exact_on_smooth_density(grid64, uniform_beams):
    # strictly positive periodic density: the engineered trap makes
    # sqrt(rho) an exact zero-energy eigenstate, so the residual motion is
    # pure Strang splitting error and must shrink as dt^2
    k = 2.0 * np.pi / grid64.lx
    rho = 1.0 + 0.3 * np.cos(k * grid64.xm) * np.cos(k * grid64.ym)
    v1 = qp_cancel_potential(grid64, rho)
    base = np.sqrt(rho)
    beams = uniform_beams(grid64)

    def deviation(dt, n):
        state = _blank_state(grid64)
        state.phi[0] = base
        state.traps = v1
        for _ in range(n):
            step(state, beams, dt)
        diff = np.abs(state.phi[0]) ** 2 - rho
        return float(np.max(np.abs(diff)))

    d1 = deviation(0.016, 25)
    d2 = deviation(0.008, 50)
    assert d2 < 1e-6
    assert 3.0 < d1 / d2 < 5.0


def test_qp_cancel_holds_thomas_fermi(grid64, uniform_beams):
    rho = thomas_fermi_density(grid64, 1.0, 5.0)
    v1 = qp_cancel_potential(grid64, rho)
    beams = uniform_beams(grid64)

    def density_change(trap):
        state = _blank_state(grid64)
        state.phi[0] = np.sqrt(rho)
        state.traps = trap
        for _ in range(50):
            step(state, beams, 0.004)
        return float(np.max(np.abs(np.abs(state.phi[0]) ** 2 - rho)) / rho.max())

    held = density_change(v1)
    free = density_change(np.zeros(grid64.shape))
    assert held < 1e-3
    assert held < free / 50.0


def test_fast_ramp_warns(uniform_beams, grid16):
    # c2 live so the final dark-state check can form both ratios
    beams = uniform_beams(grid16, p1=0.2, c1=2.0, c2=2.0)
    state = _blank_state(grid16)
    state.phi[0] = 1.0
    with pytest.warns(AdiabaticityWarning):
        run_adiabatic_loading(state, beams, dt=0.01, n_steps=5, ramp=Ramp(0.05))


@pytest.mark.filterwarnings("ignore::vxsim.errors.AdiabaticityWarning")
def test_fused_loading_matches_closed_steps(weak_beams64, grid64):
    # the ramp stays live over all 23 steps
    dt, n, ramp = 0.004, 23, Ramp(0.2)
    ref = _loaded_state(grid64, 0.4)
    closed = []
    for _ in range(n):
        step(ref, weak_beams64, dt, scale=ramp.envelope(ref.t + 0.5 * dt))
        closed.append(ref.copy())
    seen = {}

    def record(i, st):
        seen[i] = st.copy()

    fused = _loaded_state(grid64, 0.4)
    run_adiabatic_loading(fused, weak_beams64, dt, n, ramp, snapshot_cb=record,
                          observe=range(5, n + 1, 5))
    assert sorted(seen) == [4, 9, 14, 19, 22]
    for i, st in seen.items():
        assert st.t == pytest.approx(closed[i].t, rel=1e-15)
        assert np.max(np.abs(st.phi - closed[i].phi)) <= 1e-12 * np.max(np.abs(closed[i].phi))
    assert np.max(np.abs(closed[-1].phi[1])) > 1e-4


@pytest.mark.filterwarnings("ignore::vxsim.errors.AdiabaticityWarning")
@pytest.mark.parametrize("every, pairs", [(None, 24), (5, 28)])
def test_fused_loading_transform_count(monkeypatch, weak_beams64, grid64, every, pairs):
    # one transform pair per step, plus the trailing half kick of each of
    # the observed steps: the last alone, or 4, 9, 14, 19 and 22
    calls = {"fft2": 0, "ifft2": 0}
    for name in calls:
        def counted(a, _fn=getattr(evolution, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(a, **kwargs)

        monkeypatch.setattr(evolution, name, counted)
    observe = {} if every is None else {"snapshot_cb": lambda i, st: None,
                                        "observe": range(every, 24, every)}
    run_adiabatic_loading(_loaded_state(grid64, 0.4), weak_beams64, 0.004, 23, Ramp(0.2),
                          **observe)
    assert calls == {"fft2": pairs, "ifft2": pairs}


@pytest.mark.filterwarnings("ignore::vxsim.errors.AdiabaticityWarning")
def test_drivers_share_the_observation_schedule(weak_beams64, grid64):
    # both drivers call back after each observed count and after the last step
    observe, n = {5, 10, 12}, 23
    psi = np.exp(-(grid64.r_map**2)).astype(complex)
    z = np.zeros(grid64.shape)

    def load(observe):
        seen = []
        run_adiabatic_loading(_loaded_state(grid64, 0.4), weak_beams64, 0.004, n, Ramp(0.2),
                              snapshot_cb=lambda i, st: seen.append(i), observe=observe)
        return seen

    def hold(observe):
        seen = []
        evolve_two_flavor(np.stack([psi, psi]), np.zeros((2, 2) + grid64.shape), np.stack([z, z]),
                          z, 0.004, n, grid64, callback=lambda i, phi: seen.append(i),
                          observe=observe)
        return seen

    for driver in (load, hold):
        assert driver(observe) == [4, 9, 11, 22]
        assert driver(()) == [22]
        for outside in ({0}, {n + 1}):
            with pytest.raises(ValueError, match="outside 1..23"):
                driver(outside)


def test_fused_step_divergence_names_its_step(monkeypatch, weak_beams64, grid64):
    # without a callback every step but the first and last opens with one
    # fused kinetic step; the 8th inverse transform is the kick of step 7
    real = evolution.ifft2
    count = [0]

    def poisoned(a, **kwargs):
        out = real(a, **kwargs)
        count[0] += 1
        if count[0] == 8:
            out[0, 3, 3] = np.nan
        return out

    monkeypatch.setattr(evolution, "ifft2", poisoned)
    with pytest.raises(DivergenceError, match="non-finite") as exc:
        run_adiabatic_loading(_loaded_state(grid64, 0.4), weak_beams64, 0.004, 20, Ramp(0.2))
    assert exc.value.step == 7


@pytest.mark.filterwarnings("ignore::vxsim.errors.AdiabaticityWarning")
def test_stepping_allocates_no_state(weak_beams64, grid64):
    # the stepper's work arrays are built once per run and the kicks
    # transform state.phi in place, so steps after the first make no
    # (5, nx, ny) temporaries; per-step kick outputs would add two each
    state = _loaded_state(grid64, 0.4)
    stepper = SplitStepper(weak_beams64, 0.016, n_steps=11, observe=range(1, 12))
    stepper.advance(state, 0.5)
    buffer = state.phi
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            stepper.advance(state, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < state.phi.nbytes
    assert np.shares_memory(state.phi, buffer)
    assert stepper.index == 11 and stepper.terms > 0


def test_stepper_rejects_another_grid(weak_beams64, grid16):
    stepper = SplitStepper(weak_beams64, 0.004, n_steps=2)
    for call in (stepper.advance, stepper.local):
        with pytest.raises(ValueError, match=r"state grid \(16, 16\)"):
            call(_blank_state(grid16))
    assert stepper.index == 0 and stepper.terms == 0


def _traced(build):
    """``(result, held, peak)``: what ``build()`` returns, the bytes it left
    allocated and its peak above the start, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def _beams128(grid128):
    return lg_beams(grid128, l1=1, l2=-1, probe_peak=0.3, probe_waist=2.0,
                    control_peak=10.0, control_waist=6.0)


def test_stepper_holds_each_coupling_once(grid128):
    # the full kinetic phase, four -i*dt*Omega fields and the block buffers
    # (25 block planes of a quarter plane each) make 11.3 complex planes;
    # a held half phase made 12.3, held conjugate copies 15.8, and building
    # them beside the raw fields peaked at 19.8.  Margin: half a plane.
    beams = _beams128(grid128)
    plane = 128 * 128 * 16
    _, held, peak = _traced(lambda: SplitStepper(beams, 0.004))
    assert held / plane < 11.75
    assert peak / plane < 11.75


def test_observed_step_keeps_no_half_phase(grid128):
    # each half kick builds its phase in one complex plane, k2 (half a
    # plane) cast into it, and drops it with the kick
    stepper = SplitStepper(_beams128(grid128), 0.004, n_steps=2, observe=(1,))
    state = _blank_state(grid128)
    _, held, peak = _traced(lambda: stepper.advance(state))
    assert stepper.closed
    assert held / (128 * 128 * 16) < 0.1
    assert peak / (128 * 128 * 16) < 1.75


def test_local_series_makes_no_ufunc_buffers(grid128):
    # abs of the strided phi[:, block] in the norm scan and the
    # float-to-complex multiply into the diagonal each went through a ufunc
    # buffer of half a plane (0.507 planes peak); the scan now takes one
    # contiguous component block at a time and the diagonal is written
    # into its imaginary part
    stepper = SplitStepper(_beams128(grid128), 0.004)
    state = _loaded_state(grid128, 0.1)
    _, held, peak = _traced(lambda: stepper.local(state, 0.5))
    assert stepper.terms > 0
    assert held / (128 * 128 * 16) < 0.05
    assert peak / (128 * 128 * 16) < 0.05


def test_kicks_apply_the_closed_form_phases(uniform_beams, grid16):
    # with no couplings, traps or mean field the local step leaves phi as it
    # is, so three steps are kicks by exp(-i*k2*dt/4), exp(-i*k2*dt/2) twice
    # and exp(-i*k2*dt/4), bit for bit, whether built per step or per run
    dt = 0.004
    rng = np.random.default_rng(6)
    state = _blank_state(grid16)
    state.phi = rng.standard_normal(state.phi.shape) + 1j * rng.standard_normal(state.phi.shape)
    ref = state.phi.copy()
    stepper = SplitStepper(uniform_beams(grid16), dt, n_steps=3)
    for _ in range(3):
        stepper.advance(state)
    kxm, kym = np.meshgrid(grid16.kx, grid16.ky, indexing="ij")
    k2 = kxm ** 2 + kym ** 2
    half, full = np.exp(-0.25j * k2 * dt), np.exp(-0.5j * k2 * dt)
    for phase in (half, full, full, half):
        ref = ifft2(fft2(ref) * phase)
    assert np.array_equal(state.phi, ref)


def test_norm_and_populations_square_one_component_at_a_time(grid64):
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((5, 64, 64)) + 1j * rng.standard_normal((5, 64, 64))
    state = MatterState(grid64, phi, np.zeros((64, 64)), 0.1)
    (norm, pops), _, peak = _traced(lambda: (state.norm(), state.populations()))
    # a (5, nx, ny) density stack and its sum made 3 complex planes
    assert peak / (grid64.k2.size * 16) < 2.0
    # and the sums keep the stacked order bit for bit
    dens = np.abs(phi) ** 2
    assert norm == float(np.sqrt(grid64.integrate(np.sum(dens, axis=0))))
    assert np.array_equal(pops, [grid64.integrate(d) for d in dens])


def test_stepper_derives_the_conjugate_couplings_exactly(grid16):
    # for f = -1j*dt one product in each part of f*w is zero, so
    # f*conj(w) = -conj(f*w) bit for bit in every nonzero part, also after
    # scaling by the ramp (a zero part may differ in sign only, which
    # compares equal); the stepper derives each block's conjugate couplings
    # from its (ramp-scaled) f*Omega by that identity.  Random amplitudes
    # with exact zeros, vortex phases and one tilted control give parts of
    # both signs.
    rng = np.random.default_rng(5)
    control = 1.0 + rng.random((2,) + grid16.shape)
    probe = 0.1 * control * rng.random((2,) + grid16.shape)
    probe[:, ::3] = 0.0
    beams = BeamSet(grid=grid16, p1=probe[0], p2=probe[1], c1=control[0], c2=control[1],
                    l1=1, l2=-2, kc2=(1.0, -2.0))
    omegas = [om() for om in (beams.omega_p1, beams.omega_p2, beams.omega_c1, beams.omega_c2)]
    for dt, scale in ((0.004, 1.0), (0.016, 0.37), (1e-3 / 3, 1e-9)):
        f = -1j * dt
        for w in omegas:
            fw = w.copy()
            fw *= f
            for g in (1.0, scale):
                assert np.array_equal(np.multiply(g, f * np.conj(w)).view(np.float64),
                                      (-np.conj(np.multiply(g, fw))).view(np.float64))
        stepper = SplitStepper(beams, dt)
        stepper.local(_blank_state(grid16), scale)
        assert stepper._blocks == [slice(0, 16)]
        expected = [np.multiply(scale, f * om) for om in omegas[:2]]
        expected += [np.multiply(scale, f * np.conj(om)) for om in omegas[:2]]
        expected += [f * np.conj(om) for om in omegas[2:]]
        assert len(stepper._scaled) == len(expected)
        for got, want in zip(stepper._scaled, expected):
            assert np.array_equal(got.view(np.float64), want.view(np.float64))


def _golden_local(stepper, beams, state, scale):
    """The local series as it stood before its passes were cut, term by
    term: the scale from every ``|phi|``, a diagonal of five trap planes
    (V1 and four zero planes) plus the detunings, the dense diagonal
    product, the eight coupling products in this order, ``term *= 1/k`` and
    the two-sided ``max(max, -min)`` test.  Updates ``state.phi`` like
    ``stepper.local`` and returns the terms it took."""
    phi, dt = state.phi, stepper.dt
    eps = np.array([0.0, beams.eps12, beams.eps13, beams.eps14, beams.eps15])
    tol = 1e-16 * float(np.max(np.abs(phi))) / np.sqrt(2.0)
    terms = 0
    for block in stepper._blocks:
        p = phi[:, block]
        rho_low = np.zeros(p.shape[1:])
        for c in p[:3]:
            rho_low += c.real ** 2
            rho_low += c.imag ** 2
        traps = np.zeros(p.shape)
        traps[0] = state.traps[block]
        real = traps + eps[:, None, None]
        real[:3] += state.u * rho_low
        diag = np.zeros(p.shape, dtype=complex)
        diag.imag = real * -dt
        p1, p2 = (scale * a[block] for a in stepper._probes)
        c1, c2 = (a[block] for a in stepper._controls)
        p1c, p2c, c1c, c2c = (np.conj(-a) for a in (p1, p2, c1, c2))
        couplings = ((0, p1c, 3), (0, p2c, 4), (1, c1c, 3), (2, c2c, 4),
                     (3, p1, 0), (3, c1, 1), (4, p2, 0), (4, c2, 2))
        src = p.copy()
        for k in range(1, 33):
            term = diag * src
            for row, coupling, col in couplings:
                term[row] += coupling * src[col]
            term *= 1.0 / k
            p += term
            flat = term.view(np.float64)
            if max(float(flat.max()), -float(flat.min())) <= tol:
                terms += k
                break
            src = term
        else:
            raise AssertionError("the golden series did not converge")
    return terms


def _populated(grid, u):
    """A loaded state with every level populated, so that every coupling
    acts."""
    state = _loaded_state(grid, u)
    for level in range(1, 5):
        state.phi[level] = 0.1 * np.exp(1j * level * grid.phi_map) * state.phi[0]
    return state


def _golden_cases(weak_beams64, grid64):
    # (a) the weak pair, no excited diagonal: rows 4 and 5 skip it
    yield "weak", weak_beams64, _populated(grid64, 0.4), 0.004
    # (b) the acceptance strengths with tilted controls and level shifts
    grid32 = make_grid(32, 32, 16.0, 16.0)
    acceptance = lg_beams(grid32, l1=1, l2=-1, probe_peak=0.8, probe_waist=2.0,
                          control_peak=12.0, control_waist=6.0, kc1=(0.4, 0.0),
                          kc2=(0.0, -0.4), eps12=0.02, eps13=-0.03, eps14=0.5, eps15=-0.4)
    yield "acceptance", acceptance, _populated(grid32, 0.02), 0.004
    # (c) two 16-row blocks under an excited-level detuning: the second
    # block takes the same diagonal of rows 4 and 5 as the first
    wide = make_grid(32, 256, 16.0, 16.0)
    beams = lg_beams(wide, l1=1, l2=-1, probe_peak=0.3, probe_waist=2.0,
                     control_peak=10.0, control_waist=6.0, eps14=0.5)
    yield "two-blocks", beams, _populated(wide, 0.4), 0.001
    # (d) the largest modulus in an excited level, so that its |phi| is
    # taken; the tolerance of the ground's alone would cost a term more
    state = _populated(grid64, 0.4)
    state.phi[3] = 1e3 * np.exp(0.25j * np.pi) * state.phi[0]
    assert np.abs(state.phi[3]).max() > np.abs(state.phi[:3]).max()
    yield "excited-peak", weak_beams64, state, 0.004


def test_local_series_matches_the_golden_model(weak_beams64, grid64):
    # cutting passes from the series changed no value and no term count
    for name, beams, a, dt in _golden_cases(weak_beams64, grid64):
        b = a.copy()
        stepper = SplitStepper(beams, dt)
        if name == "two-blocks":
            assert len(stepper._blocks) == 2
        stepper.local(a, 0.7)
        terms = _golden_local(stepper, beams, b, 0.7)
        assert np.array_equal(a.phi, b.phi), name
        assert stepper.terms == terms, name


def _overflowing_case(beams, grid, last):
    """Beams and a state whose series overflows to -inf in real parts only
    while its largest part stays finite and above the tolerance: in term 1,
    or (with ``last``) in the last term the series takes."""
    state = _blank_state(grid)
    if last:
        # pure diagonal growth on the excited levels, term k = (-i d)^k/k! phi
        # with d = 64 on level 4 and 32 on level 5; term 32 of level 4
        # overflows to -inf, level 5's stays finite and positive
        state.phi[3], state.phi[4] = -3.5e284, 3.5e284
        return beams(grid, eps14=64.0, eps15=32.0), state
    state.traps[:] = -1e200
    state.phi[0] = state.phi[1] = 1e150j
    return beams(grid, eps12=1.0), state


@pytest.mark.parametrize("last", [False, True])
def test_series_flags_a_term_gone_to_minus_inf(uniform_beams, grid16, last):
    # the convergence test reduces a term's smallest part only when its
    # largest is within the tolerance; a -inf beside a large finite maximum
    # is still reported as non-finite, in the step it appears in
    beams, state = _overflowing_case(uniform_beams, grid16, last)
    stepper = SplitStepper(beams, 1.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match="non-finite") as exc:
        stepper.local(state)
    assert exc.value.step == 0
