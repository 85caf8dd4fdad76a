import numpy as np
import pytest

from vxsim.beams import BeamSet, lg_beams, xi_ratios
from vxsim.diagnostics import (
    LoopSpec,
    analytic_state,
    circulation,
    compare_states,
    winding,
)
from vxsim.errors import PhaseUndefinedError
from vxsim.grid import Field, make_grid


@pytest.fixture(scope="module")
def vortex_field(grid64):
    f = (grid64.r_map / 1.5) * np.exp(-((grid64.r_map / 1.5) ** 2))
    return Field(grid64, f * np.exp(1j * grid64.phi_map))


def ring_field(grid, l):
    f = (grid.r_map / 1.5) * np.exp(-((grid.r_map / 1.5) ** 2))
    return Field(grid, f * np.exp(1j * l * grid.phi_map))


def test_winding_basic_charges(grid64, vortex_field):
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    w = winding(vortex_field, loop)
    assert w.value == 1
    assert abs(w.residual) < 1e-12
    assert int(w) == 1
    assert winding(ring_field(grid64, -2), loop).value == -2
    flat = Field(grid64, np.full(grid64.shape, 0.3 + 0.1j))
    assert winding(flat, loop).value == 0


def test_winding_radius_and_center_invariance(grid64, vortex_field):
    for spec in (
        LoopSpec(center=(0.0, 0.0), radius=1.5),
        LoopSpec(center=(0.0, 0.0), radius=5.0),
        LoopSpec(center=(0.5, -0.3), radius=2.0),
    ):
        assert winding(vortex_field, spec).value == 1
    # loop not enclosing the core
    assert winding(vortex_field, LoopSpec(center=(5.0, 0.0), radius=1.4)).value == 0


def test_circulation_quantized(grid64):
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    assert circulation(ring_field(grid64, 1), loop) == pytest.approx(2.0 * np.pi, abs=1e-10)
    assert circulation(ring_field(grid64, -1), loop) == pytest.approx(-2.0 * np.pi, abs=1e-10)
    assert circulation(ring_field(grid64, 3), loop) == pytest.approx(6.0 * np.pi, abs=1e-10)


def test_phase_undefined_on_amplitude_hole(grid64, vortex_field):
    vals = vortex_field.values.copy()
    vals[np.abs(grid64.r_map - 3.0) < 0.3] = 0.0
    holed = Field(grid64, vals)
    with pytest.raises(PhaseUndefinedError, match="phase undefined"):
        winding(holed, LoopSpec(center=(0.0, 0.0), radius=3.0))


def test_loop_spec_validation(grid64, vortex_field):
    with pytest.raises(ValueError, match="positive"):
        LoopSpec(center=(0.0, 0.0), radius=-1.0)
    with pytest.raises(ValueError, match="64"):
        LoopSpec(center=(0.0, 0.0), radius=2.0, n_samples=32)
    with pytest.raises(ValueError, match="under-resolved"):
        winding(vortex_field, LoopSpec(center=(0.0, 0.0), radius=0.6))
    with pytest.raises(ValueError, match="exits the grid"):
        winding(vortex_field, LoopSpec(center=(7.0, 0.0), radius=2.0))


# --- analytic dark-state fields -------------------------------------------


def test_analytic_state_windings_and_conjugacy(weak_beams64, grid64):
    rho = np.exp(-grid64.r_map**2 / 18.0)
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    plus, minus = analytic_state(weak_beams64, rho)
    assert winding(plus, loop).value == 1
    assert winding(minus, loop).value == -1
    # equal ratio moduli: the two flavors are exact conjugates
    np.testing.assert_allclose(minus.values, np.conj(plus.values), atol=1e-15)
    # each flavor is its own ratio times -sqrt(rho)
    xi1, xi2 = xi_ratios(weak_beams64)
    np.testing.assert_array_equal(plus.values, -xi1 * np.sqrt(rho))
    np.testing.assert_array_equal(minus.values, -xi2 * np.sqrt(rho))


def test_analytic_state_follows_each_ratio(grid64):
    # a non-opposite, unequal pair: each flavor winds with its own probe
    beams = lg_beams(grid64, l1=1, l2=2, probe_peak=0.3, probe_waist=2.0,
                     control_peak=10.0, control_waist=6.0)
    rho = np.exp(-grid64.r_map**2 / 18.0)
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    phi2, phi3 = analytic_state(beams, rho)
    assert (winding(phi2, loop).value, winding(phi3, loop).value) == (1, 2)


def test_analytic_state_rejects_tilts(grid64):
    ones = np.ones(grid64.shape)
    tilted = BeamSet(
        grid=grid64, p1=0.1 * ones, p2=0.1 * ones, c1=ones, c2=ones,
        l1=1, l2=-1, kp1=(0.3, 0.0),
    )
    rho = np.ones(grid64.shape)
    with pytest.raises(ValueError, match="tilt"):
        analytic_state(tilted, rho)


# --- state comparison ------------------------------------------------------


def test_compare_identical(vortex_field):
    rep = compare_states(vortex_field, vortex_field)
    # the optimal-phase rotation is applied even here, so allow its roundoff
    assert rep.l2_error < 1e-30
    assert abs(rep.global_phase) < 1e-30


def test_compare_recovers_global_phase(grid64, vortex_field):
    theta = 1.234
    rotated = Field(grid64, vortex_field.values * np.exp(1j * theta))
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    rep = compare_states(vortex_field, rotated, loops=(loop,))
    assert rep.global_phase == pytest.approx(theta, abs=1e-12)
    assert rep.l2_error < 1e-14
    assert rep.windings_a == (1,) and rep.windings_b == (1,)
    assert rep.windings_agree


def test_compare_scale_mismatch(grid64, vortex_field):
    doubled = Field(grid64, 2.0 * vortex_field.values)
    rep = compare_states(vortex_field, doubled)
    assert rep.l2_error == pytest.approx(0.5, rel=1e-12)


def test_compare_grid_mismatch(vortex_field):
    other = make_grid(32, 32, 16.0, 16.0)
    f = Field(other, np.ones(other.shape, dtype=complex))
    with pytest.raises(ValueError, match="different grids"):
        compare_states(vortex_field, f)
