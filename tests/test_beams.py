from dataclasses import replace

import numpy as np
import pytest

from vxsim.beams import (
    BeamSet,
    lg_amplitude,
    lg_beams,
    rabi_field,
    ratio_factors,
    xi_ratios,
)
from vxsim.errors import MaskError, WeakProbeWarning


def test_lg_ring_peak_location_and_value():
    # r^|l| e^{-r^2/w^2} peaks at r = w*sqrt(|l|/2); for l = 2, w = 1 the
    # peak sits at r = 1 with value e^{-1}
    r = np.linspace(0.0, 4.0, 100001)
    prof = lg_amplitude(r, 2, 1.0, 1.0)
    k = int(np.argmax(prof))
    assert r[k] == pytest.approx(1.0, abs=1e-3)
    assert prof[k] == pytest.approx(np.exp(-1.0), rel=1e-6)
    assert lg_amplitude(1.0, 2, 1.0, 1.0) == pytest.approx(np.exp(-1.0))


def test_lg_gaussian_and_axis_zero():
    assert lg_amplitude(0.0, 0, 2.0, 3.0) == 3.0
    assert lg_amplitude(0.0, 1, 2.0, 3.0) == 0.0
    assert lg_amplitude(np.array([0.0, 1.0]), -1, 2.0, 1.0)[1] == pytest.approx(
        0.5 * np.exp(-0.25)
    )


def test_lg_amplitude_validation():
    with pytest.raises(ValueError, match="waist"):
        lg_amplitude(1.0, 0, 0.0, 1.0)
    with pytest.raises(ValueError, match="peak"):
        lg_amplitude(1.0, 0, 1.0, -1.0)


def test_rabi_field_phase(grid16):
    amp = np.ones(grid16.shape)
    f = rabi_field(amp, 2, (0.0, 0.0), grid16)
    assert np.allclose(np.abs(f), 1.0)
    assert np.allclose(np.angle(f), np.angle(np.exp(2j * grid16.phi_map)))
    tilted = rabi_field(amp, 0, (1.0, 0.0), grid16)
    i, j = 12, 3
    assert np.angle(tilted[i, j]) == pytest.approx(
        np.angle(np.exp(1j * grid16.x[i])), abs=1e-12
    )
    with pytest.raises(ValueError, match="shape"):
        rabi_field(np.ones((4, 4)), 0, (0.0, 0.0), grid16)


def test_beamset_rejects_strong_probe(grid64):
    ones = np.ones(grid64.shape)
    with pytest.raises(ValueError, match="ratio"):
        BeamSet(grid=grid64, p1=0.4 * ones, p2=0 * ones, c1=ones, c2=ones, l1=1, l2=-1)


def test_beamset_warns_above_weak_probe(grid64):
    ones = np.ones(grid64.shape)
    with pytest.warns(WeakProbeWarning):
        BeamSet(grid=grid64, p1=0.2 * ones, p2=0 * ones, c1=ones, c2=ones, l1=1, l2=-1)


def test_beamset_rejects_probe_over_dead_control(grid64):
    ones = np.ones(grid64.shape)
    dead = ones.copy()
    dead[0, 0] = 0.0
    with pytest.raises(ValueError, match="underflows"):
        BeamSet(grid=grid64, p1=0.1 * ones, p2=0 * ones, c1=dead, c2=ones, l1=1, l2=-1)


def test_beamset_rejects_negative_and_nonfinite(grid64):
    ones = np.ones(grid64.shape)
    neg = np.zeros(grid64.shape)
    neg[3, 3] = -0.01
    with pytest.raises(ValueError, match="non-negative"):
        BeamSet(grid=grid64, p1=neg, p2=0 * ones, c1=ones, c2=ones, l1=1, l2=-1)
    bad = ones.copy()
    bad[3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        BeamSet(grid=grid64, p1=0 * ones, p2=0 * ones, c1=bad, c2=ones, l1=1, l2=-1)


def test_lg_beams_control_waist_rule(grid64):
    with pytest.raises(ValueError, match="3x"):
        lg_beams(grid64, 1, -1, 0.1, 2.0, 10.0, 5.0)


def test_xi_ratios_phases_and_moduli(weak_beams64, grid64):
    xi1, xi2 = xi_ratios(weak_beams64)
    assert np.max(np.abs(xi1)) <= 0.05
    live = grid64.r_map > 0.5
    assert np.allclose(
        np.angle(xi1[live] * np.exp(-1j * grid64.phi_map[live])), 0.0, atol=1e-12
    )
    assert np.allclose(
        np.angle(xi2[live] * np.exp(1j * grid64.phi_map[live])), 0.0, atol=1e-12
    )
    assert np.allclose(np.abs(xi1), np.abs(xi2))
    assert np.array_equal(xi2, np.conj(xi1))
    # a tilted, unequal pair: each ratio is its probe's Rabi field over its
    # control's
    beams = lg_beams(grid64, l1=1, l2=-2, probe_peak=0.3, probe_waist=2.0,
                     control_peak=10.0, control_waist=6.0, kp1=(0.3, 0.1), kc2=(-0.2, 0.0))
    beams = replace(beams, p2=0.6 * beams.p2)
    for xi, want in zip(xi_ratios(beams), (beams.omega_p1() / beams.omega_c1(),
                                           beams.omega_p2() / beams.omega_c2())):
        assert np.abs(xi - want).max() <= 1e-15 * np.abs(want).max()


def test_xi_ratios_guards_control_underflow(grid64):
    zeros = np.zeros(grid64.shape)
    narrow = lg_amplitude(grid64.r_map, 0, 1.0, 1.0)  # underflows in the corners
    beams = BeamSet(grid=grid64, p1=zeros, p2=zeros, c1=narrow, c2=narrow, l1=1, l2=-1)
    with pytest.raises(MaskError, match="undefined"):
        xi_ratios(beams)
    with pytest.raises(MaskError, match="undefined"):
        ratio_factors(beams)
