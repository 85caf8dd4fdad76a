import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vxsim.diagnostics import LoopSpec, winding
from vxsim.errors import QuadratureError
from vxsim.grid import make_grid
from vxsim.outcoupling import (
    EnvelopeHistory,
    OutcouplingParams,
    delay,
    delay_table,
    group_velocity,
    output_field,
    output_map,
    time_flux,
)


def make_params(**overrides):
    kw = dict(g1=8.0, g2=8.0, omega0_1=4.0, omega0_2=4.0,
              n=1.0, v0=0.04, c=1.0, length=1.0)
    kw.update(overrides)
    return OutcouplingParams(**kw)


def test_group_velocity_limits():
    # no coupling: light speed
    assert group_velocity(0.0, 1.0, 2.0, 0.01, 1.0) == 1.0
    # overwhelming coupling: the atomic beam speed
    assert group_velocity(100.0, 1.0, 0.01, 0.01, 1.0) == pytest.approx(0.01, rel=1e-5)
    # x = g^2 n / omega0^2 = 1: the arithmetic mean
    assert group_velocity(1.0, 1.0, 1.0, 0.25, 1.0) == pytest.approx(0.625, abs=1e-15)
    assert group_velocity(2.0, 1.0, 2.0, 0.5, 1.0) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(ValueError, match="omega0"):
        group_velocity(1.0, 1.0, 0.0, 0.1, 1.0)


@given(
    g=st.floats(0.0, 50.0),
    n=st.floats(0.0, 10.0),
    omega0=st.floats(1e-3, 50.0),
    v0=st.floats(1e-4, 0.9),
)
def test_group_velocity_bounded(g, n, omega0, v0):
    c = 1.0
    vg = group_velocity(g, n, omega0, v0, c)
    assert v0 <= vg <= c
    # more coupling never speeds the polariton up
    assert group_velocity(g + 1.0, n + 0.1, omega0, v0, c) <= vg


def test_delay_bounds():
    p = make_params(g1=30.0, omega0_1=5.0, v0=0.02, length=2.0)
    tau = delay(p, 1)
    assert p.length / p.c <= tau <= p.length / p.v0


def test_delay_constant_profile_exact():
    p = make_params(g1=3.0, omega0_1=2.0, v0=0.05, length=2.0,
                    profile=lambda s: 1.0)
    vg = group_velocity(3.0, 1.0, 2.0, 0.05, 1.0)
    assert delay(p, 1) == pytest.approx(p.length / vg, rel=1e-12)


def test_delay_linear_ramp_against_dense_quadrature():
    prof = lambda s: 1.0 - s
    p = make_params(g1=10.0, v0=0.03, length=1.5, profile=prof)
    s = np.linspace(0.0, 1.0, 2_000_001)
    shape = np.maximum(1.0 - s, 1e-6)  # same floor the integrator applies
    x = p.g1**2 * p.n / (p.omega0_1 * shape) ** 2
    vg = (p.c + x * p.v0) / (1.0 + x)
    ref = np.trapezoid(1.0 / vg, s * p.length)
    assert delay(p, 1) == pytest.approx(ref, rel=1e-8)


def test_delay_oscillatory_profile_raises():
    prof = lambda s: 0.5 + 0.5 * math.sin(2e4 / (s + 1e-4))
    p = make_params(profile=prof)
    with pytest.raises(QuadratureError, match="quadrature"):
        delay(p, 1)


def test_delay_table_oscillatory_profile_raises():
    prof = lambda s: 0.5 + 0.5 * math.sin(2e4 / (s + 1e-4))
    p = make_params(profile=prof)
    with pytest.raises(QuadratureError, match="delay table segment 1"):
        delay_table(p, 1, n_rows=11)


IMPORT_PROBE = """
import sys
import vxsim
heavy = ("scipy.fft", "scipy.special", "scipy.linalg", "scipy.integrate",
         "scipy.optimize", "scipy.sparse", "numpy.f2py", "numpy.testing")
print(",".join(m for m in heavy if m in sys.modules))
p = vxsim.outcoupling.OutcouplingParams(
    g1=8.0, g2=8.0, omega0_1=4.0, omega0_2=4.0, n=1.0, v0=0.04, c=1.0, length=1.0)
print(repr(vxsim.outcoupling.delay(p, 1)))
"""


def test_import_loads_no_integrate_or_linalg():
    # every run is a fresh process, so what ``import vxsim`` loads is paid by
    # each run: numpy and a bare ``import scipy``, no scipy submodule;
    # scipy.integrate is loaded only when a delay is integrated
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == ""
    assert float(out[1]) == pytest.approx(13.111343968404773, rel=1e-13)


def test_delay_table_consistency():
    p = make_params(g1=12.0, v0=0.05, length=2.0)
    rows = delay_table(p, 1, n_rows=41)
    zs = np.array([r[0] for r in rows])
    vgs = np.array([r[1] for r in rows])
    taus = np.array([r[2] for r in rows])
    assert zs[0] == 0.0 and zs[-1] == p.length
    assert taus[0] == 0.0
    assert np.all(np.diff(taus) > 0)
    assert np.all((p.v0 <= vgs) & (vgs <= p.c))
    assert taus[-1] == pytest.approx(delay(p, 1), rel=1e-10)
    with pytest.raises(ValueError, match="two rows"):
        delay_table(p, 1, n_rows=1)


def test_params_validation():
    with pytest.raises(ValueError, match="v0"):
        make_params(v0=2.0)
    with pytest.raises(ValueError, match="positive"):
        make_params(omega0_1=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        make_params(n=-1.0)
    with pytest.raises(ValueError, match="length"):
        make_params(length=0.0)


# --- envelope histories and the exit-face map -------------------------------


@pytest.fixture(scope="module")
def pulse_history():
    g = make_grid(32, 32, 16.0, 16.0)
    times = np.linspace(0.0, 6.0, 41)
    ring = (g.r_map / 1.5) * np.exp(-((g.r_map / 1.5) ** 2))
    env = np.exp(-(((times - 3.0) / 1.0) ** 2))
    vals = (env[:, None, None] * ring[None]).astype(complex)
    return EnvelopeHistory(grid=g, times=times, values=vals)


def test_history_validation(pulse_history):
    g = pulse_history.grid
    with pytest.raises(ValueError, match="two time samples"):
        EnvelopeHistory(grid=g, times=[0.0], values=np.zeros((1,) + g.shape))
    with pytest.raises(ValueError, match="strictly increasing"):
        EnvelopeHistory(grid=g, times=[0.0, 0.0], values=np.zeros((2,) + g.shape))
    with pytest.raises(ValueError, match="shape"):
        EnvelopeHistory(grid=g, times=[0.0, 1.0], values=np.zeros((3,) + g.shape))
    with pytest.raises(ValueError, match="precedes"):
        pulse_history.sample(-1.0)
    with pytest.raises(ValueError, match="past recorded history"):
        pulse_history.sample(100.0)


def test_history_interpolation(pulse_history):
    t0, t1 = pulse_history.times[3], pulse_history.times[4]
    mid = pulse_history.sample(0.5 * (t0 + t1))
    expected = 0.5 * (pulse_history.values[3] + pulse_history.values[4])
    np.testing.assert_allclose(mid, expected, atol=1e-15)
    np.testing.assert_array_equal(pulse_history.sample(t0), pulse_history.values[3])


def test_output_map_shift_factor_and_winding(pulse_history):
    g = pulse_history.grid
    p = make_params()
    out = output_map(pulse_history, p, 2, phase_j=g.phi_map)
    tau = delay(p, 1)
    np.testing.assert_allclose(out.times, pulse_history.times + tau, rtol=1e-14)
    k = 20
    expected = -math.sqrt(p.c / p.v0) * np.exp(1j * g.phi_map) * pulse_history.values[k]
    np.testing.assert_allclose(out.values[k], expected, atol=1e-13)
    loop = LoopSpec(center=(0.0, 0.0), radius=2.0)
    assert winding(output_field(out, k), loop).value == 1
    out3 = output_map(pulse_history, p, 3, phase_j=-2.0 * g.phi_map)
    assert winding(output_field(out3, k), loop).value == -2


def test_output_map_uses_pair_delay(pulse_history):
    p = make_params(g2=16.0)  # pair 2 couples harder, so it is slower
    out3 = output_map(pulse_history, p, 3, phase_j=np.zeros(pulse_history.grid.shape))
    np.testing.assert_allclose(out3.times, pulse_history.times + delay(p, 2), rtol=1e-14)
    assert delay(p, 2) > delay(p, 1)


def test_output_flavor_validation(pulse_history):
    p = make_params()
    with pytest.raises(ValueError, match="2 or 3"):
        output_map(pulse_history, p, 1, phase_j=np.zeros(pulse_history.grid.shape))


def test_flux_conservation(pulse_history):
    # photon flux in equals atom flux out: c int |E|^2 = v0 int |Phi|^2
    p = make_params()
    out = output_map(pulse_history, p, 2, phase_j=pulse_history.grid.phi_map)
    fin = time_flux(pulse_history, p.c)
    fout = time_flux(out, p.v0)
    assert fout == pytest.approx(fin, rel=1e-8)


def test_time_flux_constant_envelope():
    g = make_grid(16, 16, 4.0, 4.0)
    times = np.linspace(0.0, 2.0, 9)
    vals = np.full((9,) + g.shape, 0.5 + 0.0j)
    hist = EnvelopeHistory(grid=g, times=times, values=vals)
    # speed * |f|^2 * area * duration = 3 * 0.25 * 16 * 2
    assert time_flux(hist, 3.0) == pytest.approx(24.0, rel=1e-13)
