from dataclasses import replace

import numpy as np
import pytest

from vxsim.beams import lg_beams, xi_ratios
from vxsim.diagnostics import LoopSpec, loop_integral
from vxsim.errors import MaskError, TrapSolveError
from vxsim.evolution import qp_cancel_potential, thomas_fermi_density
from vxsim.gauge import (
    _phase_current,
    _vector_gradient,
    effective_potentials,
    fill_masked,
    flavor_fields,
    gauge_potentials,
    solve_traps,
    vortex_gauge_field,
)
from vxsim.grid import make_grid


def vec_mag(v):
    return np.hypot(v[0], v[1])


@pytest.fixture(scope="module")
def synthetic_ring_ratios(grid128):
    # conjugate-phase ratio pair with distinct radial envelopes; narrow
    # enough that the amplitudes reach machine zero inside the box, so the
    # spectral gradients are Gibbs-free up to roundoff
    r, ph = grid128.r_map, grid128.phi_map
    f1 = 0.20 * (r / 1.2) * np.exp(-((r / 1.2) ** 2))
    f2 = 0.35 * (r / 1.5) * np.exp(-((r / 1.5) ** 2))
    return f1, f2, f1 * np.exp(1j * ph), f2 * np.exp(-1j * ph)


def test_symbolic_phase_gradient_closed_forms():
    """The pole-free expressions reduce, for xi1 = a e^{il phi} and
    xi2 = b e^{-il phi} with constant moduli, to azimuthal fields

        Im A1 = l (a^2 - b^2) / (r Xi1),
        Im A2 = l (1 + 2 a^2) / (r Xi1),
        Im A3 = -l (1 + 2 b^2) / (r Xi1),

    whose combination Im(A2 + A3 - 2 A1) vanishes identically.  Verified
    symbolically on the positive x axis (phi = 0, r = x); radial envelopes
    only add real radial terms that the imaginary part drops, and are
    covered by the numeric closed-form test below.
    """
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y", real=True)
    a, b = sp.symbols("a b", positive=True)
    l = sp.Symbol("l", integer=True)
    phi = sp.atan2(y, x)
    xi1 = a * sp.exp(sp.I * l * phi)
    xi2 = b * sp.exp(-sp.I * l * phi)
    big1 = 1 + a**2 + b**2
    grad = lambda f: sp.Matrix([sp.diff(f, x), sp.diff(f, y)])
    g1, g2 = grad(xi1), grad(xi2)
    a1 = (sp.conjugate(xi1) * g1 + sp.conjugate(xi2) * g2) / big1
    a2 = (-g2 + sp.conjugate(xi1) * (xi2 * g1 - xi1 * g2)) / (big1 * xi2)
    a3 = (-g1 + sp.conjugate(xi2) * (xi1 * g2 - xi2 * g1)) / (big1 * xi1)
    # on y = 0, x > 0 the y component is the phi-hat projection and the x
    # component is radial
    on_axis = lambda expr: sp.simplify(expr.subs(y, 0))
    assert on_axis(sp.im(a1[1]) - l * (a**2 - b**2) / (x * big1)) == 0
    assert on_axis(sp.im(a2[1]) - l * (1 + 2 * a**2) / (x * big1)) == 0
    assert on_axis(sp.im(a3[1]) + l * (1 + 2 * b**2) / (x * big1)) == 0
    assert on_axis(sp.im(a1[0])) == 0
    assert on_axis(sp.im(a2[0])) == 0
    assert on_axis(sp.im(a2[1] + a3[1] - 2 * a1[1])) == 0


def test_numeric_closed_forms_independent_envelopes(grid128, synthetic_ring_ratios):
    f1, f2, xi1, xi2 = synthetic_ring_ratios
    g = gauge_potentials(xi1, xi2, grid128)
    r = grid128.r_map
    inner = g.mask & (r < 3.5)
    denom = r[inner] * (1.0 + f1**2 + f2**2)[inner]
    pred1 = np.abs(f1**2 - f2**2)[inner] / denom
    pred2 = (1.0 + 2.0 * f1**2)[inner] / denom
    pred3 = (1.0 + 2.0 * f2**2)[inner] / denom
    assert np.max(np.abs(vec_mag(g.a2)[inner] / pred2 - 1.0)) < 1e-10
    assert np.max(np.abs(vec_mag(g.a3)[inner] / pred3 - 1.0)) < 1e-10
    assert np.max(np.abs(vec_mag(g.a1)[inner] - pred1)) < 1e-12 * np.max(pred1)
    # all three fields are azimuthal: radial projections vanish
    rhatx = grid128.xm / np.where(r == 0, 1.0, r)
    rhaty = grid128.ym / np.where(r == 0, 1.0, r)
    for a in g:
        rad = np.abs(a[0] * rhatx + a[1] * rhaty)
        assert np.nanmax(rad[inner]) < 1e-10 * np.nanmax(vec_mag(a)[inner] + 1.0)


def test_combination_identity_general_amplitudes(grid128, synthetic_ring_ratios):
    # Im(A2 + A3 - 2 A1) = -grad(R1 + R2) for any moduli, which vanishes
    # for opposite phase windings; held to the 1/|xi| roundoff
    # amplification at the mask floor
    _, _, xi1, xi2 = synthetic_ring_ratios
    g = gauge_potentials(xi1, xi2, grid128)
    comb = vec_mag(g.a2 + g.a3 - 2.0 * g.a1)
    assert np.nanmax(comb[g.mask]) < 1e-8 * np.nanmax(vec_mag(g.a2))


@pytest.mark.parametrize(
    "l1, l2, tilts",
    [
        pytest.param(1, -1, {"kp1": (0.3, 0.1), "kc2": (-0.2, 0.0)}, id="tilted"),
        pytest.param(1, 2, {}, id="non-opposite"),
    ],
)
def test_real_forms_match_complex_definitions(grid128, l1, l2, tilts):
    """The phase-current forms equal the imaginary parts of the complex
    dark-state potentials, collected over a common denominator."""
    beams = lg_beams(
        grid128, l1=l1, l2=l2, probe_peak=0.3, probe_waist=2.0,
        control_peak=10.0, control_waist=6.0, **tilts,
    )
    xi1, xi2 = xi_ratios(beams)
    g = gauge_potentials(xi1, xi2, grid128)

    g1 = _vector_gradient(xi1, grid128)
    g2 = _vector_gradient(xi2, grid128)
    big1 = 1.0 + np.abs(xi1) ** 2 + np.abs(xi2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = (
            (np.conj(xi1) * g1 + np.conj(xi2) * g2) / big1,
            (-g2 + np.conj(xi1) * (xi2 * g1 - xi1 * g2)) / (big1 * xi2),
            (-g1 + np.conj(xi2) * (xi1 * g2 - xi2 * g1)) / (big1 * xi1),
        )
    scale = np.nanmax(np.abs(g.a2))
    for a, full in zip(g, ref):
        want = np.where(g.mask, full.imag, np.nan)
        assert np.array_equal(np.isnan(a), np.isnan(want))
        assert np.nanmax(np.abs(a - want)) <= 1e-14 * scale


def test_degenerate_ratios_collapse(weak_beams64, grid64):
    """For pointwise-equal ratio moduli with opposite windings, A1 = 0 and
    A2 = -A3 = l grad(phi).  The cancellations survive at the mask floor
    because conjugate-pair inputs get conjugate-pair spectral gradients."""
    xi1, xi2 = xi_ratios(weak_beams64)
    g = gauge_potentials(xi1, xi2, grid64)
    scale = np.nanmax(vec_mag(g.a2))
    assert np.nanmax(vec_mag(g.a1)) < 1e-15 * scale
    assert np.nanmax(vec_mag(g.a2 + g.a3)) < 1e-10 * scale
    inner = g.mask & (grid64.r_map < 5.0)
    assert np.max(np.abs(vec_mag(g.a2)[inner] * grid64.r_map[inner] - 1.0)) < 1e-4
    assert np.max(np.abs(vec_mag(g.a3)[inner] * grid64.r_map[inner] - 1.0)) < 1e-4


@pytest.mark.parametrize("l", [1, 2])
def test_flavor_fields_of_the_degenerate_pair(grid128, l):
    """The conjugate pair xi2 = conj(xi1) gets exactly conjugate gradients,
    so J2 = -J1: the paper's A1 = 0 and A2 + A3 = 0 hold exactly, and so do
    a3 = -a2 and W3 = W2.  Flavor 2's field is the pure vortex field
    l grad(phi), with no core cut out."""
    beams = lg_beams(grid128, l, -l, 0.8, 2.0, 12.0, 6.0)
    xi1, xi2 = xi_ratios(beams)
    assert np.array_equal(xi2, np.conj(xi1))
    g = gauge_potentials(xi1, xi2, grid128)
    assert np.nanmax(np.abs(g.a1)) == 0.0
    assert np.nanmax(np.abs(g.a2 + g.a3)) == 0.0

    rho = thomas_fermi_density(grid128, 1.0, 5.0, 0.05)
    a, w = flavor_fields(beams, rho)
    assert a.shape == (2, 2) + grid128.shape and w.shape == (2,) + grid128.shape
    assert np.array_equal(a[1], -a[0])
    assert np.array_equal(w[1], w[0])
    np.testing.assert_array_equal(
        w[0], qp_cancel_potential(grid128, (beams.p1 / beams.c1) ** 2 * rho))

    m = np.abs(xi1)
    live = m > 1e-6 * m.max()
    vg = vortex_gauge_field(grid128, l)
    err = vec_mag(a[0] - vg)
    weighted = (m * err)[live].max() / (m * vec_mag(vg))[live].max()
    assert weighted < 1e-4
    bulk = live & (grid128.r_map < 5.0)
    assert err[bulk].max() < 1e-5 * vec_mag(vg)[live].max()


def test_flavor_fields_follow_each_probe(grid64):
    # unequal peaks, l = (1, -2) and a tilted control: each flavor's field
    # circulates 2 pi times its own probe's charge
    a, _ = flavor_fields(_tilted_unequal_pair(grid64), np.ones(grid64.shape))
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    for q, l in ((0, 1), (1, -2)):
        assert loop_integral(a[q], grid64, loop) == pytest.approx(2.0 * np.pi * l, rel=1e-3)


def _tilted_unequal_pair(grid):
    beams = lg_beams(grid, l1=1, l2=-2, probe_peak=0.3, probe_waist=2.0,
                     control_peak=10.0, control_waist=6.0, kc2=(-0.2, 0.0))
    return replace(beams, p2=0.6 * beams.p2)


@pytest.mark.parametrize("case", ["l=1", "l=2", "tilted l=1,-2"])
def test_flavor_fields_are_each_ratios_phase_gradient(grid64, grid128, case):
    """a_q - (kp_q - kc_q) is l_q grad(phi), of size |l_q|/r everywhere off
    the axis, and it is the phase gradient J_q/|xi_q|^2 of the ratio's own
    spectral phase current wherever |xi_q| is above 1e-2 of its peak.

    A spectral a_q = J_q/|xi_q|^2 exceeded |l_q|/r by up to 4.5 (l = 1) and
    7.2 (l = 2) on the ring r ~ 8.5 of the 128^2 box, where |xi_q| is 1e-6
    to 1e-5 of its peak, and by 2.9 and 4.6 for the tilted pair at 64^2.
    Measured against the spectral reference: 3.3e-5 (l = 1) and 2.6e-4
    (l = 2) at 128^2, 3.4e-5 and 5.9e-4 for the tilted pair."""
    if case == "tilted l=1,-2":
        grid, beams = grid64, _tilted_unequal_pair(grid64)
    else:
        l = int(case[-1])
        grid, beams = grid128, lg_beams(grid128, l, -l, 0.8, 2.0, 12.0, 6.0)
    a, _ = flavor_fields(beams, np.ones(grid.shape))
    off_axis = grid.r_map > 0.0
    flavors = zip(a, xi_ratios(beams), (beams.l1, beams.l2), (beams.kp1, beams.kp2),
                  (beams.kc1, beams.kc2))
    for aq, xi, l, kp, kc in flavors:
        tilt = np.subtract(kp, kc)[:, None, None]
        size = vec_mag(aq - tilt)[off_axis]
        assert np.all(size <= abs(l) / grid.r_map[off_axis] + 1e-12)
        m = np.abs(xi)
        live = m > 1e-2 * m.max()
        spectral = _phase_current(xi, grid)[:, live] / m[live] ** 2
        assert vec_mag(aq[:, live] - spectral).max() < 1e-3


def test_gauge_flux_quantized(weak_beams64, grid64):
    xi1, xi2 = xi_ratios(weak_beams64)
    g = gauge_potentials(xi1, xi2, grid64)
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    flux = loop_integral(fill_masked(g.a2), grid64, loop)
    assert flux == pytest.approx(2.0 * np.pi, rel=1e-3)


def test_mask_geometry_and_xi_floor(grid128, synthetic_ring_ratios):
    _, _, xi1, xi2 = synthetic_ring_ratios
    g = gauge_potentials(xi1, xi2, grid128)
    assert not any(np.iscomplexobj(a) for a in g)
    assert not g.mask[grid128.r_map <= 2.0 * grid128.dx].any()
    assert np.isnan(g.a2[:, ~g.mask]).all()
    assert np.isfinite(g.a2[:, g.mask]).all()
    floor = 1e-6 * np.abs(xi1).max()
    assert np.abs(xi1[g.mask]).min() > floor
    assert np.array_equal(g.s1, np.abs(xi1) ** 2)


def test_mask_error_when_nothing_survives(grid128, synthetic_ring_ratios):
    _, _, xi1, xi2 = synthetic_ring_ratios
    with pytest.raises(MaskError, match="no evaluable points"):
        gauge_potentials(np.zeros_like(xi1), xi2, grid128)


def test_shape_validation(grid128):
    bad = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError, match="grid shape"):
        gauge_potentials(bad, bad, grid128)


def test_gauge_iteration(grid128, synthetic_ring_ratios):
    _, _, xi1, xi2 = synthetic_ring_ratios
    g = gauge_potentials(xi1, xi2, grid128)
    a1, a2, a3 = g
    assert a1 is g.a1 and a2 is g.a2 and a3 is g.a3


def test_fill_masked():
    field = np.array([[1.0, np.nan], [np.inf, -2.0]])
    out = fill_masked(field)
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, -2.0]])
    assert np.isnan(field[0, 1])  # input untouched


def test_vortex_gauge_field_values_and_flux(grid64):
    vg = vortex_gauge_field(grid64, 2)
    i = grid64.nx // 2 + 8  # x = +2 on the 16-box
    j = grid64.ny // 2  # y = 0
    assert vg[0][i, j] == pytest.approx(0.0, abs=1e-14)
    assert vg[1][i, j] == pytest.approx(1.0)  # l*x/r^2 = 2*2/4
    origin = grid64.nx // 2
    assert vg[0][origin, origin] == 0.0 and vg[1][origin, origin] == 0.0
    loop = LoopSpec(center=(0.0, 0.0), radius=3.0)
    assert loop_integral(vg, grid64, loop) == pytest.approx(4.0 * np.pi, rel=1e-3)


# --- trap engineering ---------------------------------------------------


@pytest.fixture(scope="module")
def consistent_gauge(grid128):
    # zero-winding gaussian ratios: all phase gradients vanish, so the
    # Veff2 = Veff3 = 0 conditions are compatible whenever eps31 = -eps21
    r = grid128.r_map
    env1 = 0.05 * np.exp(-(r**2) / (2.0 * 2.0**2))
    env2 = 0.20 * np.exp(-(r**2) / (2.0 * 3.0**2))
    return env1, env2, gauge_potentials(env1 + 0j, env2 + 0j, grid128)


def test_solve_traps_consistent_case(grid128, consistent_gauge):
    env1, env2, g = consistent_gauge
    v1 = np.zeros(grid128.shape)
    sol = solve_traps(v1, g, eps21=0.4, eps31=-0.4)
    assert sol.max_residual < 1e-12
    s1, s2 = env1**2, env2**2
    c = s1 / s2
    # with A = 0 and V1 = 0 the minimum-norm solution has the closed form
    # V2 = -eps21 / (s2 (1 + c^2)), V3 = -c V2
    pred = -0.4 / (s2 * (1.0 + c**2))
    m = g.mask
    assert np.max(np.abs(sol.v2[m] / pred[m] - 1.0)) < 1e-12
    np.testing.assert_allclose(sol.v3[m], -c[m] * sol.v2[m], rtol=0, atol=1e-9 * np.abs(sol.v2[m]).max())
    v2, v3 = sol
    assert v2 is sol.v2 and v3 is sol.v3
    assert (v2[~m] == 0.0).all() and (v3[~m] == 0.0).all()


def test_solved_traps_zero_effective_potentials(grid128, consistent_gauge):
    _, _, g = consistent_gauge
    v1 = np.zeros(grid128.shape)
    sol = solve_traps(v1, g, eps21=0.4, eps31=-0.4)
    _, veff2, veff3 = effective_potentials(v1, sol.v2, sol.v3, g, eps21=0.4, eps31=-0.4)
    scale = np.abs(sol.v2[g.mask]).max()
    assert np.nanmax(np.abs(veff2)) < 1e-12 * scale
    assert np.nanmax(np.abs(veff3)) < 1e-12 * scale


def test_solve_traps_decoupled_limit(grid128):
    # |xi1| << |xi2|: flavor 3 decouples, V2 -> -eps21/s2 and V3 -> 0
    r = grid128.r_map
    env1 = 0.01 * np.exp(-(r**2) / (2.0 * 2.0**2))
    env2 = 0.30 * np.exp(-(r**2) / (2.0 * 2.0**2))
    g = gauge_potentials(env1 + 0j, env2 + 0j, grid128)
    sol = solve_traps(np.zeros(grid128.shape), g, eps21=0.4, eps31=-0.4)
    m = g.mask
    s2 = env2[m] ** 2
    assert np.max(np.abs(sol.v2[m] * s2 / (-0.4) - 1.0)) < 1e-5
    assert np.abs(sol.v3[m]).max() < 2e-3 * np.abs(sol.v2[m]).max()


def test_solve_traps_inconsistent_vortex_pair(weak_beams64, grid64):
    # equal moduli with opposite windings make c = 1 and b2 = b3 > 0, so
    # b2 + c b3 > 0: the two zero conditions cannot hold at once
    xi1, xi2 = xi_ratios(weak_beams64)
    g = gauge_potentials(xi1, xi2, grid64)
    v1 = np.zeros(grid64.shape)
    with pytest.raises(TrapSolveError, match="inconsistent") as info:
        solve_traps(v1, g)
    assert "grid point" in str(info.value)
    sol = solve_traps(v1, g, rtol=np.inf)
    assert sol.max_residual == pytest.approx(1.0, rel=1e-6)


def test_solve_traps_shape_validation(grid128, consistent_gauge):
    _, _, g = consistent_gauge
    with pytest.raises(ValueError, match="grid shape"):
        solve_traps(np.zeros((3, 3)), g)


# --- effective potentials ------------------------------------------------


def test_constant_potential_identity(weak_beams64, grid64):
    """Equal constant traps V0 on all three levels give Veff1 = V0 up to
    the |A1|^2 term, which vanishes for degenerate ratios."""
    xi1, xi2 = xi_ratios(weak_beams64)
    g = gauge_potentials(xi1, xi2, grid64)
    v0 = 0.7 * np.ones(grid64.shape)
    veff1, _, _ = effective_potentials(v0, v0, v0, g)
    assert np.nanmax(np.abs(veff1[g.mask] - 0.7)) < 1e-14


def test_constant_potential_identity_uniform_ratios(grid64):
    xu1 = 0.2 * np.ones(grid64.shape, dtype=complex)
    xu2 = 0.25 * np.ones(grid64.shape, dtype=complex)
    g = gauge_potentials(xu1, xu2, grid64)
    v0 = -1.3 * np.ones(grid64.shape)
    veff1, veff2, veff3 = effective_potentials(v0, v0, v0, g)
    assert np.nanmax(np.abs(veff1[g.mask] + 1.3)) == 0.0
    assert np.isfinite(veff2[g.mask]).all() and np.isfinite(veff3[g.mask]).all()


def test_effective_potentials_nan_off_mask(weak_beams64, grid64):
    xi1, xi2 = xi_ratios(weak_beams64)
    g = gauge_potentials(xi1, xi2, grid64)
    z = np.zeros(grid64.shape)
    veff1, veff2, veff3 = effective_potentials(z, z, z, g)
    for v in (veff1, veff2, veff3):
        assert np.isnan(v[~g.mask]).all()
