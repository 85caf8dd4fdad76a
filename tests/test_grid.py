import tracemalloc

import numpy as np
import pytest

from vxsim._fft import fft2, get_workers, ifft2, set_workers
from vxsim.errors import GridSizeError
from vxsim.grid import Field, gradient, laplacian, make_grid


def test_wavenumber_layout_4pt():
    g = make_grid(4, 4, 2.0 * np.pi, 2.0 * np.pi)
    # fftfreq layout times 2*pi/L: Nyquist carries the negative wavenumber
    assert np.allclose(g.kx, [0.0, 1.0, -2.0, -1.0])
    assert np.allclose(g.kx_grad, [0.0, 1.0, 0.0, -1.0])


def test_coordinates_center_on_grid_point(grid16):
    assert grid16.x[grid16.nx // 2] == 0.0
    assert grid16.r_map[grid16.nx // 2, grid16.ny // 2] == 0.0
    # azimuth of the +x axis is 0, of the +y axis pi/2
    assert grid16.phi_map[grid16.nx // 2 + 3, grid16.ny // 2] == 0.0
    assert grid16.phi_map[grid16.nx // 2, grid16.ny // 2 + 3] == pytest.approx(np.pi / 2)


def test_coordinate_planes_are_read_only_views():
    g = make_grid(8, 16, 4.0, 2.0)
    for plane, ref, axis in zip((g.xm, g.ym), np.meshgrid(g.x, g.y, indexing="ij"), (1, 0)):
        assert np.array_equal(plane, ref)
        assert not plane.flags.writeable
        assert plane.strides[axis] == 0


def _traced(build):
    """``(result, held, peak)`` of ``build()`` in bytes, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def test_grid_holds_only_its_axes():
    # the 2-D maps are computed on each read; held as planes they made 1.53
    # complex planes at 128^2
    g, held, _ = _traced(lambda: make_grid(128, 128, 16.0, 16.0))
    assert held / (128 * 128 * 16) < 0.1
    # and each read has the bits of the meshgrid formulas
    kxm, kym = np.meshgrid(g.kx, g.ky, indexing="ij")
    xm, ym = np.meshgrid(g.x, g.y, indexing="ij")
    for plane, ref in ((g.k2, kxm ** 2 + kym ** 2), (g.r_map, np.hypot(xm, ym)),
                       (g.phi_map, np.arctan2(ym, xm))):
        assert plane.shape == g.shape
        assert plane.tobytes() == ref.tobytes()


def test_spectral_derivatives_exact_on_modes(grid16):
    f = np.sin(grid16.xm) * np.cos(2.0 * grid16.ym)
    fx, fy = gradient(f, grid16)
    assert np.allclose(fx.real, np.cos(grid16.xm) * np.cos(2.0 * grid16.ym), atol=1e-12)
    assert np.allclose(fy.real, -2.0 * np.sin(grid16.xm) * np.sin(2.0 * grid16.ym), atol=1e-12)
    lap = laplacian(f, grid16)
    assert np.allclose(lap.real, -5.0 * f, atol=1e-11)


def test_gradient_of_real_field_stays_real(grid16):
    # any real field, Nyquist content included: the zeroed derivative bin
    # keeps the spectrum conjugate-symmetric
    f = np.random.default_rng(0).standard_normal(grid16.shape)
    fx, fy = gradient(f, grid16)
    assert np.max(np.abs(fx.imag)) < 1e-12
    assert np.max(np.abs(fy.imag)) < 1e-12


def test_nyquist_mode_has_zero_gradient(grid16):
    # the +-1 checkerboard is pure Nyquist content; its first derivative is
    # deliberately zeroed while the Laplacian keeps the full spectrum
    f = np.cos(np.pi * grid16.xm / grid16.dx)
    fx, _ = gradient(f, grid16)
    assert np.max(np.abs(fx)) < 1e-12
    knyq = np.pi / grid16.dx
    assert np.allclose(laplacian(f, grid16).real, -(knyq**2) * f, atol=1e-9)


def test_integrate_and_cell_area(grid64):
    assert grid64.cell_area == pytest.approx(0.0625)
    assert grid64.integrate(np.ones(grid64.shape)) == pytest.approx(256.0)


def test_grid_equality_ignores_arrays():
    assert make_grid(8, 8, 1.0, 2.0) == make_grid(8, 8, 1.0, 2.0)
    assert make_grid(8, 8, 1.0, 2.0) != make_grid(8, 8, 1.0, 3.0)
    assert make_grid(8, 8, 1.0, 2.0) != make_grid(16, 8, 1.0, 2.0)


@pytest.mark.parametrize("nx,ny,lx,ly", [
    (12, 16, 1.0, 1.0),
    (2, 16, 1.0, 1.0),
    (16, 16, 0.0, 1.0),
    (16, 16, 1.0, -2.0),
    (16, 16, float("inf"), 1.0),
])
def test_sizing_contract(nx, ny, lx, ly):
    with pytest.raises(GridSizeError):
        make_grid(nx, ny, lx, ly)


def test_field_binds_shape(grid16):
    with pytest.raises(ValueError):
        Field(grid=grid16, values=np.zeros((8, 8)))
    f = Field(grid=grid16, values=np.ones(grid16.shape))
    assert f.norm_sq() == pytest.approx((2.0 * np.pi) ** 2)
    assert f.norm() == pytest.approx(2.0 * np.pi)


def test_norm_sq_squares_in_one_real_plane(grid128):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(grid128.shape) + 1j * rng.standard_normal(grid128.shape)
    f = Field(grid=grid128, values=values)
    norm_sq, _, peak = _traced(f.norm_sq)
    # abs and its square as two temporaries made a whole complex plane
    assert peak / (128 * 128 * 16) < 0.55
    assert norm_sq == grid128.integrate(np.abs(values) ** 2)


@pytest.mark.parametrize("shape, axes", [((5, 128, 128), (-2, -1)),
                                         ((2, 2, 128, 128), (-2,)),
                                         ((2, 2, 128, 128), (-1,))])
def test_in_place_transforms_match_out_of_place_numpy(shape, axes):
    # the wrappers write one 1-D transform per axis into the input, never
    # through np.fft.ifft2(a, out=...), which was once seen to return wrong
    # values; the result must equal an out-of-place transform
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for transform, reference in ((fft2, np.fft.fftn), (ifft2, np.fft.ifftn)):
        expected = reference(a, axes=axes)
        x = a.copy()
        result, _, peak = _traced(lambda: transform(x, overwrite_x=True, axes=axes))
        assert result is x
        assert peak < 0.01 * x.nbytes
        assert np.abs(result - expected).max() <= 1e-13 * np.abs(expected).max()


def test_transforms_keep_their_input_unless_told():
    rng = np.random.default_rng(8)
    real = rng.standard_normal((2, 16, 8))
    cplx = real + 1j * rng.standard_normal((2, 16, 8))
    for transform, reference in ((fft2, np.fft.fftn), (ifft2, np.fft.ifftn)):
        # real input cannot hold its transform, overwrite_x or not
        for a, overwrite in ((real, False), (real, True), (cplx, False)):
            kept = a.copy()
            result = transform(a, overwrite_x=overwrite)
            assert result.dtype == np.complex128
            assert not np.shares_memory(result, a)
            assert np.array_equal(a, kept)
            expected = reference(a, axes=(-2, -1))
            assert np.abs(result - expected).max() <= 1e-13 * np.abs(expected).max()


def test_transforms_run_on_one_worker():
    # numpy.fft has no worker threads: a count other than 1 is refused, not
    # accepted and ignored
    set_workers(1)
    assert get_workers() == 1
    for n in (0, 2, 8):
        with pytest.raises(ValueError, match="one thread"):
            set_workers(n)
    assert get_workers() == 1


def test_one_axis_transforms_match_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 16, 8)) + 1j * rng.standard_normal((2, 16, 8))
    for axis in (-2, -1):
        fwd, inv = np.fft.fft(a, axis=axis), np.fft.ifft(a, axis=axis)
        assert np.abs(fft2(a, axes=(axis,)) - fwd).max() <= 1e-13 * np.abs(fwd).max()
        assert np.abs(ifft2(a, axes=(axis,)) - inv).max() <= 1e-13 * np.abs(inv).max()
