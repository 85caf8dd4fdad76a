"""Periodic 2-D spectral grid and derivative operators.

Natural units (hbar = m = 1) are used throughout the package.  The grid is the
transverse (x, y) plane of the condensate; the optical axis z never appears as
a coordinate, only through phase factors and the out-coupling delay map.

Conventions fixed here and relied on everywhere else:

* fields are arrays indexed ``values[i, j]`` with ``i`` along x and ``j``
  along y (``meshgrid(..., indexing="ij")``),
* wavenumbers are ``2*pi*fftfreq(n, d=dx)`` so the Nyquist mode carries the
  negative wavenumber ``-pi/dx``,
* coordinates run over ``[-L/2, L/2)`` and the box center ``(0, 0)`` is a grid
  point; the azimuthal map is ``atan2(y, x)`` about that center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fft import fft2, ifft2
from .errors import GridSizeError

__all__ = ["SpectralGrid", "Field", "make_grid", "laplacian", "gradient"]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid over ``[-lx/2, lx/2) x [-ly/2, ly/2)``.

    Parameters
    ----------
    nx, ny : int
        Points per axis.  Must be powers of two and at least 4.
    lx, ly : float
        Box lengths.  Must be positive and finite.

    Attributes
    ----------
    dx, dy : float
        Grid spacings ``lx/nx`` and ``ly/ny``.
    x, y : ndarray
        1-D coordinate axes, box center at 0.
    kx, ky : ndarray
        1-D angular wavenumbers in FFT layout, Nyquist assigned negative.
    k2 : ndarray
        ``kx^2 + ky^2`` on the 2-D grid (full spectrum, used for Laplacians),
        computed from ``kx`` and ``ky`` on each read.
    kx_grad, ky_grad : ndarray
        1-D wavenumbers with the Nyquist bin zeroed.  Odd-order spectral
        derivatives use these so that derivatives of real fields stay
        conjugate-symmetric.
    xm, ym : ndarray
        ``x`` and ``y`` on the 2-D grid, as ``meshgrid(x, y, indexing="ij")``
        gives them, but read-only broadcast views of the axes (a zero
        stride along the other axis).
    r_map, phi_map : ndarray
        Polar radius and azimuth ``atan2(y, x)`` about the box center,
        computed from ``x`` and ``y`` on each read: only set-up reads the
        2-D maps, so the grid holds its 1-D axes alone.
    """

    nx: int
    ny: int
    lx: float
    ly: float
    dx: float = field(init=False)
    dy: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    ky: np.ndarray = field(init=False, repr=False, compare=False)
    kx_grad: np.ndarray = field(init=False, repr=False, compare=False)
    ky_grad: np.ndarray = field(init=False, repr=False, compare=False)
    xm: np.ndarray = field(init=False, repr=False, compare=False)
    ym: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_pow2(self.nx) and _is_pow2(self.ny)):
            raise GridSizeError(
                f"grid size must be a power of two, got nx={self.nx}, ny={self.ny}"
            )
        if self.nx < 4 or self.ny < 4:
            raise GridSizeError(
                f"grid size must be at least 4 per axis, got nx={self.nx}, ny={self.ny}"
            )
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise GridSizeError(
                f"box lengths must be positive and finite, got lx={self.lx}, ly={self.ly}"
            )

        dx = self.lx / self.nx
        dy = self.ly / self.ny
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)

        x = (np.arange(self.nx) - self.nx // 2) * dx
        y = (np.arange(self.ny) - self.ny // 2) * dy
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=dy)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "ky", ky)

        # Nyquist zeroed for first derivatives: ik at the unpaired mode would
        # break conjugate symmetry of gradients of real fields.
        kxg = kx.copy()
        kxg[self.nx // 2] = 0.0
        kyg = ky.copy()
        kyg[self.ny // 2] = 0.0
        object.__setattr__(self, "kx_grad", kxg)
        object.__setattr__(self, "ky_grad", kyg)

        # read-only views of the axes: a zero stride, no plane of their own
        xm = np.broadcast_to(x[:, None], self.shape)
        ym = np.broadcast_to(y, self.shape)
        object.__setattr__(self, "xm", xm)
        object.__setattr__(self, "ym", ym)

    @property
    def k2(self) -> np.ndarray:
        return self.kx[:, None] ** 2 + self.ky ** 2

    @property
    def r_map(self) -> np.ndarray:
        return np.hypot(self.xm, self.ym)

    @property
    def phi_map(self) -> np.ndarray:
        return np.arctan2(self.ym, self.xm)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def integrate(self, density: np.ndarray) -> float:
        """Box integral of a real density, ``sum * dx * dy``."""
        return float(np.sum(density) * self.cell_area)


@dataclass(frozen=True, eq=False)
class Field:
    """A complex scalar field bound to its grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)

    def norm_sq(self) -> float:
        """Integral of |f|^2 over the box, squared in one real plane."""
        d = np.abs(self.values)
        return self.grid.integrate(np.multiply(d, d, out=d))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))


def make_grid(nx: int, ny: int, lx: float, ly: float) -> SpectralGrid:
    """Construct a :class:`SpectralGrid`, validating the sizing contract.

    Raises
    ------
    GridSizeError
        If ``nx``/``ny`` are not powers of two >= 4 or box lengths are not
        positive and finite.
    """
    return SpectralGrid(nx=int(nx), ny=int(ny), lx=float(lx), ly=float(ly))


def laplacian(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Spectral Laplacian ``(d2/dx2 + d2/dy2) f``.

    Uses the full wavenumber spectrum including the Nyquist bin (even powers
    of k are real, so no symmetry tie-break is needed).
    """
    return ifft2(-grid.k2 * fft2(values))


def gradient(values: np.ndarray, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Spectral gradient ``(df/dx, df/dy)``.

    The Nyquist bin is zeroed in the derivative multiplier so gradients of
    real input stay conjugate-symmetric.  Consequence: ``laplacian`` equals
    ``div(grad(f))`` only for fields with no Nyquist content.
    """
    spec = fft2(values)
    fx = ifft2(1j * grid.kx_grad[:, None] * spec)
    fy = ifft2(1j * grid.ky_grad[None, :] * spec)
    return fx, fy
