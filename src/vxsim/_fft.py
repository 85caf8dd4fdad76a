"""FFT wrappers over numpy.fft, one 1-D transform per axis.

All spectral work in the package funnels through ``fft2`` and ``ifft2``.
Each is one ``np.fft.fft`` or ``np.fft.ifft`` call per axis, written with
``out=`` (numpy >= 2.0): a complex128 input with ``overwrite_x=True`` is
transformed in its own buffer, any other input into one new complex array.
``np.fft.fft2``/``ifft2`` are not used: without ``out=`` they copy, and
``ifft2`` with ``out=`` was once seen to return wrong values (numpy 2.4.6;
ROADMAP item 4).  numpy.fft runs on one thread, so the output does not
depend on the host.
"""

import numpy as np

__all__ = ["set_workers", "get_workers", "fft2", "ifft2"]


def set_workers(n: int) -> None:
    """Accept the one worker numpy.fft has; any other count raises
    ``ValueError``.  Kept only because the benchmark worker
    (``bench/worker.py``) pins the count through it; ROADMAP item 3 removes
    that call, and this function with it."""
    if n != 1:
        raise ValueError(f"numpy.fft runs on one thread; {n} workers cannot be set")


def get_workers() -> int:
    """The transforms' worker count, always 1; kept, like :func:`set_workers`,
    only for the benchmark worker's record of it."""
    return 1


def _per_axis(transform, a, overwrite_x, axes):
    a = np.asarray(a)
    out = a if overwrite_x and a.dtype == np.complex128 else np.empty(a.shape, np.complex128)
    for axis in axes:
        transform(a, axis=axis, out=out)
        a = out
    return out


def fft2(a, overwrite_x=False, axes=(-2, -1)):
    """Transform over ``axes``, by default the last two; a one-axis tuple
    such as ``(-2,)`` gives the 1-D transform of every line along that axis.
    ``overwrite_x=True`` writes the result into ``a`` when ``a`` is
    complex128; use the array it returns."""
    return _per_axis(np.fft.fft, a, overwrite_x, axes)


def ifft2(a, overwrite_x=False, axes=(-2, -1)):
    """Inverse of :func:`fft2` over the same ``axes``."""
    return _per_axis(np.fft.ifft, a, overwrite_x, axes)
