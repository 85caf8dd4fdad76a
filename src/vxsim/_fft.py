"""Thin FFT wrappers with a process-wide worker cap.

All spectral work in the package funnels through these helpers so the cap
set by ``set_workers`` applies uniformly.  The default of one worker keeps
output bit-identical across hosts.
"""

import scipy.fft as _sfft

__all__ = ["set_workers", "get_workers", "fft2", "ifft2"]

_workers = 1


def set_workers(n: int) -> None:
    global _workers
    if n < 1:
        raise ValueError("worker count must be >= 1")
    _workers = int(n)


def get_workers() -> int:
    return _workers


def fft2(a, overwrite_x=False, axes=(-2, -1)):
    """Transform over ``axes``, by default the last two; a one-axis tuple
    such as ``(-2,)`` gives the 1-D transform of every line along that axis.
    ``overwrite_x=True`` lets scipy write the result into ``a`` (complex
    input), with the same values; use the array it returns."""
    return _sfft.fft2(a, axes=axes, overwrite_x=overwrite_x, workers=_workers)


def ifft2(a, overwrite_x=False, axes=(-2, -1)):
    """Inverse of :func:`fft2` over the same ``axes``."""
    return _sfft.ifft2(a, axes=axes, overwrite_x=overwrite_x, workers=_workers)
