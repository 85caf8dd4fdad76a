"""Thin FFT wrappers with a process-wide worker cap.

All spectral work in the package funnels through these helpers so the
``VXSIM_THREADS`` cap set by the CLI (or by ``set_workers``) applies uniformly.
The default of one worker keeps output bit-identical across hosts.
"""

import scipy.fft as _sfft

_workers = 1


def set_workers(n: int) -> None:
    global _workers
    if n < 1:
        raise ValueError("worker count must be >= 1")
    _workers = int(n)


def get_workers() -> int:
    return _workers


def fft2(a, overwrite_x=False):
    """2-D transform over the last two axes; ``overwrite_x=True`` lets scipy
    write the result into ``a`` (complex input), with the same values."""
    return _sfft.fft2(a, overwrite_x=overwrite_x, workers=_workers)


def ifft2(a, overwrite_x=False):
    return _sfft.ifft2(a, overwrite_x=overwrite_x, workers=_workers)
