"""Small shared DSP pieces: windowed-sinc fractional delays.

Both the beamformer and the image-source room simulator delay signals by
non-integer sample counts; they share the same 8-tap Kaiser-windowed sinc
interpolator so their notions of "a delay" agree.
"""

from __future__ import annotations

import numpy as np
from scipy.special import i0

FRAC_DELAY_TAPS = 8
_KAISER_BETA = 8.0


def _kaiser_cont(t: np.ndarray, half_span: float, beta: float = _KAISER_BETA) -> np.ndarray:
    # continuous Kaiser window, zero outside |t| >= half_span
    inside = 1.0 - (t / half_span) ** 2
    win = np.where(inside > 0.0, i0(beta * np.sqrt(np.clip(inside, 0.0, None))), 0.0)
    return win / i0(beta)


def kernel_offsets(taps: int = FRAC_DELAY_TAPS) -> np.ndarray:
    return np.arange(taps) - (taps // 2 - 1)


def frac_delay_kernels(frac, taps: int = FRAC_DELAY_TAPS) -> np.ndarray:
    """Interpolation kernels for delays of ``frac`` in [0, 1) samples.

    ``frac`` may be a scalar or an array; the result has shape
    ``np.shape(frac) + (taps,)``, one kernel per fraction, each row
    bit-identical to a scalar call. Taps sit at ``kernel_offsets`` relative
    to the integer part of the delay. For frac == 0 the kernel collapses to a
    unit impulse, so integer delays are exact.
    """
    t = kernel_offsets(taps) - np.asarray(frac, dtype=np.float64)[..., None]
    kernel = np.sinc(t) * _kaiser_cont(t, taps / 2 + 0.5)
    # unit DC gain keeps broadband level flat
    return kernel / kernel.sum(axis=-1, keepdims=True)


def frac_delay_kernel(frac: float, taps: int = FRAC_DELAY_TAPS) -> np.ndarray:
    """The kernel for one fraction: ``frac_delay_kernels`` of a scalar."""
    return frac_delay_kernels(float(frac), taps)


def shift_add(x: np.ndarray, n_int: int, kernel: np.ndarray) -> np.ndarray:
    """Delay ``x`` by ``n_int`` whole samples through a prebuilt ``kernel``.

    Tap k lands at shift ``n_int + kernel_offsets(len(kernel))[k]``; samples
    shifted in from outside the frame are zero.
    """
    n = x.shape[-1]
    out = np.zeros_like(x)
    for coeff, off in zip(kernel, kernel_offsets(len(kernel))):
        shift = n_int + int(off)
        if coeff == 0.0 or shift >= n or shift <= -n:
            continue
        if shift >= 0:
            out[..., shift:] += coeff * x[..., : n - shift]
        else:
            out[..., : n + shift] += coeff * x[..., -shift:]
    return out


def delay_signal(x: np.ndarray, delay_samples: float, taps: int = FRAC_DELAY_TAPS) -> np.ndarray:
    """Delay ``x`` by a (possibly negative, fractional) number of samples.

    Output has the same length; samples shifted in from outside the frame
    are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    n_int = int(np.floor(delay_samples))
    return shift_add(x, n_int, frac_delay_kernel(delay_samples - n_int, taps))
