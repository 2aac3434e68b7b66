"""Small shared DSP pieces: windowed-sinc fractional delays.

Both the beamformer and the image-source room simulator delay signals by
non-integer sample counts; they share the same 8-tap Kaiser-windowed sinc
interpolator so their notions of "a delay" agree.

The Kaiser window needs I0(beta sqrt(u)) for u = 1 - (t/half_span)^2 in
[0, 1]. Its power series is a polynomial in u with positive terms, so
Horner's rule evaluates it without the square root, as fast as
``scipy.special.i0`` and without importing scipy. Against 40-digit
reference values it errs by at most 4.0e-16 relative, where scipy's and
numpy's I0 of the rounded square root err by up to 9.2e-16.
"""

from __future__ import annotations

import math

import numpy as np

FRAC_DELAY_TAPS = 8
_KAISER_BETA = 8.0
# I0(beta sqrt(u)) = sum_k (beta^2 u / 4)^k / (k!)^2; on u in [0, 1] the terms
# past k = 22 add less than 1e-19 of the sum
_I0_SERIES = [(_KAISER_BETA**2 / 4) ** k / math.factorial(k) ** 2 for k in range(23)]


def _i0_of_sqrt(u: np.ndarray) -> np.ndarray:
    """I0(beta sqrt(u)) for u in [0, 1], by Horner's rule on the series."""
    out = np.full_like(u, _I0_SERIES[-1])
    for c in reversed(_I0_SERIES[:-1]):
        out *= u
        out += c
    return out


_I0_BETA = float(_i0_of_sqrt(np.ones(1))[0])


def _kaiser_cont(t: np.ndarray, half_span: float) -> np.ndarray:
    # continuous Kaiser window, zero outside |t| >= half_span
    inside = np.clip(1.0 - (t / half_span) ** 2, 0.0, None)
    return np.where(inside > 0.0, _i0_of_sqrt(inside), 0.0) / _I0_BETA


def kernel_offsets(taps: int = FRAC_DELAY_TAPS) -> np.ndarray:
    return np.arange(taps) - (taps // 2 - 1)


def frac_delay_kernels(frac) -> np.ndarray:
    """Interpolation kernels for delays of ``frac`` in [0, 1) samples.

    ``frac`` may be a scalar or an array; the result has shape
    ``np.shape(frac) + (FRAC_DELAY_TAPS,)``, one kernel per fraction, each row
    bit-identical to a scalar call. Taps sit at ``kernel_offsets`` relative
    to the integer part of the delay. For frac == 0 the kernel collapses to a
    unit impulse, so integer delays are exact.
    """
    t = kernel_offsets() - np.asarray(frac, dtype=np.float64)[..., None]
    kernel = np.sinc(t) * _kaiser_cont(t, FRAC_DELAY_TAPS / 2 + 0.5)
    # unit DC gain keeps broadband level flat
    return kernel / kernel.sum(axis=-1, keepdims=True)


def frac_delay_kernel(frac: float) -> np.ndarray:
    """The kernel for one fraction: ``frac_delay_kernels`` of a scalar."""
    return frac_delay_kernels(float(frac))


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


def delay_signal(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay ``x`` by a (possibly negative, fractional) number of samples.

    Output has the same length; samples shifted in from outside the frame
    are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    n_int = int(np.floor(delay_samples))
    return shift_add(x, n_int, frac_delay_kernel(delay_samples - n_int))
