"""Adaptive multi-microphone front end.

Oversampled complex-modulated DFT filter bank, per-band NLMS echo
cancellation, delay-and-sum beamforming with fractional steering delays,
steered-response-power localization and per-band gains.
``enhance`` chains them (DAS -> analysis -> AEC -> band gains -> synthesis)
for every caller: ``nars frontend``, ``nars bench`` and the tuning env.
Every stage of the chain takes an optional leading row axis, which
``enhance`` uses to step several tuning episodes through one call: the DAS
steers each row at its own azimuth in one pass, and analysis, the AEC, the
gains and synthesis run the rows together. A lone stream is the case with no leading axis, and
each row of a batch equals a lone-stream call on that row, bit for bit.
DAS, analysis and synthesis run over time blocks of ``_BLOCK_SAMPLES``
samples (``_BLOCK_SAMPLES // hop`` frames for the bank), each block finished
in cache before the next; every output element sees the same operations in
the same order at any block size, so the blocks change no bit.

DAS and SRP steer through one object: ``das_weights`` returns the
``BeamformerWeights`` of any azimuths, the fractional-delay kernel of every
(steering, mic) pair, divided by the mic count, placed on one axis of
integer shifts. The DAS applies it one shift at a time over the span of the
output that shift reaches. The SRP scan does not beamform once per azimuth:
its steering bank is ``das_weights`` at every grid azimuth, read-only and
cached per (geometry, grid), flattened over (mic, shift) into W; the power
at azimuth a is then w_a^T R w_a / n, where R is the Gram matrix of the
shifted mic windows, built once per scan from the mics' cross-correlations.

Band m of the analysis bank is the prototype modulated by exp(-i 2 pi m j / M)
and decimated by the hop L: x_m(k) = sum_j h(j) x(kL - j) exp(-i 2 pi m j / M),
which is rfft bin m of frame k's folded window. The bank keeps bands
m = 0..M/2 (M//2 + 1 of them) only. Every stream it analyses is real, so
band M - m is the complex conjugate of band m and carries nothing new;
the AEC and the band gains act on conjugate pairs alike, so the dropped
bands stay the mirrors of the kept ones through the chain, and synthesis
rebuilds each frame from the kept half with a real inverse FFT. Sums of
band power over all M bands count each kept band twice, DC and (for even
M) Nyquist once: ``band_power``.
The prototype is pointwise-normalized so sum_k h^2(n - kL) = 1/M exactly;
synthesis is the scaled adjoint, leaving only stopband-level alias leakage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .dsp import FRAC_DELAY_TAPS, frac_delay_kernels, kernel_offsets
from .errors import ConfigurationError, DataError, DomainError, FramingError, NoSourceError

# samples per time block of DAS, analysis and synthesis (// hop frames for the
# bank): a stage finishes a block while it is in cache before it moves on
_BLOCK_SAMPLES = 16384

# === filter bank ===

PROTOTYPE_TAPS_PER_BAND = 8  # the prototype spans P = 8 * m_bands samples


def _design_prototype(m_bands: int, hop: int, taps_per_band: int) -> np.ndarray:
    n = m_bands * taps_per_band
    j = np.arange(n)
    center = (n - 1) / 2
    h = np.sinc((j - center) / m_bands) * np.kaiser(n, 9.0)
    # exact square-COLA at the hop: sum_k h^2(n - kL) == 1/M for every n
    fold = np.zeros(hop)
    for phase in range(hop):
        fold[phase] = np.sum(h[phase::hop] ** 2)
    h /= np.sqrt(m_bands * fold[j % hop])
    return h


def _dual_window(h: np.ndarray, m_bands: int, hop: int) -> np.ndarray:
    """Canonical dual of the analysis prototype.

    Per residue class r mod hop, the minimum-norm g with
    sum_k g(r + kL) h(r + kL + qM) = delta_q / M. These biorthogonality
    conditions make analysis -> synthesis an exact identity, so round-trip
    error is set by float precision rather than prototype stopband.
    """
    P = len(h)
    M, L = m_bands, hop
    rho = M // L
    K = P // L
    q_max = (P - 1) // M  # |q| beyond this cannot overlap
    g = np.zeros(P)
    for r in range(L):
        u = h[r::L]
        rows = []
        rhs = []
        for q in range(-q_max, q_max + 1):
            row = np.zeros(K)
            shift = rho * q
            src = np.arange(K) + shift
            ok = (src >= 0) & (src < K)
            row[ok] = u[src[ok]]
            rows.append(row)
            rhs.append(1.0 / M if q == 0 else 0.0)
        sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
        g[r::L] = sol
    return g


@dataclass(frozen=True)
class FilterBankSpec:
    m_bands: int
    hop: int
    fs: float
    # derived from (m_bands, hop), so they take no part in equality or hashing
    prototype: np.ndarray = field(init=False, repr=False, compare=False)
    dual: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m_bands < 2 or self.hop < 1:
            raise ConfigurationError("need m_bands >= 2 and hop >= 1")
        if self.m_bands < 2 * self.hop:
            raise ConfigurationError("oversampled bank requires m_bands >= 2 * hop")
        if self.m_bands % self.hop:
            raise ConfigurationError("hop must divide m_bands")
        if self.fs <= 0:
            raise ConfigurationError("fs must be positive")
        prototype = _design_prototype(self.m_bands, self.hop, PROTOTYPE_TAPS_PER_BAND)
        object.__setattr__(self, "prototype", prototype)
        object.__setattr__(self, "dual", _dual_window(prototype, self.m_bands, self.hop))

    @property
    def n_taps(self) -> int:
        return len(self.prototype)


@dataclass
class SubbandState:
    """Analysis output of an M-band bank: complex frames of bands 0..M/2,
    the rfft bins of each folded frame, shape (M//2 + 1, n_frames), or
    (E, M//2 + 1, n_frames) for E streams analysed together. ``m_bands`` is
    the bank's M, which says whether the last kept band is Nyquist (even M)
    or not (odd M).

    ``bands`` may be a transposed view of a C-ordered (..., n_frames,
    M//2 + 1) array, as ``fb_analyze`` and ``aec_process`` return it: each
    frame is then contiguous in memory.
    """

    bands: np.ndarray
    n_samples: int
    m_bands: int

    def __post_init__(self):
        if self.bands.ndim < 2 or self.bands.shape[-2] != self.m_bands // 2 + 1:
            raise ConfigurationError(
                f"a bank of {self.m_bands} bands keeps {self.m_bands // 2 + 1}, not bands of shape {self.bands.shape}"
            )


def band_power(state: SubbandState) -> np.ndarray:
    """Power of every frame summed over all M bands, each frequency counted once.

    The kept band m stands for itself and for its mirror M - m, so it
    weighs 2; DC and, for even M, Nyquist have no mirror and weigh 1.
    Returns (..., n_frames): the sum_m |x_m(k)|^2 a full M-band bank gives,
    up to rounding.
    """
    weights = np.ones(state.m_bands // 2 + 1)
    weights[1 : (state.m_bands + 1) // 2] = 2.0
    return np.einsum("b,...bk->...k", weights, np.abs(state.bands) ** 2)


def fb_analyze(spec: FilterBankSpec, x: np.ndarray) -> SubbandState:
    """Split a mono stream, or each row of a stack of streams, into bands 0..M/2.

    Frame k folds the reversed window x[kL - j], j = 0..P-1, times the
    prototype into M bins: bin i sums the P/M products at j = i, i + M, ...
    in ascending j, starting from zero, as ``sum(axis=1)`` over a
    (P/M, M) reshape does. One (n_frames, M) accumulator takes the segments
    in turn, block by block of ``_BLOCK_SAMPLES // L`` frames through one
    block of scratch, so no (n_frames, P) product is built. The bands are
    the folded frame's rfft bins 0..M/2, from one rfft of the whole fold
    after the padded copy and the scratch are freed.
    An (E, n) stack gives (E, M//2 + 1, n_frames) bands whose every row
    equals the analysis of that row alone, bit for bit: each step is
    elementwise or an FFT along the row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise FramingError("analysis expects a sample stream or an (episodes, samples) stack")
    n = x.shape[-1]
    if n < spec.n_taps:
        raise FramingError("stream shorter than one prototype span")
    P, M, L = spec.n_taps, spec.m_bands, spec.hop
    lead = x.shape[:-1]
    n_frames = (n + P - 2) // L + 1
    xp = np.zeros(lead + (P - 1 + n_frames * L + P,))
    xp[..., P - 1 : P - 1 + n] = x
    # frame k holds x[kL - j] for j = 0..P-1, i.e. a reversed window ending at kL
    windows = np.lib.stride_tricks.sliding_window_view(xp, P, axis=-1)
    reversed_windows = windows[..., ::L, :][..., :n_frames, ::-1]
    frames_per_block = max(_BLOCK_SAMPLES // L, 1)
    folded = np.zeros(lead + (n_frames, M))
    segment = np.empty(lead + (min(frames_per_block, n_frames), M))
    for k0 in range(0, n_frames, frames_per_block):
        k1 = min(k0 + frames_per_block, n_frames)
        seg = segment[..., : k1 - k0, :]
        for s in range(0, P, M):
            np.multiply(reversed_windows[..., k0:k1, s : s + M], spec.prototype[s : s + M], out=seg)
            folded[..., k0:k1, :] += seg
    del xp, windows, reversed_windows, segment, seg  # free them before the complex bands
    bands = np.fft.rfft(folded, axis=-1)
    return SubbandState(bands=np.swapaxes(bands, -1, -2), n_samples=n, m_bands=M)


def fb_synthesize(spec: FilterBankSpec, state: SubbandState) -> np.ndarray:
    """Rebuild the time signal from subband frames (scaled adjoint of analysis).

    Frame k is irfft(bands, n=M), the inverse DFT of the full Hermitian
    spectrum the kept bands stand for; it adds that frame, tiled, times the
    dual window, reversed, at samples kL .. kL + P - 1. The frames come from
    one irfft of all bands. The overlap-add runs over blocks of
    ``_BLOCK_SAMPLES // L`` frames in ascending order; in each block, P/L
    strided adds over an (n_frames + 2P/L, L) view of the output, in
    descending offset b, so each sample sums its frames in ascending k,
    starting from zero: the order of a frame-by-frame loop.
    Bands of shape (E, M//2 + 1, n_frames) give (E, n_samples), each row bit
    for bit the synthesis of that row alone.
    """
    P, M, L = spec.n_taps, spec.m_bands, spec.hop
    if state.m_bands != M:
        raise ConfigurationError("band count does not match the bank")
    bands = state.bands
    lead, n_frames = bands.shape[:-2], bands.shape[-1]
    frames = np.fft.irfft(np.swapaxes(bands, -1, -2), n=M, axis=-1)
    # reversed tiled frame: column i of the reversed frame is sample M-1 - (i mod M)
    frames_rev = frames[..., ::-1]
    dual_rev = spec.dual[::-1]
    rows = np.zeros(lead + (n_frames + 2 * P // L, L))  # every sample a frame reaches
    frames_per_block = max(_BLOCK_SAMPLES // L, 1)
    block = np.empty(lead + (min(frames_per_block, n_frames), L))
    for k0 in range(0, n_frames, frames_per_block):
        k1 = min(k0 + frames_per_block, n_frames)
        part = block[..., : k1 - k0, :]
        for b in range(P // L - 1, -1, -1):
            c0 = b * L % M
            np.multiply(frames_rev[..., k0:k1, c0 : c0 + L], dual_rev[b * L : (b + 1) * L], out=part)
            rows[..., b + k0 : b + k1, :] += part
    acc = rows.reshape(lead + (-1,))
    return M * acc[..., P - 1 : P - 1 + state.n_samples]


# === per-band NLMS echo canceller ===

AEC_EPS_REG = 1e-6  # regularizes the NLMS step against a silent far end


@dataclass
class SubbandAecState:
    """Canceller state, for one stream or for E rows that share one far end.

    ``weights`` is (n_bands, n_taps), or (E, n_bands, n_taps) with ``mu``
    then a scalar or one step size per row; ``far_hist`` is always
    (n_bands, n_taps), since every row hears the same far end. For an
    M-band bank n_bands is M//2 + 1, the bands it keeps: the canceller of a
    dropped band M - m would be the conjugate of band m's.
    """

    weights: np.ndarray  # complex
    far_hist: np.ndarray  # (n_bands, n_taps) complex, newest first
    mu: float | np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu)
        if not np.all((mu >= 0.0) & (mu <= 2.0)):
            raise DomainError("step size mu must lie in [0, 2]")
        if self.far_hist.shape[-1] < 1:
            raise DomainError("the canceller needs n_taps >= 1")
        if self.far_hist.ndim != 2 or self.weights.shape[-2:] != self.far_hist.shape or self.weights.ndim > 3:
            raise DomainError(
                f"weights {self.weights.shape} must be far_hist's (n_bands, n_taps) "
                f"{self.far_hist.shape}, or one such row per stream"
            )


def make_aec(m_bands: int, n_taps: int, mu: float | np.ndarray = 0.5) -> SubbandAecState:
    """A zeroed canceller for the m_bands // 2 + 1 bands an ``m_bands``-band bank keeps.

    An array of step sizes gives one row of weights per entry.
    """
    if n_taps < 1:
        raise DomainError(f"the canceller needs n_taps >= 1, got {n_taps}")
    n_bands = m_bands // 2 + 1
    return SubbandAecState(
        weights=np.zeros(np.shape(mu) + (n_bands, n_taps), dtype=np.complex128),
        far_hist=np.zeros((n_bands, n_taps), dtype=np.complex128),
        mu=mu,
    )


_AEC_BLOCK = 256  # frames whose far-end history is laid out at once; bounds its memory


def aec_process(
    state: SubbandAecState, far: SubbandState, mic: SubbandState
) -> tuple[SubbandState, SubbandAecState]:
    """Cancel the far-end echo from the mic subbands, frame by frame.

    Per band: estimate = W . far_history, error = mic - estimate, then the
    normalized update W += mu * conj(far_hist) * error / (||far_hist||^2 +
    AEC_EPS_REG). Returns the echo-reduced subbands and the updated state; the
    input state is not mutated.

    The history does not depend on the weights, so it is laid out, newest tap
    first, for blocks of at most 256 frames, with its conjugate and its norm,
    and, for a scalar ``mu``, mu times its conjugate. Each product, sum and
    quotient is the one the per-frame recursion evaluates, over the taps in
    the same order.

    Mic bands of shape (E, M, n_frames) run E cancellers in lockstep against
    the one far end: the history is laid out once for all rows, and each
    frame makes the same few calls over (E, M, n_taps) weights. With one
    step size per row, a frame multiplies mu into the conjugate history
    before it scales by the step, the order of the scalar path's
    precomputed product. Every row equals a call on that row alone, bit for
    bit; while any row adapts, a row whose mu is 0 adds zeros, which leaves
    each weight's value as it was.
    """
    n_bands, n_taps = state.far_hist.shape
    lead = mic.bands.shape[:-2]
    if far.bands.ndim != 2:
        raise FramingError("the far end must be one stream of subbands")
    if far.m_bands != mic.m_bands or far.bands.shape[0] != n_bands or mic.bands.shape[-2] != n_bands:
        raise ConfigurationError("far, mic, and state band counts must match")
    if state.weights.shape[:-2] != lead or np.shape(state.mu) not in ((), lead):
        raise ConfigurationError("mic, weight and step-size rows must match")
    if far.bands.shape[1] != mic.bands.shape[-1]:
        raise FramingError("far-end and mic frames are not aligned")
    if not (np.all(np.isfinite(far.bands)) and np.all(np.isfinite(mic.bands))):
        raise DataError("non-finite subband samples")
    w = state.weights.copy()
    hist = state.far_hist.copy()
    mu = state.mu
    row_mu = np.ndim(mu) > 0
    adapt = bool(np.any(np.asarray(mu) != 0.0))
    # complex operands, as the ufuncs would cast them, so no frame casts again
    mu_c = np.asarray(mu, dtype=np.complex128)[..., None, None]
    n_frames = far.bands.shape[1]
    out = np.empty(lead + (n_frames, n_bands), dtype=mic.bands.dtype)
    out_frames = out.swapaxes(0, -2)  # (n_frames, ..., n_bands) views
    mic_frames = mic.bands.swapaxes(-1, -2).swapaxes(0, -2)
    est = np.empty(lead + (n_bands,), dtype=w.dtype)
    step = np.empty_like(est)
    update = np.empty_like(w)
    # the n_taps - 1 newest past columns, oldest first, ahead of each block
    tail = hist[:, : n_taps - 1][:, ::-1]
    for k0 in range(0, n_frames, _AEC_BLOCK):
        k1 = min(k0 + _AEC_BLOCK, n_frames)
        padded = np.concatenate((tail, far.bands[:, k0:k1]), axis=1)
        tail = padded[:, padded.shape[1] - (n_taps - 1) :]
        windows = np.lib.stride_tricks.sliding_window_view(padded, n_taps, axis=1)
        h = np.ascontiguousarray(windows[:, :, ::-1].transpose(1, 0, 2))  # (frames, bands, taps)
        if adapt:
            conj_h = np.conj(h)
            norm = (np.einsum("kbt,kbt->kb", h, conj_h).real + AEC_EPS_REG).astype(np.complex128)
            if not row_mu:
                mu_conj_h = mu_c * conj_h
        for j in range(k1 - k0):
            np.einsum("...bt,bt->...b", w, h[j], out=est)
            err = np.subtract(mic_frames[k0 + j], est, out=out_frames[k0 + j])
            if adapt:
                np.divide(err, norm[j], out=step)
                scaled = np.multiply(mu_c, conj_h[j], out=update) if row_mu else mu_conj_h[j]
                np.multiply(scaled, step[..., None], out=update)
                w += update
        hist = h[-1].copy()
    new_state = SubbandAecState(weights=w, far_hist=hist, mu=mu)
    return replace(mic, bands=np.swapaxes(out, -1, -2)), new_state


def erle_db(mic: SubbandState, residual: SubbandState, tail_frames: int | None = None) -> float:
    """Echo-return-loss enhancement over the trailing frames of every row.

    Both powers are ``band_power`` sums, so each frequency counts once.
    """
    sl = slice(-tail_frames, None) if tail_frames else slice(None)
    p_mic = np.sum(band_power(mic)[..., sl])
    p_res = np.sum(band_power(residual)[..., sl])
    if p_res <= 0:
        return float("inf")
    return float(10 * np.log10(p_mic / p_res))


# === array geometry and delay-and-sum ===


@dataclass(frozen=True)
class MicArrayGeometry:
    positions: np.ndarray  # (n_mics, 3) meters
    fs: float
    c: float = 343.0

    def __post_init__(self):
        # C order: the SRP bank cache rebuilds the geometry from these bytes, and
        # the rebuilt centroid must sum in the same order
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise DomainError("positions must be (n_mics, 3)")
        object.__setattr__(self, "positions", pos)
        if self.fs <= 0 or self.c <= 0:
            raise DomainError("fs and c must be positive")

    @property
    def n_mics(self) -> int:
        return self.positions.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)


def circular_array(n_mics: int, radius: float, center=(0.0, 0.0, 0.0), fs: float = 16000.0, c: float = 343.0) -> MicArrayGeometry:
    ang = 2 * np.pi * np.arange(n_mics) / n_mics
    pos = np.stack([np.cos(ang) * radius, np.sin(ang) * radius, np.zeros(n_mics)], axis=1)
    return MicArrayGeometry(positions=pos + np.asarray(center, float), fs=fs, c=c)


def scenario_geometry(scenario) -> MicArrayGeometry:
    """The array of a ``scene.ScenarioConfig``: its mics at the room's fs and c."""
    return MicArrayGeometry(
        positions=np.asarray(scenario.mic_positions, dtype=np.float64),
        fs=scenario.room.fs,
        c=scenario.room.c,
    )


@dataclass(frozen=True)
class BeamformerWeights:
    """Delay-and-sum steering for one beam, or for E beams at once.

    ``taps[..., m, j]`` is the fractional-delay kernel tap, divided by
    n_mics, that mic m contributes at integer shift ``max_shift - j``, and
    zero where its kernel does not reach; the shift axis spans every row's
    kernels. ``taps`` is (n_mics, n_shifts) for one steering or
    (E, n_mics, n_shifts) for E of them.
    """

    taps: np.ndarray
    max_shift: int
    max_delay: float  # largest |steering delay|, samples


def steering_delays(geom: MicArrayGeometry, azimuth_deg: float | np.ndarray) -> np.ndarray:
    """Plane-wave alignment delays (s) for a far-field source at the azimuth.

    A scalar azimuth gives (n_mics,) delays; an (E,) array gives (E, n_mics),
    each row the bits of a scalar call. Non-finite azimuths and arrays that
    are not 1-D, or empty, raise ``DomainError``.
    """
    az = np.asarray(azimuth_deg, dtype=np.float64)
    if az.ndim > 1 or (az.ndim and not az.size) or not np.all(np.isfinite(az)):
        raise DomainError("steering azimuths must be finite: a scalar or a non-empty 1-D array")
    rel = geom.positions - geom.centroid

    def one(a):
        a = np.radians(a)
        return rel @ np.array([np.cos(a), np.sin(a), 0.0]) / geom.c

    return np.stack([one(a) for a in az]) if az.ndim else one(az)


def das_weights(geom: MicArrayGeometry, azimuth_deg: float | np.ndarray) -> BeamformerWeights:
    """Uniform-gain DAS steered at the azimuth, or at each of an (E,) array of them."""
    delays = steering_delays(geom, azimuth_deg) * geom.fs
    n_int = np.floor(delays).astype(np.int64)
    kernels = frac_delay_kernels(delays - n_int) / geom.n_mics
    shifts = n_int[..., None] + kernel_offsets()
    max_shift = int(shifts.max())
    taps = np.zeros(delays.shape + (max_shift - int(shifts.min()) + 1,))
    np.put_along_axis(taps, max_shift - shifts, kernels, axis=-1)
    return BeamformerWeights(taps=taps, max_shift=max_shift, max_delay=float(np.max(np.abs(delays))))


def _steerable(geom: MicArrayGeometry, weights: BeamformerWeights, frames: np.ndarray) -> np.ndarray:
    """``frames`` as float64 (n_mics, n_samples), long enough for the steering's padding."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] != geom.n_mics or weights.taps.shape[-2] != geom.n_mics:
        raise FramingError("frames and weights must be (n_mics, ...) for the array")
    if weights.max_delay + FRAC_DELAY_TAPS >= frames.shape[1]:
        raise FramingError("steering delay exceeds the frame padding")
    return frames


def beamform_das(geom: MicArrayGeometry, weights: BeamformerWeights, frames: np.ndarray) -> np.ndarray:
    """y(t) = sum_m x_m(t - tau_m) / n_mics, fractional delays via windowed sinc.

    One steering gives (n_samples,) samples; E of them give (E, n_samples),
    one beam per row from one pass over the mics, each row the bits of a
    call with that row alone. The output is made in blocks of
    ``_BLOCK_SAMPLES`` samples. Within a block ``weights.taps`` is applied
    one integer shift at a time, in ascending shift: an ``einsum`` over the
    mics adds every row's taps at that shift into the part of the block the
    shifted mics reach. No padded copy of the mics is made and no BLAS call
    orders the sums.
    """
    frames = _steerable(geom, weights, frames)
    taps = weights.taps.reshape((-1,) + weights.taps.shape[-2:])
    rows, n = taps.shape[0], frames.shape[1]
    out = np.zeros((rows, n))
    beam = np.empty((rows, min(_BLOCK_SAMPLES, n)))
    for t0 in range(0, n, _BLOCK_SAMPLES):
        t1 = min(t0 + _BLOCK_SAMPLES, n)
        for j in range(taps.shape[2] - 1, -1, -1):  # ascending shift
            shift = weights.max_shift - j
            # the samples t of this block whose source t - shift lies in the frame
            lo, hi = max(t0, shift), min(t1, n + shift)
            if lo < hi:
                part = beam[:, : hi - lo]
                np.einsum("em,mt->et", taps[:, :, j], frames[:, lo - shift : hi - shift], out=part)
                out[:, lo:hi] += part
    return out if weights.taps.ndim == 3 else out[0]


# === steered-response-power localization ===


@dataclass(frozen=True)
class AzimuthGrid:
    n_points: int = 72
    start_deg: float = 0.0

    def __post_init__(self):
        if self.n_points < 4:
            raise DomainError("azimuth grid needs at least 4 points")

    @property
    def step(self) -> float:
        return 360.0 / self.n_points

    @property
    def angles(self) -> np.ndarray:
        return (self.start_deg + np.arange(self.n_points) * self.step) % 360.0


_BANK_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_BANK_CACHE_SIZE)
def _steering_bank(positions: bytes, fs: float, c: float, grid: AzimuthGrid) -> BeamformerWeights:
    """``das_weights`` at every grid azimuth, read-only, cached by the array's value."""
    geom = MicArrayGeometry(positions=np.frombuffer(positions).reshape(-1, 3), fs=fs, c=c)
    bank = das_weights(geom, grid.angles)
    bank.taps.flags.writeable = False  # shared by every scan of this (geometry, grid)
    return bank


def srp_localize(
    geom: MicArrayGeometry, frames: np.ndarray, grid: AzimuthGrid = AzimuthGrid()
) -> tuple[float, np.ndarray]:
    """Azimuth estimate by scanning delay-and-sum output power.

    Returns (azimuth_deg, power curve over the grid). Power at each azimuth
    is the mean square of the DAS output steered there, equal to a
    ``beamform_das`` scan up to the order of the additions. With w the
    cached steering bank row of an azimuth over (mic, shift) and R the Gram
    matrix of the zero-filled shifted mic windows, it is w^T R w / n. R is
    built once per scan from the mics' cross-correlations at every lag
    within the bank's shift span, less the products of the window edges
    that fall outside the n output samples, so a scan costs
    O(M^2 S n) + O(A (M S)^2) for M mics, S shifts and A azimuths, in place
    of O(A M S n) for beamforming each azimuth. The peak is refined by
    parabolic interpolation over its periodic neighbors; exact ties resolve
    to the lowest azimuth index. An array with no horizontal aperture (every
    steering delay zero: coincident mics, or a vertical line) raises
    ``ConfigurationError``.
    """
    if geom.n_mics < 2:
        raise ConfigurationError("localization needs at least two mics")
    if not np.any(frames):
        raise NoSourceError("all-zero frames carry no source to localize")
    bank = _steering_bank(geom.positions.tobytes(), geom.fs, geom.c, grid)
    if bank.max_delay == 0:
        raise ConfigurationError(
            "the mics have no horizontal aperture: every azimuth steers the same delays"
        )
    frames = _steerable(geom, bank, frames)
    n_mics, n = frames.shape
    s = bank.taps.shape[-1]
    e = s - 1
    # The beam at time t is the bank row dotted with the window P[:, t : t + s], where
    # P[m, u] = x_m(u - max_shift) is zero outside the frame; the delays are
    # centroid-relative, so the shifts straddle zero and x fits in u < n + e.
    # ``padded`` holds P from column e, with e zeros more on each side, so it holds
    # every window that reaches a sample of x: t in [-e, n + e).
    padded = np.zeros((n_mics, n + 3 * e))
    padded[:, e + bank.max_shift : e + bank.max_shift + n] = frames
    p = padded[:, e : n + 2 * e]
    # lags[e + d, m, k] = sum_u P[m, u] P[k, u + d], for d in [-e, e]
    lag = np.stack([p[:, : n + e - d] @ p[:, d:].T for d in range(s)])
    lags = np.concatenate([lag[:0:-1].transpose(0, 2, 1), lag])
    # gram[(m, j), (k, j')] = sum_t P[m, t + j] P[k, t + j'] over t in [0, n): lag
    # j' - j, which sums over every t, less the windows of t < 0 and t >= n
    j = np.arange(s)
    gram = lags[e + j - j[:, None]].transpose(2, 0, 3, 1).reshape(n_mics * s, n_mics * s)
    # the first columns in ``padded`` of the windows of t in [-e, 0) and [n, n + e)
    t = np.concatenate([np.arange(e), np.arange(n + e, n + 2 * e)])
    outside = padded[:, t[:, None] + j].transpose(1, 0, 2).reshape(2 * e, n_mics * s)
    gram -= outside.T @ outside
    w = bank.taps.reshape(grid.n_points, -1)  # row i: the beam at azimuth i, over (mic, shift)
    power = np.einsum("ai,ai->a", w @ gram, w) / n
    i = int(np.argmax(power))  # first maximum = lowest azimuth index on ties
    p_l, p_c, p_r = power[i - 1], power[i], power[(i + 1) % grid.n_points]
    denom = p_l - 2 * p_c + p_r
    offset = 0.0 if denom == 0 else 0.5 * (p_l - p_r) / denom
    offset = float(np.clip(offset, -0.5, 0.5))
    az = (grid.angles[i] + offset * grid.step) % 360.0
    return float(az), power


def azimuth_error_deg(a: float, b: float) -> float:
    """Absolute angular distance on the circle, in [0, 180]."""
    d = abs((a - b + 180.0) % 360.0 - 180.0)
    return float(d)


# === the front-end chain ===


def enhance(
    geom: MicArrayGeometry,
    spec: FilterBankSpec,
    mics: np.ndarray,
    steer_deg: float | np.ndarray,
    far_sub: SubbandState | None = None,
    *,
    mu: float | np.ndarray,
    aec_taps: int,
    band_gains: np.ndarray | None = None,
) -> tuple[SubbandState, SubbandState, np.ndarray]:
    """DAS at ``steer_deg`` -> analysis -> AEC -> band gains -> synthesis.

    The AEC runs, from a fresh state, only when the far-end analysis
    ``far_sub`` is given; ``band_gains`` (one gain in [0, 1] per kept band
    0..M/2, held over every frame) only when given. Returns the beamformed subbands
    before the AEC, the subbands after the last stage, and the synthesized
    samples, as many as ``mics`` has columns.

    An (E,) array of steering angles runs E settings of the chain on the
    same ``mics`` and far end in lockstep: ``mu`` is then one step size per
    row and ``band_gains`` (E, M//2 + 1), and every output gains that
    leading axis. One ``beamform_das`` call steers all E rows. Each row
    equals the chain run on its own settings, bit for bit. Gains of the
    wrong shape raise ``FramingError``; gains outside [0, 1], or not finite,
    ``DomainError``.
    """
    mic_sub = fb_analyze(spec, beamform_das(geom, das_weights(geom, steer_deg), mics))
    out_sub = mic_sub
    if far_sub is not None:
        out_sub, _ = aec_process(make_aec(spec.m_bands, aec_taps, mu=mu), far_sub, mic_sub)
    if band_gains is not None:
        gains = np.asarray(band_gains, dtype=np.float64)
        if gains.shape != out_sub.bands.shape[:-1]:
            raise FramingError("band gains must be one per band, for every row")
        if not np.all((gains >= 0.0) & (gains <= 1.0)):
            raise DomainError("band gains must be finite and lie in [0, 1]")
        out_sub = replace(out_sub, bands=out_sub.bands * gains[..., None])
    return mic_sub, out_sub, fb_synthesize(spec, out_sub)
