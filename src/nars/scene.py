"""Synthetic acoustic scenes: box-room impulse responses, noise surrogates,
SNR-exact mixing, and the evaluation metrics used across the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import FRAC_DELAY_TAPS, frac_delay_kernels, kernel_offsets
from .errors import DomainError

NOISE_KINDS = ("white", "pink", "street_surrogate", "car_surrogate", "babble_surrogate")

SI_SNR_CAP_DB = 60.0

MIN_SOURCE_MIC_DISTANCE = 1e-9  # m; a source closer to a mic than this coincides with it


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room; one frequency-independent amplitude reflection for all walls."""

    dims: tuple[float, float, float]
    reflection: float
    max_order: int
    c: float = 343.0
    fs: float = 16000.0

    def __post_init__(self):
        if len(self.dims) != 3 or any(d <= 0 for d in self.dims):
            raise DomainError("room dims must be three positive lengths")
        if not 0.0 <= self.reflection < 1.0:
            raise DomainError("reflection coefficient must lie in [0, 1)")
        if self.max_order < 0:
            raise DomainError("max_order must be nonnegative")
        if self.c <= 0 or self.fs <= 0:
            raise DomainError("c and fs must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    room: RoomSpec
    source_pos: tuple[float, float, float]
    mic_positions: tuple[tuple[float, float, float], ...]
    noise_kind: str
    snr_db: float
    seed: int
    duration: float = 1.0
    # optional loudspeaker playing a known far-end signal (echo path)
    echo_pos: tuple[float, float, float] | None = None
    echo_level_db: float = 0.0

    def __post_init__(self):
        if self.noise_kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.noise_kind!r}")
        if self.duration <= 0:
            raise DomainError("duration must be positive")
        # within 300 dB the linear gains, and the powers the mix takes of them, stay
        # far inside the float range; 10.0 ** (1e300 / 10) overflows
        if not (abs(self.snr_db) <= 300.0 and abs(self.echo_level_db) <= 300.0):
            raise DomainError(
                f"snr_db ({self.snr_db!r}) and echo_level_db ({self.echo_level_db!r}) must lie in [-300, 300] dB"
            )
        if len(self.mic_positions) < 1:
            raise DomainError("at least one microphone required")


@dataclass
class Metrics:
    scenario_id: str
    si_snr_db: float
    snr_gain_db: float
    doa_err_deg: float = float("nan")

    def row(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "si_snr_db": f"{self.si_snr_db:.6f}",
            "snr_gain_db": f"{self.snr_gain_db:.6f}",
            "doa_err_deg": f"{self.doa_err_deg:.6f}",
        }


# === image-source impulse responses ===


def _axis_images(pos: float, length: float, max_order: int):
    """Per-axis image coordinates with their wall-bounce counts."""
    out = []
    for l in range(-max_order, max_order + 1):
        for u in (0, 1):
            bounces = abs(l - u) + abs(l)
            if bounces > max_order:
                continue
            out.append(((1 - 2 * u) * pos + 2 * l * length, bounces))
    return out


def image_source_rir(room: RoomSpec, src: tuple, mic) -> np.ndarray:
    """FIR room response by the image-source method.

    Each image contributes reflection^bounces / (4 pi d) at delay d/c,
    spread over the shared 8-tap fractional-delay kernel. Source and mics
    must lie strictly inside the room.

    ``mic`` is one ``(3,)`` position, giving an ``(n,)`` response, or an
    ``(M, 3)`` stack, giving ``(M, n_max)``: the images are listed once for
    the source, and row m holds mic m's response, bit-identical to a lone
    call, then zeros past its own length.
    """
    src = np.asarray(src, dtype=np.float64)
    mics = np.asarray(mic, dtype=np.float64)
    if src.shape != (3,) or mics.ndim not in (1, 2) or mics.shape[-1] != 3 or mics.size == 0:
        raise DomainError("source must be a (3,) position and mic a (3,) position or an (M, 3) stack")
    lone = mics.ndim == 1
    mics = mics.reshape(-1, 3)
    dims = np.asarray(room.dims)
    for p, name in ((src, "source"), (mics, "microphone")):
        if not np.all((p > 0) & (p < dims)):
            raise DomainError(f"{name} position must lie strictly inside the room")
    gap = src - mics
    if np.any(np.sqrt(np.vecdot(gap, gap)) < MIN_SOURCE_MIC_DISTANCE):
        raise DomainError("microphone coincides with the source")

    axes = [_axis_images(src[k], room.dims[k], room.max_order) for k in range(3)]
    images, bounces = [], []
    for x, bx in axes[0]:
        for y, by in axes[1]:
            if bx + by > room.max_order:
                continue
            for z, bz in axes[2]:
                b = bx + by + bz
                if b <= room.max_order:
                    images.append((x, y, z))
                    bounces.append(b)

    diff = np.array(images)[None, :, :] - mics[:, None, :]
    # (M, images); np.vecdot runs the dot product np.linalg.norm does, so
    # each distance keeps its bits (einsum or a sum of squares would not)
    dist = np.sqrt(np.vecdot(diff, diff))
    n = np.ceil(dist.max(axis=1) * room.fs / room.c).astype(np.int64) + FRAC_DELAY_TAPS + 1
    n_max = int(n.max())
    # Python-float powers: numpy's array power rounds differently (0.4**2)
    amp = np.array([room.reflection**b for b in bounces]) / (4 * np.pi * dist)
    delay = dist * room.fs / room.c
    n_int = np.floor(delay)
    kernels = frac_delay_kernels(delay - n_int)
    idx = n_int.astype(np.int64)[..., None] + kernel_offsets()
    ok = (idx >= 0) & (idx < n[:, None, None])
    flat = idx + (n_max * np.arange(len(mics)))[:, None, None]
    rir = np.zeros(len(mics) * n_max)
    np.add.at(rir, flat[ok], (amp[..., None] * kernels)[ok])  # mic by mic, image by image, in order
    rir = rir.reshape(len(mics), n_max)
    return rir[0] if lone else rir


# === noise surrogates ===


def _shape_white(white: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Unit-RMS ``white`` with its spectrum scaled by ``mag`` (one per rfft bin)."""
    spec = np.fft.rfft(white)
    spec *= mag
    out = np.fft.irfft(spec, n=len(white))
    rms = np.sqrt(np.mean(out**2))
    return out / rms


def _white_shape(f):
    return np.ones_like(f)


def _pink_shape(f):
    shaped = 1.0 / np.sqrt(np.maximum(f, 20.0))
    shaped[f == 0] = 0.0
    return shaped


def _car_shape(f):
    # -12 dB/oct power rolloff above a 50 Hz corner
    shaped = 1.0 / (1.0 + (f / 50.0) ** 2)
    shaped[f == 0] = 0.0
    return shaped


def _speech_shape(f):
    # broad peak near 400 Hz, gentle rolloff above
    fsafe = np.maximum(f, 1e-6)
    shaped = (fsafe / np.sqrt(fsafe**2 + 200.0**2)) * (1.0 + (fsafe / 500.0) ** 2) ** -0.75
    shaped[f == 0] = 0.0
    return shaped


_SHAPES = {
    "white": _white_shape,
    "pink": _pink_shape,
    "street_surrogate": _pink_shape,  # street traffic is modeled as pink
    "car_surrogate": _car_shape,
    "babble_surrogate": _speech_shape,
}


def synth_noise(kind: str, duration: float, fs: float, seed) -> np.ndarray:
    """Unit-RMS noise of the declared spectral shape, deterministic in seed.

    babble_surrogate sums eight speech-shaped streams, each with an
    independent-phase 4 Hz amplitude modulation.
    """
    if kind not in NOISE_KINDS:
        raise DomainError(f"unknown noise kind {kind!r}")
    if duration <= 0 or fs <= 0:
        raise DomainError("duration and fs must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    if n < 2:  # a shaped kind zeroes DC, the one bin of a lone sample
        raise DomainError(f"noise needs at least 2 samples; duration {duration!r} s at {fs!r} Hz gives {n}")
    if kind == "white":
        out = rng.standard_normal(n)
        return out / np.sqrt(np.mean(out**2))
    mag = _SHAPES[kind](np.fft.rfftfreq(n, 1.0 / fs))
    if kind == "babble_surrogate":
        t = np.arange(n) / fs
        acc = np.zeros(n)
        for _ in range(8):
            voice = _shape_white(rng.standard_normal(n), mag)
            phase = rng.uniform(0, 2 * np.pi)
            acc += voice * (1.0 + 0.5 * np.sin(2 * np.pi * 4.0 * t + phase))
        return acc / np.sqrt(np.mean(acc**2))
    return _shape_white(rng.standard_normal(n), mag)


# === mixing and metrics ===


def mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> tuple[np.ndarray, float]:
    """Scale noise so clean/noise power ratio is exactly snr_db; returns (mix, gain)."""
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if clean.shape != noise.shape:
        raise DomainError("clean and noise must have equal shape")
    p_c = float(np.mean(clean**2))
    p_n = float(np.mean(noise**2))
    if p_c <= 0 or p_n <= 0:
        raise DomainError("mix_at_snr needs nonzero-power clean and noise")
    gain = float(np.sqrt(p_c / (p_n * 10.0 ** (snr_db / 10.0))))
    return clean + gain * noise, gain


def si_snr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Scale-invariant SNR in dB, capped at +60.

    Zero-mean signals are projected: the component of the estimate along the
    reference counts as target, the rest as distortion. Two float64 copies
    of the signals are made; the target and the distortion overwrite them.
    """
    ref = np.array(reference, dtype=np.float64)
    est = np.array(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise DomainError("reference and estimate must have equal shape")
    ref -= ref.mean()
    est -= est.mean()
    denom = float(np.dot(ref, ref))
    if denom <= 0:
        raise DomainError("si_snr needs a nonzero reference")
    target = np.multiply(np.dot(est, ref) / denom, ref, out=ref)
    resid = np.subtract(est, target, out=est)
    p_t = float(np.dot(target, target))
    p_r = float(np.dot(resid, resid))
    if p_r <= p_t * 10.0 ** (-SI_SNR_CAP_DB / 10.0):
        return SI_SNR_CAP_DB
    if p_t == 0.0:
        return -SI_SNR_CAP_DB
    return min(SI_SNR_CAP_DB, float(10.0 * np.log10(p_t / p_r)))


def measure_rtf(processing_seconds: float, audio_seconds: float) -> float:
    """Real-time factor: processing time over audio duration."""
    if audio_seconds <= 0:
        raise DomainError("audio duration must be positive")
    if processing_seconds < 0:
        raise DomainError("processing time cannot be negative")
    return processing_seconds / audio_seconds


# === scene rendering (shared by localization, env, and the CLI) ===


def scene_rng(seed: int, scene_index: int) -> np.random.Generator:
    """Per-scene substream: independent of every other scene index."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(scene_index)]))


@dataclass
class RenderedScene:
    mics: np.ndarray  # (n_mics, n_samples)
    clean_ref: np.ndarray  # dry source aligned to the array centroid
    far_end: np.ndarray | None  # echo reference when the scenario has one
    fs: float
    true_azimuth_deg: float


def _convolve_rirs(signal: np.ndarray, rirs: np.ndarray, n: int) -> np.ndarray:
    """``(M, n)``: ``signal`` (at least n samples) convolved with each of the
    ``(M, L)`` rows of ``rirs`` and cut to n samples, by blocked FFT
    overlap-add.

    The FFT size is the next power of two at or above 4 L; each block of
    ``nfft - L + 1`` signal samples takes one forward transform for all rows
    and one inverse transform of the stack.
    """
    length = rirs.shape[-1]
    nfft = 1 << (4 * length - 1).bit_length()
    step = nfft - length + 1
    spectra = np.fft.rfft(rirs, nfft)
    out = np.zeros((rirs.shape[0], n))
    for start in range(0, n, step):
        block = np.fft.irfft(np.fft.rfft(signal[start : start + step], nfft) * spectra, nfft)
        stop = min(start + nfft, n)
        out[:, start:stop] += block[:, : stop - start]
    return out


def render_scene(cfg: ScenarioConfig, *, clean: np.ndarray | None = None) -> RenderedScene:
    """Mic signals for a scenario: reverberant source + per-mic noise (+ echo).

    The clean source defaults to a speech-shaped surrogate drawn from the
    scenario's seeded substream; a given ``clean`` must be a finite 1-D
    signal at least as long as the scene. Noise is mixed so the first mic
    sits at the requested SNR. The returned clean reference is the dry
    source delayed to the array centroid (direct path), for scale-invariant
    scoring.
    """
    room = cfg.room
    n = int(round(cfg.duration * room.fs))
    ss = np.random.SeedSequence(cfg.seed)
    kids = ss.spawn(4)
    if clean is None:
        clean = synth_noise("babble_surrogate", cfg.duration, room.fs, kids[0])
    clean = np.asarray(clean, dtype=np.float64)
    if clean.ndim != 1 or len(clean) < n or not np.all(np.isfinite(clean[:n])):
        raise DomainError(f"clean signal must be a finite 1-D array of at least {n} samples")
    clean = clean[:n]

    mics = _convolve_rirs(clean, image_source_rir(room, cfg.source_pos, cfg.mic_positions), n)

    far = None
    if cfg.echo_pos is not None:
        far = synth_noise("white", cfg.duration, room.fs, kids[1])
        level = 10.0 ** (cfg.echo_level_db / 20.0)
        ref_power = np.sqrt(np.mean(mics[0] ** 2))
        # one row at a time: an (M, n) echo stack would add a second mic stack to the peak memory
        for m, rir in enumerate(image_source_rir(room, cfg.echo_pos, cfg.mic_positions)):
            echo = _convolve_rirs(far, rir[None], n)[0]
            e_rms = np.sqrt(np.mean(echo**2)) or 1.0
            mics[m] += echo * (level * ref_power / e_rms)
        del echo  # the last mic's echo would otherwise live through the noise draws

    noise_rng = np.random.default_rng(kids[2])
    for m in range(mics.shape[0]):
        noise = synth_noise(cfg.noise_kind, cfg.duration, room.fs, noise_rng.integers(2**63))
        if m == 0:
            _, gain = mix_at_snr(mics[0], noise, cfg.snr_db)
        mics[m] += gain * noise
        del noise  # dead before the next draw, which peaks at several signal lengths

    centroid = np.mean(np.asarray(cfg.mic_positions, dtype=np.float64), axis=0)
    src = np.asarray(cfg.source_pos, dtype=np.float64)
    d = float(np.linalg.norm(src - centroid))
    delay = d * room.fs / room.c
    shift = int(round(delay))
    clean_ref = np.zeros(n)
    clean_ref[shift:] = clean[: n - shift] / (4 * np.pi * d)
    rel = src - centroid
    true_az = float(np.degrees(np.arctan2(rel[1], rel[0])) % 360.0)
    return RenderedScene(mics, clean_ref, far, room.fs, true_az)
