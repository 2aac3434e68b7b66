import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

import nars.frontend
from nars.dsp import (
    FRAC_DELAY_TAPS,
    _kaiser_cont,
    delay_signal,
    frac_delay_kernel,
    frac_delay_kernels,
    kernel_offsets,
)
from nars.errors import ConfigurationError, DataError, DomainError, FramingError, NoSourceError
from nars.frontend import (
    AzimuthGrid,
    FilterBankSpec,
    MicArrayGeometry,
    SubbandAecState,
    SubbandState,
    aec_process,
    azimuth_error_deg,
    band_power,
    beamform_das,
    circular_array,
    das_weights,
    enhance,
    erle_db,
    fb_analyze,
    fb_synthesize,
    make_aec,
    scenario_geometry,
    srp_localize,
    steering_delays,
)
from nars.scene import RoomSpec, ScenarioConfig, render_scene, si_snr, synth_noise

FS = 16000.0
BANK = FilterBankSpec(m_bands=64, hop=32, fs=FS)
KEPT = BANK.m_bands // 2 + 1  # the bands 0..M/2 the bank keeps


def round_trip_db(spec, x):
    y = fb_synthesize(spec, fb_analyze(spec, x))[: len(x)]
    return 10 * np.log10(np.sum((y - x) ** 2) / np.sum(x**2))


# === filter bank ===


def test_bank_spec_validation():
    with pytest.raises(ConfigurationError):
        FilterBankSpec(m_bands=64, hop=48, fs=FS)  # undersampled
    with pytest.raises(ConfigurationError):
        FilterBankSpec(m_bands=60, hop=32, fs=FS)  # hop does not divide m_bands
    with pytest.raises(ConfigurationError, match="hop must divide m_bands"):
        FilterBankSpec(m_bands=96, hop=36, fs=FS)  # oversampled, but 36 does not divide 96
    with pytest.raises(ConfigurationError):
        FilterBankSpec(m_bands=64, hop=32, fs=-1.0)


def test_bank_specs_compare_by_their_settings():
    same = FilterBankSpec(m_bands=64, hop=32, fs=FS)
    assert same == BANK and hash(same) == hash(BANK)
    assert FilterBankSpec(m_bands=32, hop=16, fs=FS) != BANK


def test_bank_round_trip_white_noise():
    x = np.random.default_rng(0).standard_normal(16000)
    assert round_trip_db(BANK, x) < -40.0


def test_bank_round_trip_tone():
    t = np.arange(16000) / FS
    x = np.sin(2 * np.pi * 440.0 * t)
    assert round_trip_db(BANK, x) < -40.0


def test_bank_round_trip_speech_shaped():
    x = synth_noise("babble_surrogate", 1.0, FS, seed=2)
    assert round_trip_db(BANK, x) < -40.0


def test_bank_other_geometry_round_trips():
    spec = FilterBankSpec(m_bands=32, hop=8, fs=FS)  # 4x oversampled
    x = np.random.default_rng(1).standard_normal(8000)
    assert round_trip_db(spec, x) < -40.0


def test_bank_impulse_parseval_exact():
    # square-COLA normalization makes the impulse energy identity exact
    x = np.zeros(4096)
    x[2048] = 1.0
    state = fb_analyze(BANK, x)
    expect = BANK.m_bands / BANK.hop * np.sum(BANK.prototype**2)
    assert np.sum(band_power(state)) == pytest.approx(expect, rel=1e-12)


def test_bank_analysis_shift_invariance():
    # delaying by q*hop shifts frames by q, values untouched
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6000)
    q = BANK.m_bands // BANK.hop * 3
    shifted = np.concatenate([np.zeros(q * BANK.hop), x])
    a = fb_analyze(BANK, x).bands
    b = fb_analyze(BANK, shifted).bands
    assert np.array_equal(a[:, : a.shape[1] - q], b[:, q : a.shape[1]])


def test_bank_band_centers():
    # a tone at band center m lands in band m; its conjugate mirror M - m is not kept
    t = np.arange(16000) / FS
    for m in (0, 5, BANK.m_bands // 2):
        state = fb_analyze(BANK, np.cos(2 * np.pi * m * FS / BANK.m_bands * t))
        assert state.bands.shape[0] == KEPT
        assert np.argmax(np.mean(np.abs(state.bands) ** 2, axis=1)) == m


def test_analyze_input_validation():
    # a 2-D input is a stack of streams, one per row; more axes are refused
    with pytest.raises(FramingError):
        fb_analyze(BANK, np.zeros((2, 2, 4000)))
    with pytest.raises(FramingError):
        fb_analyze(BANK, np.zeros(()))
    with pytest.raises(FramingError):
        fb_analyze(BANK, np.zeros(16))
    with pytest.raises(FramingError):
        fb_analyze(BANK, np.zeros((3, 16)))


def test_synthesize_band_mismatch():
    state = fb_analyze(BANK, np.random.default_rng(0).standard_normal(4000))
    other = FilterBankSpec(m_bands=32, hop=16, fs=FS)
    with pytest.raises(ConfigurationError):
        fb_synthesize(other, state)
    # 14 and 15 bands both keep 8; the state's M tells them apart
    odd = fb_analyze(FilterBankSpec(m_bands=15, hop=5, fs=FS), np.ones(400))
    with pytest.raises(ConfigurationError):
        fb_synthesize(FilterBankSpec(m_bands=14, hop=7, fs=FS), odd)
    with pytest.raises(ConfigurationError, match="of 64 bands keeps 33"):
        SubbandState(bands=np.zeros((64, 10), complex), n_samples=0, m_bands=64)


def _traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bank_memory_stays_within_a_few_copies_of_the_bands():
    # 10 s of audio: the kept complex bands are 2.07x the stream's bytes, and a
    # whole-file (n_frames, P) product would be 16x the stream in analysis.
    # Each stage's scratch is one block, so analysis peaks at the fold and the
    # bands (4.08 streams) and synthesis at the frames, the overlap-add rows
    # and the output (4.12)
    x = np.random.default_rng(4).standard_normal(int(10 * FS))
    state = fb_analyze(BANK, x)
    assert _traced_peak(fb_synthesize, BANK, state) <= 4.5 * x.nbytes
    assert _traced_peak(fb_analyze, BANK, x) <= 4.5 * x.nbytes


def test_lone_stream_chain_peaks_under_eleven_streams():
    """Analysis of mic and far end, the AEC and synthesis of a 10-s lone stream.

    The three band sets it holds at the end are 6.2 streams' bytes; a
    full-band bank of all M bands held 12. It peaks at 10.34 streams.
    """
    rng = np.random.default_rng(5)
    mic, far = rng.standard_normal((2, int(10 * FS)))

    def chain():
        mic_sub, far_sub = fb_analyze(BANK, mic), fb_analyze(BANK, far)
        residual, _ = aec_process(make_aec(BANK.m_bands, 4, mu=0.5), far_sub, mic_sub)
        return fb_synthesize(BANK, residual)

    assert _traced_peak(chain) <= 11 * mic.nbytes


# === subband AEC ===


def synthetic_states(n_frames=1500, m_bands=16, seed=0, path=(0.8, 0.3)):
    """Far-end subbands of an m_bands bank and a mic that is a known per-band FIR of them."""
    rng = np.random.default_rng(seed)
    shape = (m_bands // 2 + 1, n_frames)
    far = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mic = np.zeros_like(far)
    for lag, g in enumerate(path):
        mic[:, lag:] += g * far[:, : n_frames - lag]
    fstate = SubbandState(bands=far, n_samples=n_frames * 8, m_bands=m_bands)
    mstate = SubbandState(bands=mic, n_samples=n_frames * 8, m_bands=m_bands)
    return fstate, mstate


def test_aec_converges_on_subband_fir():
    far, mic = synthetic_states()
    res, state = aec_process(make_aec(16, 4, mu=0.5), far, mic)
    assert erle_db(mic, res, tail_frames=200) > 40.0
    # identified taps match the planted path
    assert state.weights[:, 0] == pytest.approx(0.8, abs=1e-2)
    assert state.weights[:, 1] == pytest.approx(0.3, abs=1e-2)


def test_aec_mu_zero_freezes_weights():
    far, mic = synthetic_states(n_frames=100)
    st0 = make_aec(16, 4, mu=0.0)
    res, st1 = aec_process(st0, far, mic)
    assert np.array_equal(st1.weights, st0.weights)
    assert np.array_equal(res.bands, mic.bands)


def test_aec_does_not_mutate_input_state():
    far, mic = synthetic_states(n_frames=50)
    st0 = make_aec(16, 4, mu=0.5)
    before = st0.weights.copy()
    aec_process(st0, far, mic)
    assert np.array_equal(st0.weights, before)


def test_aec_streaming_matches_batch():
    far, mic = synthetic_states(n_frames=300)
    res_a, state_a = aec_process(make_aec(16, 4, mu=0.5), far, mic)
    state = make_aec(16, 4, mu=0.5)
    chunks = []
    for lo in range(0, 300, 75):
        f = SubbandState(bands=far.bands[:, lo : lo + 75], n_samples=0, m_bands=16)
        m = SubbandState(bands=mic.bands[:, lo : lo + 75], n_samples=0, m_bands=16)
        out, state = aec_process(state, f, m)
        chunks.append(out.bands)
    assert np.array_equal(np.concatenate(chunks, axis=1), res_a.bands)
    assert np.array_equal(state.weights, state_a.weights)


def test_aec_validation():
    far, mic = synthetic_states(n_frames=40)
    with pytest.raises(ConfigurationError):
        aec_process(make_aec(8, 4), far, mic)  # band count mismatch
    with pytest.raises(ConfigurationError):
        aec_process(make_aec(16, 4), far, SubbandState(bands=mic.bands, n_samples=0, m_bands=17))  # 17 bands keep 9 too
    short = SubbandState(bands=mic.bands[:, :20], n_samples=0, m_bands=16)
    with pytest.raises(FramingError):
        aec_process(make_aec(16, 4), far, short)
    bad = SubbandState(bands=mic.bands * np.nan, n_samples=0, m_bands=16)
    with pytest.raises(DataError):
        aec_process(make_aec(16, 4), far, bad)
    with pytest.raises(DomainError):
        make_aec(16, 4, mu=2.5)


@settings(max_examples=15, deadline=None)
@given(mu=st.floats(0.05, 1.9), seed=st.integers(0, 100))
def test_aec_weights_bounded_property(mu, seed):
    far, mic = synthetic_states(n_frames=400, seed=seed)
    _, state = aec_process(make_aec(16, 4, mu=mu), far, mic)
    assert np.all(np.isfinite(state.weights))
    assert np.max(np.abs(state.weights)) < 1e3


def test_make_aec_keeps_the_banks_bands():
    for m_bands, kept in ((64, 33), (16, 9), (15, 8), (30, 16)):
        state = make_aec(m_bands, 4, mu=np.full(3, 0.5))
        assert state.weights.shape == (3, kept, 4) and state.far_hist.shape == (kept, 4)


def test_make_aec_needs_a_tap():
    for n_taps in (0, -1):
        with pytest.raises(DomainError, match="n_taps"):
            make_aec(64, n_taps)
    with pytest.raises(DomainError, match="n_taps"):
        SubbandAecState(weights=np.zeros((16, 0), complex), far_hist=np.zeros((16, 0), complex), mu=0.5)


@pytest.mark.parametrize(
    "weights, far_hist",
    [((9, 4), (9, 3)), ((8, 4), (9, 4)), ((2, 3, 9, 4), (9, 4)), ((9, 4), (1, 9, 4))],
    ids=["taps", "bands", "4-d-weights", "3-d-history"],
)
def test_aec_state_rejects_mismatched_shapes(weights, far_hist):
    far, mic = synthetic_states(n_frames=40)
    with pytest.raises(DomainError, match="far_hist"):
        aec_process(SubbandAecState(weights=np.zeros(weights), far_hist=np.zeros(far_hist), mu=0.5), far, mic)


def test_erle_tail_of_batched_bands_takes_the_last_frames():
    rng = np.random.default_rng(12)
    shape = (3, 8, 40)  # (rows, bands, frames) of a 14-band bank
    mic = SubbandState(bands=rng.standard_normal(shape) + 1j * rng.standard_normal(shape), n_samples=0, m_bands=14)
    res = SubbandState(bands=mic.bands * rng.uniform(0.01, 1.0, shape), n_samples=0, m_bands=14)
    tail = 5
    want = erle_db(
        SubbandState(bands=mic.bands[..., -tail:].copy(), n_samples=0, m_bands=14),
        SubbandState(bands=res.bands[..., -tail:].copy(), n_samples=0, m_bands=14),
    )
    assert erle_db(mic, res, tail_frames=tail) == want
    assert erle_db(mic, res, tail_frames=tail) != erle_db(mic, res)


def test_erle_definition():
    mic = SubbandState(bands=np.ones((8, 10), dtype=complex), n_samples=0, m_bands=14)
    res = SubbandState(bands=np.full((8, 10), 0.1, dtype=complex), n_samples=0, m_bands=14)
    assert erle_db(mic, res) == pytest.approx(20.0, abs=1e-9)
    silent = SubbandState(bands=np.zeros((8, 10), dtype=complex), n_samples=0, m_bands=14)
    assert erle_db(mic, silent) == np.inf


@pytest.mark.parametrize("m_bands, hop", [(64, 32), (16, 8), (30, 10), (15, 5)])
def test_band_power_counts_each_frequency_once(m_bands, hop):
    """The kept half's weighted power is the full M-band bank's, odd M (no Nyquist band) included."""
    spec = FilterBankSpec(m_bands=m_bands, hop=hop, fs=FS)
    rng = np.random.default_rng(m_bands)
    state = fb_analyze(spec, rng.standard_normal((2, 3000)))
    residual = replace(state, bands=state.bands * rng.uniform(0.1, 1.0, state.bands.shape[:-1])[..., None])
    # the dropped bands M/2 + 1 .. M - 1 (odd M: (M + 1)/2 .. M - 1) mirror the kept bands above DC
    mirrors = slice(1, (m_bands + 1) // 2)
    full = [np.concatenate([s.bands, np.conj(s.bands[..., mirrors, :][..., ::-1, :])], axis=-2) for s in (state, residual)]
    assert full[0].shape[-2] == m_bands
    full_power = [np.sum(np.abs(b) ** 2, axis=-2) for b in full]
    np.testing.assert_allclose(band_power(state), full_power[0], rtol=1e-13)
    want = 10 * np.log10(np.sum(full_power[0]) / np.sum(full_power[1]))
    assert erle_db(state, residual) == pytest.approx(want, rel=1e-13)
    # DC weighs 1, every band with a mirror 2, and Nyquist, when M is even, 1
    unit = band_power(SubbandState(np.ones((m_bands // 2 + 1, 1), complex), 0, m_bands))[0]
    assert unit == m_bands


# === beamforming and localization ===


def plane_wave_mics(geom, sig, az_deg, noise_rms=0.0, seed=0):
    """Propagate a far-field signal across the array, optional white noise."""
    delays = steering_delays(geom, az_deg)  # compensation (s) = arrival negated
    rng = np.random.default_rng(seed)
    mics = np.stack([delay_signal(sig, -d * geom.fs) for d in delays])
    if noise_rms:
        mics = mics + noise_rms * rng.standard_normal(mics.shape)
    return mics


def test_steering_delays_zero_mean():
    geom = circular_array(8, 0.05, fs=FS)
    d = steering_delays(geom, 123.0)
    assert np.sum(d) == pytest.approx(0.0, abs=1e-15)
    assert np.max(np.abs(d)) <= 0.05 / geom.c + 1e-12


def test_das_aligns_plane_wave():
    geom = circular_array(8, 0.05, fs=FS)
    t = np.arange(4000) / FS
    sig = np.sin(2 * np.pi * 800.0 * t)
    mics = plane_wave_mics(geom, sig, 75.0)
    y = beamform_das(geom, das_weights(geom, 75.0), mics)
    mid = slice(200, -200)
    assert si_snr(sig[mid], y[mid]) > 30.0


def test_das_rejects_off_steer():
    geom = circular_array(8, 0.05, fs=FS)
    sig = _bandlimit(synth_noise("white", 0.25, FS, seed=6), 3000.0)
    mics = plane_wave_mics(geom, sig, 0.0)
    on = beamform_das(geom, das_weights(geom, 0.0), mics)
    off = beamform_das(geom, das_weights(geom, 180.0), mics)
    assert np.mean(on**2) > 2.0 * np.mean(off**2)


def test_array_gain_four_mics():
    # uncorrelated in-band noise: SNR gain near 10 log10 n_mics
    geom = circular_array(4, 0.05, fs=FS)
    sig = _bandlimit(synth_noise("white", 1.0, FS, seed=7), 3000.0)
    az = 37.0
    clean = plane_wave_mics(geom, sig, az)
    rng = np.random.default_rng(8)
    noise = np.stack([_bandlimit(rng.standard_normal(clean.shape[1]), 3000.0) for _ in range(4)])
    w = das_weights(geom, az)
    snr_in = np.mean(clean[0] ** 2) / np.mean(noise[0] ** 2)
    s_out = beamform_das(geom, w, clean)
    n_out = beamform_das(geom, w, noise)
    gain = 10 * np.log10((np.mean(s_out**2) / np.mean(n_out**2)) / snr_in)
    assert gain == pytest.approx(10 * np.log10(4), abs=0.5)


def _bandlimit(x, f_hi):
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(len(x), 1 / FS)
    spec[f > f_hi] = 0.0
    return np.fft.irfft(spec, n=len(x))


def test_srp_finds_plane_wave_azimuth():
    geom = circular_array(8, 0.05, fs=FS)
    sig = _bandlimit(synth_noise("white", 0.3, FS, seed=9), 3000.0)
    mics = plane_wave_mics(geom, sig, 211.0, noise_rms=0.05, seed=10)
    az, power = srp_localize(geom, mics)
    assert azimuth_error_deg(az, 211.0) < 1.0
    assert power.shape == (AzimuthGrid().n_points,)


def test_srp_validation():
    geom = circular_array(8, 0.05, fs=FS)
    with pytest.raises(NoSourceError):
        srp_localize(geom, np.zeros((8, 1000)))
    solo = MicArrayGeometry(positions=np.zeros((1, 3)), fs=FS)
    with pytest.raises(ConfigurationError):
        srp_localize(solo, np.ones((1, 1000)))


def _srp_reference(geom, frames, grid):
    return np.array([np.mean(beamform_das(geom, das_weights(geom, az), frames) ** 2) for az in grid.angles])


SRP_GEOMETRIES = {
    "circle-8-5cm": circular_array(8, 0.05, fs=FS),
    "random-4": MicArrayGeometry(
        positions=np.random.default_rng(20).uniform(-0.08, 0.08, size=(4, 3)), fs=FS
    ),
    "circle-8-30cm": circular_array(8, 0.3, fs=FS),
}


@pytest.mark.parametrize("grid", [AzimuthGrid(72), AzimuthGrid(18), AzimuthGrid(36, start_deg=5.0)],
                         ids=["72", "18", "36-from-5"])
@pytest.mark.parametrize("n", [300, 1000, 8192])
@pytest.mark.parametrize("name", sorted(SRP_GEOMETRIES))
def test_srp_power_matches_a_beamform_das_scan(name, n, grid):
    geom = SRP_GEOMETRIES[name]
    frames = np.random.default_rng(n).standard_normal((geom.n_mics, n))
    az, power = srp_localize(geom, frames, grid)
    ref = _srp_reference(geom, frames, grid)
    np.testing.assert_allclose(power, ref, rtol=1e-12, atol=0)
    assert np.argmax(power) == np.argmax(ref)
    assert azimuth_error_deg(az, grid.angles[np.argmax(ref)]) <= grid.step / 2


def _srp_exact(geom, frames, grid):
    """Each DAS output sample squared and summed exactly: the scan's powers up to the beams' rounding."""
    n = frames.shape[1]
    beams = (beamform_das(geom, das_weights(geom, az), frames) for az in grid.angles)
    return np.array([math.fsum((y * y).tolist()) / n for y in beams])


@pytest.mark.parametrize("grid", [AzimuthGrid(72), AzimuthGrid(18), AzimuthGrid(36, start_deg=5.0)],
                         ids=["72", "18", "36-from-5"])
@pytest.mark.parametrize("n", [300, 1000, 8192])
@pytest.mark.parametrize("name", sorted(SRP_GEOMETRIES))
def test_srp_power_matches_an_exactly_summed_scan(name, n, grid):
    geom = SRP_GEOMETRIES[name]
    frames = np.random.default_rng(n + 1).standard_normal((geom.n_mics, n))
    power = srp_localize(geom, frames, grid)[1]
    np.testing.assert_allclose(power, _srp_exact(geom, frames, grid), rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", sorted(SRP_GEOMETRIES))
def test_srp_power_of_frames_with_a_large_dc_offset(name):
    """A DC offset 1e3 times the noise makes the Gram entries nearly equal; the powers stay exact."""
    geom = SRP_GEOMETRIES[name]
    frames = 1e3 + np.random.default_rng(24).standard_normal((geom.n_mics, 2000))
    grid = AzimuthGrid(36)
    power = srp_localize(geom, frames, grid)[1]
    assert np.all(power >= 0)
    np.testing.assert_allclose(power, _srp_reference(geom, frames, grid), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(SRP_GEOMETRIES))
def test_srp_power_of_the_shortest_steerable_frames(name):
    """Frames one sample past the padding limit: the bank's shift span exceeds the frame."""
    geom = SRP_GEOMETRIES[name]
    grid = AzimuthGrid(72)
    bank = nars.frontend._steering_bank(geom.positions.tobytes(), geom.fs, geom.c, grid)
    n = int(np.floor(bank.max_delay + FRAC_DELAY_TAPS)) + 1
    assert bank.taps.shape[-1] > n
    frames = np.random.default_rng(25).standard_normal((geom.n_mics, n))
    with pytest.raises(FramingError):
        srp_localize(geom, frames[:, :-1], grid)
    power = srp_localize(geom, frames, grid)[1]
    np.testing.assert_allclose(power, _srp_exact(geom, frames, grid), rtol=1e-13, atol=0)


def test_srp_scan_peaks_under_one_and_three_quarter_frames():
    """The scan's one padded copy of the frames dominates; its lags and Gram matrix are small."""
    geom = circular_array(8, 0.05, fs=FS)
    frames = np.random.default_rng(26).standard_normal((8, 8192))
    srp_localize(geom, frames)  # the bank is cached before the count starts
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        srp_localize(geom, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * frames.nbytes


def test_srp_power_bits_do_not_depend_on_the_blas_threads():
    code = (
        "import numpy as np; from nars.frontend import circular_array, srp_localize; "
        "geom = circular_array(8, 0.05, fs=16000.0); "
        "frames = np.random.default_rng(27).standard_normal((8, 8192)); "
        "print(srp_localize(geom, frames)[1].tobytes().hex())"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1] and len(out[0]) > 1


@pytest.mark.parametrize(
    "positions",
    [np.full((4, 3), 1.5), np.array([[1.0, 2.0, z] for z in (0.5, 1.0, 1.5, 2.0)])],
    ids=["coincident", "vertical-line"],
)
def test_srp_refuses_an_array_with_no_horizontal_aperture(positions):
    geom = MicArrayGeometry(positions=positions, fs=FS)
    frames = np.random.default_rng(28).standard_normal((4, 1000))
    with pytest.raises(ConfigurationError, match="horizontal aperture"):
        srp_localize(geom, frames)


def test_srp_reuses_the_steering_bank(monkeypatch):
    geom = circular_array(8, 0.05, fs=FS)
    frames = np.random.default_rng(21).standard_normal((8, 2000))
    grid = AzimuthGrid(24, start_deg=1.25)  # a grid no other test scans
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return frac_delay_kernels(*args, **kwargs)

    monkeypatch.setattr(nars.frontend, "frac_delay_kernels", counting)
    srp_localize(geom, frames, grid)
    assert len(calls) == 1
    same = circular_array(8, 0.05, fs=FS)  # equal geometry, another object
    srp_localize(same, frames, AzimuthGrid(24, start_deg=1.25))
    assert len(calls) == 1


def test_srp_bank_cache_shared_by_threads():
    # more grids than the cache holds, so threads also race on its clearing
    geom = circular_array(8, 0.05, fs=FS)
    frames = np.random.default_rng(23).standard_normal((8, 600))
    grids = [AzimuthGrid(n, start_deg=0.75) for n in range(4, 4 + 2 * nars.frontend._BANK_CACHE_SIZE)]
    expect = [srp_localize(geom, frames, g)[1] for g in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda g: srp_localize(geom, frames, g)[1], grids * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for power, ref in zip(got, expect * 3):
        np.testing.assert_allclose(power, ref, rtol=1e-12, atol=0)


def test_srp_framing_errors():
    geom = circular_array(8, 0.3, fs=FS)  # steering span of about 14 samples
    with pytest.raises(FramingError):
        srp_localize(geom, np.ones((8, 20)))
    with pytest.raises(FramingError):
        srp_localize(geom, np.ones((9, 1000)))
    with pytest.raises(FramingError):
        srp_localize(geom, np.ones(1000))


def test_azimuth_error_wraps():
    assert azimuth_error_deg(359.0, 1.0) == pytest.approx(2.0)
    assert azimuth_error_deg(0.0, 180.0) == pytest.approx(180.0)
    assert azimuth_error_deg(90.0, 90.0) == 0.0


# === masking, band gains, mixing ===


def test_ideal_mask_recovers_tone():
    # tone in one kept band + white noise: the ideal binary mask
    # buys well over 10 dB of SI-SNR
    m = 6
    f = m * FS / BANK.m_bands
    t = np.arange(16000) / FS
    tone = np.sin(2 * np.pi * f * t)
    noise = 0.3 * synth_noise("white", 1.0, FS, seed=11)
    mix = tone + noise
    state = fb_analyze(BANK, mix)
    mask = np.zeros_like(state.bands, dtype=float)
    mask[m] = 1.0
    masked = fb_synthesize(BANK, replace(state, bands=state.bands * mask))[: len(mix)]
    plain = fb_synthesize(BANK, state)[: len(mix)]
    sl = slice(2000, -2000)
    assert si_snr(tone[sl], masked[sl]) - si_snr(tone[sl], plain[sl]) > 10.0


def test_mask_validation(short_scene):
    """``enhance`` checks its band gains once: one per band for every row, finite, in [0, 1]."""
    geom, r = short_scene
    for gains, steer in [(np.ones(KEPT - 1), 40.0), (np.ones(BANK.m_bands), 40.0), (np.ones(KEPT), [40.0, 50.0]),
                         (np.ones((3, KEPT)), [40.0, 50.0])]:
        with pytest.raises(FramingError):
            enhance(geom, BANK, r.mics, np.array(steer), mu=0.0, aec_taps=1, band_gains=gains)
    for bad in (-0.1, 1.0 + 1e-12, np.nan, np.inf):
        gains = np.full(KEPT, 0.5)
        gains[3] = bad
        with pytest.raises(DomainError):
            enhance(geom, BANK, r.mics, 40.0, mu=0.0, aec_taps=1, band_gains=gains)
        with pytest.raises(DomainError):
            enhance(geom, BANK, r.mics, np.array([40.0, 50.0]), mu=np.zeros(2), aec_taps=1,
                    band_gains=np.stack([np.full(KEPT, 0.5), gains]))
    # the ends of the range pass
    enhance(geom, BANK, r.mics, 40.0, mu=0.0, aec_taps=1, band_gains=np.r_[0.0, np.ones(KEPT - 1)])


# === the front-end chain ===


@pytest.fixture(scope="module")
def short_scene():
    """0.25 s of an 8-mic, 5 cm circle with an echo path."""
    mics = circular_array(8, 0.05, center=(3.0, 2.5, 1.2)).positions.tolist()
    scenario = ScenarioConfig(
        room=RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.4, max_order=1, fs=FS),
        source_pos=(1.5, 3.5, 1.5),
        mic_positions=tuple(map(tuple, mics)),
        noise_kind="white",
        snr_db=10.0,
        seed=5,
        duration=0.25,
        echo_pos=(5.0, 1.0, 1.3),
    )
    return scenario_geometry(scenario), render_scene(scenario)


@pytest.mark.parametrize("with_far, with_gains", [(False, False), (True, False), (True, True)])
def test_enhance_equals_the_hand_written_chain(short_scene, with_far, with_gains):
    geom, r = short_scene
    far_sub = fb_analyze(BANK, r.far_end) if with_far else None
    gains = np.linspace(0.1, 1.0, KEPT) if with_gains else None
    mic_sub, out_sub, y = enhance(
        geom, BANK, r.mics, 40.0, far_sub, mu=0.3, aec_taps=3, band_gains=gains
    )

    want_mic = fb_analyze(BANK, beamform_das(geom, das_weights(geom, 40.0), r.mics))
    want_out = want_mic
    if with_far:
        want_out, _ = aec_process(make_aec(BANK.m_bands, 3, mu=0.3), far_sub, want_mic)
    if with_gains:
        mask = np.broadcast_to(gains[:, None], want_out.bands.shape)
        want_out = replace(want_out, bands=want_out.bands * mask)
    want_y = fb_synthesize(BANK, want_out)

    assert mic_sub.bands.tobytes() == want_mic.bands.tobytes()
    assert out_sub.bands.tobytes() == want_out.bands.tobytes()
    assert y.tobytes() == want_y.tobytes()
    assert y.shape == (r.mics.shape[1],)
    assert with_far or with_gains or out_sub is mic_sub


# === fractional delays ===


def test_integer_delay_is_exact_shift():
    x = np.random.default_rng(15).standard_normal(200)
    y = delay_signal(x, 3.0)
    assert np.allclose(y[3:], x[:-3], atol=1e-12)


def test_fractional_delay_of_tone():
    t = np.arange(2000) / FS
    f = 500.0
    x = np.sin(2 * np.pi * f * t)
    y = delay_signal(x, 0.5)
    expect = np.sin(2 * np.pi * f * (t - 0.5 / FS))
    assert np.max(np.abs(y[50:-50] - expect[50:-50])) < 1e-3


def _scalar_kernel(frac, taps=8):
    # reference: the one-fraction formula, normalised by a whole-array sum
    t = kernel_offsets(taps) - frac
    kernel = np.sinc(t) * _kaiser_cont(t, taps / 2 + 0.5)
    return kernel / kernel.sum()


def test_batched_kernels_equal_scalar_kernels_bit_for_bit():
    fracs = np.concatenate([[0.0, 0.5, 0.25, np.nextafter(1.0, 0.0)],
                            np.random.default_rng(22).uniform(size=2000)])
    kernels = frac_delay_kernels(fracs)
    assert kernels.shape == (len(fracs), 8)
    for frac, row in zip(fracs, kernels):
        assert row.tobytes() == _scalar_kernel(frac).tobytes()
        assert frac_delay_kernel(frac).tobytes() == row.tobytes()
    assert frac_delay_kernels(fracs.reshape(4, -1)).shape == (4, len(fracs) // 4, 8)


def test_kaiser_window_matches_scipy_bessel():
    # oracle: scipy's I0 of the square root; against 40-digit values the series
    # errs by up to 4.0e-16 relative and scipy by up to 9.2e-16
    h = 4.5
    t = np.linspace(-h, h, 4001)
    inside = np.abs(t) < h
    expect = np.where(inside, i0(8.0 * np.sqrt(np.clip(1 - (t / h) ** 2, 0, None))), 0.0) / i0(8.0)
    got = _kaiser_cont(t, h)
    assert np.all(got[~inside] == 0.0)
    assert _kaiser_cont(np.zeros(1), h)[0] == 1.0
    np.testing.assert_allclose(got, expect, rtol=2e-15, atol=0.0)


def test_frac_delay_kernel_dc_gain():
    for mu in (0.0, 0.25, 0.5, 0.9):
        assert np.sum(frac_delay_kernel(mu)) == pytest.approx(1.0, abs=1e-3)
