"""The filter bank and the echo canceller against inline copies of their frame loops.

The references below build the whole (n_frames, P) analysis product, sum it
with ``sum(axis=1)`` and keep bands 0..M/2 of its DFT, overlap-add one
synthesized frame at a time into an accumulator, and run the NLMS recursion
with a shifted history and one ``einsum`` per frame. ``fb_analyze``,
``fb_synthesize`` and ``aec_process`` must agree with them bit for bit:
outputs, their memory layout, and the returned weights and far-end history.
Called with a leading episode axis, each of them and ``enhance`` must give
every row the bits of a lone-stream call on that row. The half-band bank is
also held to the full-band bank of all M bands it replaced, within a
roundoff bound.

DAS, analysis and synthesis work through time blocks of
``frontend._BLOCK_SAMPLES`` samples; with the constant set to one hop, 7
hops, its default or more than the stream, every output keeps its bits.

The beamformer is held to the per-mic ``shift_add`` loop it replaced within
a roundoff bound, since its steering matrix sums the taps in another order;
the SRP steering bank to an inline copy of the builder that made the bank
before the DAS shared it, bit for bit, and the SRP powers to that builder's
blocked window product within a roundoff bound, since the scan now sums the
same products as a quadratic form of the windows' Gram matrix.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from nars import frontend
from nars.dsp import FRAC_DELAY_TAPS, frac_delay_kernels, kernel_offsets, shift_add
from nars.errors import ConfigurationError, DomainError, FramingError
from nars.frontend import (
    AEC_EPS_REG,
    AzimuthGrid,
    BeamformerWeights,
    FilterBankSpec,
    MicArrayGeometry,
    SubbandAecState,
    SubbandState,
    aec_process,
    beamform_das,
    circular_array,
    das_weights,
    enhance,
    fb_analyze,
    fb_synthesize,
    make_aec,
    scenario_geometry,
    srp_localize,
    steering_delays,
)
from nars.scene import RoomSpec, ScenarioConfig, render_scene

FS = 16000.0
BANKS = [(64, 32), (16, 8), (128, 32), (32, 8), (15, 5)]
TAPS = [1, 2, 4, 16]
MUS = [0.0, 0.5, 1.7]


def _reference_folded(spec, x):
    """Each frame's windowed samples folded into M bins, from the whole (n_frames, P) product."""
    x = np.asarray(x, dtype=np.float64)
    P, M, L = spec.n_taps, spec.m_bands, spec.hop
    n_frames = (len(x) + P - 2) // L + 1
    xp = np.zeros(P - 1 + n_frames * L + P)
    xp[P - 1 : P - 1 + len(x)] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, P)[::L][:n_frames]
    frames = windows[:, ::-1] * spec.prototype[None, :]
    return frames.reshape(n_frames, P // M, M).sum(axis=1)


def _reference_analyze(spec, x):
    bands = np.fft.rfft(_reference_folded(spec, x), axis=1).T
    return SubbandState(bands=bands, n_samples=len(x), m_bands=spec.m_bands)


def _reference_synthesize(spec, state):
    P, M, L = spec.n_taps, spec.m_bands, spec.hop
    bands = state.bands
    n_frames = bands.shape[1]
    chunks = np.tile(np.fft.irfft(bands.T, n=M, axis=1), (1, P // M)) * spec.dual[None, :]
    acc = np.zeros(P - 1 + n_frames * L + P)
    for k in range(n_frames):
        acc[k * L : k * L + P] += chunks[k, ::-1]
    return M * acc[P - 1 : P - 1 + state.n_samples]


def _full_band_analyze(spec, x):
    """All M bands of the full bank, of which the bank keeps bands 0..M/2."""
    return np.fft.fft(_reference_folded(spec, x), axis=1).T


def _full_band_synthesize(spec, bands, n_samples):
    """Synthesis from all M bands: the real part of each frame's M-point inverse DFT."""
    P, M, L = spec.n_taps, spec.m_bands, spec.hop
    n_frames = bands.shape[1]
    chunks = np.tile(np.fft.ifft(bands.T, axis=1), (1, P // M)) * spec.dual[None, :]
    acc = np.zeros(P - 1 + n_frames * L + P, dtype=np.complex128)
    for k in range(n_frames):
        acc[k * L : k * L + P] += chunks[k, ::-1]
    return M * acc[P - 1 : P - 1 + n_samples].real


def _reference_aec(state, far, mic):
    w = state.weights.copy()
    hist = state.far_hist.copy()
    mu = state.mu
    out = np.empty_like(mic.bands)
    for k in range(mic.bands.shape[1]):
        hist[:, 1:] = hist[:, :-1]
        hist[:, 0] = far.bands[:, k]
        est = np.einsum("bt,bt->b", w, hist)
        err = mic.bands[:, k] - est
        out[:, k] = err
        if mu != 0.0:
            norm = np.einsum("bt,bt->b", hist, np.conj(hist)).real + AEC_EPS_REG
            w += mu * np.conj(hist) * (err / norm)[:, None]
    return SubbandState(bands=out, n_samples=mic.n_samples, m_bands=mic.m_bands), SubbandAecState(w, hist, mu)


def _identical(got, want):
    """Same shape, dtype, memory order and bytes, so signed zeros count too."""
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and (got.flags.c_contiguous, got.flags.f_contiguous)
        == (want.flags.c_contiguous, want.flags.f_contiguous)
        and got.tobytes(order="A") == want.tobytes(order="A")
    )


def _random_state(rng, m_bands, n_taps, mu):
    """A canceller of the m_bands // 2 + 1 bands an m_bands bank keeps, with random weights and history."""
    shape = (m_bands // 2 + 1, n_taps)

    def cplx():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return SubbandAecState(weights=0.1 * cplx(), far_hist=cplx(), mu=mu)


def _lengths(spec):
    return [spec.n_taps, spec.n_taps + 1, 3000, 3201, 16000]


@pytest.mark.parametrize("m_bands, hop", BANKS)
def test_bank_matches_the_frame_loops(m_bands, hop):
    spec = FilterBankSpec(m_bands=m_bands, hop=hop, fs=FS)
    rng = np.random.default_rng(m_bands + hop)
    for n in _lengths(spec):
        x = rng.standard_normal(n)
        got, want = fb_analyze(spec, x), _reference_analyze(spec, x)
        assert _identical(got.bands, want.bands), (n, "analysis")
        assert got.n_samples == want.n_samples
        assert _identical(fb_synthesize(spec, got), _reference_synthesize(spec, want)), (n, "synthesis")
        # a C-ordered (M//2 + 1, n_frames) state takes the same path
        c_state = SubbandState(bands=np.ascontiguousarray(want.bands), n_samples=n, m_bands=m_bands)
        assert _identical(fb_synthesize(spec, c_state), _reference_synthesize(spec, c_state)), n


BLOCKED_N = 3 * frontend._BLOCK_SAMPLES + 1001  # three default blocks and a partial one


def _block_sizes(hop):
    """One hop, 7 hops, the default and one block for the whole stream."""
    return [hop, 7 * hop, frontend._BLOCK_SAMPLES, 10**9]


@pytest.mark.parametrize("m_bands, hop", [(64, 32), (15, 5)])
def test_bank_does_not_depend_on_the_block_size(monkeypatch, m_bands, hop):
    """Analysis and synthesis of a lone stream and of a (4, n) stack give the same bits at any block size."""
    spec = FilterBankSpec(m_bands=m_bands, hop=hop, fs=FS)
    rng = np.random.default_rng(400 + m_bands)
    streams = [rng.standard_normal(BLOCKED_N), rng.standard_normal((4, BLOCKED_N))]
    want = None
    for size in _block_sizes(hop):
        monkeypatch.setattr(frontend, "_BLOCK_SAMPLES", size)
        states = [fb_analyze(spec, x) for x in streams]
        got = [s.bands for s in states] + [fb_synthesize(spec, s) for s in states]
        want = got if want is None else want
        assert all(_identical(g, w) for g, w in zip(got, want)), size


def _unblocked_analyze(spec, x):
    """The analysis as one fold over the whole stack: a padded copy, the fold and one segment
    of n_frames x M, freed before the rfft."""
    P, M, L = spec.n_taps, spec.m_bands, spec.hop
    n_frames = (x.shape[-1] + P - 2) // L + 1
    xp = np.zeros(x.shape[:-1] + (P - 1 + n_frames * L + P,))
    xp[..., P - 1 : P - 1 + x.shape[-1]] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, P, axis=-1)[..., ::L, :][..., :n_frames, ::-1]
    folded = np.zeros(x.shape[:-1] + (n_frames, M))
    segment = np.empty_like(folded)
    for s in range(0, P, M):
        np.multiply(windows[..., s : s + M], spec.prototype[s : s + M], out=segment)
        folded += segment
    del xp, windows, segment
    return np.fft.rfft(folded, axis=-1)


def test_tune_sized_analysis_peaks_no_higher_than_one_unblocked_fold():
    """A (4, 3200) stack, a tuning step's chunk, fits one block: its analysis allocates no more
    than the unblocked fold, give or take a few Python objects."""
    spec = FilterBankSpec(m_bands=64, hop=32, fs=FS)
    x = np.random.default_rng(47).standard_normal((4, 3200))

    def peak(fn):
        tracemalloc.start()
        try:
            fn(spec, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(fb_analyze), peak(_unblocked_analyze)  # first calls build numpy's FFT plans
    assert peak(fb_analyze) <= peak(_unblocked_analyze) + 4096


@pytest.mark.parametrize("m_bands, hop", [(64, 32), (16, 8), (128, 32), (30, 10), (15, 5)])
def test_half_band_bank_matches_the_full_band_bank(m_bands, hop):
    """Bands 0..M/2 of the full bank within 1e-15 of their peak; synthesis within 1e-15 of the input peak.

    Odd M has no Nyquist band: its kept bands are 0..(M - 1)/2.
    """
    spec = FilterBankSpec(m_bands=m_bands, hop=hop, fs=FS)
    rng = np.random.default_rng(300 + m_bands)
    for n in _lengths(spec):
        x = rng.standard_normal(n)
        half = fb_analyze(spec, x)
        full = _full_band_analyze(spec, x)
        assert half.bands.shape == (m_bands // 2 + 1, full.shape[1])
        assert np.max(np.abs(half.bands - full[: m_bands // 2 + 1])) <= 1e-15 * np.max(np.abs(full)), n
        y = fb_synthesize(spec, half)
        assert np.max(np.abs(y - _full_band_synthesize(spec, full, n))) <= 1e-15 * np.max(np.abs(x)), n


@pytest.mark.parametrize("n_taps", TAPS)
@pytest.mark.parametrize("m_bands, hop", BANKS)
def test_aec_matches_the_frame_loop(m_bands, hop, n_taps):
    spec = FilterBankSpec(m_bands=m_bands, hop=hop, fs=FS)
    rng = np.random.default_rng(100 * m_bands + n_taps)
    for n, mu in itertools.product(_lengths(spec), MUS):
        far = fb_analyze(spec, rng.standard_normal(n))
        mic = fb_analyze(spec, rng.standard_normal(n))
        state = _random_state(rng, m_bands, n_taps, mu)
        kept = (state.weights.copy(), state.far_hist.copy())
        got, got_state = aec_process(state, far, mic)
        want, want_state = _reference_aec(state, far, mic)
        assert _identical(got.bands, want.bands), (n, mu)
        assert _identical(got_state.weights, want_state.weights), (n, mu)
        assert _identical(got_state.far_hist, want_state.far_hist), (n, mu)
        assert got.n_samples == want.n_samples and got_state.mu == mu
        assert np.array_equal(state.weights, kept[0]) and np.array_equal(state.far_hist, kept[1])


@pytest.mark.parametrize("n_taps", TAPS)
def test_aec_chunks_shorter_than_the_history_match_the_frame_loop(n_taps):
    """Calls of 0, 1, 2 and 3 frames carry the history through the returned state.

    The subbands are frame-major in memory, as ``fb_analyze`` lays them out.
    """
    rng = np.random.default_rng(n_taps)
    far_all = (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))).T
    mic_all = (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))).T
    got_state = want_state = _random_state(rng, 14, n_taps, 0.5)
    lo = 0
    for size in (0, 1, 2, 3):
        far = SubbandState(bands=far_all[:, lo : lo + size], n_samples=0, m_bands=14)
        mic = SubbandState(bands=mic_all[:, lo : lo + size], n_samples=0, m_bands=14)
        got, got_state = aec_process(got_state, far, mic)
        want, want_state = _reference_aec(want_state, far, mic)
        assert _identical(got.bands, want.bands), size
        assert _identical(got_state.weights, want_state.weights), size
        assert _identical(got_state.far_hist, want_state.far_hist), size
        lo += size


def test_aec_with_no_frames_returns_copies_of_the_state():
    rng = np.random.default_rng(7)
    state = _random_state(rng, 16, 4, 0.5)
    empty = SubbandState(bands=np.zeros((9, 0), dtype=np.complex128), n_samples=0, m_bands=16)
    out, new = aec_process(state, empty, empty)
    assert out.bands.shape == (9, 0)
    assert np.array_equal(new.weights, state.weights) and new.weights is not state.weights
    assert np.array_equal(new.far_hist, state.far_hist) and new.far_hist is not state.far_hist


@pytest.fixture(scope="module")
def echo_scene():
    """0.25 s of an 8-mic, 5 cm circle with an echo path."""
    mics = circular_array(8, 0.05, center=(3.0, 2.5, 1.2)).positions.tolist()
    scenario = ScenarioConfig(
        room=RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.4, max_order=1, fs=FS),
        source_pos=(1.5, 3.5, 1.5),
        mic_positions=tuple(map(tuple, mics)),
        noise_kind="white",
        snr_db=10.0,
        seed=11,
        duration=0.25,
        echo_pos=(5.0, 1.0, 1.3),
    )
    return scenario_geometry(scenario), render_scene(scenario)


@pytest.mark.parametrize("with_far, with_gains", [(False, False), (False, True), (True, False), (True, True)])
def test_enhance_matches_the_reference_chain(echo_scene, with_far, with_gains):
    geom, r = echo_scene
    spec = FilterBankSpec(m_bands=64, hop=32, fs=FS)
    far_sub = fb_analyze(spec, r.far_end) if with_far else None
    gains = np.linspace(0.1, 1.0, spec.m_bands // 2 + 1) if with_gains else None
    mic_sub, out_sub, y = enhance(geom, spec, r.mics, 40.0, far_sub, mu=0.5, aec_taps=4, band_gains=gains)

    want_mic = _reference_analyze(spec, beamform_das(geom, das_weights(geom, 40.0), r.mics))
    want_out = want_mic
    if with_far:
        far_ref = _reference_analyze(spec, r.far_end)
        want_out, _ = _reference_aec(make_aec(spec.m_bands, 4, mu=0.5), far_ref, want_mic)
    if with_gains:
        mask = np.broadcast_to(gains[:, None], want_out.bands.shape)
        want_out = SubbandState(bands=want_out.bands * mask, n_samples=want_out.n_samples, m_bands=spec.m_bands)
    assert _identical(mic_sub.bands, want_mic.bands)
    assert _identical(out_sub.bands, want_out.bands)
    assert _identical(y, _reference_synthesize(spec, want_out))


# === a leading episode axis: each row equals a lone-stream call ===

ROW_MUS = [np.array([0.0, 0.5, 1.7]), np.zeros(3), np.array([0.3])]


@pytest.mark.parametrize("m_bands, hop", BANKS)
def test_batched_bank_matches_one_stream_per_row(m_bands, hop):
    spec = FilterBankSpec(m_bands=m_bands, hop=hop, fs=FS)
    rng = np.random.default_rng(m_bands - hop)
    for n in _lengths(spec):
        x = rng.standard_normal((3, n))
        got = fb_analyze(spec, x)
        assert got.bands.shape == (3, m_bands // 2 + 1, (n + spec.n_taps - 2) // hop + 1)
        assert got.n_samples == n
        y = fb_synthesize(spec, got)
        assert y.shape == (3, n)
        for e in range(3):
            want = fb_analyze(spec, x[e])
            assert _identical(got.bands[e], want.bands), (n, e, "analysis")
            assert _identical(y[e], fb_synthesize(spec, want)), (n, e, "synthesis")


@pytest.mark.parametrize("n_taps", TAPS)
def test_batched_aec_matches_one_stream_per_row(n_taps):
    """Per-row weights and step sizes, mu 0 among them, against one shared far end."""
    spec = FilterBankSpec(m_bands=64, hop=32, fs=FS)
    rng = np.random.default_rng(200 + n_taps)
    for n, mus in itertools.product([spec.n_taps, 3201, 16000], ROW_MUS):
        rows = len(mus)
        far = fb_analyze(spec, rng.standard_normal(n))
        mic = fb_analyze(spec, rng.standard_normal((rows, n)))
        shared = _random_state(rng, 64, n_taps, 0.0)
        weights = 0.1 * (rng.standard_normal((rows, 33, n_taps)) + 1j * rng.standard_normal((rows, 33, n_taps)))
        state = SubbandAecState(weights=weights, far_hist=shared.far_hist, mu=mus)
        got, got_state = aec_process(state, far, mic)
        assert got.bands.shape == mic.bands.shape and got_state.far_hist.shape == (33, n_taps)
        for e in range(rows):
            one = SubbandAecState(weights=weights[e], far_hist=shared.far_hist, mu=float(mus[e]))
            want, want_state = aec_process(one, far, SubbandState(bands=mic.bands[e], n_samples=n, m_bands=64))
            assert _identical(got.bands[e], want.bands), (n, mus, e)
            assert _identical(got_state.weights[e], want_state.weights), (n, mus, e)
            assert _identical(got_state.far_hist, want_state.far_hist), (n, mus, e)
        fresh = aec_process(make_aec(64, n_taps, mu=mus), far, mic)[0]
        for e in range(rows):
            want = aec_process(make_aec(64, n_taps, mu=float(mus[e])), far, SubbandState(mic.bands[e], n, 64))[0]
            assert _identical(fresh.bands[e], want.bands), (n, mus, e, "fresh")


def test_batched_aec_rejects_mismatched_rows():
    spec = FilterBankSpec(m_bands=16, hop=8, fs=FS)
    rng = np.random.default_rng(3)
    far = fb_analyze(spec, rng.standard_normal(800))
    mic = fb_analyze(spec, rng.standard_normal((3, 800)))
    with pytest.raises(ConfigurationError):
        aec_process(make_aec(16, 4, mu=np.full(2, 0.5)), far, mic)  # 2 weight rows for 3 mic rows
    with pytest.raises(ConfigurationError):
        aec_process(make_aec(16, 4, mu=0.5), far, mic)  # one lone-stream state for 3 rows
    with pytest.raises(FramingError):
        aec_process(make_aec(16, 4, mu=np.full(3, 0.5)), mic, mic)  # the far end is one stream
    with pytest.raises(DomainError):
        make_aec(16, 4, mu=np.array([0.5, 2.5]))


@pytest.mark.parametrize("with_far, with_gains", [(False, False), (False, True), (True, False), (True, True)])
def test_batched_enhance_matches_one_call_per_row(echo_scene, with_far, with_gains):
    geom, r = echo_scene
    spec = FilterBankSpec(m_bands=64, hop=32, fs=FS)
    far_sub = fb_analyze(spec, r.far_end) if with_far else None
    steers = np.array([40.0, 123.5, 300.25])
    mus = np.array([0.5, 0.0, 1.0])
    gains = np.stack([np.linspace(0.1, 1.0, 33), np.full(33, 0.7), np.linspace(1.0, 0.05, 33)])
    got = enhance(
        geom, spec, r.mics, steers, far_sub, mu=mus, aec_taps=4, band_gains=gains if with_gains else None
    )
    for e in range(3):
        want = enhance(
            geom, spec, r.mics, float(steers[e]), far_sub,
            mu=float(mus[e]), aec_taps=4, band_gains=gains[e] if with_gains else None,
        )
        assert _identical(got[0].bands[e], want[0].bands), e
        assert _identical(got[1].bands[e], want[1].bands), e
        assert _identical(got[2][e], want[2]), e


# === the beamformer and the SRP bank: one steering-matrix builder ===


def _reference_das(geom, azimuth_deg, gains, frames):
    """One steering at a time: each mic delayed through ``shift_add``, scaled by its gain and summed."""
    delays_samp = steering_delays(geom, azimuth_deg) * geom.fs
    n_int = np.floor(delays_samp)
    kernels = frac_delay_kernels(delays_samp - n_int)
    out = np.zeros(frames.shape[1])
    for g, shift, kernel, x in zip(gains, n_int, kernels, frames):
        if g == 0.0:
            continue
        out += g * shift_add(x, int(shift), kernel)
    return out


DAS_GEOMETRIES = {
    "circle-8-5cm": circular_array(8, 0.05, fs=FS),
    "circle-8-30cm": circular_array(8, 0.3, fs=FS),
    "random-5": MicArrayGeometry(positions=np.random.default_rng(31).uniform(-0.1, 0.1, size=(5, 3)), fs=FS),
}


def _gains(rng, n_mics, kind):
    if kind == "uniform":
        return np.full(n_mics, 1.0 / n_mics)
    g = rng.uniform(0.2, 1.0, n_mics)
    if kind == "one-zero":
        g[1] = 0.0
    return g / g.sum()


def _weighted(geom, weights, gains):
    """``weights`` with each mic's taps rescaled from 1/n_mics to its gain."""
    taps = weights.taps * (gains * geom.n_mics)[:, None]
    return BeamformerWeights(taps=taps, max_shift=weights.max_shift, max_delay=weights.max_delay)


def _guard_length(geom, delays):
    """The shortest frame the padding guard lets through for these delays."""
    return int(np.floor(np.max(np.abs(delays * geom.fs)) + FRAC_DELAY_TAPS)) + 1


@pytest.mark.parametrize("gain_kind", ["uniform", "random", "one-zero"])
@pytest.mark.parametrize("rows", [1, 4, 8])
@pytest.mark.parametrize("name", sorted(DAS_GEOMETRIES))
def test_beamform_das_matches_the_shift_add_loop(name, rows, gain_kind):
    """``beamform_das`` applies whatever per-mic taps it is given: ``das_weights``'
    own 1/n_mics, or those taps rescaled to random gains, one of them zero."""
    geom = DAS_GEOMETRIES[name]
    rng = np.random.default_rng(rows * 10 + len(gain_kind))
    az = rng.uniform(0.0, 360.0, rows)
    gains = _gains(rng, geom.n_mics, gain_kind)
    weights = _weighted(geom, das_weights(geom, az), gains)
    delays = steering_delays(geom, az)
    for n in (_guard_length(geom, delays), _guard_length(geom, delays) + 1, 3200):
        frames = rng.standard_normal((geom.n_mics, n))
        got = beamform_das(geom, weights, frames)
        assert got.shape == (rows, n)
        for e in range(rows):
            want = _reference_das(geom, float(az[e]), gains, frames)
            assert np.max(np.abs(got[e] - want)) <= 1e-14 * np.max(np.abs(want)), (n, e)
            lone = beamform_das(geom, _weighted(geom, das_weights(geom, float(az[e])), gains), frames)
            assert lone.shape == (n,)
            assert _identical(got[e], lone), (n, e)
    with pytest.raises(FramingError):
        beamform_das(geom, weights, frames[:, : _guard_length(geom, delays) - 1])


@pytest.mark.parametrize("radius", [0.3, 1.0])
def test_beamform_das_does_not_depend_on_the_block_size(monkeypatch, radius):
    """One and four steerings give the same bits at any block size. The shifts take both
    signs, and at a 1 m radius some of them reach past a 32-sample block."""
    geom = circular_array(8, radius, fs=FS)
    frames = np.random.default_rng(int(10 * radius)).standard_normal((8, BLOCKED_N))
    for az in (37.0, np.array([0.0, 95.5, 181.0, 300.25])):
        weights = das_weights(geom, az)
        lowest = weights.max_shift - weights.taps.shape[-1] + 1
        assert lowest < 0 < weights.max_shift and (max(-lowest, weights.max_shift) > 32) == (radius > 0.5)
        want = None
        for size in _block_sizes(32):
            monkeypatch.setattr(frontend, "_BLOCK_SAMPLES", size)
            got = beamform_das(geom, weights, frames)
            want = got if want is None else want
            assert _identical(got, want), (az, size)


def test_steering_delays_and_das_weights_take_an_array_of_azimuths():
    geom = DAS_GEOMETRIES["random-5"]
    az = np.array([0.0, 12.5, 181.0, 359.75])
    delays = steering_delays(geom, az)
    weights = das_weights(geom, az)
    assert delays.shape == (4, 5) and weights.taps.shape[:2] == (4, 5)
    assert weights.max_delay == np.max(np.abs(delays * geom.fs))
    for e, a in enumerate(az):
        assert _identical(delays[e], steering_delays(geom, float(a)))
        lone = das_weights(geom, float(a))
        assert lone.taps.shape[0] == 5 and lone.max_delay == np.max(np.abs(delays[e] * geom.fs))
        # the lone kernels sit on a shift axis of their own, within the batch's
        lo = weights.max_shift - lone.max_shift
        assert _identical(np.ascontiguousarray(weights.taps[e, :, lo : lo + lone.taps.shape[1]]), lone.taps)
    # each kernel has unit DC gain, so every mic's taps sum to 1 / n_mics
    np.testing.assert_allclose(weights.taps.sum(axis=-1), 0.2, rtol=1e-14)
    for bad in (np.nan, np.inf, [0.0, np.nan], np.zeros((2, 2)), np.zeros(0)):
        with pytest.raises(DomainError):
            das_weights(geom, bad)
        with pytest.raises(DomainError):
            steering_delays(geom, bad)


def _reference_bank(geom, grid):
    """The SRP steering bank as it was built before the DAS shared its builder."""
    delays = np.stack([steering_delays(geom, az) * geom.fs for az in grid.angles])
    n_int = np.floor(delays).astype(np.int64)
    kernels = frac_delay_kernels(delays - n_int) / geom.n_mics
    shifts = n_int[..., None] + kernel_offsets()
    max_shift = int(shifts.max())
    n_shifts = max_shift - int(shifts.min()) + 1
    w = np.zeros((grid.n_points, geom.n_mics, n_shifts))
    np.put_along_axis(w, max_shift - shifts, kernels, axis=2)
    return w.reshape(grid.n_points, -1), max_shift, n_shifts, float(np.max(np.abs(delays)))


_REFERENCE_SRP_BLOCK = 256  # samples per matrix product of the blocked window scan


def _reference_srp_power(geom, frames, grid):
    """The SRP powers as the blocked window product computed them before the Gram form."""
    w, max_shift, n_shifts, _ = _reference_bank(geom, grid)
    n = frames.shape[1]
    padded = np.zeros((geom.n_mics, n + n_shifts - 1))
    padded[:, max_shift : max_shift + n] = frames
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_shifts, axis=1)
    power = np.zeros(grid.n_points)
    for t0 in range(0, n, _REFERENCE_SRP_BLOCK):
        t1 = min(t0 + _REFERENCE_SRP_BLOCK, n)
        y = windows[:, t0:t1].transpose(1, 0, 2).reshape(t1 - t0, -1) @ w.T
        power += np.einsum("ta,ta->a", y, y)
    return power / n


@pytest.mark.parametrize("grid", [AzimuthGrid(72), AzimuthGrid(18), AzimuthGrid(36, start_deg=5.0)],
                         ids=["72", "18", "36-from-5"])
@pytest.mark.parametrize("name", sorted(DAS_GEOMETRIES))
def test_srp_bank_and_powers_keep_the_bits_of_the_old_builder(name, grid):
    """The bank keeps its bits; the powers are the old window product's sums, reassociated."""
    geom = DAS_GEOMETRIES[name]
    bank = frontend._steering_bank(geom.positions.tobytes(), geom.fs, geom.c, grid)
    w, max_shift, n_shifts, max_delay = _reference_bank(geom, grid)
    assert _identical(bank.taps.reshape(grid.n_points, -1), w)
    assert (bank.max_shift, bank.taps.shape[-1], bank.max_delay) == (max_shift, n_shifts, max_delay)
    frames = np.random.default_rng(grid.n_points).standard_normal((geom.n_mics, 1000))
    np.testing.assert_allclose(srp_localize(geom, frames, grid)[1], _reference_srp_power(geom, frames, grid),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_srp_bank_is_das_weights_of_the_grid(order):
    """The cached bank has the bits of ``das_weights`` on the caller's geometry, whatever its memory order."""
    positions = np.asarray(np.random.default_rng(44).uniform(-0.1, 0.1, size=(16, 3)), order=order)
    geom = MicArrayGeometry(positions=positions, fs=FS)
    grid = AzimuthGrid(20, start_deg=2.5)
    bank = frontend._steering_bank(geom.positions.tobytes(), geom.fs, geom.c, grid)
    want = das_weights(geom, grid.angles)
    assert _identical(bank.taps, want.taps)
    assert (bank.max_shift, bank.max_delay) == (want.max_shift, want.max_delay)
    assert not bank.taps.flags.writeable


def test_lone_beamform_peaks_under_two_and_a_half_outputs():
    """A 10-s, 8-mic lone beam allocates its output and one shift's beam, no padded mics."""
    geom = circular_array(8, 0.05, fs=FS)
    frames = np.random.default_rng(41).standard_normal((8, 160000))
    weights = das_weights(geom, 40.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        y = beamform_das(geom, weights, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * y.nbytes
