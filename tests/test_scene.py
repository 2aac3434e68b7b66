import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nars.dsp import FRAC_DELAY_TAPS, frac_delay_kernel, kernel_offsets
from nars.errors import DomainError
from nars.scene import (
    NOISE_KINDS,
    SI_SNR_CAP_DB,
    Metrics,
    RoomSpec,
    ScenarioConfig,
    _SHAPES,
    _axis_images,
    _convolve_rirs,
    image_source_rir,
    measure_rtf,
    mix_at_snr,
    render_scene,
    scene_rng,
    si_snr,
    synth_noise,
)

ROOM = RoomSpec(dims=(4.0, 3.0, 2.5), reflection=0.5, max_order=1, fs=16000.0)


def small_scenario(**over):
    base = dict(
        room=RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.4, max_order=1, fs=16000.0),
        source_pos=(1.5, 3.5, 1.5),
        mic_positions=((3.0, 2.5, 1.2), (3.1, 2.5, 1.2), (3.0, 2.6, 1.2)),
        noise_kind="white",
        snr_db=10.0,
        seed=42,
        duration=0.3,
    )
    base.update(over)
    return ScenarioConfig(**base)


# === validation ===


def test_room_validation():
    with pytest.raises(DomainError):
        RoomSpec(dims=(4.0, -3.0, 2.5), reflection=0.5, max_order=1)
    with pytest.raises(DomainError):
        RoomSpec(dims=(4.0, 3.0, 2.5), reflection=1.0, max_order=1)
    with pytest.raises(DomainError):
        RoomSpec(dims=(4.0, 3.0, 2.5), reflection=0.5, max_order=-1)


def test_rir_rejects_coincident_mic():
    with pytest.raises(DomainError):
        image_source_rir(ROOM, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


def test_scenario_validation():
    with pytest.raises(DomainError):
        small_scenario(noise_kind="brown")
    with pytest.raises(DomainError):
        small_scenario(duration=0.0)
    with pytest.raises(DomainError):
        small_scenario(mic_positions=())
    for key in ("snr_db", "echo_level_db"):
        for value in (300.5, -1e300, float("nan")):
            with pytest.raises(DomainError, match=key):
                small_scenario(**{key: value})
        small_scenario(**{key: -300.0})


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_noise_needs_two_samples(kind):
    for duration in (1e-300, 1.0 / 16000.0):  # 0 and 1 samples
        with pytest.raises(DomainError, match="2 samples"):
            synth_noise(kind, duration, 16000.0, seed=1)
    assert np.all(np.isfinite(synth_noise(kind, 2.0 / 16000.0, 16000.0, seed=1)))


# === image-source impulse responses ===


def test_anechoic_rir_is_single_arrival():
    room = RoomSpec(dims=(4.0, 3.0, 2.5), reflection=0.0, max_order=0, fs=16000.0)
    src, mic = (1.0, 1.0, 1.0), (2.0, 2.0, 1.5)
    rir = image_source_rir(room, src, mic)
    d = np.linalg.norm(np.subtract(src, mic))
    delay = d * room.fs / room.c
    # all energy sits in the fractional-delay kernel around the arrival
    peak = np.argmax(np.abs(rir))
    assert abs(peak - delay) <= 4
    assert np.sum(rir) == pytest.approx(1.0 / (4 * np.pi * d), rel=1e-2)


def test_rir_causal():
    rir = image_source_rir(ROOM, (1.0, 1.0, 1.0), (3.0, 2.0, 1.5))
    delay = np.linalg.norm(np.subtract((1.0, 1.0, 1.0), (3.0, 2.0, 1.5))) * ROOM.fs / ROOM.c
    lead = int(np.floor(delay)) - 4  # fractional-delay kernel half width
    assert not np.any(rir[: max(lead, 0)])


def test_rir_reflections_add_energy():
    src, mic = (1.0, 1.0, 1.0), (3.0, 2.0, 1.5)
    energies = []
    for order in (0, 1, 2):
        room = RoomSpec(dims=(4.0, 3.0, 2.5), reflection=0.5, max_order=order, fs=16000.0)
        energies.append(np.sum(image_source_rir(room, src, mic) ** 2))
    assert energies[0] < energies[1] < energies[2]


def test_rir_direct_term_unaffected_by_reflection_coeff():
    src, mic = (1.0, 1.0, 1.0), (3.0, 2.0, 1.5)
    r1 = image_source_rir(ROOM, src, mic)
    room2 = RoomSpec(dims=(4.0, 3.0, 2.5), reflection=0.2, max_order=1, fs=16000.0)
    r2 = image_source_rir(room2, src, mic)
    delay = np.linalg.norm(np.subtract(src, mic)) * ROOM.fs / ROOM.c
    k = int(round(delay))
    assert r1[k] == pytest.approx(r2[k], rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    sx=st.floats(0.3, 3.7), sy=st.floats(0.3, 2.7), sz=st.floats(0.3, 2.2),
    mx=st.floats(0.3, 3.7), my=st.floats(0.3, 2.7), mz=st.floats(0.3, 2.2),
)
def test_rir_causality_property(sx, sy, sz, mx, my, mz):
    if np.linalg.norm(np.subtract((sx, sy, sz), (mx, my, mz))) < 1e-3:
        return  # degenerate placement is rejected, covered separately
    rir = image_source_rir(ROOM, (sx, sy, sz), (mx, my, mz))
    delay = np.linalg.norm(np.subtract((sx, sy, sz), (mx, my, mz))) * ROOM.fs / ROOM.c
    lead = int(np.floor(delay)) - 4
    assert not np.any(rir[: max(lead, 0)])
    assert np.all(np.isfinite(rir))


def _per_image_rir(room, src, mic):
    # reference: one scalar kernel per image, added image by image
    src, mic = np.asarray(src, float), np.asarray(mic, float)
    axes = [_axis_images(src[k], room.dims[k], room.max_order) for k in range(3)]
    images = []
    for x, bx in axes[0]:
        for y, by in axes[1]:
            if bx + by > room.max_order:
                continue
            for z, bz in axes[2]:
                b = bx + by + bz
                if b <= room.max_order:
                    images.append((float(np.linalg.norm(np.array([x, y, z]) - mic)), b))
    n = int(np.ceil(max(d for d, _ in images) * room.fs / room.c)) + FRAC_DELAY_TAPS + 1
    rir = np.zeros(n)
    offs = kernel_offsets()
    for d, bounces in images:
        amp = room.reflection**bounces / (4 * np.pi * d)
        delay = d * room.fs / room.c
        n_int = int(np.floor(delay))
        kernel = frac_delay_kernel(delay - n_int)
        idx = n_int + offs
        ok = (idx >= 0) & (idx < n)
        rir[idx[ok]] += amp * kernel[ok]
    return rir


@pytest.mark.parametrize("max_order", [0, 1, 2, 3])
@pytest.mark.parametrize("reflection", [0.4, 0.6])
def test_rir_equals_the_per_image_sum_bit_for_bit(reflection, max_order):
    room = RoomSpec(dims=(6.0, 5.0, 3.0), reflection=reflection, max_order=max_order, fs=16000.0)
    rng = np.random.default_rng(max_order)
    pairs = [((1.5, 3.5, 1.5), (3.0, 2.5, 1.2)), ((3.0, 2.5, 1.2), (3.0, 2.5, 1.201))]
    pairs += [(tuple(rng.uniform(0.2, 0.8, 3) * room.dims), tuple(rng.uniform(0.2, 0.8, 3) * room.dims))
              for _ in range(5)]
    for src, mic in pairs:
        assert image_source_rir(room, src, mic).tobytes() == _per_image_rir(room, src, mic).tobytes()
    # the stacked form: one call per source, each row the lone call's bytes, then zeros
    for src, _ in pairs:
        mics = [mic for _, mic in pairs if np.linalg.norm(np.subtract(src, mic)) > 1e-9]
        lone = [image_source_rir(room, src, mic) for mic in mics]
        assert len({len(r) for r in lone}) > 1
        stack = image_source_rir(room, src, mics)
        assert stack.shape == (len(mics), max(len(r) for r in lone))
        for row, r in zip(stack, lone):
            assert row[: len(r)].tobytes() == r.tobytes()
            assert not np.any(row[len(r) :])


def test_rir_stack_rejects_a_coincident_or_outside_mic():
    good = (2.0, 2.0, 1.0)
    with pytest.raises(DomainError, match="coincides"):
        image_source_rir(ROOM, (1.0, 1.0, 1.0), [good, (1.0, 1.0, 1.0), good])
    with pytest.raises(DomainError, match="inside"):
        image_source_rir(ROOM, (1.0, 1.0, 1.0), [good, (1.0, 3.5, 1.0)])
    for bad in ([], np.zeros((2, 2)), np.ones((1, 2, 3))):
        with pytest.raises(DomainError):
            image_source_rir(ROOM, (1.0, 1.0, 1.0), bad)


def _conv_cases():
    rng = np.random.default_rng(11)
    room = RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.6, max_order=3, fs=16000.0)
    mics = rng.uniform(0.2, 0.8, (4, 3)) * room.dims
    rirs = image_source_rir(room, (1.5, 3.5, 1.5), mics)
    direct = image_source_rir(RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.6, max_order=0), (1.5, 3.5, 1.5), mics)
    length = rirs.shape[1]
    step = (1 << (4 * length - 1).bit_length()) - length + 1
    return [
        pytest.param(rirs, length // 2, id="n < L"),
        pytest.param(rirs, step, id="n = step"),
        pytest.param(rirs, step + 1, id="n = step + 1"),
        pytest.param(rirs, 2 * step + 17, id="three blocks"),
        pytest.param(rirs[2:3], step + 1, id="one row"),
        pytest.param(direct, 3000, id="max_order 0"),
    ]


@pytest.mark.parametrize("rirs, n", _conv_cases())
def test_convolve_rirs_matches_direct_convolution(rirs, n):
    signal = np.random.default_rng(n).standard_normal(n)
    out = _convolve_rirs(signal, rirs, n)
    assert out.shape == (len(rirs), n)
    for row, rir in zip(out, rirs):
        ref = np.convolve(signal, rir)[:n]
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))


# === noise synthesis ===


def test_noise_kinds_render():
    for kind in NOISE_KINDS:
        x = synth_noise(kind, 0.5, 16000.0, seed=1)
        assert x.shape == (8000,)
        assert np.all(np.isfinite(x))
        assert np.std(x) > 0


def test_unknown_noise_kind():
    with pytest.raises(DomainError):
        synth_noise("brown", 0.5, 16000.0, seed=1)


def test_noise_determinism():
    a = synth_noise("pink", 0.25, 16000.0, seed=9)
    b = synth_noise("pink", 0.25, 16000.0, seed=9)
    c = synth_noise("pink", 0.25, 16000.0, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def noise_shape_db(kind, f):
    """Declared long-term magnitude shape of a noise kind (dB, arbitrary offset)."""
    mag = _SHAPES[kind](np.asarray(f, dtype=np.float64))
    return 20 * np.log10(np.maximum(mag, 1e-12))


def octave_band_power_db(x, fs, f_lo=62.5):
    """Mean power per octave band (dB), bands [f, 2f) upward from f_lo."""
    spec = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(len(x), 1.0 / fs)
    centers, powers = [], []
    lo = f_lo
    while lo * 2 <= fs / 2:
        sel = (f >= lo) & (f < 2 * lo)
        if np.any(sel):
            centers.append(np.sqrt(lo * 2 * lo))
            powers.append(10 * np.log10(np.mean(spec[sel])))
        lo *= 2
    return np.asarray(centers), np.asarray(powers)


def test_pink_noise_rolloff():
    # -3 dB per octave nominal; allow generous slack for finite windows
    x = synth_noise("pink", 4.0, 16000.0, seed=3)
    centers, power = octave_band_power_db(x, 16000.0)
    drops = np.diff(power)
    assert np.all(drops < 0)
    assert np.mean(drops) == pytest.approx(-3.0, abs=1.0)


def test_street_matches_pink_shape():
    f = np.geomspace(100.0, 6000.0, 32)
    assert noise_shape_db("street_surrogate", f) == pytest.approx(noise_shape_db("pink", f))


def test_car_noise_is_lowpass():
    x = synth_noise("car_surrogate", 4.0, 16000.0, seed=4)
    centers, power = octave_band_power_db(x, 16000.0)
    assert power[0] - power[-1] > 20.0


def test_babble_is_bandpass():
    x = synth_noise("babble_surrogate", 4.0, 16000.0, seed=5)
    centers, power = octave_band_power_db(x, 16000.0)
    peak = centers[np.argmax(power)]
    assert 200.0 <= peak <= 1000.0


# === mixing and metrics ===


def test_mix_at_snr_exact():
    rng = np.random.default_rng(0)
    clean = rng.standard_normal(8000)
    noise = rng.standard_normal(8000)
    for snr in (-5.0, 0.0, 10.0, 30.0):
        mixed, gain = mix_at_snr(clean, noise, snr)
        got = 10 * np.log10(np.mean(clean**2) / np.mean((gain * noise) ** 2))
        assert got == pytest.approx(snr, abs=1e-9)
        assert np.array_equal(mixed, clean + gain * noise)


def test_mix_at_snr_rejects_silent_noise():
    with pytest.raises(DomainError):
        mix_at_snr(np.ones(100), np.zeros(100), 10.0)


def test_si_snr_known_value():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(4000)
    noise = rng.standard_normal(4000)
    noise -= ref * np.dot(ref, noise) / np.dot(ref, ref)  # orthogonalize
    noise *= np.sqrt(np.dot(ref, ref) / np.dot(noise, noise)) / np.sqrt(10.0)
    assert si_snr(ref, ref + noise) == pytest.approx(10.0, abs=1e-3)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 50))
def test_si_snr_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(1000)
    est = ref + 0.3 * rng.standard_normal(1000)
    assert si_snr(ref, scale * est) == pytest.approx(si_snr(ref, est), abs=1e-9)


def _si_snr_four_rows(reference, estimate):
    """``si_snr`` as it was written with four full-length rows: both centred copies, target and residual."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    ref = ref - ref.mean()
    est = est - est.mean()
    target = (np.dot(est, ref) / float(np.dot(ref, ref))) * ref
    resid = est - target
    p_t = float(np.dot(target, target))
    p_r = float(np.dot(resid, resid))
    if p_r <= p_t * 10.0 ** (-SI_SNR_CAP_DB / 10.0):
        return SI_SNR_CAP_DB
    if p_t == 0.0:
        return -SI_SNR_CAP_DB
    return min(SI_SNR_CAP_DB, float(10.0 * np.log10(p_t / p_r)))


def test_si_snr_keeps_the_bits_of_the_four_row_formula():
    rng = np.random.default_rng(2)
    cases = []
    for n in (7, 1000, 4099):
        ref = rng.standard_normal(n) + 3.0
        cases += [(ref, ref + a * rng.standard_normal(n)) for a in (1e-4, 0.3, 10.0)]
        cases.append((ref, 2.5 * ref))  # no distortion: the +60 dB cap
    cases.append((rng.standard_normal(500).astype(np.float32), rng.standard_normal(500).astype(np.float32)))
    cases.append((np.array([1.0, -1.0, 1.0, -1.0]), np.array([1.0, 1.0, -1.0, -1.0])))  # no target: -60 dB
    capped = set()
    for ref, est in cases:
        ref_before, est_before = ref.copy(), est.copy()
        got = si_snr(ref, est)
        want = _si_snr_four_rows(ref, est)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.array_equal(ref, ref_before) and np.array_equal(est, est_before)  # the caller's rows are kept
        if abs(got) == SI_SNR_CAP_DB:
            capped.add(got)
    assert capped == {SI_SNR_CAP_DB, -SI_SNR_CAP_DB}


def test_si_snr_peaks_under_two_and_a_half_rows():
    rng = np.random.default_rng(3)
    ref = rng.standard_normal(200_000)
    est = ref + 0.1 * rng.standard_normal(200_000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        si_snr(ref, est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * ref.nbytes


def test_measure_rtf():
    assert measure_rtf(0.5, 10.0) == pytest.approx(0.05)
    with pytest.raises(DomainError):
        measure_rtf(0.5, 0.0)
    with pytest.raises(DomainError):
        measure_rtf(-0.1, 1.0)


def test_metrics_row_schema():
    m = Metrics(scenario_id="s", si_snr_db=1.0, snr_gain_db=2.0, doa_err_deg=3.0)
    assert list(m.row().keys()) == ["scenario_id", "si_snr_db", "snr_gain_db", "doa_err_deg"]


# === rendering ===


def test_render_deterministic():
    a = render_scene(small_scenario())
    b = render_scene(small_scenario())
    assert np.array_equal(a.mics, b.mics)
    assert np.array_equal(a.clean_ref, b.clean_ref)


def test_render_shapes_and_azimuth():
    r = render_scene(small_scenario())
    n = int(0.3 * 16000)
    assert r.mics.shape == (3, n)
    assert r.clean_ref.shape == (n,)
    assert r.far_end is None
    rel = np.subtract((1.5, 3.5, 1.5), np.mean([(3.0, 2.5, 1.2), (3.1, 2.5, 1.2), (3.0, 2.6, 1.2)], axis=0))
    expect = np.degrees(np.arctan2(rel[1], rel[0])) % 360.0
    assert r.true_azimuth_deg == pytest.approx(expect, abs=1e-9)


def test_render_seed_changes_audio():
    a = render_scene(small_scenario())
    b = render_scene(small_scenario(seed=43))
    assert not np.array_equal(a.mics, b.mics)


def test_render_echo_adds_reference_channel():
    cfg = small_scenario(echo_pos=(5.0, 1.0, 1.3), echo_level_db=-6.0)
    r = render_scene(cfg)
    assert r.far_end is not None and r.far_end.shape == r.clean_ref.shape
    quiet = render_scene(small_scenario())
    assert np.mean(r.mics[0] ** 2) > np.mean(quiet.mics[0] ** 2)


def test_render_clean_ref_aligned_to_direct_path():
    cfg = small_scenario(snr_db=60.0, room=RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.0, max_order=0, fs=16000.0))
    r = render_scene(cfg)
    # the reference is aligned at the array centroid; mic0 leads or lags it
    # by its own path-length difference
    mics = np.asarray(cfg.mic_positions, dtype=np.float64)
    d0 = np.linalg.norm(np.subtract(cfg.source_pos, mics[0]))
    dc = np.linalg.norm(np.subtract(cfg.source_pos, mics.mean(axis=0)))
    expect_lag = (d0 - dc) * cfg.room.fs / cfg.room.c
    xc = np.correlate(r.mics[0], r.clean_ref, mode="full")
    lag = np.argmax(np.abs(xc)) - (len(r.clean_ref) - 1)
    assert lag == pytest.approx(expect_lag, abs=1.0)


def test_render_custom_clean_signal():
    n = int(0.3 * 16000)
    tone = np.sin(2 * np.pi * 500 * np.arange(n) / 16000.0)
    r = render_scene(small_scenario(), clean=tone)
    spec = np.abs(np.fft.rfft(r.clean_ref))
    assert np.argmax(spec) == pytest.approx(500 * n / 16000, abs=1)


@pytest.mark.parametrize(
    "clean",
    [np.ones(100), np.ones((2, int(0.3 * 16000))), np.full(int(0.3 * 16000), np.nan)],
    ids=["short", "two-d", "nan"],
)
def test_render_rejects_a_bad_clean_signal(clean):
    with pytest.raises(DomainError, match="clean"):
        render_scene(small_scenario(), clean=clean)


def test_echo_render_peak_memory_stays_under_twice_the_mic_stack():
    mics = tuple((2.8 + 0.05 * k, 2.5, 1.2) for k in range(8))
    cfg = small_scenario(duration=10.0, mic_positions=mics, echo_pos=(5.0, 1.0, 1.3))
    render_scene(small_scenario(duration=0.1, mic_positions=mics, echo_pos=(5.0, 1.0, 1.3)))  # warm caches
    tracemalloc.start()
    try:
        r = render_scene(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * r.mics.nbytes


def test_echo_render_frees_each_signal_before_the_next_noise_draw():
    # live at the peak: the 8-mic stack, the dry source, the far-end signal
    # and one white-noise draw (its samples, their square and the scaled
    # copy), 13 signal lengths; a kept echo or previous noise makes it 15
    mics = tuple((2.8 + 0.05 * k, 2.5, 1.2) for k in range(8))
    cfg = small_scenario(duration=10.0, mic_positions=mics, echo_pos=(5.0, 1.0, 1.3))
    render_scene(small_scenario(duration=0.1, mic_positions=mics, echo_pos=(5.0, 1.0, 1.3)))  # warm caches
    tracemalloc.start()
    try:
        r = render_scene(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.5 * r.mics[0].nbytes


def test_scene_rng_substreams():
    a = scene_rng(7, 1).standard_normal(16)
    b = scene_rng(7, 1).standard_normal(16)
    c = scene_rng(7, 2).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
