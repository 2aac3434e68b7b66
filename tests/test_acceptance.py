"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE <n> PASS" line (straight to the terminal, bypassing capture)
once its assertions hold, so a full run reads as a checklist.
"""

import csv
import time

import numpy as np
import pytest
from scipy import stats

from nars import cli
from nars.dsp import delay_signal
from nars.frontend import (
    FilterBankSpec,
    MicArrayGeometry,
    aec_process,
    azimuth_error_deg,
    beamform_das,
    circular_array,
    das_weights,
    erle_db,
    fb_analyze,
    fb_synthesize,
    make_aec,
    srp_localize,
    steering_delays,
)
from nars.rl import (
    Action,
    Batch,
    ChainRoutingMdp,
    PolicyParams,
    RewardWeights,
    TuningEnv,
    _forward,
    _sample,
    clipped_action,
    clipped_surrogate,
    init_policy,
    objective_and_grad,
    policy_mean_std,
    ppo_update,
    run_q_learning,
    train_tuning_policy,
)
from nars.scene import (
    RoomSpec,
    ScenarioConfig,
    render_scene,
    scene_rng,
    synth_noise,
)
from nars.wavefield import (
    AxisymGrid,
    Medium,
    PlaneWaveGrid,
    SourceWaveform,
    fubini_harmonics,
    gaussian_profile,
    rayleigh_distance,
    shock_formation_distance,
    simulate_kzk_axisym,
    westervelt_harmonic_curve,
)

WATER = Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=0.0)
FS = 16000.0


def report(capsys, n, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n} PASS: {detail}")


def bandlimit(x, f_hi, fs=FS):
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(len(x), 1 / fs)
    spec[f > f_hi] = 0.0
    return np.fft.irfft(spec, n=len(x))


# --- 1: plane-wave harmonics against the Bessel-series oracle ---


def test_criterion_01_fubini_agreement(capsys):
    t0 = time.perf_counter()
    src = SourceWaveform(p0=1e6, f0=1e6)
    x_shock = shock_formation_distance(WATER, src)
    grid = PlaneWaveGrid(n_time=1024, n_steps=400, dz=0.5 * x_shock / 400, z_max=0.5 * x_shock)
    z, ratios, _ = westervelt_harmonic_curve(WATER, src, grid, n_max=3)
    worst = 0.0
    for sigma in (0.1, 0.3, 0.5):
        for n in (1, 2, 3):
            oracle = fubini_harmonics(n, sigma)
            got = np.interp(sigma * x_shock, z, ratios[:, n - 1])
            rel = abs(got - oracle) / oracle
            worst = max(worst, rel)
            assert rel < 0.02, f"B{n}(sigma={sigma}): {got} vs {oracle}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(capsys, 1, f"B1..B3 at sigma 0.1/0.3/0.5 worst rel err {worst:.2e}, {elapsed:.2f} s")


# --- 2: KZK linear diffraction and thermoviscous absorption ---


def test_criterion_02_kzk_linear_diffraction(capsys):
    t0 = time.perf_counter()
    lossless = Medium(rho0=1000.0, c=1500.0, beta=0.0, delta=0.0)
    src = SourceWaveform(p0=1e5, f0=1e6)
    a = 0.004
    z_r = rayleigh_distance(src, a, lossless)

    grid = AxisymGrid(n_r=160, dr=2e-4, n_z=96, dz=z_r / 96, n_harm=2)
    field = simulate_kzk_axisym(lossless, src, gaussian_profile(a), grid)
    expect = src.p0 / np.sqrt(2.0)
    axis_err = abs(abs(field.amps[0, 0]) - expect) / expect
    assert axis_err < 0.02

    delta = 4.5e-3
    alpha = delta * (2 * np.pi * src.f0) ** 2 / (2 * lossless.c**3)
    grid3 = AxisymGrid(n_r=128, dr=2e-4, n_z=60, dz=1.9e-3, n_harm=2)  # ~3 / alpha
    visc = Medium(rho0=1000.0, c=1500.0, beta=0.0, delta=delta)
    ref = simulate_kzk_axisym(lossless, src, gaussian_profile(a), grid3)
    damped = simulate_kzk_axisym(visc, src, gaussian_profile(a), grid3)
    ratio = abs(damped.amps[0, 0]) / abs(ref.amps[0, 0])
    decay_err = abs(ratio - np.exp(-alpha * grid3.z_max)) / np.exp(-alpha * grid3.z_max)
    assert decay_err < 0.01

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        capsys, 2,
        f"axis at z_R err {axis_err:.2e}, decay over {alpha * grid3.z_max:.2f} "
        f"attenuation lengths err {decay_err:.2e}, {elapsed:.2f} s",
    )


# --- 3: KZK second-harmonic growth rate ---


def test_criterion_03_kzk_second_harmonic_slope(capsys):
    src = SourceWaveform(p0=1e5, f0=1e6)
    grid = AxisymGrid(n_r=128, dr=7e-4, n_z=50, dz=2e-4, n_harm=4)
    zs, h2 = [], []
    simulate_kzk_axisym(
        WATER, src, gaussian_profile(0.02), grid,
        callback=lambda z, amps: (zs.append(z), h2.append(abs(amps[1, 0]))),
    )
    slope = np.polyfit(zs, h2, 1)[0]
    expect = WATER.beta * 2 * np.pi * src.f0 * src.p0**2 / (2 * WATER.rho0 * WATER.c**3)
    rel = abs(slope - expect) / expect
    assert rel < 0.05
    report(capsys, 3, f"H2 slope {slope:.1f} vs {expect:.1f} Pa/m, rel err {rel:.2e}")


# --- 4: filter-bank reconstruction ---


def test_criterion_04_filter_bank_reconstruction(capsys):
    spec = FilterBankSpec(m_bands=64, hop=32, fs=FS)
    errs = {}
    for name, sig in (
        ("white", synth_noise("white", 1.0, FS, seed=0)),
        ("speech-shaped", synth_noise("babble_surrogate", 1.0, FS, seed=1)),
    ):
        y = fb_synthesize(spec, fb_analyze(spec, sig))[: len(sig)]
        err_db = 10 * np.log10(np.sum((y - sig) ** 2) / np.sum(sig**2))
        assert err_db <= -40.0, name
        errs[name] = err_db
    report(
        capsys, 4,
        "round trip white {white:.0f} dB, speech-shaped {speech-shaped:.0f} dB".format(**errs),
    )


# --- 5: subband AEC convergence and freeze ---


def test_criterion_05_subband_aec(capsys):
    rng = np.random.default_rng(42)
    n = int(5.0 * FS)
    h = rng.standard_normal(64) * np.exp(-np.arange(64) / 16.0)
    h /= np.linalg.norm(h)
    far = 0.1 * rng.standard_normal(n)
    mic = np.convolve(far, h)[:n]

    spec = FilterBankSpec(m_bands=64, hop=32, fs=FS)
    far_sub = fb_analyze(spec, far)
    mic_sub = fb_analyze(spec, mic)
    res, _ = aec_process(make_aec(64, 8, mu=0.5), far_sub, mic_sub)
    erle = erle_db(mic_sub, res, tail_frames=500)
    assert erle >= 20.0

    frozen = make_aec(64, 8, mu=0.0)
    res0, state0 = aec_process(frozen, far_sub, mic_sub)
    assert np.array_equal(state0.weights, frozen.weights)
    assert np.array_equal(res0.bands, mic_sub.bands)
    report(capsys, 5, f"ERLE {erle:.1f} dB on the 64-tap path; mu=0 leaves weights untouched")


# --- 6: delay-and-sum array gain ---


def test_criterion_06_das_array_gain(capsys):
    geom = circular_array(8, 0.05, fs=FS)
    az = 37.0
    sig = bandlimit(synth_noise("white", 1.0, FS, seed=7), 3000.0)
    comp = steering_delays(geom, az)
    clean = np.stack([delay_signal(sig, -d * geom.fs) for d in comp])
    rng = np.random.default_rng(8)
    noise = np.stack([bandlimit(rng.standard_normal(clean.shape[1]), 3000.0) for _ in range(8)])

    w = das_weights(geom, az)
    snr_in = np.mean(clean[0] ** 2) / np.mean(noise[0] ** 2)
    s_out = beamform_das(geom, w, clean)
    n_out = beamform_das(geom, w, noise)
    gain = 10 * np.log10((np.mean(s_out**2) / np.mean(n_out**2)) / snr_in)
    assert gain == pytest.approx(9.03, abs=0.5)
    report(capsys, 6, f"8-mic DAS gain {gain:.2f} dB (target 9.03 +/- 0.5)")


# --- 7: localization over randomized reverberant scenes ---


def localize_scenario(room, source, seed, snr_db=15.0, duration=0.25):
    mics = tuple(
        (3.0 + 0.05 * np.cos(t), 2.5 + 0.05 * np.sin(t), 1.2)
        for t in 2 * np.pi * np.arange(8) / 8
    )
    return ScenarioConfig(
        room=room, source_pos=source, mic_positions=mics,
        noise_kind="white", snr_db=snr_db, seed=seed, duration=duration,
    )


def test_criterion_07_localization(capsys):
    t0 = time.perf_counter()
    room = RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.6, max_order=3, fs=FS)
    margin = 0.5
    errs = []
    for i in range(50):
        rng = scene_rng(123, i)
        pos = tuple(margin + rng.uniform() * (d - 2 * margin) for d in room.dims)
        sub_seed = int(rng.integers(2**63))
        rendered = render_scene(localize_scenario(room, pos, sub_seed))
        geom = MicArrayGeometry(
            positions=np.asarray(localize_scenario(room, pos, 0).mic_positions),
            fs=FS, c=room.c,
        )
        est, _ = srp_localize(geom, rendered.mics)
        errs.append(azimuth_error_deg(est, rendered.true_azimuth_deg))
    mae = float(np.mean(errs))
    assert mae <= 3.0

    anechoic = RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.0, max_order=0, fs=FS)
    az = 37.0
    pos37 = (3.0 + 1.8 * np.cos(np.radians(az)), 2.5 + 1.8 * np.sin(np.radians(az)), 1.2)
    rendered = render_scene(localize_scenario(anechoic, pos37, 5, snr_db=20.0))
    geom = MicArrayGeometry(
        positions=np.asarray(localize_scenario(anechoic, pos37, 0).mic_positions),
        fs=FS, c=anechoic.c,
    )
    est, _ = srp_localize(geom, rendered.mics)
    anech_err = azimuth_error_deg(est, rendered.true_azimuth_deg)
    assert anech_err <= 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        capsys, 7,
        f"reverberant MAE {mae:.3f} deg over 50 scenes (max {max(errs):.3f}), "
        f"anechoic err {anech_err:.3f} deg, {elapsed:.1f} s",
    )


# --- 8: PPO unit cases, gradient check, and the two-armed bandit ---


def bandit_updates_to_converge(seed, max_updates=200):
    p = init_policy(1, 1, hidden=8, v_hidden=8, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for update in range(1, max_updates + 1):
        obs = np.zeros((64, 1))
        act, logp = _sample(_forward(p, obs), rng.standard_normal((len(obs), p.act_dim)))
        # 64 one-step episodes: a (64, 1) batch
        rewards = (act[:, 0] > 0).astype(float)
        batch = Batch(obs[:, None], act[:, None], logp[:, None], rewards[:, None], np.zeros((64, 1)))
        p, _ = ppo_update(p, batch, rng=rng)
        mean, std = policy_mean_std(p, np.zeros((1, 1)))
        if stats.norm.cdf(mean[0, 0] / std[0, 0]) >= 0.95:
            return update
    return None


def test_criterion_08_ppo_correctness(capsys):
    assert clipped_surrogate(1.0, 2.0, 0.2)[0] == pytest.approx(2.0)
    assert clipped_surrogate(1.5, 1.0, 0.2)[0] == pytest.approx(1.2)
    assert clipped_surrogate(0.5, -1.0, 0.2)[0] == pytest.approx(-0.8)

    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=11)
    rng = np.random.default_rng(12)
    obs = rng.standard_normal((10, 3))
    act, logp0 = _sample(_forward(p, obs), rng.standard_normal((len(obs), p.act_dim)))
    old = logp0 + 0.05 * rng.standard_normal(10)
    adv, ret = rng.standard_normal(10), rng.standard_normal(10)
    _, grad, _ = objective_and_grad(p, obs, act, old, adv, ret)
    h = 1e-6
    fd_err = 0.0
    for i in range(len(p.theta)):
        tp = p.theta.copy()
        tp[i] += h
        jp, _, _ = objective_and_grad(
            PolicyParams(theta=tp, obs_dim=3, act_dim=2, hidden=4, v_hidden=3), obs, act, old, adv, ret
        )
        tp[i] -= 2 * h
        jm, _, _ = objective_and_grad(
            PolicyParams(theta=tp, obs_dim=3, act_dim=2, hidden=4, v_hidden=3), obs, act, old, adv, ret
        )
        fd = (jp - jm) / (2 * h)
        fd_err = max(fd_err, abs(grad[i] - fd) / max(1.0, abs(fd)))
    assert fd_err < 1e-4

    counts = [bandit_updates_to_converge(seed) for seed in range(5)]
    assert all(c is not None and c <= 200 for c in counts)
    report(
        capsys, 8,
        f"surrogate cases exact, FD gradient rel err {fd_err:.2e}, "
        f"bandit converged in {counts} updates (limit 200)",
    )


# --- 9: Q-learning against a value-iteration oracle ---


def chain_value_iteration(gamma=0.9, sweeps=200):
    """Independent Bellman iteration on the same MDP transition table."""
    mdp = ChainRoutingMdp()
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(sweeps):
        new = q.copy()
        for s in range(mdp.terminal):
            for a in range(mdp.n_actions):
                s_next, r = mdp.step(s, a)
                new[s, a] = r + (0.0 if s_next is None else gamma * np.max(q[s_next]))
        q = new
    return q


def test_criterion_09_q_learning_matches_value_iteration(capsys):
    table, _ = run_q_learning(ChainRoutingMdp(), 10_000, gamma=0.9, alpha_lr=1.0, seed=0)
    oracle = chain_value_iteration()
    assert np.array_equal(table.q, oracle)
    assert np.array_equal(table.greedy()[:3], np.argmax(oracle, axis=1)[:3])
    report(capsys, 9, f"greedy route {table.greedy()[:3].tolist()} equals the Bellman oracle exactly")


# --- 10: closed tuning loop beats a random policy ---


def tuning_scenario(seed):
    mics = tuple(
        (3.0 + 0.05 * np.cos(t), 2.5 + 0.05 * np.sin(t), 1.2)
        for t in 2 * np.pi * np.arange(8) / 8
    )
    return ScenarioConfig(
        room=RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.4, max_order=2, fs=FS),
        source_pos=(1.5, 3.5, 1.5),
        mic_positions=mics,
        noise_kind="white", snr_db=10.0, seed=seed, duration=0.4,
        echo_pos=(5.0, 1.0, 1.3), echo_level_db=-6.0,
    )


ENV_KW = dict(init_steer_offset_deg=30.0, init_mu=0.0, m_bands=64, aec_taps=4)


def train_once(seed):
    policy = init_policy(
        15, 4, hidden=24, v_hidden=16, seed=seed,
        lr=8e-3, gamma=0.9, lam=0.8, init_log_std=-0.7,
    )
    return train_tuning_policy(
        [tuning_scenario(seed)], policy, 2048, seed=seed,
        weights=RewardWeights(), horizon=16, chunk_seconds=0.2,
        episodes_per_update=4, epochs=6, minibatch=32, env_kwargs=ENV_KW,
    )


def greedy_episode(env, policy):
    state = env.reset()
    rewards = []
    for _ in range(env.horizon):
        mean, _ = policy_mean_std(policy, state.vector()[None, :])
        state, r, _ = env.step(clipped_action(mean[0]))
        rewards.append(r)
    return float(np.mean(rewards))


def random_episode(env, rng):
    env.reset()
    rewards = []
    for _ in range(env.horizon):
        _, r, _ = env.step(clipped_action(rng.normal(0.0, 0.6, 4)))
        rewards.append(r)
    return float(np.mean(rewards))


def fixed_episode(env, steer_to_srp):
    """Zero action, or steering to the last step's SRP estimate and nothing else."""
    state = env.reset()
    rewards = []
    for _ in range(env.horizon):
        d_steer = np.clip(180.0 * state.srp_offset, -45.0, 45.0) if steer_to_srp else 0.0
        state, r, _ = env.step(Action(deltas=np.array([0.0, 0.0, 0.0, d_steer])))
        rewards.append(r)
    return float(np.mean(rewards))


def test_criterion_10_tuning_loop_beats_random(capsys):
    trained_scores, random_scores, zero_scores, srp_scores = [], [], [], []
    policy0 = curve0 = None
    for seed in range(5):
        policy, rows = train_once(seed)
        if seed == 0:
            policy0, curve0 = policy, rows
        env = TuningEnv(tuning_scenario(seed), RewardWeights(), chunk_seconds=0.2, horizon=16, **ENV_KW)
        trained_scores += [greedy_episode(env, policy) for _ in range(2)]
        rng = np.random.default_rng(1000 + seed)
        random_scores += [random_episode(env, rng) for _ in range(8)]
        zero_scores.append(fixed_episode(env, steer_to_srp=False))
        srp_scores.append(fixed_episode(env, steer_to_srp=True))

    ratio = float(np.median(trained_scores) / np.median(random_scores))
    assert ratio >= 1.2
    # fixed baselines, reported but not gated
    medians = ", ".join(
        f"{name} {np.median(scores):.3f}"
        for name, scores in (
            ("trained", trained_scores), ("random", random_scores),
            ("zero action", zero_scores), ("SRP steer", srp_scores),
        )
    )

    # the curve rounds to 6 digits, so a last-bit change in the weights can leave it equal
    policy_again, rows_again = train_once(0)
    assert rows_again == curve0
    assert np.array_equal(policy_again.theta, policy0.theta)

    report(
        capsys, 10,
        f"trained/random median reward ratio {ratio:.2f} over 5 seeds; "
        f"median reward {medians}; "
        "seed 0 learning curve and trained weights reproduced exactly",
    )


# --- 11: RTF benchmark buckets ---


def test_criterion_11_bench_buckets(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NARS_LOG", "error")
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[bench]\n")
    out = tmp_path / "out"
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "rtf.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["bucket"] for r in rows] == list(cli.BENCH_BUCKETS)
    means = {r["bucket"]: float(r["mean_rtf"]) for r in rows}
    assert all(m < 0.5 for m in means.values())
    worst = max(means.values())
    report(capsys, 11, f"all five buckets present, worst mean RTF {worst:.3f} < 0.5")


# --- 12: byte-identical artifact reproduction ---


RERUN_CONFIGS = {
    "wave": """\
[medium]
rho0 = 1000
c = 1500
beta = 3.5

[source]
p0 = 1e6
f0 = 1e6

[wave]
n_time = 256
n_steps = 80
sigma_end = 0.4
n_harm = 3
""",
    "kzk": """\
[medium]
rho0 = 1000
c = 1500
beta = 0.0
delta = 0.0

[source]
p0 = 1e5
f0 = 1e6

[kzk]
n_r = 96
dr = 0.0002
n_z = 30
dz = 0.001
n_harm = 2
source_radius = 0.004
""",
    "scene": """\
[run]
seed = 42

[room]
dims = 6, 5, 3
reflection = 0.4
max_order = 2
fs = 16000

[array]
center = 3, 2.5, 1.2
radius = 0.05
n_mics = 8

[scene]
source_pos = 1.5, 3.5, 1.5
noise_kind = white
snr_db = 10
duration = 0.4
echo_pos = 5, 1, 1.3
echo_level_db = -6
""",
    "localize": """\
[run]
seed = 7

[room]
dims = 6, 5, 3
reflection = 0.0
max_order = 0
fs = 16000

[array]
center = 3, 2.5, 1.2
radius = 0.05
n_mics = 8

[scene]
noise_kind = white
snr_db = 20
duration = 0.25

[localize]
n_scenes = 3
""",
}
RERUN_CONFIGS["frontend"] = RERUN_CONFIGS["scene"] + """
[frontend]
m_bands = 64
hop = 32
aec_taps = 4
mu = 0.5
"""
RERUN_CONFIGS["train"] = RERUN_CONFIGS["scene"] + """
[rl]
budget = 1000
horizon = 16
epochs = 4
minibatch = 32
"""


def test_criterion_12_reruns_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NARS_LOG", "error")
    compared = 0
    for command, text in RERUN_CONFIGS.items():
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(text)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (command, name)
            compared += 1
    report(
        capsys, 12,
        f"{compared} artifacts byte-identical across reruns of {len(RERUN_CONFIGS)} commands",
    )
