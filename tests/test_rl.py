import copy
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import nars.rl
from nars.errors import DomainError, NumericalError
from nars.frontend import AzimuthGrid, fb_analyze, fb_synthesize, srp_localize
from nars.rl import (
    ACT_DIM,
    ACTION_BOUNDS,
    OBS_DIM,
    Action,
    Batch,
    ChainRoutingMdp,
    PolicyParams,
    QTable,
    RewardWeights,
    TuningEnv,
    _forward,
    _sample,
    clipped_action,
    clipped_surrogate,
    compute_gae,
    init_policy,
    objective_and_grad,
    policy_mean_std,
    ppo_update,
    q_update,
    run_q_learning,
    theta_size,
    train_tuning_policy,
)
from nars.scene import RoomSpec, ScenarioConfig


def tuning_scenario(**over):
    base = dict(
        room=RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.4, max_order=1, fs=16000.0),
        source_pos=(1.5, 3.5, 1.5),
        mic_positions=tuple(
            (3.0 + 0.05 * np.cos(a), 2.5 + 0.05 * np.sin(a), 1.2)
            for a in 2 * np.pi * np.arange(8) / 8
        ),
        noise_kind="white",
        snr_db=0.0,
        seed=7,
        duration=0.25,
    )
    base.update(over)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def env():
    e = TuningEnv(tuning_scenario(), chunk_seconds=0.2, horizon=8)
    yield e


# === clipped surrogate ===


def test_surrogate_unit_cases():
    assert clipped_surrogate(1.0, 2.0, 0.2)[0] == pytest.approx(2.0)
    assert clipped_surrogate(1.5, 1.0, 0.2)[0] == pytest.approx(1.2)
    assert clipped_surrogate(0.5, -1.0, 0.2)[0] == pytest.approx(-0.8)
    assert clipped_surrogate(0.5, 1.0, 0.2)[0] == pytest.approx(0.5)


def test_surrogate_vectorized():
    out, flows = clipped_surrogate(np.array([1.0, 1.5]), np.array([2.0, 1.0]), 0.2)
    assert out == pytest.approx([2.0, 1.2])
    assert flows.tolist() == [True, False]


@settings(max_examples=300, deadline=None)
@given(
    ratio=st.floats(1e-3, 1e3),
    adv=st.floats(-100.0, 100.0),
    eps=st.floats(0.01, 0.99),
)
def test_surrogate_pessimism_and_bound(ratio, adv, eps):
    s = clipped_surrogate(ratio, adv, eps)[0]
    # never more optimistic than the unclipped estimate
    assert s <= ratio * adv + 1e-12
    # magnitude bounded by the larger of the two branches
    assert abs(s) <= max(abs(ratio * adv), (1 + eps) * abs(adv)) + 1e-12


# === GAE ===


def test_gae_three_step_case():
    adv, ret = compute_gae(np.array([[1.0, 0.0, 1.0]]), np.full((1, 3), 0.5), gamma=0.9, lam=0.5)
    assert adv[0] == pytest.approx([1.02875, 0.175, 0.5], abs=1e-12)
    assert ret == pytest.approx(adv + 0.5, abs=1e-12)


def test_gae_lambda_zero_is_td_error():
    """With V = 0 past the last step."""
    rng = np.random.default_rng(0)
    r, v = rng.standard_normal((1, 6)), rng.standard_normal((1, 6))
    adv, _ = compute_gae(r, v, gamma=0.9, lam=0.0)
    next_v = np.append(v[0, 1:], 0.0)
    assert adv[0] == pytest.approx(r[0] + 0.9 * next_v - v[0], abs=1e-12)


def test_gae_lambda_one_gamma_one_is_reward_to_go():
    r = np.array([[1.0, 2.0, 3.0, 4.0]])
    adv, _ = compute_gae(r, np.zeros((1, 4)), gamma=1.0, lam=1.0)
    assert adv[0] == pytest.approx(np.cumsum(r[0, ::-1])[::-1], abs=1e-12)


def test_gae_rows_do_not_leak_into_each_other():
    adv, _ = compute_gae(np.array([[1.0], [5.0]]), np.zeros((2, 1)), gamma=0.9, lam=0.9)
    assert adv.tolist() == [[1.0], [5.0]]


def test_gae_of_a_batch_is_its_rows_gae_bit_for_bit():
    rng = np.random.default_rng(3)
    r, v = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
    adv, ret = compute_gae(r, v, gamma=0.9, lam=0.8)
    for e in range(5):
        adv_e, ret_e = compute_gae(r[e : e + 1], v[e : e + 1], gamma=0.9, lam=0.8)
        assert np.array_equal(adv[e : e + 1], adv_e) and np.array_equal(ret[e : e + 1], ret_e)


def test_gae_validation():
    with pytest.raises(DomainError):
        compute_gae(np.zeros((2, 0)), np.zeros((2, 0)), 0.9, 0.5)
    for gamma, lam in ((1.5, 0.5), (-0.1, 0.5), (0.9, 1.5), (0.9, -0.1)):
        with pytest.raises(DomainError):
            compute_gae(np.ones((1, 1)), np.zeros((1, 1)), gamma, lam)


def one_episode(obs, act, logp, rewards, values):
    """A batch of one episode from (T, ...) arrays."""
    return Batch(*(np.asarray(x, dtype=np.float64)[None] for x in (obs, act, logp, rewards, values)))


# === policy network and its gradient ===


def test_init_policy_deterministic():
    a = init_policy(3, 2, hidden=4, v_hidden=3, seed=5)
    b = init_policy(3, 2, hidden=4, v_hidden=3, seed=5)
    c = init_policy(3, 2, hidden=4, v_hidden=3, seed=6)
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_policy_params_validation():
    n = theta_size(3, 2, 4, 3)
    with pytest.raises(DomainError):
        PolicyParams(theta=np.zeros(n + 1), obs_dim=3, act_dim=2, hidden=4, v_hidden=3)
    with pytest.raises(DomainError):
        PolicyParams(theta=np.zeros(n), obs_dim=3, act_dim=2, hidden=4, v_hidden=3, clip_eps=1.5)
    with pytest.raises(DomainError):
        PolicyParams(theta=np.zeros(n), obs_dim=3, act_dim=2, hidden=4, v_hidden=3, lr=-1.0)
    with pytest.raises(DomainError):
        PolicyParams(theta=np.zeros(n), obs_dim=3, act_dim=2, hidden=4, v_hidden=3, gamma=1.5)


def test_policy_mean_bounded():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0)
    obs = np.random.default_rng(1).standard_normal((50, 3)) * 10
    mean, std = policy_mean_std(p, obs)
    assert np.all(np.abs(mean) < 1.0)
    assert np.all(std > 0)


def test_sampled_logp_matches_scipy_normal_logpdf():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0)
    obs = np.random.default_rng(2).standard_normal((16, 3))
    raw, logp = _sample(_forward(p, obs), np.random.default_rng(3).standard_normal((len(obs), p.act_dim)))
    mean, std = policy_mean_std(p, obs)
    assert logp == pytest.approx(stats.norm.logpdf(raw, mean, std).sum(axis=1), abs=1e-12)


def test_ratio_is_one_after_rollout():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0)
    obs = np.random.default_rng(4).standard_normal((32, 3))
    raw, logp = _sample(_forward(p, obs), np.random.default_rng(5).standard_normal((len(obs), p.act_dim)))
    adv = np.random.default_rng(6).standard_normal(32)
    _, _, diag = objective_and_grad(p, obs, raw, logp, adv, np.zeros(32))
    assert diag["mean_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert diag["clip_fraction"] == 0.0
    assert diag["approx_kl"] == 0.0


def test_diag_reports_approx_kl_and_the_closed_form_entropy():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0, init_log_std=-0.3)
    obs = np.random.default_rng(7).standard_normal((64, 3))
    raw, logp = _sample(_forward(p, obs), np.random.default_rng(8).standard_normal((len(obs), p.act_dim)))
    old = logp + np.random.default_rng(9).uniform(0.0, 0.1, 64)
    _, _, diag = objective_and_grad(p, obs, raw, old, np.zeros(64), np.zeros(64))
    assert diag["approx_kl"] == pytest.approx(np.mean(old - logp), rel=1e-15)
    _, std = policy_mean_std(p, obs[:1])
    assert diag["entropy"] == pytest.approx(np.sum(stats.norm.entropy(scale=std[0])), rel=1e-14)


def test_gradient_matches_finite_differences():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=11)
    rng = np.random.default_rng(12)
    obs = rng.standard_normal((10, 3))
    act, logp0 = _sample(_forward(p, obs), rng.standard_normal((len(obs), p.act_dim)))
    # perturb old logps so clip branches are exercised away from the kink
    old = logp0 + 0.05 * rng.standard_normal(10)
    adv = rng.standard_normal(10)
    ret = rng.standard_normal(10)
    _, grad, _ = objective_and_grad(p, obs, act, old, adv, ret)
    h = 1e-6
    fd = np.empty_like(grad)
    for i in range(len(p.theta)):
        tp = p.theta.copy()
        tp[i] += h
        jp, _, _ = objective_and_grad(replace(p, theta=tp), obs, act, old, adv, ret)
        tp[i] -= 2 * h
        jm, _, _ = objective_and_grad(replace(p, theta=tp), obs, act, old, adv, ret)
        fd[i] = (jp - jm) / (2 * h)
    assert np.max(np.abs(grad - fd)) < 1e-4


def test_nan_theta_raises_numerical_error():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0)
    p.theta[0] = np.nan
    obs = np.zeros((4, 3))
    with pytest.raises(NumericalError):
        objective_and_grad(p, obs, np.zeros((4, 2)), np.zeros(4), np.ones(4), np.zeros(4))


def policy_block_split(p):
    """Index where the value-head parameters begin in the flat theta."""
    n_pol = p.hidden * p.obs_dim + p.hidden + p.act_dim * p.hidden + 2 * p.act_dim
    return n_pol


def test_unchanged_policy_ratio_is_exactly_one_per_row():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0)
    split = policy_block_split(p)
    log_std = np.array([-0.6, 0.3])
    # log(exp(x)) != x here, so a log-probability through log(std) would drift
    assert np.all(np.log(np.exp(log_std)) != log_std)
    p.theta[split - 2 : split] = log_std
    rng = np.random.default_rng(13)
    for o in rng.standard_normal((48, 1, 3)):
        raw, logp = _sample(_forward(p, o), rng.standard_normal((len(o), p.act_dim)))
        _, _, diag = objective_and_grad(p, o, raw, logp, np.ones(1), np.zeros(1))
        assert diag["mean_ratio"] == 1.0


def test_zero_advantages_touch_only_the_value_head():
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0, gamma=1.0, lam=0.95)
    rng = np.random.default_rng(7)
    obs = rng.standard_normal((8, 3))
    act, logp = _sample(_forward(p, obs), rng.standard_normal((len(obs), p.act_dim)))
    # zero rewards and zero value guesses -> all deltas vanish, yet V(s) != 0
    batch = one_episode(obs, act, logp, np.zeros(8), np.zeros(8))
    new, _ = ppo_update(p, batch, epochs=3, minibatch=4, rng=np.random.default_rng(8))
    split = policy_block_split(p)
    assert np.array_equal(new.theta[:split], p.theta[:split])
    assert not np.array_equal(new.theta[split:], p.theta[split:])


@pytest.mark.parametrize("n_ep, horizon", [(0, 8), (2, 0)])
def test_ppo_update_validation(n_ep, horizon):
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0)
    empty = Batch(np.zeros((n_ep, horizon, 3)), np.zeros((n_ep, horizon, 2)), *np.zeros((3, n_ep, horizon)))
    with pytest.raises(DomainError, match="at least one step"):
        ppo_update(p, empty)



@pytest.mark.parametrize("epochs, minibatch, name", [(0, 64, "epochs"), (-1, 64, "epochs"), (4, 0, "minibatch"), (4, -1, "minibatch")])
def test_ppo_update_needs_an_epoch_and_a_minibatch(epochs, minibatch, name):
    p = init_policy(3, 2, hidden=4, v_hidden=3, seed=0)
    rng = np.random.default_rng(7)
    obs = rng.standard_normal((8, 3))
    act, logp = _sample(_forward(p, obs), rng.standard_normal((len(obs), p.act_dim)))
    batch = one_episode(obs, act, logp, np.ones(8), np.zeros(8))
    with pytest.raises(DomainError, match=name):
        ppo_update(p, batch, epochs=epochs, minibatch=minibatch)


# === tabular Q-learning ===


def test_q_update_terminal_full_step():
    t = QTable(q=np.zeros((2, 2)), gamma=0.9)
    q_update(t, 0, 1, 1.0, None, 1.0)
    assert t.q[0, 1] == 1.0


def test_q_update_gamma_zero_running_mean():
    t = QTable(q=np.zeros((1, 1)), gamma=0.0)
    rewards = [1.0, 0.0, 1.0, 0.0]
    for k, r in enumerate(rewards, start=1):
        q_update(t, 0, 0, r, 0, 1.0 / k)
    assert t.q[0, 0] == pytest.approx(np.mean(rewards), abs=1e-15)


def test_q_update_validation():
    t = QTable(q=np.zeros((2, 2)), gamma=0.9)
    with pytest.raises(DomainError):
        q_update(t, 5, 0, 0.0, None, 0.5)
    with pytest.raises(DomainError):
        q_update(t, 0, 3, 0.0, None, 0.5)
    with pytest.raises(DomainError):
        q_update(t, 0, 0, 0.0, 7, 0.5)
    with pytest.raises(DomainError):
        q_update(t, 0, 0, 0.0, None, 0.0)
    with pytest.raises(DomainError):
        q_update(t, 0, 0, 0.0, None, 1.5)
    with pytest.raises(DomainError):
        QTable(q=np.zeros((2, 2)), gamma=1.0)


def chain_optimal_q():
    # gamma 0.9; forward pays 1 on the last hop, shortcut pays 0.85 anywhere
    return np.array([[0.9 * 0.9, 0.85], [0.9, 0.85], [1.0, 0.85]])


def test_chain_q_learning_reaches_fixed_point_exactly():
    table, _ = run_q_learning(ChainRoutingMdp(), 10_000, gamma=0.9, alpha_lr=1.0, seed=0)
    assert np.array_equal(table.q[:3], chain_optimal_q())
    assert table.greedy()[:3].tolist() == [1, 0, 0]  # shortcut, forward, forward


def test_chain_visit_alpha_contracts_monotonically():
    table, snaps = run_q_learning(
        ChainRoutingMdp(), 10_000, gamma=0.9, alpha_lr="visit", seed=0, checkpoint_every=500
    )
    errs = [np.max(np.abs(s[:3] - chain_optimal_q())) for s in snaps]
    assert errs[-1] < 1e-2
    burn = 2
    assert all(b <= a + 1e-12 for a, b in zip(errs[burn:], errs[burn + 1 :]))


def test_bandit_sign_task_converges():
    # one-step pseudo-env: reward 1 when the single action is positive
    p = init_policy(1, 1, hidden=8, v_hidden=8, seed=0)
    rng = np.random.default_rng(100)
    prob_pos = 0.0
    for update in range(60):
        obs = np.zeros((64, 1))
        act, logp = _sample(_forward(p, obs), rng.standard_normal((len(obs), p.act_dim)))
        # 64 one-step episodes: a (64, 1) batch
        rewards = (act[:, 0] > 0).astype(float)
        batch = Batch(obs[:, None], act[:, None], logp[:, None], rewards[:, None], np.zeros((64, 1)))
        p, _ = ppo_update(p, batch, rng=rng)
        mean, std = policy_mean_std(p, np.zeros((1, 1)))
        prob_pos = float(stats.norm.cdf(mean[0, 0] / std[0, 0]))
        if prob_pos >= 0.95:
            break
    assert prob_pos >= 0.95
    assert update < 40


# === tuning environment ===


def zero_action():
    return Action(deltas=np.zeros(4))


def test_obs_dims():
    assert OBS_DIM == 15
    assert ACT_DIM == 4


def test_env_state_vector_shape(env):
    s = env.reset()
    v = s.vector()
    assert v.shape == (OBS_DIM,)
    assert np.all(np.isfinite(v))


def test_action_bounds_enforced_before_any_effect(env):
    env.reset()
    mu0, steer0 = env.mu, env.steer
    with pytest.raises(DomainError):
        env.step(Action(deltas=np.array([0.5, 0.0, 0.0, 0.0])))
    assert (env.mu, env.steer) == (mu0, steer0)
    assert env.step_count == 0


def test_clipped_action_respects_bounds():
    a = clipped_action(np.array([5.0, -5.0, 0.5, -2.0]))
    assert np.all(np.abs(a.deltas) <= ACTION_BOUNDS + 1e-12)
    assert a.deltas[0] == ACTION_BOUNDS[0]
    assert a.deltas[1] == -ACTION_BOUNDS[1]


def _with_noise(env, noise_var, noise_ref=1.0):
    e = copy.copy(env)
    e.noise_band_var, e.noise_ref = noise_var, noise_ref
    return e


def test_band_gains_formula_point(env):
    m = env.bank.m_bands
    kept = m // 2 + 1
    g = _with_noise(env, np.ones(kept))._band_gains([0.0], [0.0])
    assert g.shape == (1, kept)
    assert np.all(g == pytest.approx(0.5))
    # the low trim acts on bands 0..M/4-1, below fs/4, the high trim on bands M/4..M/2
    g = _with_noise(env, np.ones(kept))._band_gains([20 * np.log10(0.4)], [0.0])
    assert g[0, : m // 4] == pytest.approx(np.full(m // 4, 0.2))
    assert g[0, m // 4 :] == pytest.approx(np.full(kept - m // 4, 0.5))


def test_band_gains_monotone_in_noise_and_clamped(env):
    m = env.bank.m_bands
    kept = m // 2 + 1
    noisy = _with_noise(env, np.linspace(0.0, 10.0, kept))
    los, his = [-12.0, 0.0, 12.0], [12.0, 0.0, -12.0]
    g = noisy._band_gains(los, his)
    assert g.shape == (3, kept)
    for row in g:
        assert np.all(np.diff(row[: m // 4]) <= 0) and np.all(np.diff(row[m // 4 :]) <= 0)
    assert np.all((g >= 0.05) & (g <= 1.0))
    assert g[2, 0] == 1.0  # +12 dB over no noise clamps at 1
    assert g[0, m // 4 - 1] == 0.05  # -12 dB over about 4.7 times the reference noise clamps at 0.05
    for e in range(3):
        assert g[e].tobytes() == noisy._band_gains([los[e]], [his[e]])[0].tobytes()


def test_trims_scale_tones_below_and_above_a_quarter_of_fs(env):
    """With no noise floor, a tone below fs/4 comes out scaled by the low trim, one above by the high trim.

    When the high trim sat on the negative-frequency bands, both tones came
    out scaled by the mean of the two gains.
    """
    quiet = _with_noise(env, np.zeros(env.bank.m_bands // 2 + 1))
    lo, hi = 0.2, 0.7
    gains = quiet._band_gains([20 * np.log10(lo)], [20 * np.log10(hi)])[0]
    t = np.arange(8000) / env.bank.fs
    for f, want in ((1000.0, lo), (6000.0, hi)):
        x = np.sin(2 * np.pi * f * t)
        sub = fb_analyze(env.bank, x)
        y = fb_synthesize(env.bank, replace(sub, bands=sub.bands * gains[:, None]))
        inner = slice(1000, -1000)
        assert np.std(y[inner]) / np.std(x[inner]) == pytest.approx(want, rel=1e-6), f


def test_zero_delta_repeats_identically(env):
    env.reset()
    _, r1, _ = env.step(zero_action())
    _, r2, _ = env.step(zero_action())  # single-chunk scene, same input again
    env.reset()
    _, r1b, _ = env.step(zero_action())
    assert r1 == r2
    assert r1 == r1b


def test_steering_toward_source_beats_zero_delta():
    # wide array, so a 30 degree pointing error visibly costs quality
    mics = tuple(
        (3.0 + 0.35 * np.cos(a), 2.5 + 0.35 * np.sin(a), 1.2)
        for a in 2 * np.pi * np.arange(8) / 8
    )
    e = TuningEnv(tuning_scenario(mic_positions=mics), chunk_seconds=0.2, horizon=4)
    e.reset()
    _, r_zero, _ = e.step(zero_action())
    e.reset()
    toward = Action(deltas=np.array([0.0, 0.0, 0.0, -30.0]))  # undo the init offset
    _, r_steer, _ = e.step(toward)
    assert r_steer > r_zero


def test_every_reward_term_moves_with_the_action_or_the_scene():
    deltas = np.array([[0.0, 0.0, 0.0, 0.0], [0.05, 0.5, -0.5, 5.0], [0.1, 1.0, -1.0, 10.0]])
    energy_only = TuningEnv(tuning_scenario(), RewardWeights(energy=1.0), chunk_seconds=0.1, horizon=2)
    energy_only.reset()
    _, rewards, _ = energy_only.step(Action(deltas=deltas))
    assert rewards[0] == 0.0  # a zero action costs nothing and quality weighs nothing
    assert rewards[1] < 0.0 and rewards[2] < rewards[1]
    assert rewards[2] == -float(np.linalg.norm(deltas[2] / ACTION_BOUNDS) / 2.0)

    quality_only = TuningEnv(tuning_scenario(), RewardWeights(energy=0.0), chunk_seconds=0.1, horizon=2)
    quality_only.reset()
    _, first, _ = quality_only.step(Action(deltas=deltas))
    _, second, _ = quality_only.step(Action(deltas=np.zeros_like(deltas)))  # the next chunk
    assert len(set(first.tolist())) == 3  # the action moves the quality term
    assert first[0] != second[0]  # and so does the scene


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(chunk_seconds=0.0001), "prototype span"),
        (dict(chunk_seconds=511 / 16000), "prototype span"),  # m_bands 64 spans 512 samples
        (dict(init_mu=1.5), "init_mu"),
        (dict(init_mu=-0.1), "init_mu"),
    ],
)
def test_env_rejects_bad_settings_before_rendering(monkeypatch, kwargs, match):
    def no_render(*args, **kw):
        raise AssertionError("rendered before the settings were checked")

    monkeypatch.setattr(nars.rl, "render_scene", no_render)
    with pytest.raises(DomainError, match=match):
        TuningEnv(tuning_scenario(), **kwargs)


def test_rewards_stay_in_documented_range(env):
    rng = np.random.default_rng(9)
    env.reset()
    for _ in range(20):
        a = Action(deltas=rng.uniform(-1.0, 1.0, 4) * ACTION_BOUNDS)
        if env.step_count >= env.horizon:
            env.reset()
        _, r, _ = env.step(a)
        assert -2.0 <= r <= 1.0


def test_episode_terminates_at_horizon(env):
    env.reset()
    done = False
    for k in range(env.horizon):
        _, _, done = env.step(zero_action())
    assert done
    with pytest.raises(DomainError):
        env.step(zero_action())


@pytest.mark.parametrize("horizon", [3, 8])
def test_srp_scans_once_per_visited_chunk(monkeypatch, horizon):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return srp_localize(*args, **kwargs)

    monkeypatch.setattr(nars.rl, "srp_localize", counting)
    e = TuningEnv(tuning_scenario(duration=0.3), chunk_seconds=0.05, horizon=horizon)
    assert e.n_chunks == 6
    for _ in range(3):
        e.reset()
        for _ in range(e.horizon):
            e.step(zero_action())
    assert len(calls) == min(horizon, e.n_chunks)


def test_srp_features_match_a_direct_scan_at_every_step():
    e = TuningEnv(
        tuning_scenario(duration=0.3), chunk_seconds=0.1, horizon=7, init_steer_offset_deg=50.0
    )
    rng = np.random.default_rng(21)
    state = e.reset()
    for k in range(e.horizon + 1):
        idx = (k - 1) % e.n_chunks if k else 0  # reset and the first step both see chunk 0
        lo = idx * e.chunk
        sub = e.rendered.mics[:, lo : lo + min(e.chunk, 2048)]
        az, curve = srp_localize(e.geom, sub, AzimuthGrid(n_points=18))
        conf = float(np.clip(curve.max() / max(curve.mean(), 1e-300) - 1.0, 0.0, 3.0) / 3.0)
        offset = float(((az - e.steer + 180.0) % 360.0 - 180.0) / 180.0)
        assert state.srp_confidence == conf
        assert state.srp_offset == offset
        if k < e.horizon:
            deltas = np.array([0.0, 0.0, 0.0, rng.uniform(10.0, 45.0) * rng.choice([-1, 1])])
            state, _, _ = e.step(Action(deltas=deltas))


@pytest.mark.parametrize("m_bands", [0, 8, 12, 24, 36])
def test_env_rejects_band_counts_before_rendering(monkeypatch, m_bands):
    def no_render(*args, **kwargs):
        raise AssertionError("rendered before validating m_bands")

    monkeypatch.setattr(nars.rl, "render_scene", no_render)
    with pytest.raises(DomainError):
        TuningEnv(tuning_scenario(), m_bands=m_bands)


def test_reward_weights_validation():
    assert RewardWeights().quality == 1.0 - 1.0 / 9.0  # quality to energy 8:1
    assert RewardWeights(energy=0.25).quality == 0.75
    for energy in (-0.1, 1.5, float("nan")):
        with pytest.raises(DomainError, match="energy"):
            RewardWeights(energy=energy)


def test_train_needs_an_episode_per_update():
    p = init_policy(OBS_DIM, ACT_DIM, hidden=4, v_hidden=3, seed=0)
    for n in (0, -2):
        with pytest.raises(DomainError, match="episodes_per_update"):
            train_tuning_policy([tuning_scenario()], p, 2048, episodes_per_update=n)


def test_train_budget_floor():
    p = init_policy(OBS_DIM, ACT_DIM, seed=0)
    with pytest.raises(DomainError):
        train_tuning_policy([tuning_scenario()], p, 512)
    with pytest.raises(DomainError):
        train_tuning_policy([], p, 2048)


# === lockstep stepping ===


def test_lockstep_step_keeps_single_episode_types_and_checks_its_rows():
    e = TuningEnv(tuning_scenario(duration=0.3), chunk_seconds=0.1, horizon=3)
    state, reward, done = e.step(zero_action())
    assert isinstance(state, nars.rl.EnvState) and type(reward) is float and done is False
    assert np.shape(e.mu) == () and np.shape(e.steer) == ()
    e.reset()
    moves = Action(deltas=np.array([[0.1 * k, 0.0, 0.0, 5.0 * k] for k in range(3)]))
    states, rewards, done = e.step(moves)
    assert len(states) == 3 and rewards.shape == (3,) and done is False
    assert e.mu.shape == (3,) and e.steer.shape == (3,)
    for rows in (moves.deltas[:2], moves.deltas[0], moves.deltas[:1]):
        with pytest.raises(DomainError):
            e.step(Action(deltas=rows))  # an episode keeps the rows it started with
    with pytest.raises(DomainError):
        e.step([Action(deltas=row) for row in moves.deltas])  # rows go on the deltas
    assert e.step_count == 1


def test_one_row_action_steps_with_the_bits_of_a_lone_action():
    e = TuningEnv(
        tuning_scenario(duration=0.3, echo_pos=(5.0, 1.0, 1.3)), chunk_seconds=0.1, horizon=3
    )
    moves = np.random.default_rng(5).uniform(-1.0, 1.0, (e.horizon, ACT_DIM)) * ACTION_BOUNDS
    moves[:, 0] = np.abs(moves[:, 0])  # a positive step size, so the AEC adapts
    e.reset()
    lone = [e.step(Action(deltas=d))[:2] for d in moves]
    e.reset()
    rows = [e.step(Action(deltas=d[None, :]))[:2] for d in moves]
    for (state, reward), (states, rewards) in zip(lone, rows):
        assert len(states) == 1 and rewards.shape == (1,)
        assert state.vector().tobytes() == states[0].vector().tobytes()
        assert np.float64(reward).tobytes() == rewards[0].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3])
def test_action_rejects_non_finite_deltas(env, bad, where):
    """A NaN delta passes no bound; it is refused before any parameter moves."""
    deltas = np.zeros(4)
    deltas[where] = bad
    for shape in ((4,), (3, 4)):
        rows = np.zeros(shape)
        rows[..., where] = bad
        with pytest.raises(DomainError):
            Action(deltas=rows)
    env.reset()
    before = (env.mu, env.trim_lo, env.trim_hi, env.steer)
    with pytest.raises(DomainError):
        env.step(Action(deltas=deltas))
    assert (env.mu, env.trim_lo, env.trim_hi, env.steer) == before
    assert env.step_count == 0


@pytest.mark.parametrize("shape", [(0, 4), (2, 3, 4), (1, 1, 4), (), (3,), (2, 5)])
def test_action_takes_four_deltas_or_one_row_of_them_per_episode(shape):
    with pytest.raises(DomainError):
        Action(deltas=np.zeros(shape))


def test_reset_restores_the_precomputed_observation(monkeypatch):
    e = TuningEnv(tuning_scenario(), chunk_seconds=0.2, horizon=2)
    first = e.reset().vector()
    e.step(Action(deltas=np.array([0.2, 3.0, -3.0, 40.0])))

    def no_enhance(*args, **kwargs):
        raise AssertionError("reset ran the front end")

    monkeypatch.setattr(nars.rl, "enhance", no_enhance)
    state = e.reset()
    assert np.array_equal(state.vector(), first)
    assert (e.mu, e.trim_lo, e.trim_hi, e.steer, e.step_count, e.chunk_idx) == (
        e.init_mu, 0.0, 0.0, e.init_steer, 0, 0
    )
    state.band_log_powers[:] = 0.0  # a caller's edit does not reach the next reset
    assert np.array_equal(e.reset().vector(), first)


def test_lockstep_memory_stays_bounded_in_episodes_per_update():
    """64 episodes of one update peak within 1.2x of one lockstep group's peak."""
    env = TuningEnv(tuning_scenario(echo_pos=(5.0, 1.0, 1.3)), chunk_seconds=0.2, horizon=4)
    p = init_policy(OBS_DIM, ACT_DIM, hidden=8, v_hidden=8, seed=0, init_log_std=0.0)

    def peak(n_ep):
        noise = np.random.default_rng(0).standard_normal((n_ep, env.horizon, ACT_DIM))
        nars.rl._collect([env], p, noise, 0)  # warm any lazy numpy state first
        tracemalloc.start()
        try:
            nars.rl._collect([env], p, noise, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    group, many = peak(nars.rl._LOCKSTEP_EPISODES), peak(64)
    assert many <= 1.2 * group, (group, many)
