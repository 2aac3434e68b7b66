"""Lockstep PPO rollouts against an inline copy of the sequential loop.

The references below run the episodes of an update one after another, as
training did before episodes were stepped in lockstep: a single-episode env
that calls ``enhance`` on one stream per step, a rollout that draws each
step's action noise as it goes, and the training loop around them. The
lockstep ``_collect`` and ``train_tuning_policy`` must agree with them bit
for bit: every field of every row of the (E, T) batch of whole episodes
that an update learns from, the curve rows and the trained weights.

Every scenario here is 0.08 s long with 0.04 s chunks, so a 16-step episode
wraps around its 2 chunks 8 times.
"""

import numpy as np
import pytest

from nars.frontend import enhance
from nars.rl import (
    ACT_DIM,
    ACTION_BOUNDS,
    OBS_DIM,
    Batch,
    EnvState,
    RewardWeights,
    TuningEnv,
    _collect,
    _forward,
    _log_prob,
    clipped_action,
    init_policy,
    ppo_update,
    train_tuning_policy,
)
from nars.scene import RoomSpec, ScenarioConfig, si_snr

HORIZON = 16
CHUNK_SECONDS = 0.04


def scenario(seed=7, **over):
    base = dict(
        room=RoomSpec(dims=(6.0, 5.0, 3.0), reflection=0.4, max_order=1, fs=16000.0),
        source_pos=(1.5, 3.5, 1.5),
        mic_positions=tuple(
            (3.0 + 0.05 * np.cos(a), 2.5 + 0.05 * np.sin(a), 1.2)
            for a in 2 * np.pi * np.arange(8) / 8
        ),
        noise_kind="white",
        snr_db=10.0,
        seed=seed,
        duration=0.08,
        echo_pos=(5.0, 1.0, 1.3),
        echo_level_db=-6.0,
    )
    base.update(over)
    return ScenarioConfig(**base)


class _SequentialEnv:
    """One episode at a time over a TuningEnv's per-chunk inputs, one stream per step."""

    def __init__(self, env: TuningEnv):
        self.env = env
        self.horizon = env.horizon

    def reset(self):
        self.mu = float(self.env.init_mu)
        self.trim_lo = 0.0
        self.trim_hi = 0.0
        self.steer = float(self.env.init_steer)
        self.step_count = 0
        self.chunk_idx = 0
        return self._process()[0]

    def _band_gains(self):
        env, m = self.env, self.env.bank.m_bands
        trims = np.empty(m // 2 + 1)
        trims[: m // 4] = 10.0 ** (self.trim_lo / 20.0)
        trims[m // 4 :] = 10.0 ** (self.trim_hi / 20.0)
        return np.clip(trims / (1.0 + env.noise_band_var / env.noise_ref), 0.05, 1.0)

    def _process(self):
        env = self.env
        c = env._chunks[self.chunk_idx]
        _, out_sub, enhanced = enhance(
            env.geom, env.bank, c.mics, self.steer, c.far_sub,
            mu=self.mu, aec_taps=env.aec_taps, band_gains=self._band_gains(),
        )
        quality_raw = si_snr(c.ref, enhanced) - c.base_si_snr
        q_hat = (np.clip(quality_raw, -10.0, 30.0) + 10.0) / 40.0
        offset = float(((c.srp_az - self.steer + 180.0) % 360.0 - 180.0) / 180.0)
        powers = np.abs(out_sub.bands[: env.bank.m_bands // 2]) ** 2
        groups = powers.reshape(8, -1, powers.shape[1]).mean(axis=(1, 2))
        logp = np.clip((np.log10(groups + 1e-300) + 12.0) / 12.0, -1.0, 2.0)
        state = EnvState(logp, self.mu, self.trim_lo, self.trim_hi, self.steer, c.srp_confidence, offset)
        return state, float(q_hat)

    def step(self, action):
        d = action.deltas
        self.mu = float(np.clip(self.mu + d[0], 0.0, 1.0))
        self.trim_lo = float(np.clip(self.trim_lo + d[1], -12.0, 12.0))
        self.trim_hi = float(np.clip(self.trim_hi + d[2], -12.0, 12.0))
        self.steer = float((self.steer + d[3]) % 360.0)
        state, q_hat = self._process()
        energy = min(float(np.linalg.norm(d / ACTION_BOUNDS) / np.sqrt(len(d))), 1.0)
        w = self.env.weights
        reward = w.quality * q_hat - w.energy * energy
        self.step_count += 1
        self.chunk_idx = (self.chunk_idx + 1) % self.env.n_chunks
        return state, float(reward), self.step_count >= self.horizon


def _reference_rollout(env, p, rng):
    """One episode's fields, by the names of ``Batch``."""
    obs_l, act_l, logp_l, rew_l, val_l = [], [], [], [], []
    state = env.reset()
    for _ in range(env.horizon):
        o = state.vector()
        f = _forward(p, o[None, :])
        raw = f.mean + f.std * rng.standard_normal(f.mean.shape)
        logp = _log_prob(f, raw)[1]
        state, reward, done = env.step(clipped_action(raw[0]))
        obs_l.append(o)
        act_l.append(raw[0])
        logp_l.append(logp[0])
        rew_l.append(reward)
        val_l.append(f.v[0])
        if done:
            break
    return dict(
        obs=np.asarray(obs_l),
        actions=np.asarray(act_l),
        logps=np.asarray(logp_l),
        rewards=np.asarray(rew_l),
        values=np.asarray(val_l),
    )


def _reference_train(scenarios, policy, budget, *, seed, episodes_per_update, epochs, minibatch, env_kwargs):
    envs = [
        _SequentialEnv(TuningEnv(s, RewardWeights(), chunk_seconds=CHUNK_SECONDS, horizon=HORIZON, **env_kwargs))
        for s in scenarios
    ]
    ss = np.random.SeedSequence([int(seed), 0x5EED])
    rollout_rng, shuffle_rng = (np.random.default_rng(k) for k in ss.spawn(2))
    rows = []
    steps = 0
    env_idx = 0
    while steps < budget:
        episodes = []
        for _ in range(episodes_per_update):
            env = envs[env_idx % len(envs)]
            env_idx += 1
            ep = _reference_rollout(env, policy, rollout_rng)
            episodes.append(ep)
            steps += len(ep["rewards"])
        batch = Batch(*(np.stack([ep[name] for ep in episodes]) for name in Batch._fields))
        policy, diag = ppo_update(policy, batch, epochs=epochs, minibatch=minibatch, rng=shuffle_rng)
        for ep in episodes:
            rows.append(
                {
                    "episode": len(rows),
                    "mean_reward": f"{float(np.mean(ep['rewards'])):.6f}",
                    "clip_fraction": f"{diag['clip_fraction']:.6f}",
                    "mean_ratio": f"{diag['mean_ratio']:.6f}",
                    "surrogate": f"{diag['surrogate']:.6f}",
                    "value_loss": f"{diag['value_loss']:.6f}",
                    "approx_kl": f"{diag['approx_kl']:.6f}",
                    "entropy": f"{diag['entropy']:.6f}",
                }
            )
    return policy, rows


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _policy(seed=3):
    # a wide policy, so actions clip mu at both ends and move every setting
    return init_policy(OBS_DIM, ACT_DIM, hidden=8, v_hidden=8, seed=seed, init_log_std=0.0)


ROLLOUT_CASES = {
    "E1": dict(n_ep=1),
    "E3": dict(n_ep=3),
    "E4": dict(n_ep=4),
    "E3-two-scenarios": dict(n_ep=3, n_scenarios=2, first=1),
    "E4-init_mu-0.5": dict(n_ep=4, env_kwargs=dict(init_mu=0.5)),
    "E4-aec_taps-1": dict(n_ep=4, env_kwargs=dict(aec_taps=1)),
    "E4-m_bands-16": dict(n_ep=4, env_kwargs=dict(m_bands=16)),
    "E3-no-far-end": dict(n_ep=3, scenario_kwargs=dict(echo_pos=None)),
    "E11-two-groups": dict(n_ep=11),
}


@pytest.mark.parametrize("case", ROLLOUT_CASES)
def test_lockstep_rollouts_match_the_sequential_loop(case):
    c = ROLLOUT_CASES[case]
    n_ep, first = c["n_ep"], c.get("first", 0)
    over = c.get("scenario_kwargs", {})
    scenarios = [scenario(7, **over), scenario(8, source_pos=(4.5, 1.5, 1.4), **over)][: c.get("n_scenarios", 1)]
    envs = [
        TuningEnv(s, RewardWeights(), chunk_seconds=CHUNK_SECONDS, horizon=HORIZON, **c.get("env_kwargs", {}))
        for s in scenarios
    ]
    assert envs[0].n_chunks == 2
    p = _policy()
    for update in range(2):
        noise = np.random.default_rng(update).standard_normal((n_ep, HORIZON, ACT_DIM))
        got = _collect(envs, p, noise, first + update * n_ep)
        rng = np.random.default_rng(update)
        want = [
            _reference_rollout(_SequentialEnv(envs[(first + update * n_ep + i) % len(envs)]), p, rng)
            for i in range(n_ep)
        ]
        for name in Batch._fields:
            assert getattr(got, name).shape[:2] == (n_ep, HORIZON), name
            for i, w in enumerate(want):
                assert _same(getattr(got, name)[i], w[name]), (update, i, name)
        p, _ = ppo_update(p, got, epochs=2, minibatch=16, rng=np.random.default_rng(9))


@pytest.mark.parametrize(
    "n_scenarios, episodes_per_update, init_mu", [(1, 4, 0.0), (2, 3, 0.5)], ids=["tune", "two-scenarios"]
)
def test_lockstep_training_matches_the_sequential_loop(n_scenarios, episodes_per_update, init_mu):
    scenarios = [scenario(11), scenario(12, source_pos=(4.5, 1.5, 1.4))][:n_scenarios]
    env_kwargs = dict(init_steer_offset_deg=30.0, init_mu=init_mu, m_bands=64, aec_taps=4)
    kw = dict(seed=5, episodes_per_update=episodes_per_update, epochs=4, minibatch=32, env_kwargs=env_kwargs)
    policy = init_policy(OBS_DIM, ACT_DIM, hidden=24, v_hidden=16, seed=5, lr=8e-3, gamma=0.9, lam=0.8, init_log_std=-0.7)
    got_policy, got_rows = train_tuning_policy(
        scenarios, policy, 1000, horizon=HORIZON, chunk_seconds=CHUNK_SECONDS, **kw
    )
    want_policy, want_rows = _reference_train(scenarios, policy, 1000, **kw)
    assert got_rows == want_rows
    assert _same(got_policy.theta, want_policy.theta)
