"""Learning-based front-end tuning.

A small diagonal-Gaussian policy (tanh-squashed mean, one hidden tanh layer,
separate value perceptron) trained with clipped-surrogate updates over GAE
advantages, plus a tabular Q-learner for the discrete routing toy. The
environment wraps a rendered scene: actions are bounded deltas on the AEC
step size, two band-gain trims (below and above fs/4), and the beam
steering. Work that no action changes (the SRP scan, the far-end analysis,
the raw-mic SI-SNR baseline, and the reset observation) is done once when
the env is built; each step runs only the action-dependent front end on the
next audio chunk and scores it. That is ``frontend.enhance`` (DAS,
analysis, AEC, band gains, synthesis), the same chain that ``nars frontend``
runs.

The tuning path has one batch convention, the front end's: an optional
leading episode axis. An ``Action`` whose deltas are (4,) steps one episode;
(E, 4) deltas step E episodes in lockstep, as PPO's N actors collect one
batch (Schulman et al. 2017, Algorithm 1). Every episode starts at chunk 0
and advances with the others, so one ``TuningEnv.step`` and one ``enhance``
call serve them all. The action noise of an update is drawn at once in
episode order, and the policy is evaluated row by row, so each episode gets
the bits it would get if the episodes ran one after another. An update's
experience is one ``Batch`` of E whole episodes by T steps: the rollouts
write it in place, GAE runs over its rows, and PPO flattens it to E * T
samples.

Each piece of the PPO math has one home. ``_forward`` evaluates both networks
and keeps the intermediates that the backward pass reads; ``_log_prob`` is the
Gaussian log-density; ``clipped_surrogate`` is min(rA, clip(r, 1±eps)A).
Sampling, ``policy_mean_std`` and ``objective_and_grad`` all go through
them, and a rollout step evaluates the policy once for its action,
log-probability and value. All gradients are computed by hand in numpy; a
finite-difference check of the full objective is part of the acceptance
gate.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .frontend import (
    AzimuthGrid,
    FilterBankSpec,
    SubbandState,
    enhance,
    fb_analyze,
    scenario_geometry,
    srp_localize,
)
from .scene import ScenarioConfig, RenderedScene, render_scene, si_snr

log = logging.getLogger(__name__)

_LOG_2PI = float(np.log(2.0 * np.pi))
VF_COEF = 0.5  # weight of the value loss in the PPO objective


# === policy ===


@dataclass
class PolicyParams:
    """Flat parameter vector plus the layout and hyperparameters to use it.

    theta packs, in order: W1 (hidden x obs), b1, W2 (act x hidden), b2,
    log_std (act), Wv1 (v_hidden x obs), bv1, Wv2 (1 x v_hidden), bv2.
    """

    theta: np.ndarray = field(repr=False)
    obs_dim: int
    act_dim: int
    hidden: int = 32
    v_hidden: int = 32
    clip_eps: float = 0.2
    lr: float = 3e-3
    gamma: float = 0.99
    lam: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise DomainError("clip_eps must lie in (0, 1)")
        if self.lr <= 0:
            raise DomainError("learning rate must be positive")
        if not (0.0 <= self.gamma <= 1.0 and 0.0 <= self.lam <= 1.0):
            raise DomainError("gamma and lam must lie in [0, 1]")
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (theta_size(self.obs_dim, self.act_dim, self.hidden, self.v_hidden),):
            raise DomainError("theta length does not match the declared layout")


def _block_shapes(obs_dim: int, act_dim: int, hidden: int, v_hidden: int) -> dict:
    """Shape of each theta block, in packing order."""
    return {
        "W1": (hidden, obs_dim),
        "b1": (hidden,),
        "W2": (act_dim, hidden),
        "b2": (act_dim,),
        "log_std": (act_dim,),
        "Wv1": (v_hidden, obs_dim),
        "bv1": (v_hidden,),
        "Wv2": (1, v_hidden),
        "bv2": (1,),
    }


def theta_size(obs_dim: int, act_dim: int, hidden: int, v_hidden: int) -> int:
    return sum(map(math.prod, _block_shapes(obs_dim, act_dim, hidden, v_hidden).values()))


def _unpack(p: PolicyParams) -> dict[str, np.ndarray]:
    out, i = {}, 0
    for name, shape in _block_shapes(p.obs_dim, p.act_dim, p.hidden, p.v_hidden).items():
        size = math.prod(shape)
        out[name] = p.theta[i : i + size].reshape(shape)
        i += size
    return out


def init_policy(
    obs_dim: int,
    act_dim: int,
    *,
    hidden: int = 32,
    v_hidden: int = 32,
    seed=0,
    clip_eps: float = 0.2,
    lr: float = 3e-3,
    gamma: float = 0.99,
    lam: float = 0.95,
    init_log_std: float = -0.5,
) -> PolicyParams:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1217]))
    theta = np.zeros(theta_size(obs_dim, act_dim, hidden, v_hidden))
    p = PolicyParams(
        theta=theta, obs_dim=obs_dim, act_dim=act_dim, hidden=hidden, v_hidden=v_hidden,
        clip_eps=clip_eps, lr=lr, gamma=gamma, lam=lam,
    )
    blocks = _unpack(p)
    for w, fan_in in (
        (blocks["W1"], obs_dim),
        (blocks["W2"], hidden),
        (blocks["Wv1"], obs_dim),
        (blocks["Wv2"], v_hidden),
    ):
        w[...] = rng.standard_normal(w.shape) / np.sqrt(fan_in)
    blocks["log_std"][...] = init_log_std
    return p


class _Forward(NamedTuple):
    """One evaluation of both networks, with what the backward pass reads."""

    blocks: dict[str, np.ndarray]
    obs: np.ndarray  # (N, obs_dim)
    h1: np.ndarray  # (N, hidden) policy hidden layer
    mean: np.ndarray  # (N, act_dim) squashed mean
    log_std: np.ndarray  # (act_dim,)
    std: np.ndarray  # (act_dim,)
    hv: np.ndarray  # (N, v_hidden) value hidden layer
    v: np.ndarray  # (N,) value estimates


def _forward(p: PolicyParams, obs: np.ndarray) -> _Forward:
    b = _unpack(p)
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    h1 = np.tanh(obs @ b["W1"].T + b["b1"])
    mean = np.tanh(h1 @ b["W2"].T + b["b2"])
    hv = np.tanh(obs @ b["Wv1"].T + b["bv1"])
    v = (hv @ b["Wv2"].T + b["bv2"])[:, 0]
    return _Forward(b, obs, h1, mean, b["log_std"], np.exp(b["log_std"]), hv, v)


def _log_prob(f: _Forward, act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardized actions z and the diagonal-Gaussian log-density of each row.

    Subtracts log_std itself rather than log(std): log(exp(x)) != x for about
    a quarter of values, and this is the form the gradient differentiates.
    """
    z = (act - f.mean) / f.std
    return z, np.sum(-0.5 * z**2 - f.log_std - 0.5 * _LOG_2PI, axis=1)


def _sample(f: _Forward, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw actions mean + std * z for standard-normal draws z, and their log-densities."""
    raw = f.mean + f.std * z
    return raw, _log_prob(f, raw)[1]


def policy_mean_std(p: PolicyParams, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squashed mean in (-1, 1)^act_dim and the state-independent std."""
    f = _forward(p, obs)
    return f.mean, np.broadcast_to(f.std, f.mean.shape)


# === PPO pieces ===


def clipped_surrogate(ratio, advantage, clip_eps: float):
    """min(r A, clip(r, 1-eps, 1+eps) A) and the mask of rows where r A is the min."""
    unclipped = ratio * advantage
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantage
    return np.minimum(unclipped, clipped), unclipped <= clipped


class Batch(NamedTuple):
    """One update's experience: E whole episodes of T steps, row e is episode e."""

    obs: np.ndarray  # (E, T, obs_dim)
    actions: np.ndarray  # (E, T, act_dim) raw policy samples
    logps: np.ndarray  # (E, T)
    rewards: np.ndarray  # (E, T)
    values: np.ndarray  # (E, T)


def compute_gae(
    rewards: np.ndarray, values: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Raw generalized-advantage estimates and returns (advantage + value) of (E, T) episodes.

    delta_t = r_t + gamma V(s_{t+1}) - V(s_t), with V = 0 past the last step,
    where every episode ends; the (gamma lam)-discounted recursion runs over
    all rows at once. Normalization happens later, per update batch.
    """
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise DomainError("gamma and lam must lie in [0, 1]")
    if rewards.shape[-1] == 0:
        raise DomainError("GAE needs at least one step")
    next_values = np.zeros_like(values)
    next_values[..., :-1] = values[..., 1:]
    deltas = rewards + gamma * next_values - values
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in reversed(range(rewards.shape[-1])):
        acc = deltas[..., t] + gamma * lam * acc
        adv[..., t] = acc
    return adv, adv + values


def objective_and_grad(
    p: PolicyParams,
    obs: np.ndarray,
    act: np.ndarray,
    old_logp: np.ndarray,
    adv: np.ndarray,
    ret: np.ndarray,
) -> tuple[float, np.ndarray, dict]:
    """Clipped surrogate minus VF_COEF times the value loss, with its exact gradient.

    Gradient ascent direction; verified against central finite differences
    in the acceptance gate. ``diag`` holds the mean ratio, the clip fraction,
    the surrogate, the value loss, the approximate KL mean(old_logp - logp)
    and the policy's closed-form entropy, sum(log_std) + act_dim/2 (1 + log 2 pi).
    """
    f = _forward(p, obs)
    N = f.obs.shape[0]
    zn, logp = _log_prob(f, np.asarray(act, dtype=np.float64))
    ratio = np.exp(logp - old_logp)
    surr, flows = clipped_surrogate(ratio, adv, p.clip_eps)
    j_pg = float(np.mean(surr))
    v_err = f.v - ret
    value_loss = float(np.mean(v_err**2))
    j = j_pg - VF_COEF * value_loss

    # backward pass; flows marks the rows where min() took the ratio branch
    grad = {}
    g_logp = flows * ratio * adv / N
    d_mean = g_logp[:, None] * zn / f.std
    grad["log_std"] = np.sum(g_logp[:, None] * (zn**2 - 1.0), axis=0)
    d_z2 = d_mean * (1.0 - f.mean**2)
    grad["W2"] = d_z2.T @ f.h1
    grad["b2"] = d_z2.sum(axis=0)
    d_h1 = d_z2 @ f.blocks["W2"]
    d_z1 = d_h1 * (1.0 - f.h1**2)
    grad["W1"] = d_z1.T @ f.obs
    grad["b1"] = d_z1.sum(axis=0)

    d_v = -VF_COEF * 2.0 * v_err / N
    grad["Wv2"] = (d_v[:, None] * f.hv).sum(axis=0)[None, :]
    grad["bv2"] = np.array([d_v.sum()])
    d_hv = d_v[:, None] * f.blocks["Wv2"][0][None, :]
    d_zv1 = d_hv * (1.0 - f.hv**2)
    grad["Wv1"] = d_zv1.T @ f.obs
    grad["bv1"] = d_zv1.sum(axis=0)

    flat = np.concatenate([grad[name].ravel() for name in f.blocks])
    if not np.all(np.isfinite(flat)):
        bad = [name for name in f.blocks if not np.all(np.isfinite(grad[name]))]
        raise NumericalError(f"non-finite gradient in {', '.join(bad)}")
    diag = {
        "mean_ratio": float(np.mean(ratio)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > p.clip_eps)),
        "surrogate": j_pg,
        "value_loss": value_loss,
        "approx_kl": float(np.mean(old_logp - logp)),
        "entropy": float(np.sum(f.log_std) + 0.5 * p.act_dim * (1.0 + _LOG_2PI)),
    }
    return j, flat, diag


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    std = float(np.std(adv))
    return (adv - np.mean(adv)) / max(std, 1e-8)


def ppo_update(
    p: PolicyParams,
    batch: Batch,
    *,
    epochs: int = 4,
    minibatch: int = 64,
    rng: np.random.Generator | None = None,
) -> tuple[PolicyParams, dict]:
    """One update over a batch of whole episodes; returns a new PolicyParams.

    The (E, T) batch is flattened to E * T rows in episode order.
    Advantages are batch-normalized; minibatches are shuffled from the
    supplied substream; Adam ascends the objective for the given epochs.
    """
    if batch.rewards.size == 0:
        raise DomainError("ppo_update needs at least one step")
    if epochs < 1 or minibatch < 1:
        raise DomainError(f"ppo_update needs epochs >= 1 and minibatch >= 1, got {epochs} and {minibatch}")
    rng = rng or np.random.default_rng(0)
    obs = batch.obs.reshape(-1, p.obs_dim)
    act = batch.actions.reshape(-1, p.act_dim)
    logp = batch.logps.ravel()
    adv, ret = compute_gae(batch.rewards, batch.values, p.gamma, p.lam)
    adv, ret = normalize_advantages(adv.ravel()), ret.ravel()

    theta = p.theta.copy()
    new = replace(p, theta=theta)
    m = np.zeros_like(theta)
    s = np.zeros_like(theta)
    t_step = 0
    n = obs.shape[0]
    # a diverging update ends in objective_and_grad's NumericalError, which
    # names the blocks; numpy's overflow warnings on the way add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for lo in range(0, n, minibatch):
                sel = order[lo : lo + minibatch]
                _, g, _ = objective_and_grad(new, obs[sel], act[sel], logp[sel], adv[sel], ret[sel])
                t_step += 1
                m = 0.9 * m + 0.1 * g
                s = 0.999 * s + 0.001 * g**2
                m_hat = m / (1.0 - 0.9**t_step)
                s_hat = s / (1.0 - 0.999**t_step)
                theta += p.lr * m_hat / (np.sqrt(s_hat) + 1e-8)
        _, _, diag = objective_and_grad(new, obs, act, logp, adv, ret)
    return new, diag


# === tabular Q-learning ===


@dataclass
class QTable:
    q: np.ndarray  # (n_states, n_actions)
    gamma: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.ndim != 2:
            raise DomainError("Q table must be (n_states, n_actions)")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("gamma must lie in [0, 1)")

    def greedy(self) -> np.ndarray:
        return np.argmax(self.q, axis=1)


def q_update(table: QTable, s: int, a: int, reward: float, s_next, alpha_lr: float) -> QTable:
    """One-transition backup; ``s_next=None`` marks a terminal transition."""
    n_s, n_a = table.q.shape
    if not (0 <= s < n_s and 0 <= a < n_a):
        raise DomainError("state or action index out of range")
    if s_next is not None and not 0 <= s_next < n_s:
        raise DomainError("next-state index out of range")
    if not 0.0 < alpha_lr <= 1.0:
        raise DomainError("alpha_lr must lie in (0, 1]")
    target = reward if s_next is None else reward + table.gamma * float(np.max(table.q[s_next]))
    table.q[s, a] += alpha_lr * (target - table.q[s, a])
    return table


class ChainRoutingMdp:
    """Four-state routing chain: forward hops pay only on the last link,
    a shortcut pays 0.85 straight to the terminal. With gamma = 0.9 the
    optimal route takes the shortcut at state 0 and forwards elsewhere.
    """

    n_states = 4
    n_actions = 2
    terminal = 3
    FORWARD, SHORTCUT = 0, 1

    def step(self, s: int, a: int) -> tuple[int | None, float]:
        if s == self.terminal:
            raise DomainError("terminal state has no transitions")
        if a == self.FORWARD:
            s_next = s + 1
            reward = 1.0 if s == 2 else 0.0
        elif a == self.SHORTCUT:
            s_next = self.terminal
            reward = 0.85
        else:
            raise DomainError("unknown action")
        return (None if s_next == self.terminal else s_next), reward


def run_q_learning(
    mdp: ChainRoutingMdp,
    n_updates: int,
    *,
    gamma: float = 0.9,
    epsilon: float = 0.3,
    alpha_lr: float | str = "visit",
    seed=0,
    checkpoint_every: int | None = None,
) -> tuple[QTable, list[np.ndarray]]:
    """Epsilon-greedy Q-learning on the routing chain.

    alpha_lr is either a constant step or "visit" for the 1/visit-count
    schedule. On this deterministic MDP a constant alpha_lr = 1 reaches the
    fixed point exactly (each backup is an asynchronous value-iteration
    entry). Optional checkpoints return Q-table snapshots every
    ``checkpoint_every`` updates.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x71]))
    table = QTable(q=np.zeros((mdp.n_states, mdp.n_actions)), gamma=gamma)
    counts = np.zeros((mdp.n_states, mdp.n_actions), dtype=np.int64)
    snaps: list[np.ndarray] = []
    s = int(rng.integers(0, mdp.terminal))
    for i in range(n_updates):
        if rng.random() < epsilon:
            a = int(rng.integers(0, mdp.n_actions))
        else:
            a = int(np.argmax(table.q[s]))
        s_next, reward = mdp.step(s, a)
        counts[s, a] += 1
        alpha = 1.0 / counts[s, a] if alpha_lr == "visit" else float(alpha_lr)
        q_update(table, s, a, reward, s_next, alpha)
        s = int(rng.integers(0, mdp.terminal)) if s_next is None else s_next
        if checkpoint_every and (i + 1) % checkpoint_every == 0:
            snaps.append(table.q.copy())
    return table, snaps


# === tuning environment ===


@dataclass(frozen=True)
class RewardWeights:
    """Weight of the action-energy charge; SI-SNR quality takes the rest of the simplex."""

    energy: float = 1.0 / 9.0

    def __post_init__(self):
        if not 0.0 <= self.energy <= 1.0:  # NaN fails too
            raise DomainError(f"energy weight must lie in [0, 1], got {self.energy}")

    @property
    def quality(self) -> float:
        return 1.0 - self.energy


ACTION_BOUNDS = np.array([0.25, 3.0, 3.0, 45.0])  # d_mu, d_trim_lo_db, d_trim_hi_db, d_steer_deg


@dataclass
class Action:
    """Bounded parameter deltas: (aec mu, low/high band trims dB, steering deg).

    ``deltas`` of shape (4,) act on one episode; (E, 4) act on E lockstep
    episodes, one row each, as the front end's optional leading axis.
    """

    deltas: np.ndarray

    def __post_init__(self):
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        if self.deltas.shape[-1:] != ACTION_BOUNDS.shape or self.deltas.ndim > 2 or self.deltas.size == 0:
            raise DomainError(f"action needs {len(ACTION_BOUNDS)} deltas, or one row of them per episode")
        if not np.all(np.abs(self.deltas) <= ACTION_BOUNDS * (1 + 1e-12)):  # NaN fails too
            raise DomainError("action deltas must be finite and within the documented bounds")


@dataclass
class EnvState:
    band_log_powers: np.ndarray  # (8,) log10 powers of 8 band groups below Nyquist
    mu: float
    trim_lo_db: float
    trim_hi_db: float
    steer_deg: float
    srp_confidence: float
    srp_offset: float  # SRP argmax minus steering, wrapped, /180

    def vector(self) -> np.ndarray:
        az = np.radians(self.steer_deg)
        scalars = [self.mu, self.trim_lo_db / 12.0, self.trim_hi_db / 12.0, np.sin(az), np.cos(az)]
        return np.concatenate([self.band_log_powers, scalars, [self.srp_confidence, self.srp_offset]])


OBS_DIM = 8 + 7
ACT_DIM = len(ACTION_BOUNDS)


@dataclass(frozen=True)
class _ChunkInputs:
    """What TuningEnv needs of one chunk that no action changes."""

    mics: np.ndarray  # (n_mics, chunk) view into the rendered scene
    ref: np.ndarray  # (chunk,) clean reference
    far_sub: SubbandState | None  # far-end analysis, None without an echo path
    base_si_snr: float  # si_snr(ref, mics[0])
    srp_az: float  # SRP azimuth estimate, degrees
    srp_confidence: float  # peak-to-mean SRP power, mapped to [0, 1]


class TuningEnv:
    """Front-end tuning loop over a rendered scene.

    Chunks advance cyclically and every episode starts at chunk 0, so an
    episode visits chunks 0 .. min(horizon, n_chunks) - 1. For each of those
    the constructor computes, once, what no action changes: the SRP scan
    (azimuth and confidence) on the chunk's leading <= 2048 samples, the
    far-end subband analysis, and the SI-SNR of the raw reference mic. It
    also computes the reset observation once: every episode starts from
    ``init_mu``, zero trims and the initial steering on chunk 0, so
    ``reset`` only restores those settings and returns a copy of it. Each
    step applies the action's deltas, runs ``enhance`` (beamformer ->
    analysis -> subband AEC -> band gains -> synthesis) on the current chunk,
    and scores the result: ``weights.quality`` times the SI-SNR gain over the
    raw mic, clipped to [-10, 30] dB and mapped to [0, 1], minus
    ``weights.energy`` times the action's normalized size in [0, 1]. Both
    terms move with the action or the scene. Every quantity is a
    deterministic function of the scenario seed and the action sequence.

    ``step`` takes one ``Action``. Deltas of shape (4,) step one episode and
    return (state, reward, done); deltas of shape (E, 4) step E episodes in
    lockstep and return a list of E states, an (E,) array of rewards and the
    shared done flag. All episodes start alike and advance through the same
    chunks together, so one ``enhance`` call with a leading episode axis
    serves them all, and each episode gets the bits it would get stepped
    alone. ``mu``, the trims and ``steer`` carry the deltas' row axis, and
    an episode keeps the row count of its first step.

    A visited chunk whose SRP window is all zero raises NoSourceError from
    the constructor, not from the first step that would visit it.
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        weights: RewardWeights = RewardWeights(),
        *,
        chunk_seconds: float = 0.2,
        horizon: int = 16,
        init_steer_offset_deg: float = 30.0,
        init_mu: float = 0.0,
        m_bands: int = 64,
        aec_taps: int = 4,
    ):
        if horizon < 1:
            raise DomainError("horizon must be at least one step")
        if m_bands < 16 or m_bands % 16:
            raise DomainError("m_bands must be a positive multiple of 16 (8 band groups below Nyquist)")
        if not 0.0 <= init_mu <= 1.0:
            raise DomainError("init_mu must lie in [0, 1], the range step clips mu to")
        self.scenario = scenario
        self.weights = weights
        self.horizon = horizon
        fs = scenario.room.fs
        self.bank = FilterBankSpec(m_bands=m_bands, hop=m_bands // 2, fs=fs)
        self.chunk = int(round(chunk_seconds * fs))
        if self.chunk < self.bank.n_taps:
            raise DomainError("chunk shorter than the filter-bank prototype span")
        self.rendered: RenderedScene = render_scene(scenario)
        n = self.rendered.mics.shape[1]
        if self.chunk > n:
            raise DomainError("chunk longer than the rendered scene")
        self.n_chunks = n // self.chunk
        self.geom = scenario_geometry(scenario)
        self.aec_taps = aec_taps
        self.init_steer = (self.rendered.true_azimuth_deg + init_steer_offset_deg) % 360.0
        self.init_mu = init_mu
        # per-band noise floor from a noise-only render of the same scenario
        noise_cfg = replace(scenario, snr_db=-60.0)
        noise_scene = render_scene(noise_cfg)
        ns = fb_analyze(self.bank, noise_scene.mics[0, : self.chunk])
        self.noise_band_var = np.mean(np.abs(ns.bands) ** 2, axis=1)
        self.noise_ref = float(np.mean(self.noise_band_var)) or 1.0
        self._chunks = [self._chunk_inputs(k) for k in range(min(horizon, self.n_chunks))]
        self._restart()
        (self._initial,), _ = self._process()
        self.reset()

    def _chunk_inputs(self, k: int) -> _ChunkInputs:
        lo = k * self.chunk
        mics = self.rendered.mics[:, lo : lo + self.chunk]
        ref = self.rendered.clean_ref[lo : lo + self.chunk]
        far_sub = None
        if self.rendered.far_end is not None:
            far_sub = fb_analyze(self.bank, self.rendered.far_end[lo : lo + self.chunk])
        sub = mics[:, : min(self.chunk, 2048)]
        az, curve = srp_localize(self.geom, sub, AzimuthGrid(n_points=18))
        conf = float(np.clip(curve.max() / max(curve.mean(), 1e-300) - 1.0, 0.0, 3.0) / 3.0)
        return _ChunkInputs(mics, ref, far_sub, si_snr(ref, mics[0]), az, conf)

    def _restart(self) -> None:
        self.mu = float(self.init_mu)
        self.trim_lo = 0.0
        self.trim_hi = 0.0
        self.steer = float(self.init_steer)
        self.step_count = 0
        self.chunk_idx = 0

    def reset(self) -> EnvState:
        """Start an episode, or E lockstep episodes, all from the same state."""
        self._restart()
        return replace(self._initial, band_log_powers=self._initial.band_log_powers.copy())

    def _band_gains(self, trims_lo: list[float], trims_hi: list[float]) -> np.ndarray:
        """(E, M//2 + 1) gains of E episodes' trims (dB) on the bank's kept bands.

        The low trim acts on bands 0..M/4-1, below fs/4; the high trim on
        bands M/4..M/2, from fs/4 up to Nyquist. G = clip(10^(trim/20) /
        (1 + noise / noise_ref), 0.05, 1): the trim lifts or cuts a band and
        its noise floor pulls it down. Each trim factor is a Python float
        power, so a row has the bits of a lone episode's.
        """
        m = self.bank.m_bands
        trims = np.empty((len(trims_lo), m // 2 + 1))
        trims[:, : m // 4] = np.array([10.0 ** (lo / 20.0) for lo in trims_lo])[:, None]
        trims[:, m // 4 :] = np.array([10.0 ** (hi / 20.0) for hi in trims_hi])[:, None]
        return np.clip(trims / (1.0 + self.noise_band_var / self.noise_ref), 0.05, 1.0)

    def _process(self) -> tuple[list[EnvState], list[float]]:
        """States and quality scores of the current settings, one per episode."""
        c = self._chunks[self.chunk_idx]
        # Python floats, so each episode's scalar arithmetic is the lone episode's
        settings = (self.mu, self.trim_lo, self.trim_hi, self.steer)
        mus, los, his, steers = (np.ravel(v).tolist() for v in settings)
        _, out_sub, enhanced = enhance(
            self.geom,
            self.bank,
            c.mics,
            np.array(steers),
            c.far_sub,
            mu=np.array(mus),
            aec_taps=self.aec_taps,
            band_gains=self._band_gains(los, his),
        )

        # 8 equal contiguous groups of the bands below Nyquist, every row at once
        below = out_sub.bands[:, : self.bank.m_bands // 2]
        powers = np.abs(below) ** 2
        groups = powers.reshape(len(mus), 8, -1, powers.shape[-1]).mean(axis=(2, 3))
        logps = np.clip((np.log10(groups + 1e-300) + 12.0) / 12.0, -1.0, 2.0)

        states, q_hats = [], []
        for e, (mu, lo, hi, steer) in enumerate(zip(mus, los, his, steers)):
            quality_raw = si_snr(c.ref, enhanced[e]) - c.base_si_snr
            q_hats.append(float((np.clip(quality_raw, -10.0, 30.0) + 10.0) / 40.0))
            offset = float(((c.srp_az - steer + 180.0) % 360.0 - 180.0) / 180.0)
            states.append(
                EnvState(
                    band_log_powers=logps[e],
                    mu=mu,
                    trim_lo_db=lo,
                    trim_hi_db=hi,
                    steer_deg=steer,
                    srp_confidence=c.srp_confidence,
                    srp_offset=offset,
                )
            )
        return states, q_hats

    def step(self, action: Action) -> tuple[EnvState, float, bool] | tuple[list[EnvState], np.ndarray, bool]:
        """Apply an Action's deltas to the episode, or row e to lockstep episode e.

        Deltas of shape (4,) return (state, reward, done); (E, 4) return (list
        of E states, (E,) rewards, done).
        """
        if not isinstance(action, Action):
            raise DomainError("step takes an Action")
        if self.step_count >= self.horizon:
            raise DomainError("episode is done; reset the env")
        d = action.deltas
        if self.step_count and np.shape(self.mu) != d.shape[:-1]:
            raise DomainError("an episode keeps the number of lockstep rows it started with")
        self.mu = np.clip(self.mu + d[..., 0], 0.0, 1.0)
        self.trim_lo = np.clip(self.trim_lo + d[..., 1], -12.0, 12.0)
        self.trim_hi = np.clip(self.trim_hi + d[..., 2], -12.0, 12.0)
        self.steer = (self.steer + d[..., 3]) % 360.0
        states, q_hats = self._process()
        rewards = []
        for deltas, q_hat in zip(d.reshape(-1, ACT_DIM), q_hats):
            energy = min(float(np.linalg.norm(deltas / ACTION_BOUNDS) / np.sqrt(len(deltas))), 1.0)
            rewards.append(self.weights.quality * q_hat - self.weights.energy * energy)
        self.step_count += 1
        self.chunk_idx = (self.chunk_idx + 1) % self.n_chunks
        done = self.step_count >= self.horizon
        if d.ndim == 1:
            return states[0], float(rewards[0]), done
        return states, np.array(rewards), done


# === training loop ===

_LOCKSTEP_EPISODES = 8  # at most this many episodes step together, which bounds a step's memory
_CURVE_DIAGNOSTICS = ("clip_fraction", "mean_ratio", "surrogate", "value_loss", "approx_kl", "entropy")


def clipped_action(raw: np.ndarray) -> Action:
    return Action(deltas=np.clip(raw, -1.0, 1.0) * ACTION_BOUNDS)


def _rollouts(env: TuningEnv, p: PolicyParams, noise: np.ndarray, batch: Batch, rows: list[int]) -> None:
    """Episodes ``rows`` of the batch on env, stepped in lockstep and written in place.

    ``noise`` (E, T, act_dim) holds each episode's standard-normal action
    draws. The policy runs row by row: a batched (E, obs_dim) product can
    differ from E row products in the last bits.
    """
    states = [env.reset()] * len(rows)
    for k in range(noise.shape[1]):
        for e, state in zip(rows, states):
            batch.obs[e, k] = state.vector()
            f = _forward(p, batch.obs[e, k][None, :])
            raw, logp = _sample(f, noise[e, k])
            batch.actions[e, k], batch.logps[e, k], batch.values[e, k] = raw[0], logp[0], f.v[0]
        states, batch.rewards[rows, k], _ = env.step(clipped_action(batch.actions[rows, k]))


def _collect(envs: list[TuningEnv], p: PolicyParams, noise: np.ndarray, first: int) -> Batch:
    """The (E, T) batch of one update; episode i runs on envs[(first + i) % len(envs)].

    The episodes that share an env step together, at most _LOCKSTEP_EPISODES
    at a time, each with its own row of noise.
    """
    shape = noise.shape[:2]
    batch = Batch(*(np.empty(shape + tail) for tail in ((p.obs_dim,), (p.act_dim,), (), (), ())))
    for j, env in enumerate(envs):
        mine = [i for i in range(len(noise)) if (first + i) % len(envs) == j]
        for lo in range(0, len(mine), _LOCKSTEP_EPISODES):
            _rollouts(env, p, noise, batch, mine[lo : lo + _LOCKSTEP_EPISODES])
    return batch


def train_tuning_policy(
    scenarios: list[ScenarioConfig],
    policy: PolicyParams,
    budget: int,
    *,
    seed=0,
    weights: RewardWeights = RewardWeights(),
    horizon: int = 16,
    chunk_seconds: float = 0.2,
    episodes_per_update: int = 4,
    epochs: int = 4,
    minibatch: int = 64,
    env_kwargs: dict | None = None,
) -> tuple[PolicyParams, list[dict]]:
    """PPO over the tuning envs; returns the policy and per-episode curve rows.

    The root seed feeds named substreams (rollout, minibatch shuffle) so a
    rerun with the same seed reproduces the learning curve bit for bit.
    Each update draws its episodes' action noise at once, episode by
    episode, and steps the episodes in lockstep; episode i of the run uses
    scenario i mod len(scenarios). The seconds spent in rollouts and in PPO
    updates go to the debug log.
    """
    if not scenarios:
        raise DomainError("need at least one scenario")
    if budget < max(1000, horizon):
        raise DomainError("training budget below one episode (and the 1e3 floor)")
    if episodes_per_update < 1:
        raise DomainError(f"episodes_per_update must be at least 1, got {episodes_per_update}")
    envs = [
        TuningEnv(s, weights, chunk_seconds=chunk_seconds, horizon=horizon, **(env_kwargs or {}))
        for s in scenarios
    ]
    ss = np.random.SeedSequence([int(seed), 0x5EED])
    rollout_rng, shuffle_rng = (np.random.default_rng(k) for k in ss.spawn(2))
    rows: list[dict] = []
    steps = 0
    rollout_s = update_s = 0.0
    while steps < budget:
        t0 = time.perf_counter()
        noise = rollout_rng.standard_normal((episodes_per_update, horizon, policy.act_dim))
        batch = _collect(envs, policy, noise, len(rows))
        steps += batch.rewards.size
        t1 = time.perf_counter()
        policy, diag = ppo_update(policy, batch, epochs=epochs, minibatch=minibatch, rng=shuffle_rng)
        rollout_s += t1 - t0
        update_s += time.perf_counter() - t1
        # curve.csv's columns, in order; the PPO diagnostics are the update's
        update_cols = {key: f"{diag[key]:.6f}" for key in _CURVE_DIAGNOSTICS}
        for ep_rewards in batch.rewards:
            rows.append({"episode": len(rows), "mean_reward": f"{float(np.mean(ep_rewards)):.6f}", **update_cols})
    log.debug("train: %d episodes; rollouts %.3f s, PPO updates %.3f s", len(rows), rollout_s, update_s)
    return policy, rows
