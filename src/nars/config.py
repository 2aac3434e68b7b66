"""Config parsing shared by every CLI command.

One sectioned key-value format (INI) everywhere, so scenario files compose
into training files. Parsing is strict and fail-fast: every key is typed,
every consumed (section, key) is tracked, and leftovers are an error, so a
typo dies before any compute starts. The consumed view (defaults included)
serializes back to a resolved config whose re-parse is a fixed point; every
run drops that copy beside its artifacts for bit-exact reproduction.
"""

from __future__ import annotations

import configparser
import contextlib
import os
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import ConfigurationError
from .frontend import PROTOTYPE_TAPS_PER_BAND, FilterBankSpec, circular_array
from .rl import ACT_DIM, OBS_DIM, PolicyParams, RewardWeights, init_policy
from .scene import MIN_SOURCE_MIC_DISTANCE, NOISE_KINDS, RoomSpec, ScenarioConfig
from .wavefield import Medium, SourceWaveform

_REQUIRED = object()


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _finite_float(s: str) -> float:
    value = float(s)
    if not np.isfinite(value):
        raise ValueError(f"{s} is not a finite number")
    return value


class Conf:
    """Typed reader over a parsed INI file with consumption tracking."""

    def __init__(self, cp: configparser.ConfigParser, path: str = "<config>"):
        self.cp = cp
        self.path = path
        self.resolved: dict[str, dict[str, str]] = {}
        self._seen: set[tuple[str, str]] = set()

    def _raw(self, section: str, key: str):
        if self.cp.has_option(section, key):
            self._seen.add((section, key))
            return self.cp.get(section, key)
        return None

    def _record(self, section: str, key: str, value) -> None:
        self.resolved.setdefault(section, {})[key] = _fmt(value)

    def _get(self, section: str, key: str, parse, default):
        raw = self._raw(section, key)
        if raw is None or raw.strip() == "":
            if default is _REQUIRED:
                raise ConfigurationError(f"{self.path}: missing [{section}] {key}")
            if default is not None:
                self._record(section, key, default)
            return default
        try:
            value = parse(raw.strip())
        except ConfigurationError:
            raise
        except Exception:
            raise ConfigurationError(f"{self.path}: bad value for [{section}] {key}: {raw!r}")
        self._record(section, key, value)
        return value

    def get_float(self, section, key, default=_REQUIRED) -> float:
        return self._get(section, key, _finite_float, default)

    def get_int(self, section, key, default=_REQUIRED) -> int:
        return self._get(section, key, int, default)

    def get_str(self, section, key, default=_REQUIRED, choices=None) -> str:
        value = self._get(section, key, str, default)
        if choices is not None and value is not None and value not in choices:
            raise ConfigurationError(
                f"{self.path}: [{section}] {key} must be one of {', '.join(choices)}"
            )
        return value

    def get_floats(self, section, key, default=_REQUIRED) -> tuple[float, ...]:
        def parse(s):
            return tuple(_finite_float(tok) for tok in s.replace(",", " ").split())

        return self._get(section, key, parse, default)

    def get_fs(self, section, default=_REQUIRED) -> float:
        """``[section] fs``, which must be a whole number of Hz that a mono WAV file can store."""
        fs = self.get_float(section, "fs", default)
        rule = "must be a whole number of Hz whose mono WAV byte rate, fs * 4, is at most 4294967295 bytes/s"
        self.check(io.is_wav_rate(fs), section, "fs", rule)
        return fs

    def get_vec3(self, section, key, default=_REQUIRED):
        value = self.get_floats(section, key, default)
        if value is not None and len(value) != 3:
            raise ConfigurationError(f"{self.path}: [{section}] {key} needs exactly 3 numbers")
        return value

    def check(self, ok: bool, section: str, key: str, rule: str) -> None:
        """Reject a parsed value that breaks ``rule`` unless ``ok``."""
        if not ok:
            raise ConfigurationError(f"{self.path}: [{section}] {key} {rule}")

    @contextlib.contextmanager
    def blame(self, section: str, keys: str):
        """Re-raise a ``ConfigurationError`` of the block as one naming ``[section] keys``.

        Other errors (data, numerical, validity) pass through unchanged.
        """
        try:
            yield
        except ConfigurationError as e:
            raise ConfigurationError(f"{self.path}: [{section}] {keys}: {e}") from None

    def has_section(self, section: str) -> bool:
        return self.cp.has_section(section)

    def finish(self) -> None:
        """Reject any key the command did not consume (typo protection)."""
        leftovers = [
            f"[{sec}] {key}"
            for sec in self.cp.sections()
            for key in self.cp.options(sec)
            if (sec, key) not in self._seen
        ]
        if leftovers:
            raise ConfigurationError(f"{self.path}: unknown entries: {', '.join(leftovers)}")

    def dump_resolved(self, path) -> None:
        out = configparser.ConfigParser()
        for section, kv in self.resolved.items():
            out[section] = kv
        with open(path, "w") as fh:
            out.write(fh)


def load_config(path) -> Conf:
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigurationError(f"cannot parse {path}: {e}")
    return Conf(cp, path=str(path))


# === shared section builders ===


def effective_seed(conf: Conf, override=None) -> int:
    seed = conf.get_int("run", "seed", 0)
    if override is not None:
        seed = int(override)
        conf._record("run", "seed", seed)
    conf.check(seed >= 0, "run", "seed", f"(or --seed) must be non-negative, got {seed}")
    return seed


def build_medium(conf: Conf) -> Medium:
    return Medium(
        rho0=conf.get_float("medium", "rho0"),
        c=conf.get_float("medium", "c"),
        beta=conf.get_float("medium", "beta"),
        delta=conf.get_float("medium", "delta", 0.0),
    )


def build_source(conf: Conf) -> SourceWaveform:
    return SourceWaveform(
        p0=conf.get_float("source", "p0"),
        f0=conf.get_float("source", "f0"),
        kind=conf.get_str("source", "kind", "sine", choices=("sine", "gaussian_pulse")),
        phase=conf.get_float("source", "phase", 0.0),
    )


def build_room(conf: Conf) -> RoomSpec:
    return RoomSpec(
        dims=conf.get_vec3("room", "dims"),
        reflection=conf.get_float("room", "reflection"),
        max_order=conf.get_int("room", "max_order"),
        c=conf.get_float("room", "c", 343.0),
        fs=conf.get_fs("room"),
    )


def _mic_keys(conf: Conf) -> list[str]:
    """The ``[mics]`` keys in mic order."""
    keys = conf.cp.options("mics")
    if not all(key.isdecimal() for key in keys):
        raise ConfigurationError(f"{conf.path}: [mics] keys must be mic indices 0, 1, ...")
    return sorted(keys, key=int)


def build_mic_positions(conf: Conf) -> list[tuple[float, float, float]]:
    """Either a circular [array] (center, radius, n_mics) or explicit [mics]."""
    if conf.has_section("mics"):
        positions = [conf.get_vec3("mics", key) for key in _mic_keys(conf)]
        if len(positions) < 2:
            raise ConfigurationError(f"{conf.path}: [mics] needs at least two mics for SRP")
        return positions
    center = conf.get_vec3("array", "center")
    radius = conf.get_float("array", "radius")
    n_mics = conf.get_int("array", "n_mics")
    conf.check(n_mics >= 2, "array", "n_mics", "must be at least 2 for SRP")
    conf.check(radius > 0, "array", "radius", "must be positive")
    return [tuple(p) for p in circular_array(n_mics, radius, center=center).positions.tolist()]


def mic_keys(conf: Conf) -> tuple[str, str]:
    """The section and keys that set the mics' spread: ``[mics]`` or ``[array] radius``."""
    if conf.has_section("mics"):
        return "mics", "/".join(_mic_keys(conf))
    return "array", "radius"


def check_positions(conf: Conf, room: RoomSpec, mic_positions, source_pos, echo_pos=None) -> None:
    """Reject microphones, or an explicit ``[scene] source_pos`` or ``echo_pos``, that no scene can use.

    Every mic and both positions must lie strictly inside the room, and the
    echo loudspeaker must not coincide with a mic (``image_source_rir``'s
    rules). The source must also lie outside the array's horizontal radius
    (the largest horizontal distance of a mic from the mics' centroid)
    around the centroid: the true azimuth of a source on or near the array's
    vertical axis is undefined or meaningless.
    """
    inside = f"strictly inside the room ([room] dims = {_fmt(room.dims)})"
    mics = np.asarray(mic_positions, dtype=np.float64)
    keys = _mic_keys(conf) if conf.has_section("mics") else None
    for i, mic in enumerate(mic_positions):
        where = ("mics", keys[i], f"must lie {inside}") if keys else (
            "array", "center/radius", f"must place every mic {inside}; mic {i} lies at {_fmt(mic)}"
        )
        conf.check(all(0 < p < d for p, d in zip(mic, room.dims)), *where)
    for key, pos in (("source_pos", source_pos), ("echo_pos", echo_pos)):
        if pos is not None:
            conf.check(all(0 < p < d for p, d in zip(pos, room.dims)), "scene", key, f"must lie {inside}")
    if echo_pos is not None:
        dist = np.linalg.norm(mics - np.asarray(echo_pos), axis=1)
        conf.check(
            dist.min() >= MIN_SOURCE_MIC_DISTANCE, "scene", "echo_pos",
            f"must not coincide with a microphone; it lies {dist.min():.3g} m from mic {int(dist.argmin())}",
        )
    if source_pos is not None:
        centroid = mics.mean(axis=0)
        radius = float(np.max(np.linalg.norm((mics - centroid)[:, :2], axis=1)))
        offset = float(np.linalg.norm((np.asarray(source_pos) - centroid)[:2]))
        conf.check(
            offset > radius, "scene", "source_pos",
            f"must lie farther than the array radius ({radius:.4g} m) from the array's vertical axis, "
            f"so its azimuth is defined; it lies {offset:.4g} m from it",
        )


def check_wav_duration(conf: Conf, section: str, key: str, durations, fs: float, n_ch: int) -> None:
    """Reject a duration whose samples at ``fs`` would not fit an ``n_ch``-channel WAV file."""
    n_max = io.max_wav_samples(n_ch)
    ok = all(d * fs < n_max + 1 and round(d * fs) <= n_max for d in durations)
    rule = f"must give at most {n_max} samples at {fs!r} Hz, so {n_ch} channels fit a WAV file"
    conf.check(ok, section, key, rule)


def check_wav_rate(conf: Conf, section: str, fs: float, n_ch: int, channels: str) -> None:
    """Reject an ``[section] fs`` whose byte rate, fs * 4 * n_ch, an ``n_ch``-channel WAV header cannot store."""
    rule = (
        f"must keep the WAV byte rate fs * 4 * {channels} within 4294967295 bytes/s; "
        f"{fs!r} Hz gives {fs * 4 * n_ch:.0f}"
    )
    conf.check(io.is_wav_rate(fs, n_ch), section, "fs", rule)


def build_scenario(conf: Conf, seed: int) -> ScenarioConfig:
    """The ``[scene]`` of the room and mics, whose mics must fit one WAV file."""
    room = build_room(conf)
    echo_pos = conf.get_vec3("scene", "echo_pos", None)
    source_pos = conf.get_vec3("scene", "source_pos")
    mic_positions = build_mic_positions(conf)
    check_positions(conf, room, mic_positions, source_pos, echo_pos)
    scenario = ScenarioConfig(
        room=room,
        source_pos=source_pos,
        mic_positions=mic_positions,
        noise_kind=conf.get_str("scene", "noise_kind", "white", choices=NOISE_KINDS),
        snr_db=conf.get_float("scene", "snr_db", 10.0),
        seed=seed,
        duration=conf.get_float("scene", "duration", 1.0),
        echo_pos=echo_pos,
        echo_level_db=conf.get_float("scene", "echo_level_db", 0.0),
    )
    n_mics = len(mic_positions)
    check_wav_rate(conf, "room", room.fs, n_mics, f"{n_mics} mics")
    check_wav_duration(conf, "scene", "duration", [scenario.duration], room.fs, n_mics)
    return scenario


def build_bank(conf: Conf, section: str, fs: float) -> FilterBankSpec:
    """The bank of ``[section] m_bands``/``hop``; FilterBankSpec's errors name the keys."""
    m_bands = conf.get_int(section, "m_bands", 64)
    hop = conf.get_int(section, "hop", m_bands // 2)
    with conf.blame(section, "m_bands/hop"):
        return FilterBankSpec(m_bands=m_bands, hop=hop, fs=fs)


@dataclass(frozen=True)
class FrontendParams:
    bank: FilterBankSpec
    aec_taps: int
    mu: float
    steer_deg: float | None  # None = steer from the SRP estimate


def build_frontend(conf: Conf, fs: float) -> FrontendParams:
    params = FrontendParams(
        bank=build_bank(conf, "frontend", fs),
        aec_taps=conf.get_int("frontend", "aec_taps", 4),
        mu=conf.get_float("frontend", "mu", 0.5),
        steer_deg=conf.get_float("frontend", "steer_deg", None),
    )
    conf.check(params.aec_taps >= 1, "frontend", "aec_taps", "must be at least 1")
    conf.check(0.0 <= params.mu <= 2.0, "frontend", "mu", "must lie in [0, 2]")
    return params


def build_rl(conf: Conf, scenario: ScenarioConfig, seed: int) -> tuple[PolicyParams, dict]:
    """``[rl]``, checked against the ``scenario`` that training renders.

    Returns the initial policy, seeded with ``seed``, and the keywords of
    ``train_tuning_policy`` after its scenarios and policy.
    """
    rl = dict(
        budget=conf.get_int("rl", "budget", 2048),
        horizon=conf.get_int("rl", "horizon", 16),
        episodes_per_update=conf.get_int("rl", "episodes_per_update", 4),
        epochs=conf.get_int("rl", "epochs", 6),
        minibatch=conf.get_int("rl", "minibatch", 32),
        hidden=conf.get_int("rl", "hidden", 24),
        v_hidden=conf.get_int("rl", "v_hidden", 16),
        lr=conf.get_float("rl", "lr", 8e-3),
        gamma=conf.get_float("rl", "gamma", 0.9),
        lam=conf.get_float("rl", "lam", 0.8),
        clip_eps=conf.get_float("rl", "clip_eps", 0.2),
        init_log_std=conf.get_float("rl", "init_log_std", -0.7),
        chunk_seconds=conf.get_float("rl", "chunk_seconds", 0.2),
        w_energy=conf.get_float("rl", "w_energy", RewardWeights.energy),
        init_steer_offset_deg=conf.get_float("rl", "init_steer_offset_deg", 30.0),
        init_mu=conf.get_float("rl", "init_mu", 0.0),
        m_bands=conf.get_int("rl", "m_bands", 64),
        aec_taps=conf.get_int("rl", "aec_taps", 4),
    )
    # the env groups the m_bands / 2 bands below Nyquist into 8 state features
    # and uses hop = m_bands / 2, which FilterBankSpec accepts for every such count
    m = rl["m_bands"]
    conf.check(m >= 16 and m % 16 == 0, "rl", "m_bands", "must be a positive multiple of 16")
    # TuningEnv cuts the scene into chunks of this many samples, and analyses
    # each chunk with a bank whose prototype spans 8 * m_bands samples
    fs = scenario.room.fs
    chunk = round(rl["chunk_seconds"] * fs)
    span = PROTOTYPE_TAPS_PER_BAND * m
    conf.check(
        chunk >= span, "rl", "chunk_seconds",
        f"must hold at least the filter-bank prototype span at [room] fs "
        f"({PROTOTYPE_TAPS_PER_BAND} * [rl] m_bands = {span} samples)",
    )
    conf.check(
        chunk <= round(scenario.duration * fs), "rl", "chunk_seconds",
        f"must not exceed [scene] duration ({scenario.duration!r} s)",
    )
    # raw actions are clipped to [-1, 1], so a std above e only saturates them
    conf.check(-5.0 <= rl["init_log_std"] <= 1.0, "rl", "init_log_std", "must lie in [-5, 1]")
    for key in (
        "aec_taps", "minibatch", "episodes_per_update", "hidden", "v_hidden", "epochs", "horizon"
    ):
        conf.check(rl[key] >= 1, "rl", key, "must be at least 1")
    # the same rules that train_tuning_policy, PolicyParams and make_aec apply
    conf.check(
        rl["budget"] >= max(1000, rl["horizon"]), "rl", "budget",
        "must be at least 1000 and at least one episode (horizon)",
    )
    conf.check(0.0 < rl["clip_eps"] < 1.0, "rl", "clip_eps", "must lie in (0, 1)")
    conf.check(rl["lr"] > 0, "rl", "lr", "must be positive")
    # TuningEnv.step clips mu to [0, 1]; the reward weighs quality by 1 - w_energy
    for key in ("gamma", "lam", "init_mu", "w_energy"):
        conf.check(0.0 <= rl[key] <= 1.0, "rl", key, "must lie in [0, 1]")
    rl["weights"] = RewardWeights(energy=rl.pop("w_energy"))

    net = ("hidden", "v_hidden", "lr", "gamma", "lam", "clip_eps", "init_log_std")
    policy = init_policy(OBS_DIM, ACT_DIM, seed=seed, **{key: rl.pop(key) for key in net})
    env = ("init_steer_offset_deg", "init_mu", "m_bands", "aec_taps")
    rl["env_kwargs"] = {key: rl.pop(key) for key in env}
    return policy, rl
