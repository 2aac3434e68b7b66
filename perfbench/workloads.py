"""The four benchmark workloads: stream, tune, survey and beam.

Each workload builds its inputs from the seed alone in its constructor (the
timed set-up), then exposes ``op(i)``, one closed-loop call into ``nars``
whose wall time the op measures itself, and ``checks(ops)``, the verdicts
on everything the run produced. Calls go through module attributes
(``frontend.fb_analyze``) so that the traced run's wrappers see them.
README.md gives the reason for each workload and the metrics it moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from nars import frontend, rl, scene, wavefield

FS = 16000.0
ROOM_DIMS = (6.0, 5.0, 3.0)
ARRAY_CENTER = (3.0, 2.5, 1.2)

# stream: one file per `nars bench` duration bucket
STREAM_DURATIONS = (3.0, 7.0, 15.0, 25.0, 35.0)
STREAM_TINY_DURATIONS = (1.0, 2.0)
# Floors recorded at the commit that introduced this benchmark. Over seeds
# 1-40 of both corpora every file gave an SI-SNR gain of at least -3.7 dB
# (median near 0) and a whole-file ERLE of at least -0.84 dB: the 4-tap
# subband AEC does not reach the room's echo tail, so the output keeps most
# of the echo. The floors leave about 1.2 dB of margin below those minima.
STREAM_GAIN_FLOOR_DB = -5.0
STREAM_ERLE_FLOOR_DB = -2.0

# tune: the configs/train.ini scenario and [rl] settings
TUNE_BUDGET = 1024
TUNE_HORIZON = 16
TUNE_ENV = dict(init_steer_offset_deg=30.0, init_mu=0.0, m_bands=64, aec_taps=4)

# survey: the acceptance criterion 7 scenes and its error bound
SURVEY_MAX_MAE_DEG = 3.0

# beam: relative-error limits of acceptance criteria 1-3
BEAM_LIMITS = (
    ("fubini_err", 0.02, "Westervelt B1..B3 within 2% of Fubini"),
    ("axis_err", 0.02, "KZK axis within 2% of the linear limit"),
    ("slope_err", 0.05, "KZK H2 slope within 5% of quasi-linear"),
)


def _seq(seed: int, *words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))


def _mic_positions() -> tuple:
    geom = frontend.circular_array(8, 0.05, center=ARRAY_CENTER, fs=FS)
    return tuple(tuple(float(v) for v in p) for p in geom.positions)


def _geometry(mics: tuple) -> frontend.MicArrayGeometry:
    return frontend.MicArrayGeometry(positions=np.asarray(mics), fs=FS, c=343.0)


def _around_array(rng: np.random.Generator, azimuth_deg: float) -> tuple:
    """A point 1-2 m from the array centre at the azimuth; always inside the room."""
    dist = rng.uniform(1.0, 2.0)
    az = math.radians(azimuth_deg)
    return (
        ARRAY_CENTER[0] + dist * math.cos(az),
        ARRAY_CENTER[1] + dist * math.sin(az),
        rng.uniform(1.0, 1.8),
    )


def tail(values) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest percentile with ten samples above it."""
    xs = np.asarray(values, dtype=np.float64)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        v = float(np.percentile(xs, pct))
        if np.count_nonzero(xs > v) >= 10:
            return v, pct, len(xs)
    return None


@dataclass
class Op:
    work: float  # work units completed (see Workload.work_unit)
    seconds: float  # wall time of the calls into nars, checks excluded
    ok: bool
    detail: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


class Stream:
    """Rendered reverberant 8-mic files with an echo path, through the whole chain."""

    name = "stream"
    work_unit = "audio_s"
    min_ops = 1
    trace_ops = 10

    def __init__(self, seed: int, tiny: bool = False):
        mics = _mic_positions()
        self.geom = _geometry(mics)
        self.spec = frontend.FilterBankSpec(m_bands=64, hop=32, fs=FS)
        room = scene.RoomSpec(dims=ROOM_DIMS, reflection=0.4, max_order=2, fs=FS)
        rng = _seq(seed, 0x5354)
        self.files = []
        for duration in STREAM_TINY_DURATIONS if tiny else STREAM_DURATIONS:
            src_az = rng.uniform(0.0, 360.0)
            cfg = scene.ScenarioConfig(
                room=room,
                source_pos=_around_array(rng, src_az),
                mic_positions=mics,
                noise_kind="white",
                snr_db=10.0,
                seed=int(rng.integers(2**63)),
                duration=duration,
                echo_pos=_around_array(rng, src_az + rng.uniform(90.0, 270.0)),
                echo_level_db=-6.0,
            )
            rendered = scene.render_scene(cfg)
            base = scene.si_snr(rendered.clean_ref, rendered.mics[0])
            self.files.append((rendered, base))
        self.round_ops = len(self.files)

    def warmup(self) -> None:
        self.op(0)

    def op(self, i: int) -> Op:
        r, base = self.files[i % len(self.files)]
        n = r.mics.shape[1]
        t0 = perf_counter()
        az, _ = frontend.srp_localize(self.geom, r.mics[:, : min(n, 8192)])
        y = frontend.beamform_das(self.geom, frontend.das_weights(self.geom, az), r.mics)
        mic = frontend.fb_analyze(self.spec, y)
        far = frontend.fb_analyze(self.spec, r.far_end)
        residual, _ = frontend.aec_process(frontend.make_aec(64, 4, mu=0.5), far, mic)
        enhanced = frontend.fb_synthesize(self.spec, residual)[:n]
        seconds = perf_counter() - t0
        finite = bool(np.all(np.isfinite(enhanced)))
        gain = scene.si_snr(r.clean_ref, enhanced) - base if finite else math.nan
        erle = frontend.erle_db(mic, residual)
        ok = finite and gain >= STREAM_GAIN_FLOOR_DB and erle >= STREAM_ERLE_FLOOR_DB
        return Op(n / FS, seconds, ok, {"rtf": seconds / (n / FS), "gain": gain, "erle": erle})

    def report(self, ops) -> list:
        done = [o for o in ops if o.ok]
        rtf = [o.detail["rtf"] for o in done]
        rate = sum(o.work for o in done) / sum(o.seconds for o in ops)
        return [
            ("stream_audio_s_per_s", rate, "audio_s/s", ""),
            ("stream_rtf_p50", float(np.median(rtf)) if rtf else math.nan, "s/s", f"n={len(rtf)}"),
            _tail_row("stream_rtf_tail", rtf, "s/s"),
        ]

    def checks(self, ops) -> list:
        gains = [o.detail["gain"] for o in ops if "gain" in o.detail]
        finite = len(gains) == len(ops) and all(map(math.isfinite, gains))
        gain = min(gains, default=math.nan)
        erle = min((o.detail["erle"] for o in ops if "erle" in o.detail), default=math.nan)
        return [
            Check("enhanced output finite", finite, f"{len(gains)} files"),
            Check(f"SI-SNR gain >= {STREAM_GAIN_FLOOR_DB} dB", gain >= STREAM_GAIN_FLOOR_DB, f"min {gain:.3f} dB"),
            Check(f"ERLE >= {STREAM_ERLE_FLOOR_DB} dB", erle >= STREAM_ERLE_FLOOR_DB, f"min {erle:.3f} dB"),
        ]


class Tune:
    """PPO tuning of the front end on the configs/train.ini scenario."""

    name = "tune"
    work_unit = "env_steps"
    round_ops = 1
    min_ops = 1
    trace_ops = 1  # a traced run makes the call twice, so it also compares two curves

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        # tiny keeps the 1,000-step budget floor but shortens the audio
        self.chunk_seconds = 0.04 if tiny else 0.2
        self.scenario = scene.ScenarioConfig(
            room=scene.RoomSpec(dims=ROOM_DIMS, reflection=0.4, max_order=2, fs=FS),
            source_pos=(1.5, 3.5, 1.5),
            mic_positions=_mic_positions(),
            noise_kind="white",
            snr_db=10.0,
            seed=int(_seq(seed, 0x54).integers(2**63)),
            duration=0.08 if tiny else 0.4,
            echo_pos=(5.0, 1.0, 1.3),
            echo_level_db=-6.0,
        )
        self.policy = rl.init_policy(
            rl.OBS_DIM, rl.ACT_DIM, hidden=24, v_hidden=16, seed=seed,
            lr=8e-3, gamma=0.9, lam=0.8, init_log_std=-0.7,
        )
        # the env the trained policy is checked on; train_tuning_policy builds its own
        self.env = rl.TuningEnv(
            self.scenario, rl.RewardWeights(), chunk_seconds=self.chunk_seconds,
            horizon=TUNE_HORIZON, **TUNE_ENV,
        )

    def warmup(self) -> None:
        pass  # one call is a whole training run; the first call pays its own start-up

    def op(self, i: int) -> Op:
        t0 = perf_counter()
        trained, curve = rl.train_tuning_policy(
            [self.scenario], self.policy, TUNE_BUDGET, seed=self.seed,
            horizon=TUNE_HORIZON, chunk_seconds=self.chunk_seconds,
            episodes_per_update=4, epochs=4, minibatch=32, env_kwargs=TUNE_ENV,
        )
        seconds = perf_counter() - t0
        rewards = [float(r["mean_reward"]) for r in curve]
        ok = bool(rewards) and all(math.isfinite(r) for r in rewards)
        return Op(len(curve) * TUNE_HORIZON, seconds, ok, {"curve": curve, "policy": trained})

    def report(self, ops) -> list:
        steps = sum(o.work for o in ops if o.ok)
        return [("tune_steps_per_s", steps / sum(o.seconds for o in ops), "steps/s", "")]

    def checks(self, ops) -> list:
        curves = [o.detail["curve"] for o in ops if "curve" in o.detail]
        rewards = [float(r["mean_reward"]) for c in curves for r in c]
        greedy = []
        if curves:
            state = self.env.reset()
            policy = next(o.detail["policy"] for o in reversed(ops) if "policy" in o.detail)
            for _ in range(self.env.horizon):
                mean, _ = rl.policy_mean_std(policy, state.vector()[None, :])
                state, reward, _ = self.env.step(rl.clipped_action(mean[0]))
                greedy.append(reward)
        checks = [
            Check("every training reward finite", bool(rewards) and all(map(math.isfinite, rewards)),
                  f"{len(rewards)} episodes"),
            Check("greedy episode rewards finite", bool(greedy) and all(map(math.isfinite, greedy)),
                  f"{len(greedy)} steps"),
        ]
        if len(curves) >= 2:  # one 20 s call fills an untraced run; a traced run makes two
            same = all(c == curves[0] for c in curves)
            checks.append(Check("same seed gives the same curve", same, f"{len(curves)} runs"))
        return checks


class Survey:
    """Distinct reverberant scenes, each rendered and then localized (criterion 7)."""

    name = "survey"
    work_unit = "scenes"
    round_ops = 1
    min_ops = 1
    trace_ops = 100

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.room = scene.RoomSpec(dims=ROOM_DIMS, reflection=0.6, max_order=3, fs=FS)
        self.mics = _mic_positions()
        self.geom = _geometry(self.mics)
        self.duration = 0.1 if tiny else 0.25

    def warmup(self) -> None:
        self.op(2**31)  # an index no measured op uses

    def op(self, i: int) -> Op:
        rng = _seq(self.seed, 0x5356, i)
        margin = 0.5
        pos = tuple(margin + rng.uniform() * (d - 2 * margin) for d in ROOM_DIMS)
        cfg = scene.ScenarioConfig(
            room=self.room, source_pos=pos, mic_positions=self.mics, noise_kind="white",
            snr_db=15.0, seed=int(rng.integers(2**63)), duration=self.duration,
        )
        t0 = perf_counter()
        rendered = scene.render_scene(cfg)
        est, _ = frontend.srp_localize(self.geom, rendered.mics)
        seconds = perf_counter() - t0
        err = frontend.azimuth_error_deg(est, rendered.true_azimuth_deg)
        return Op(1.0, seconds, math.isfinite(err), {"err": err, "ms": 1000.0 * seconds})

    def report(self, ops) -> list:
        done = [o for o in ops if o.ok]
        ms = [o.detail["ms"] for o in done]
        return [
            ("survey_scenes_per_s", len(done) / sum(o.seconds for o in ops), "scenes/s", ""),
            ("survey_scene_ms_p50", float(np.median(ms)) if ms else math.nan, "ms", f"n={len(ms)}"),
            _tail_row("survey_scene_ms_tail", ms, "ms"),
        ]

    def checks(self, ops) -> list:
        errs = [o.detail["err"] for o in ops if o.ok]
        mae = float(np.mean(errs)) if errs else math.nan
        detail = f"{mae:.3f} deg over {len(errs)} scenes"
        return [Check(f"mean azimuth error <= {SURVEY_MAX_MAE_DEG} deg", mae <= SURVEY_MAX_MAE_DEG, detail)]


class Beam:
    """One nonlinear absorbing KZK march and one Westervelt march per op."""

    name = "beam"
    work_unit = "beam_pairs"
    round_ops = 1
    min_ops = 1
    trace_ops = 3

    def __init__(self, seed: int, tiny: bool = False):
        rng = _seq(seed, 0x4245)
        # KZK: Gaussian source marched to its Rayleigh distance; weak enough
        # that the fundamental stays in its linear limit, with 32 harmonics
        self.kzk_medium = wavefield.Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=4.5e-4)
        self.kzk_src = wavefield.SourceWaveform(p0=1e5 * rng.uniform(0.8, 1.2), f0=1e6)
        self.radius = 0.004 * rng.uniform(0.95, 1.05)
        z_r = wavefield.rayleigh_distance(self.kzk_src, self.radius, self.kzk_medium)
        n_r, dr, n_z, n_harm = (160, 2e-4, 64, 4) if tiny else (400, 1e-4, 256, 32)
        self.kzk_grid = wavefield.AxisymGrid(n_r=n_r, dr=dr, n_z=n_z, dz=z_r / n_z, n_harm=n_harm)
        self.z_r = z_r
        # Westervelt: lossless plane wave to half the shock distance (criterion 1)
        self.west_medium = wavefield.Medium(rho0=1000.0, c=1500.0, beta=3.5, delta=0.0)
        self.west_src = wavefield.SourceWaveform(p0=1e6 * rng.uniform(0.8, 1.2), f0=1e6)
        self.x_shock = wavefield.shock_formation_distance(self.west_medium, self.west_src)
        n_time, n_steps = (1024, 400) if tiny else (8192, 2000)
        z_max = 0.5 * self.x_shock
        self.west_grid = wavefield.PlaneWaveGrid(
            n_time=n_time, n_steps=n_steps, dz=z_max / n_steps, z_max=z_max
        )

    def warmup(self) -> None:
        pass  # each march builds its own operators

    def _kzk(self):
        zs, h1, h2, steps = [], [], [], []
        last = [None]

        def record(z, amps):
            now = perf_counter()
            if last[0] is not None:
                steps.append(now - last[0])
            zs.append(z)
            h1.append(abs(amps[0, 0]))
            h2.append(abs(amps[1, 0]))
            last[0] = perf_counter()

        t0 = perf_counter()
        field = wavefield.simulate_kzk_axisym(
            self.kzk_medium, self.kzk_src, wavefield.gaussian_profile(self.radius),
            self.kzk_grid, callback=record,
        )
        seconds = perf_counter() - t0
        m, src = self.kzk_medium, self.kzk_src
        alpha = m.delta * (2 * np.pi * src.f0) ** 2 / (2 * m.c**3)
        expect = wavefield.analytic_gaussian_axis(src, self.radius, m, field.z) * np.exp(-alpha * field.z)
        axis_err = abs(h1[-1] - expect) / expect
        near = np.asarray(zs) <= self.z_r / 16  # quasi-linear growth near the source
        slope = np.polyfit(np.asarray(zs)[near], np.asarray(h2)[near], 1)[0]
        rate = m.beta * 2 * np.pi * src.f0 * src.p0**2 / (2 * m.rho0 * m.c**3)
        return seconds, steps, axis_err, abs(slope - rate) / rate

    def _westervelt(self):
        src, grid = self.west_src, self.west_grid
        zs, rows, steps = [], [], []
        last = [None]

        def record(z, samples):
            now = perf_counter()
            if last[0] is not None:
                steps.append(now - last[0])
            zs.append(z)
            w = wavefield.TimeWaveform(samples, fs=grid.n_time * src.f0)
            rows.append(wavefield.harmonic_spectrum(w, src.f0, 3) / src.p0)
            last[0] = perf_counter()

        t0 = perf_counter()
        wavefield.simulate_westervelt_plane(self.west_medium, src, grid, n_harm_out=3, callback=record)
        seconds = perf_counter() - t0
        ratios = np.asarray(rows)
        worst = 0.0
        for sigma in (0.1, 0.3, 0.5):
            for n in (1, 2, 3):
                oracle = wavefield.fubini_harmonics(n, sigma)
                got = np.interp(sigma * self.x_shock, zs, ratios[:, n - 1])
                worst = max(worst, abs(got - oracle) / oracle)
        return seconds, steps, worst

    def op(self, i: int) -> Op:
        kzk_s, kzk_steps, axis_err, slope_err = self._kzk()
        west_s, west_steps, fubini_err = self._westervelt()
        detail = {
            "kzk_s": kzk_s, "west_s": west_s, "kzk_steps": kzk_steps, "west_steps": west_steps,
            "axis_err": axis_err, "slope_err": slope_err, "fubini_err": fubini_err,
        }
        ok = all(detail[key] <= limit for key, limit, _ in BEAM_LIMITS)
        return Op(1.0, kzk_s + west_s, ok, detail)

    def report(self, ops) -> list:
        done = [o.detail for o in ops if o.ok]
        kzk = [d["kzk_s"] for d in done]
        west = [d["west_s"] for d in done]
        return [
            ("beam_kzk_s", float(np.median(kzk)) if kzk else math.nan, "s", f"median of {len(kzk)}"),
            ("beam_westervelt_s", float(np.median(west)) if west else math.nan, "s", f"median of {len(west)}"),
        ]

    def checks(self, ops) -> list:
        ds = [o.detail for o in ops if "axis_err" in o.detail]
        checks = []
        for key, limit, name in BEAM_LIMITS:
            worst = max((d[key] for d in ds), default=math.nan)
            checks.append(Check(name, worst <= limit, f"worst {worst:.2e}"))
        return checks


def _tail_row(name: str, values, unit: str):
    t = tail(values) if values else None
    if t is None:
        return (name, math.nan, unit, f"undefined: n={len(values)} < 11")
    value, pct, n = t
    return (name, value, unit, f"p{pct:g} of n={n}")


WORKLOADS = {w.name: w for w in (Stream, Tune, Survey, Beam)}
