"""Command line entry points.

Seven subcommands share one shape: parse and validate the config up front,
compute, then publish an atomic artifact directory containing the outputs
plus ``resolved.ini``, a fully-materialized config (defaults included) whose
re-run reproduces the artifacts bit for bit. ``bench``'s ``rtf.csv`` is the
one artifact that holds wall-clock time; the other commands log their
stage seconds at debug level only. The directory replaces ``--out`` whole,
so no file of an earlier run survives; an ``--out`` that is a file, or a
directory that is not empty and holds no ``resolved.ini``, is refused
before any compute. Summaries go to stdout as ``key=value`` lines;
diagnostics go to the log (NARS_LOG=error|info|debug, stderr).

``frontend`` and ``bench`` run the front-end chain ``frontend.enhance``,
the same chain that ``train`` tunes; ``scene``, ``frontend`` and
``localize`` scan SRP over the leading <= 8192 samples of a scene.

Exit codes: 0 ok, 1 configuration, 2 data, 3 numerical, 4 validity. A run
that runs out of memory (``MemoryError``, as numpy raises when an array
the configured sizes ask for cannot be allocated) exits 1 with one log line.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
import time

import numpy as np

from . import config as cfg
from . import io
from .errors import ConfigurationError, DataError, NarsError
from .frontend import (
    PROTOTYPE_TAPS_PER_BAND,
    AzimuthGrid,
    azimuth_error_deg,
    band_power,
    circular_array,
    enhance,
    fb_analyze,
    scenario_geometry,
    srp_localize,
)
from .rl import train_tuning_policy
from .scene import (
    NOISE_KINDS,
    Metrics,
    ScenarioConfig,
    measure_rtf,
    render_scene,
    scene_rng,
    si_snr,
)
from .wavefield import (
    AxisymGrid,
    PlaneWaveGrid,
    analytic_gaussian_axis,
    gaussian_profile,
    rayleigh_distance,
    shock_formation_distance,
    simulate_kzk_axisym,
    westervelt_harmonic_curve,
)

log = logging.getLogger("nars")

BENCH_BUCKETS = ("≤5 s", "5–10 s", "10–20 s", "20–30 s", "≥30 s")


def _bucket(duration: float) -> str:
    if duration <= 5.0:
        return BENCH_BUCKETS[0]
    if duration <= 10.0:
        return BENCH_BUCKETS[1]
    if duration <= 20.0:
        return BENCH_BUCKETS[2]
    if duration < 30.0:
        return BENCH_BUCKETS[3]
    return BENCH_BUCKETS[4]


def _summary(key: str, value) -> None:
    print(f"{key}={io.fmt_num(value) if not isinstance(value, str) else value}")


def _localize(conf, geom, mics) -> tuple[float, np.ndarray]:
    """SRP azimuth and power curve over the leading <= 8192 samples.

    An array the scan cannot steer (no horizontal aperture) names the keys
    that placed its mics.
    """
    with conf.blame(*cfg.mic_keys(conf)):
        return srp_localize(geom, mics[:, :8192])


@contextlib.contextmanager
def _artifacts(out_dir, conf, metrics: Metrics | None = None):
    """An artifact set closed by metrics.csv (when given) and resolved.ini.

    After a clean publish the metrics are printed as summary lines.
    """
    row = {} if metrics is None else metrics.row()
    with io.ArtifactSet(out_dir) as art:
        yield art
        if row:
            io.write_csv(art.path("metrics.csv"), list(row.keys()), [list(row.values())])
        conf.dump_resolved(art.path("resolved.ini"))
    for key, value in row.items():
        _summary(key, value)


# === subcommands ===


def cmd_wave(args) -> None:
    conf = cfg.load_config(args.config)
    medium = cfg.build_medium(conf)
    src = cfg.build_source(conf)
    n_time = conf.get_int("wave", "n_time", 512)
    n_steps = conf.get_int("wave", "n_steps", 200)
    n_harm = conf.get_int("wave", "n_harm", 4)
    z_max = conf.get_float("wave", "z_max", None)
    sigma_end = conf.get_float("wave", "sigma_end", None)
    cfg.effective_seed(conf, args.seed)
    conf.finish()
    conf.check(n_steps >= 1, "wave", "n_steps", "must be at least 1")
    conf.check(n_harm >= 1, "wave", "n_harm", "must be at least 1")
    conf.check(
        (z_max is None) != (sigma_end is None), "wave", "z_max or sigma_end",
        "must be set, not both",
    )
    extent = "z_max" if sigma_end is None else "sigma_end"
    # a linear medium never shocks; it still makes sense with an explicit z_max
    x_shock = math.inf if medium.beta == 0 else shock_formation_distance(medium, src)
    if z_max is None:
        conf.check(
            0 < x_shock < math.inf, "wave", "sigma_end",
            f"needs a finite, positive shock distance; [medium] rho0 = {medium.rho0!r}, "
            f"c = {medium.c!r}, beta = {medium.beta!r} and [source] p0 = {src.p0!r}, "
            f"f0 = {src.f0!r} give {x_shock!r} m",
        )
        z_max = sigma_end * x_shock
    with conf.blame("wave", f"n_time/n_steps/n_harm/{extent}"):
        grid = PlaneWaveGrid(n_time=n_time, n_steps=n_steps, dz=z_max / n_steps, z_max=z_max)
        zs, ratio_rows, final = westervelt_harmonic_curve(medium, src, grid, n_max=n_harm)

    with _artifacts(args.out, conf) as art:
        # sigma = z / x_shock is 0 throughout a linear medium (x_shock = inf)
        header = ["z", "sigma"] + [f"B{n}" for n in range(1, n_harm + 1)]
        io.write_csv(
            art.path("harmonics.csv"),
            header,
            ([z, z / x_shock] + list(row) for z, row in zip(zs, ratio_rows)),
        )
        t = np.arange(grid.n_time) / final.fs
        io.write_csv(art.path("waveform.csv"), ["t", "p"], zip(t, final.samples))

    _summary("shock_distance_m", x_shock)
    _summary("sigma_end", z_max / x_shock)
    for n in range(1, n_harm + 1):
        _summary(f"b{n}", float(ratio_rows[-1][n - 1]))


def cmd_kzk(args) -> None:
    conf = cfg.load_config(args.config)
    medium = cfg.build_medium(conf)
    src = cfg.build_source(conf)
    shape = dict(
        n_r=conf.get_int("kzk", "n_r", 128),
        dr=conf.get_float("kzk", "dr"),
        n_z=conf.get_int("kzk", "n_z"),
        dz=conf.get_float("kzk", "dz"),
        n_harm=conf.get_int("kzk", "n_harm", 8),
    )
    a = conf.get_float("kzk", "source_radius")
    cfg.effective_seed(conf, args.seed)
    conf.finish()

    zs: list[float] = []
    axis_rows: list[np.ndarray] = []

    def record(z, amps):
        zs.append(z)
        axis_rows.append(np.abs(amps[:, 0]))

    with conf.blame("kzk", "n_r/dr/n_z/dz/n_harm/source_radius"):
        grid = AxisymGrid(**shape)
        field = simulate_kzk_axisym(medium, src, gaussian_profile(a), grid, callback=record)

    with _artifacts(args.out, conf) as art:
        header = ["z"] + [f"H{n}" for n in range(1, grid.n_harm + 1)]
        io.write_csv(
            art.path("axis.csv"), header, ([z] + list(row) for z, row in zip(zs, axis_rows))
        )
        io.write_field_dump(art.path("field.nfd"), field)

    _summary("rayleigh_m", rayleigh_distance(src, a, medium))
    _summary("p1_axis_end_pa", float(np.abs(field.amps[0, 0])))
    _summary("p1_linear_ref_pa", analytic_gaussian_axis(src, a, medium, field.z))


def cmd_scene(args) -> None:
    conf = cfg.load_config(args.config)
    seed = cfg.effective_seed(conf, args.seed)
    scenario = cfg.build_scenario(conf, seed)
    conf.finish()

    t0 = time.perf_counter()
    rendered = render_scene(scenario)
    log.debug("scene: render %.3f s, including first-call start-up", time.perf_counter() - t0)
    est_az, _ = _localize(conf, scenario_geometry(scenario), rendered.mics)

    m = Metrics(
        scenario_id=f"scene-{seed}",
        si_snr_db=si_snr(rendered.clean_ref, rendered.mics[0]),
        snr_gain_db=0.0,
        doa_err_deg=azimuth_error_deg(est_az, rendered.true_azimuth_deg),
    )
    with _artifacts(args.out, conf, m) as art:
        io.write_wav(art.path("mics.wav"), rendered.fs, rendered.mics)
        io.write_wav(art.path("clean_ref.wav"), rendered.fs, rendered.clean_ref)
        if rendered.far_end is not None:
            io.write_wav(art.path("far_end.wav"), rendered.fs, rendered.far_end)


def cmd_frontend(args) -> None:
    conf = cfg.load_config(args.config)
    seed = cfg.effective_seed(conf, args.seed)
    scenario = cfg.build_scenario(conf, seed)
    params = cfg.build_frontend(conf, scenario.room.fs)
    conf.finish()
    spec = params.bank
    conf.check(
        round(scenario.duration * scenario.room.fs) >= spec.n_taps, "scene", "duration",
        f"must hold at least the filter-bank prototype span at [room] fs "
        f"({PROTOTYPE_TAPS_PER_BAND} * [frontend] m_bands = {spec.n_taps} samples)",
    )
    geom = scenario_geometry(scenario)

    rendered = render_scene(scenario)

    t0 = time.perf_counter()
    est_az, power = _localize(conf, geom, rendered.mics)
    steer = est_az if params.steer_deg is None else params.steer_deg
    far_sub = None if rendered.far_end is None else fb_analyze(spec, rendered.far_end)
    mic_sub, out_sub, enhanced = enhance(
        geom, spec, rendered.mics, steer, far_sub, mu=params.mu, aec_taps=params.aec_taps
    )
    log.debug("frontend: SRP scan and enhance %.3f s", time.perf_counter() - t0)

    erle_rows = []
    if far_sub is not None:
        p_mic, p_res = band_power(mic_sub), band_power(out_sub)
        with np.errstate(divide="ignore"):
            trace = 10.0 * np.log10(p_mic / np.maximum(p_res, 1e-300))
        n_live = min(len(trace), -(-mic_sub.n_samples // spec.hop))  # drop the flush tail
        erle_rows = [[k, f"{trace[k]:.6f}"] for k in range(n_live)]

    base = si_snr(rendered.clean_ref, rendered.mics[0])
    enh = si_snr(rendered.clean_ref, enhanced)
    m = Metrics(
        scenario_id=f"scene-{seed}",
        si_snr_db=enh,
        snr_gain_db=enh - base,
        doa_err_deg=azimuth_error_deg(est_az, rendered.true_azimuth_deg),
    )
    with _artifacts(args.out, conf, m) as art:
        io.write_wav(art.path("enhanced.wav"), rendered.fs, enhanced)
        io.write_csv(art.path("erle.csv"), ["frame", "erle_db"], erle_rows)
        grid = AzimuthGrid()
        io.write_csv(art.path("srp.csv"), ["angle_deg", "power"], zip(grid.angles, power))


def cmd_localize(args) -> None:
    conf = cfg.load_config(args.config)
    seed = cfg.effective_seed(conf, args.seed)
    room = cfg.build_room(conf)
    mic_positions = tuple(cfg.build_mic_positions(conf))
    noise_kind = conf.get_str("scene", "noise_kind", "white", choices=NOISE_KINDS)
    snr_db = conf.get_float("scene", "snr_db", 10.0)
    duration = conf.get_float("scene", "duration", 0.5)
    explicit_pos = conf.get_vec3("scene", "source_pos", None)
    n_scenes = conf.get_int("localize", "n_scenes", 1)
    conf.finish()
    conf.check(n_scenes >= 1, "localize", "n_scenes", "must be at least 1")
    conf.check(
        n_scenes == 1 or explicit_pos is None, "scene", "source_pos",
        "is one position, so it needs [localize] n_scenes = 1",
    )
    margin = 0.5
    lo = np.full(3, margin)
    hi = np.asarray(room.dims) - margin
    conf.check(
        explicit_pos is not None or np.all(hi > lo), "room", "dims",
        f"must exceed {2 * margin} m on every axis to place sources {margin} m from the walls",
    )
    cfg.check_positions(conf, room, mic_positions, explicit_pos)
    cfg.check_wav_duration(conf, "scene", "duration", [duration], room.fs, len(mic_positions))

    rows = []
    errs = []
    for i in range(n_scenes):
        # scene i is a pure function of (seed, i)
        rng = scene_rng(seed, i)
        pos = explicit_pos
        if pos is None:
            pos = tuple(lo + (hi - lo) * rng.uniform(size=3))
        scenario = ScenarioConfig(
            room=room,
            source_pos=pos,
            mic_positions=mic_positions,
            noise_kind=noise_kind,
            snr_db=snr_db,
            seed=int(rng.integers(2**63)),
            duration=duration,
        )
        rendered = render_scene(scenario)
        est_az, _ = _localize(conf, scenario_geometry(scenario), rendered.mics)
        true_az = rendered.true_azimuth_deg
        err = azimuth_error_deg(est_az, true_az)
        errs.append(err)
        rows.append([i, f"{true_az:.6f}", f"{est_az:.6f}", f"{err:.6f}"])

    with _artifacts(args.out, conf) as art:
        io.write_csv(art.path("doa.csv"), ["scene", "true_az_deg", "est_az_deg", "err_deg"], rows)
    _summary("n_scenes", n_scenes)
    _summary("doa_err_deg", float(np.mean(errs)))
    _summary("doa_err_max_deg", float(np.max(errs)))


def cmd_train(args) -> None:
    conf = cfg.load_config(args.config)
    seed = cfg.effective_seed(conf, args.seed)
    scenario = cfg.build_scenario(conf, seed)
    policy, train = cfg.build_rl(conf, scenario, seed)
    conf.finish()

    with conf.blame(*cfg.mic_keys(conf)):  # the env scans SRP, which needs horizontal aperture
        trained, curve = train_tuning_policy([scenario], policy, seed=seed, **train)
    with _artifacts(args.out, conf) as art:
        io.write_csv(art.path("curve.csv"), list(curve[0]), (list(r.values()) for r in curve))
        io.write_policy_vector(art.path("policy.npc"), trained.theta)
    _summary("episodes", len(curve))
    _summary("final_mean_reward", curve[-1]["mean_reward"])
    tail = [float(r["mean_reward"]) for r in curve[-max(1, len(curve) // 4) :]]
    _summary("tail_mean_reward", float(np.mean(tail)))


def cmd_bench(args) -> None:
    conf = cfg.load_config(args.config)
    seed = cfg.effective_seed(conf, args.seed)
    durations = conf.get_floats("bench", "durations", (3.0, 7.0, 15.0, 25.0, 35.0))
    fs = conf.get_fs("bench", 16000.0)
    n_mics = conf.get_int("bench", "n_mics", 8)
    spec = cfg.build_bank(conf, "bench", fs)
    aec_taps = conf.get_int("bench", "aec_taps", 4)
    conf.finish()
    conf.check(n_mics >= 2, "bench", "n_mics", "must be at least 2")
    cfg.check_wav_rate(conf, "bench", fs, n_mics, f"[bench] n_mics ({n_mics})")
    conf.check(aec_taps >= 1, "bench", "aec_taps", "must be at least 1")
    if len(durations) == 0:
        raise DataError("bench corpus is empty: no durations configured")
    conf.check(all(d > 0 for d in durations), "bench", "durations", "must be positive")
    cfg.check_wav_duration(conf, "bench", "durations", durations, fs, n_mics)
    span = f"must each hold at least the filter-bank prototype span ({spec.n_taps} samples at [bench] fs)"
    conf.check(all(round(d * fs) >= spec.n_taps for d in durations), "bench", "durations", span)

    geom = circular_array(n_mics, 0.05, fs=fs)

    with _artifacts(args.out, conf) as art:
        corpus = []
        for i, d in enumerate(durations):
            rng = scene_rng(seed, i)
            n = int(round(d * fs))
            mics = rng.standard_normal((n_mics, n)) * 0.1
            far = rng.standard_normal(n) * 0.1
            mic_path = art.path(f"corpus/scene_{i:03d}.wav")
            far_path = art.path(f"corpus/far_{i:03d}.wav")
            io.write_wav(mic_path, fs, mics)
            io.write_wav(far_path, fs, far)
            corpus.append((mic_path, far_path))
        log.info("bench corpus: %d scenes", len(corpus))

        per_bucket: dict[str, list[float]] = {}
        for mic_path, far_path in corpus:
            fs_r, mics = io.read_wav(mic_path)
            _, far = io.read_wav(far_path)
            duration = mics.shape[1] / fs_r
            t0 = time.perf_counter()
            enhance(geom, spec, mics, 0.0, fb_analyze(spec, far), mu=0.5, aec_taps=aec_taps)
            elapsed = time.perf_counter() - t0
            rtf = measure_rtf(elapsed, duration)
            per_bucket.setdefault(_bucket(duration), []).append(rtf)
            log.debug("bench %s: %.1f s audio, rtf %.4f", mic_path, duration, rtf)

        rows = []
        for label in BENCH_BUCKETS:
            if label not in per_bucket:
                continue
            vals = np.asarray(per_bucket[label])
            rows.append([label, f"{vals.mean():.6f}", f"{np.percentile(vals, 95):.6f}"])
        io.write_csv(art.path("rtf.csv"), ["bucket", "mean_rtf", "p95_rtf"], rows)
    for label, mean_s, p95_s in rows:
        _summary(f"rtf_mean[{label}]", mean_s)


# === dispatch ===

_COMMANDS = {
    "wave": cmd_wave,
    "kzk": cmd_kzk,
    "scene": cmd_scene,
    "frontend": cmd_frontend,
    "localize": cmd_localize,
    "train": cmd_train,
    "bench": cmd_bench,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nars", description="nonlinear acoustics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("wave", "plane-wave harmonic growth"),
        ("kzk", "axisymmetric beam march"),
        ("scene", "render a synthetic acoustic scene"),
        ("frontend", "run the multi-mic enhancement pipeline"),
        ("localize", "DOA estimation over rendered scenes"),
        ("train", "PPO tuning of the front end"),
        ("bench", "real-time-factor benchmark"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", required=True, help="artifact output directory")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("NARS_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigurationError(f"NARS_LOG must be error, info, or debug, not {level_name!r}")
    logging.basicConfig(
        level=levels[level_name], stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _check_out(out: str) -> None:
    """A clean run replaces ``--out`` whole, so it must be new, empty or an earlier run's."""
    if not os.path.exists(out):
        return
    if not os.path.isdir(out):
        raise ConfigurationError(f"--out {out} exists and is not a directory")
    if os.listdir(out) and not os.path.isfile(os.path.join(out, "resolved.ini")):
        raise ConfigurationError(
            f"--out {out} is not empty and holds no resolved.ini of an earlier run; "
            "refusing to replace it"
        )


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        _check_out(args.out)
        _COMMANDS[args.command](args)
    except NarsError as e:
        log.error("%s", e)
        return e.exit_code
    except OSError as e:
        log.error("%s", e)
        return 2
    except MemoryError as e:
        log.error("out of memory, the configured sizes need more than this machine has: %s", e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
