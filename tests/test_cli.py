import csv
import logging
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nars import cli, errors
from nars.io import read_field_dump, read_policy_vector, read_wav
from nars.rl import PolicyParams, _unpack, theta_size
from nars.wavefield import harmonic_energy

WAVE_CFG = """\
[medium]
rho0 = 1000
c = 1500
beta = 3.5

[source]
p0 = 1e6
f0 = 1e6

[wave]
n_time = 512
n_steps = 200
sigma_end = 0.5
n_harm = 3
"""

KZK_CFG = """\
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
n_z = 40
dz = 0.002
n_harm = 4
source_radius = 0.004
"""

SCENE_CFG = """\
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
duration = 0.5
echo_pos = 5, 1, 1.3
echo_level_db = -6
"""

FRONTEND_CFG = SCENE_CFG + """
[frontend]
m_bands = 64
hop = 32
aec_taps = 4
mu = 0.5
"""

TRAIN_CFG = SCENE_CFG.replace("duration = 0.5", "duration = 0.4") + """
[rl]
budget = 1024
horizon = 16
epochs = 4
minibatch = 32
"""

BENCH_CFG = "[bench]\ndurations = 3\nfs = 16000\nn_mics = 4\n"


@pytest.fixture(autouse=True)
def quiet_logs(monkeypatch):
    monkeypatch.setenv("NARS_LOG", "error")


def run_cli(tmp_path, command, cfg_text, *extra):
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(cfg_text)
    out = tmp_path / f"out_{command}"
    code = cli.main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# === wave ===


def test_wave_produces_fubini_consistent_harmonics(tmp_path):
    code, out = run_cli(tmp_path, "wave", WAVE_CFG)
    assert code == 0
    assert (out / "waveform.csv").exists()
    assert (out / "resolved.ini").exists()
    rows = read_rows(out / "harmonics.csv")
    last = rows[-1]
    assert float(last["B2"]) == pytest.approx(0.229807, rel=2e-2)
    assert float(last["B1"]) == pytest.approx(0.969074, rel=2e-2)
    assert float(rows[0]["sigma"]) == 0.0
    assert float(last["sigma"]) == pytest.approx(0.5, rel=1e-12)  # sigma_end


def test_wave_linear_medium_has_no_harmonics(tmp_path):
    cfg = WAVE_CFG.replace("beta = 3.5", "beta = 0.0").replace(
        "sigma_end = 0.5", "z_max = 0.05"
    )
    code, out = run_cli(tmp_path, "wave", cfg)
    assert code == 0
    rows = read_rows(out / "harmonics.csv")
    assert max(float(r["B2"]) for r in rows) < 1e-6
    assert all(float(r["sigma"]) == 0.0 for r in rows)


def test_wave_past_shock_is_a_validity_failure(tmp_path):
    cfg = WAVE_CFG.replace("sigma_end = 0.5", "sigma_end = 1.05")
    code, out = run_cli(tmp_path, "wave", cfg)
    assert code == 4
    assert not (out / "harmonics.csv").exists()


# === kzk ===


def test_kzk_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "kzk", KZK_CFG)
    assert code == 0
    rows = read_rows(out / "axis.csv")
    assert len(rows) == 41  # n_z + 1 including the source plane
    field = read_field_dump(out / "field.nfd")
    assert field.amps.shape == (4, 96)
    assert field.z == pytest.approx(40 * 0.002)


def test_kzk_divergence_exits_three_with_one_log_line(tmp_path):
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "kzk.ini").read_text()
    cfg_text = shipped.replace("beta = 0.0", "beta = 3.5").replace("p0 = 1e5", "p0 = 1e9")
    proc, out = _run_module(tmp_path, "kzk", cfg_text)
    assert proc.returncode == 3
    _assert_one_error_line(proc)
    assert "nonlinearity substep" in proc.stderr
    assert not out.exists()


def test_kzk_under_resolved_step_exits_four_with_one_log_line(tmp_path):
    # dz = 0.5 is 15 Rayleigh distances; the march used to exit 0 with an
    # axis amplitude 200x the linear reference
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "kzk.ini").read_text()
    proc, out = _run_module(tmp_path, "kzk", shipped.replace("dz = 0.002", "dz = 0.5"))
    assert proc.returncode == 4
    _assert_one_error_line(proc)
    assert "z_R/8" in proc.stderr
    assert not out.exists()


# a Gaussian source (a = 4 mm, 1 MHz) marched to 3 Rayleigh distances in
# steps of z_R/32, past the plane-wave shock distance at p0 = 3e6
KZK_SHOCK_CFG = """\
[medium]
rho0 = 1000
c = 1500
beta = 3.5
delta = 4.5e-6

[source]
p0 = 3e6
f0 = 1e6

[kzk]
n_r = 200
dr = 0.0001
n_z = 96
dz = 0.0010471975511965976
n_harm = 8
source_radius = 0.004
"""


@pytest.mark.parametrize("n_harm", [8, 32])
def test_kzk_truncated_spectrum_exits_four_with_one_log_line(tmp_path, n_harm):
    # the march used to exit 0 with 4.2e-3 (8 harmonics) or 2.8e-4 (32) of its
    # energy in the top harmonic, 1.2 and 1.1 times the energy of the one below
    cfg_text = KZK_SHOCK_CFG.replace("n_harm = 8", f"n_harm = {n_harm}")
    proc, out = _run_module(tmp_path, "kzk", cfg_text)
    assert proc.returncode == 4
    _assert_one_error_line(proc)
    assert "truncated" in proc.stderr
    assert not out.exists()


def test_kzk_below_the_shock_passes_the_truncation_gate(tmp_path):
    code, out = run_cli(tmp_path, "kzk", KZK_SHOCK_CFG.replace("p0 = 3e6", "p0 = 1e6"))
    assert code == 0
    field = read_field_dump(out / "field.nfd")
    energy = harmonic_energy(field.amps, 1e-4)
    assert energy[-1] ** 2 < 1e-6 * energy[-2] * energy.sum()


def test_kzk_at_an_extreme_source_pressure_runs_its_gate_quietly(tmp_path):
    # p0 = 1e300 used to overflow the gate's |A_n|^2 and exit 0 past a NaN
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "kzk.ini").read_text()
    proc, out = _run_module(tmp_path, "kzk", shipped.replace("p0 = 1e5", "p0 = 1e300"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (out / "field.nfd").exists()


# === scene ===


def test_scene_artifacts_and_metrics(tmp_path):
    code, out = run_cli(tmp_path, "scene", SCENE_CFG)
    assert code == 0
    fs, mics = read_wav(out / "mics.wav")
    assert fs == 16000.0
    assert mics.shape == (8, 8000)
    _, ref = read_wav(out / "clean_ref.wav")
    assert ref.shape == (8000,)
    assert (out / "far_end.wav").exists()
    with open(out / "metrics.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == "scenario_id,si_snr_db,snr_gain_db,doa_err_deg"
    row = read_rows(out / "metrics.csv")[0]
    assert float(row["doa_err_deg"]) < 5.0


@pytest.mark.parametrize(
    "command, cfg_text, stage",
    [
        ("scene", SCENE_CFG, r"scene: render \d+\.\d{3} s, including first-call start-up"),
        ("frontend", FRONTEND_CFG, r"frontend: SRP scan and enhance \d+\.\d{3} s"),
    ],
    ids=["scene", "frontend"],
)
def test_stage_seconds_go_to_the_debug_log_not_to_metrics(tmp_path, command, cfg_text, stage):
    proc, out = _run_module(tmp_path, command, cfg_text, log="debug")
    assert proc.returncode == 0, proc.stderr
    timed = [l for l in proc.stderr.splitlines() if re.search(r"\d\.\d+ s\b", l)]
    assert len(timed) == 1, proc.stderr
    assert re.fullmatch(rf"DEBUG nars: {stage}", timed[0])
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "scenario_id,si_snr_db,snr_gain_db,doa_err_deg"
    assert "rtf" not in proc.stdout


# === frontend ===


def test_frontend_improves_over_raw_mic(tmp_path):
    code, out = run_cli(tmp_path, "frontend", FRONTEND_CFG)
    assert code == 0
    assert (out / "enhanced.wav").exists()
    assert (out / "erle.csv").exists()
    srp = read_rows(out / "srp.csv")
    assert len(srp) > 1 and "power" in srp[0]
    row = read_rows(out / "metrics.csv")[0]
    assert float(row["snr_gain_db"]) > 0.0


def test_frontend_erle_trace_covers_the_signal(tmp_path):
    code, out = run_cli(tmp_path, "frontend", FRONTEND_CFG)
    assert code == 0
    rows = read_rows(out / "erle.csv")
    assert len(rows) == 8000 // 32  # one row per analysis hop
    assert all(np.isfinite(float(r["erle_db"])) for r in rows)


# === localize ===


LOCALIZE_CFG = """\
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
n_scenes = 6
"""

LOCALIZE_ONE_MIC_CFG = LOCALIZE_CFG.replace(
    "[array]\ncenter = 3, 2.5, 1.2\nradius = 0.05\nn_mics = 8", "[mics]\n0 = 3, 2.5, 1.2"
)


def test_localize_known_source(tmp_path):
    az = 37.0
    px = 3.0 + 1.8 * np.cos(np.radians(az))
    py = 2.5 + 1.8 * np.sin(np.radians(az))
    cfg = LOCALIZE_CFG.replace("n_scenes = 6", "n_scenes = 1").replace(
        "[scene]", f"[scene]\nsource_pos = {px:.6f}, {py:.6f}, 1.2"
    )
    code, out = run_cli(tmp_path, "localize", cfg)
    assert code == 0
    row = read_rows(out / "doa.csv")[0]
    assert float(row["true_az_deg"]) == pytest.approx(az, abs=1e-3)
    assert float(row["err_deg"]) <= 1.0


# === train ===


def test_train_writes_curve_and_loadable_policy(tmp_path):
    code, out = run_cli(tmp_path, "train", TRAIN_CFG)
    assert code == 0
    rows = read_rows(out / "curve.csv")
    assert len(rows) == 1024 // 16
    assert rows[0]["episode"] == "0"
    assert list(rows[0]) == [
        "episode", "mean_reward", "clip_fraction", "mean_ratio", "surrogate", "value_loss", "approx_kl", "entropy"
    ]
    theta = read_policy_vector(out / "policy.npc")
    assert theta.shape == (theta_size(15, 4, 24, 16),)
    # the last update's entropy is the trained policy's: it depends only on log_std
    log_std = _unpack(PolicyParams(theta=theta, obs_dim=15, act_dim=4, hidden=24, v_hidden=16))["log_std"]
    assert rows[-1]["entropy"] == f"{np.sum(log_std) + 2 * (1 + np.log(2 * np.pi)):.6f}"


def test_train_that_diverges_exits_three_with_one_log_line(tmp_path):
    # lr 1e300 throws the first Adam step to ~1e300; the next gradient is not finite
    proc, out = _run_module(tmp_path, "train", TRAIN_CFG + "lr = 1e300\n")
    assert proc.returncode == 3
    _assert_one_error_line(proc)
    assert "non-finite gradient" in proc.stderr
    assert not out.exists()


def test_train_logs_its_stage_times_at_debug(tmp_path):
    proc, out = _run_module(tmp_path, "train", TRAIN_CFG, log="debug")
    assert proc.returncode == 0, proc.stderr
    stages = [l for l in proc.stderr.splitlines() if "rollouts" in l]
    assert len(stages) == 1, proc.stderr
    assert re.fullmatch(r"DEBUG nars\.rl: train: 64 episodes; rollouts \d+\.\d{3} s, PPO updates \d+\.\d{3} s", stages[0])
    assert "rollouts" not in (out / "curve.csv").read_text()  # wall-clock time stays out of artifacts


# === bench ===


def test_bench_single_bucket(tmp_path):
    code, out = run_cli(tmp_path, "bench", BENCH_CFG)
    assert code == 0
    rows = read_rows(out / "rtf.csv")
    assert len(rows) == 1
    assert rows[0]["bucket"] == "≤5 s"
    assert float(rows[0]["mean_rtf"]) > 0.0


def test_bench_empty_corpus_is_a_data_error(tmp_path):
    # a bare comma parses to zero durations (empty value would mean "default")
    code, _ = run_cli(tmp_path, "bench", "[bench]\ndurations = ,\n")
    assert code == 2


# === config and process behavior ===


def test_malformed_config_exits_one_without_artifacts(tmp_path):
    no_fs = SCENE_CFG.replace("fs = 16000\n", "")
    code, out = run_cli(tmp_path, "scene", no_fs)
    assert code == 1
    assert not out.exists() or not any(out.iterdir())


def test_unparseable_value_exits_one(tmp_path):
    code, _ = run_cli(tmp_path, "scene", "[room]\ndims = 6 5\n")
    assert code == 1


@pytest.mark.parametrize(
    "command, cfg_text",
    [("wave", WAVE_CFG + "\n[medium]\nbogus = 1\n"), ("kzk", KZK_CFG + "strang = true\n")],
    ids=["wave-medium-bogus", "kzk-strang"],
)
def test_unknown_key_is_rejected(tmp_path, command, cfg_text):
    code, _ = run_cli(tmp_path, command, cfg_text)
    assert code == 1


def test_missing_config_file(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["wave", "--config", str(tmp_path / "nope.ini"), "--out", str(out)])
    assert code == 1


def test_seed_override_lands_in_resolved_config(tmp_path):
    code, out = run_cli(tmp_path, "scene", SCENE_CFG, "--seed", "99")
    assert code == 0
    text = (out / "resolved.ini").read_text()
    assert "seed = 99" in text


def test_resolved_config_reproduces_the_run(tmp_path):
    code_a, out_a = run_cli(tmp_path, "scene", SCENE_CFG)
    cfg_b = tmp_path / "resolved_rerun.ini"
    cfg_b.write_text((out_a / "resolved.ini").read_text())
    out_b = tmp_path / "out_rerun"
    code_b = cli.main(["scene", "--config", str(cfg_b), "--out", str(out_b)])
    assert code_a == code_b == 0
    for name in ("mics.wav", "metrics.csv", "resolved.ini"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_invalid_log_level_exits_one(tmp_path, monkeypatch):
    monkeypatch.setenv("NARS_LOG", "chatty")
    cfg = tmp_path / "w.ini"
    cfg.write_text(WAVE_CFG)
    code = cli.main(["wave", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1


def _run_module(tmp_path, command, cfg_text, *extra, log="error"):
    """``python -m nars.cli`` in a fresh process, so stderr holds every log line."""
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "nars.cli", command, "--config", str(cfg), "--out", str(out), *extra],
        capture_output=True, text=True, env=_subprocess_env(log), timeout=120,
    )
    return proc, out


def _subprocess_env(log="error") -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, NARS_LOG=log)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


KZK_KEYS = "[kzk] n_r/dr/n_z/dz/n_harm/source_radius"
WAVE_KEYS = "[wave] n_time/n_steps/n_harm/sigma_end"


def _assert_one_error_line(proc):
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR"), proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def _position_cases():
    """(id, command, key, config): a mic outside the room, from ``[array]`` or ``[mics]``, and
    an echo loudspeaker on mic 0, for every command that reads them."""
    array = "[array]\ncenter = 3, 2.5, 1.2\nradius = 0.05\nn_mics = 8"
    mics = "[mics]\n0 = 3.05, 2.5, 1.2\n1 = 2.95, 2.5, 1.2\n2 = 3, 2.5, 3.5"
    cases = []
    for command, base in (
        ("scene", SCENE_CFG), ("frontend", FRONTEND_CFG), ("localize", LOCALIZE_CFG), ("train", TRAIN_CFG)
    ):
        cases.append((
            f"{command}-array-outside-room", command,
            f"{command}.ini: [array] center/radius must place every mic strictly inside the room",
            base.replace(array, array.replace("1.2", "3.2")),
        ))
        cases.append((
            f"{command}-mics-outside-room", command, f"{command}.ini: [mics] 2 must lie strictly inside the room",
            base.replace(array, mics),
        ))
        if "echo_pos" in base:
            cases.append((
                f"{command}-echo_pos-on-mic-0", command,
                f"{command}.ini: [scene] echo_pos must not coincide with a microphone",
                base.replace("echo_pos = 5, 1, 1.3", "echo_pos = 3.05, 2.5, 1.2"),
            ))
    return cases


POSITION_CASES = _position_cases()


def _duration_cases():
    """(id, command, key, config): durations whose samples would not fit a WAV file of the
    scene's mics (8 of them, so at most 134217726 samples), or a bench stream shorter than the
    filter-bank prototype span, for every command that reads them."""
    limit = "wav-limit-plus-one"  # 134217727 samples at 16 kHz
    cases = [
        (f"{command}-duration-{value if value == '1e300' else limit}", command,
         f"{command}.ini: [scene] duration must give at most 134217726 samples",
         re.sub(r"duration = [\d.]+", f"duration = {value}", base))
        for command, base in (
            ("scene", SCENE_CFG), ("frontend", FRONTEND_CFG), ("localize", LOCALIZE_CFG), ("train", TRAIN_CFG)
        )
        for value in ("1e300", "8388.6079375")
    ]
    bench = "bench.ini: [bench] durations must"
    return cases + [
        ("bench-durations-1e300", "bench", f"{bench} give at most 268435452 samples",
         BENCH_CFG.replace("durations = 3", "durations = 3, 1e300")),
        ("bench-durations-below-prototype-span", "bench", f"{bench} each hold at least the filter-bank prototype span",
         BENCH_CFG.replace("durations = 3", "durations = 3, 0.01")),
        ("frontend-duration-below-prototype-span", "frontend",
         "frontend.ini: [scene] duration must hold at least the filter-bank prototype span at [room] fs "
         "(8 * [frontend] m_bands = 512 samples)",
         FRONTEND_CFG.replace("duration = 0.5", "duration = 0.01")),
    ]


DURATION_CASES = _duration_cases()


def _wav_rate_cases():
    """(id, command, key, config): a rate whose WAV byte rate, fs * 4 * channels, overflows
    32 bits for the command's multichannel file, though a mono file at it would fit, and
    one at which a mono file overflows too."""
    huge = "fs = 200000000"
    bench = BENCH_CFG.replace("durations = 3", "durations = 1e-5").replace("n_mics = 4", "n_mics = 8")
    cases = [(
        "bench-fs-byte-rate", "bench",
        "bench.ini: [bench] fs must keep the WAV byte rate fs * 4 * [bench] n_mics (8) within 4294967295",
        bench.replace("fs = 16000", huge),
    ), (
        "bench-fs-mono-byte-rate", "bench",
        "bench.ini: [bench] fs must be a whole number of Hz whose mono WAV byte rate, fs * 4, is at most",
        bench.replace("fs = 16000", "fs = 2000000000"),
    )]
    for command, base in (("scene", SCENE_CFG), ("frontend", FRONTEND_CFG), ("train", TRAIN_CFG)):
        cases.append((
            f"{command}-fs-byte-rate", command,
            f"{command}.ini: [room] fs must keep the WAV byte rate fs * 4 * 8 mics within 4294967295",
            re.sub(r"duration = [\d.]+", "duration = 1e-5", base).replace("fs = 16000", huge),
        ))
    return cases


WAV_RATE_CASES = _wav_rate_cases()


@pytest.mark.parametrize(
    "command, key, cfg_text",
    [
        ("train", "m_bands", TRAIN_CFG + "m_bands = 36\n"),
        ("frontend", "snr_db", FRONTEND_CFG.replace("snr_db = 10", "snr_db = nan")),
        ("frontend", "aec_taps", FRONTEND_CFG.replace("aec_taps = 4", "aec_taps = 0")),
        ("frontend", "aec_taps", FRONTEND_CFG.replace("aec_taps = 4", "aec_taps = -2")),
        ("frontend", "mu", FRONTEND_CFG.replace("mu = 0.5", "mu = 3")),
        ("bench", "aec_taps", BENCH_CFG + "aec_taps = 0\n"),
        ("bench", "n_mics", BENCH_CFG.replace("n_mics = 4", "n_mics = 1")),
        ("bench", "fs", BENCH_CFG.replace("fs = 16000", "fs = 16000.7")),
        ("scene", "fs", SCENE_CFG.replace("fs = 16000", "fs = 16000.7")),
        ("frontend", "n_mics", FRONTEND_CFG.replace("n_mics = 8", "n_mics = 1")),
        ("localize", "[mics]", LOCALIZE_ONE_MIC_CFG),
        ("localize", "[mics] keys", LOCALIZE_ONE_MIC_CFG.replace("2.5, 1.2", "2.5, 1.2\n² = 3.1, 2.5, 1.2")),
        ("frontend", "[frontend] m_bands/hop", FRONTEND_CFG.replace("m_bands = 64", "m_bands = 60")),
        ("bench", "[bench] m_bands/hop", BENCH_CFG + "hop = 0\n"),
        ("scene", "[run] seed", SCENE_CFG.replace("seed = 42", "seed = -1")),
        ("frontend", "[run] seed", FRONTEND_CFG.replace("seed = 42", "seed = -1")),
        ("localize", "[run] seed", LOCALIZE_CFG.replace("seed = 7", "seed = -1")),
        ("train", "[run] seed", TRAIN_CFG.replace("seed = 42", "seed = -1")),
        ("wave", "[wave] n_steps", WAVE_CFG.replace("n_steps = 200", "n_steps = 0")),
        ("wave", "[wave] sigma_end", WAVE_CFG.replace("c = 1500", "c = 1e-300")),
        ("wave", "[wave] sigma_end", WAVE_CFG.replace("beta = 3.5", "beta = 1e300")),
        ("kzk", KZK_KEYS, KZK_CFG.replace("n_r = 96", "n_r = 0")),
        ("kzk", KZK_KEYS, KZK_CFG.replace("dr = 0.0002", "dr = 1e-300")),
        ("kzk", KZK_KEYS, KZK_CFG.replace("n_harm = 4", "n_harm = 1")),
        ("wave", WAVE_KEYS, WAVE_CFG.replace("n_time = 512", "n_time = 100")),
        ("wave", WAVE_KEYS, WAVE_CFG.replace("n_time = 512", "n_time = 64").replace("n_harm = 3", "n_harm = 8")),
        ("wave", "[wave] z_max or sigma_end", WAVE_CFG + "z_max = 0.1\n"),
        ("localize", "[scene] source_pos", LOCALIZE_CFG.replace("[scene]", "[scene]\nsource_pos = 4, 3, 1.2")),
        ("localize", "[room] dims", LOCALIZE_CFG.replace("dims = 6, 5, 3", "dims = 6, 5, 0.9")),
        ("localize", "localize.ini: [localize] n_scenes", LOCALIZE_CFG.replace("n_scenes = 6", "n_scenes = 0")),
        ("bench", "bench.ini: [bench] durations", BENCH_CFG.replace("durations = 3", "durations = 3, -1")),
        ("localize", "localize.ini: [scene] source_pos must lie strictly inside the room", LOCALIZE_CFG.replace(
            "[scene]", "[scene]\nsource_pos = 100, 3, 1.2").replace("n_scenes = 6", "n_scenes = 1")),
        ("scene", "scene.ini: [scene] source_pos must lie strictly inside the room",
         SCENE_CFG.replace("source_pos = 1.5, 3.5, 1.5", "source_pos = 1.5, 3.5, 3")),
        ("frontend", "frontend.ini: [scene] echo_pos must lie strictly inside the room",
         FRONTEND_CFG.replace("echo_pos = 5, 1, 1.3", "echo_pos = 5, -1, 1.3")),
        ("localize", "localize.ini: [scene] source_pos must lie farther than the array radius", LOCALIZE_CFG.replace(
            "[scene]", "[scene]\nsource_pos = 3, 2.5, 1.2").replace("n_scenes = 6", "n_scenes = 1")),
        ("scene", "scene.ini: [scene] source_pos must lie farther than the array radius",
         SCENE_CFG.replace("source_pos = 1.5, 3.5, 1.5", "source_pos = 3.03, 2.5, 2.5")),
        ("wave", "wave.ini: [wave] n_harm must be at least 1", WAVE_CFG.replace("n_harm = 3", "n_harm = 0")),
        *(case[1:] for case in DURATION_CASES),
        *(case[1:] for case in WAV_RATE_CASES),
        *(case[1:] for case in POSITION_CASES),
    ],
    ids=[
        "train-m_bands-36",
        "frontend-snr_db-nan",
        "frontend-aec_taps-0",
        "frontend-aec_taps--2",
        "frontend-mu-3",
        "bench-aec_taps-0",
        "bench-n_mics-1",
        "bench-fs-16000.7",
        "scene-fs-16000.7",
        "frontend-n_mics-1",
        "localize-mics-one-row",
        "localize-mics-superscript-index",
        "frontend-m_bands-60",
        "bench-hop-0",
        "scene-seed--1",
        "frontend-seed--1",
        "localize-seed--1",
        "train-seed--1",
        "wave-n_steps-0",
        "wave-zero-shock-distance-c-1e-300",
        "wave-zero-shock-distance-beta-1e300",
        "kzk-n_r-0",
        "kzk-dr-1e-300",
        "kzk-n_harm-1",
        "wave-n_time-100",
        "wave-n_time-64-n_harm-8",
        "wave-both-extents",
        "localize-source_pos-many-scenes",
        "localize-room-below-margin",
        "localize-n_scenes-0",
        "bench-durations-negative",
        "localize-source_pos-outside-room",
        "scene-source_pos-outside-room",
        "frontend-echo_pos-outside-room",
        "localize-source_pos-at-array-centre",
        "scene-source_pos-within-array-radius",
        "wave-n_harm-0",
        *(case[0] for case in DURATION_CASES),
        *(case[0] for case in WAV_RATE_CASES),
        *(case[0] for case in POSITION_CASES),
    ],
)
def test_bad_config_value_exits_one_with_one_log_line(tmp_path, command, key, cfg_text):
    proc, out = _run_module(tmp_path, command, cfg_text)
    assert proc.returncode == 1
    _assert_one_error_line(proc)
    assert key in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, cfg_text",
    [
        ("localize", "localize.ini: [array] radius", LOCALIZE_CFG.replace("radius = 0.05", "radius = 1e-300")),
        ("frontend", "frontend.ini: [array] radius", FRONTEND_CFG.replace("radius = 0.05", "radius = 1e-300")),
        ("scene", "scene.ini: [array] radius", SCENE_CFG.replace("radius = 0.05", "radius = 1e-300")),
        ("localize", "localize.ini: [mics] 0/1/2", LOCALIZE_ONE_MIC_CFG.replace(
            "0 = 3, 2.5, 1.2", "0 = 3, 2.5, 0.5\n1 = 3, 2.5, 1.2\n2 = 3, 2.5, 1.9")),
    ],
    ids=["localize-radius-1e-300", "frontend-radius-1e-300", "scene-radius-1e-300", "localize-vertical-line"],
)
def test_array_with_no_horizontal_aperture_exits_one_naming_the_keys(tmp_path, command, key, cfg_text):
    """Mics that round onto one vertical axis steer every azimuth alike: no DOA, no output."""
    proc, out = _run_module(tmp_path, command, cfg_text)
    assert proc.returncode == 1, proc.stderr
    _assert_one_error_line(proc)
    assert key in proc.stderr and "horizontal aperture" in proc.stderr
    assert not out.exists()


def test_negative_seed_flag_exits_one_with_one_log_line(tmp_path):
    proc, out = _run_module(tmp_path, "scene", SCENE_CFG, "--seed", "-1")
    assert proc.returncode == 1
    _assert_one_error_line(proc)
    assert "--seed" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, cfg_text",
    [
        ("scene", "snr_db", SCENE_CFG.replace("snr_db = 10", "snr_db = 1e300")),
        ("scene", "snr_db", SCENE_CFG.replace("snr_db = 10", "snr_db = -1e300")),
        ("scene", "echo_level_db", SCENE_CFG.replace("echo_level_db = -6", "echo_level_db = 1e300")),
        ("scene", "duration", SCENE_CFG.replace("duration = 0.5", "duration = 1e-300")),
        ("scene", "duration", SCENE_CFG.replace("duration = 0.5", "duration = 6.25e-5")),
        ("wave", "rho0 c^3", WAVE_CFG.replace("c = 1500", "c = 1e300")),
    ],
    ids=["snr_db-1e300", "snr_db--1e300", "echo_level_db-1e300", "duration-1e-300", "duration-one-sample", "wave-c-1e300"],
)
def test_out_of_range_scene_and_medium_values_exit_two_with_one_log_line(tmp_path, command, key, cfg_text):
    proc, out = _run_module(tmp_path, command, cfg_text)
    assert proc.returncode == 2, proc.stderr
    _assert_one_error_line(proc)
    assert key in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("chunk_seconds", "0"),
        ("chunk_seconds", "-0.2"),
        ("aec_taps", "0"),
        ("minibatch", "0"),
        ("episodes_per_update", "0"),
        ("hidden", "0"),
        ("v_hidden", "0"),
        ("epochs", "0"),
        ("horizon", "0"),
        ("budget", "10"),
        ("lr", "-1"),
        ("clip_eps", "1.5"),
        ("gamma", "1.5"),
        ("lam", "-0.1"),
        ("init_mu", "3"),
        ("w_quality", "0.5"),
        ("w_latency", "0.1"),
        ("w_energy", "1.5"),
        ("chunk_seconds", "1e-5"),
        ("chunk_seconds", "0.0001"),
        ("init_mu", "1.5"),
        ("init_log_std", "20"),
        ("init_log_std", "1000"),
        ("init_log_std", "-6"),
    ],
)
def test_bad_rl_value_exits_one_before_any_output(tmp_path, key, value):
    kept = [l for l in TRAIN_CFG.splitlines() if not l.startswith(key + " ")]
    proc, out = _run_module(tmp_path, "train", "\n".join(kept + [f"{key} = {value}", ""]))
    assert proc.returncode == 1, proc.stderr
    _assert_one_error_line(proc)
    assert key in proc.stderr
    assert not out.exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _fuzz_cases(commands):
    """(command, line index, value) for every key line of the commands' configs."""
    for command in commands:
        lines = (CONFIGS / f"{command}.ini").read_text().splitlines()
        for i, line in enumerate(lines):
            if "=" in line:
                for value in ("nan", "0", "-1", "1e300", "1e-300"):
                    yield pytest.param(command, i, value, id=f"{command}-{line.split()[0]}-{value}")


def _fuzz(tmp_path, caplog, command, line, value) -> int:
    """Run ``command`` on its config with one value replaced; any failure is one log line and no output."""
    lines = (CONFIGS / f"{command}.ini").read_text().splitlines()
    lines[line] = f"{lines[line].split('=')[0]}= {value}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, command, "\n".join(lines) + "\n")
    assert [str(w.message) for w in caught] == []
    assert len([r for r in caplog.records if r.levelno >= logging.ERROR]) == (code != 0)
    if code != 0:
        assert not out.exists()
    return code


@pytest.mark.parametrize("command, line, value", _fuzz_cases(("wave", "kzk")))
def test_solver_config_fuzz_fails_cleanly(tmp_path, caplog, command, line, value):
    assert _fuzz(tmp_path, caplog, command, line, value) in range(5)


@pytest.mark.parametrize("command, line, value", _fuzz_cases(("localize", "frontend", "scene")))
def test_srp_config_fuzz_fails_cleanly(tmp_path, caplog, command, line, value):
    """The commands that scan SRP either run or refuse the config or its data."""
    assert _fuzz(tmp_path, caplog, command, line, value) in (0, 1, 2)


def test_out_of_memory_exits_one_with_one_log_line(tmp_path, caplog, monkeypatch):
    """numpy's allocation failure is a ``MemoryError``; raised here without allocating."""

    def render_scene(scenario):
        raise MemoryError("Unable to allocate 32.0 GiB for an array with shape (8, 536870912)")

    monkeypatch.setattr(cli, "render_scene", render_scene)
    code, out = run_cli(tmp_path, "scene", SCENE_CFG)
    assert code == 1
    errors_logged = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors_logged) == 1 and "out of memory" in errors_logged[0] and "32.0 GiB" in errors_logged[0]
    assert not out.exists()


def test_exit_code_taxonomy():
    assert errors.ConfigurationError("x").exit_code == 1
    assert errors.DataError("x").exit_code == 2
    assert errors.DomainError("x").exit_code == 2
    assert errors.FramingError("x").exit_code == 2
    assert errors.NoSourceError("x").exit_code == 2
    assert errors.NumericalError("x").exit_code == 3
    assert errors.DivergenceError("x").exit_code == 3
    assert errors.ValidityError("x").exit_code == 4


def test_readme_commands_parse_and_name_existing_configs():
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```sh\n(.*?)```", (root / "README.md").read_text(), flags=re.S)
    commands = [ln for b in blocks for ln in b.splitlines() if ln.startswith("nars ")]
    assert {line.split()[1] for line in commands} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for line in commands:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert (root / args.config).is_file(), line


def test_chunk_longer_than_the_scene_names_both_keys(tmp_path):
    proc, out = _run_module(tmp_path, "train", TRAIN_CFG + "chunk_seconds = 1.0\n")
    assert proc.returncode == 1, proc.stderr
    _assert_one_error_line(proc)
    assert "[rl] chunk_seconds" in proc.stderr and "[scene] duration" in proc.stderr
    assert not out.exists()


# === artifact directories ===


def test_rerun_into_the_same_out_leaves_only_its_own_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "scene", SCENE_CFG)
    assert code == 0 and (out / "far_end.wav").exists()
    no_echo = "\n".join(l for l in SCENE_CFG.splitlines() if not l.startswith("echo_"))
    assert run_cli(tmp_path, "scene", no_echo)[0] == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "clean_ref.wav", "metrics.csv", "mics.wav", "resolved.ini"
    ]
    assert "echo_pos" not in (out / "resolved.ini").read_text()


@pytest.mark.parametrize("kind", ["directory", "file"])
def test_out_that_is_no_earlier_run_is_refused_and_left_alone(tmp_path, kind):
    out = tmp_path / "out_scene"
    if kind == "directory":
        out.mkdir()
        (out / "notes.txt").write_text("not a nars run")
    else:
        out.write_text("not a directory")
    assert run_cli(tmp_path, "scene", SCENE_CFG)[0] == 1
    if kind == "directory":
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
    else:
        assert out.read_text() == "not a directory"


# === import path ===

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_subprocess_env(), cwd=cwd, timeout=120,
    )


def test_import_nars_cli_loads_no_scipy(tmp_path):
    proc = _python(f"import sys\nimport nars.cli\nprint({SCIPY_LOADED})", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["wave", "kzk", "scene", "frontend", "localize", "train", "bench"])
def test_audio_commands_run_without_loading_scipy(tmp_path, command):
    # the two solver commands too: no nars command loads scipy
    root = Path(__file__).resolve().parents[1]
    texts = {
        "wave": (root / "configs" / "wave.ini").read_text(),
        "kzk": (root / "configs" / "kzk.ini").read_text(),
        "scene": (root / "configs" / "scene.ini").read_text(),  # has an echo path
        "frontend": FRONTEND_CFG,
        "localize": LOCALIZE_CFG,
        "train": TRAIN_CFG,
        "bench": BENCH_CFG,
    }
    (tmp_path / "run.ini").write_text(texts[command])
    proc = _python(
        "import sys\nfrom nars import cli\n"
        f"code = cli.main([{command!r}, '--config', 'run.ini', '--out', 'out'])\n"
        f"print(code, {SCIPY_LOADED})",
        tmp_path,
    )
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
    wavs = sorted(p.name for p in (tmp_path / "out").rglob("*.wav"))
    expect = {
        "scene": ["clean_ref.wav", "far_end.wav", "mics.wav"],
        "frontend": ["enhanced.wav"],
        "bench": ["far_000.wav", "scene_000.wav"],
    }
    assert wavs == expect.get(command, [])
