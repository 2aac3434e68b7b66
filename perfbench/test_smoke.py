"""Smoke test of the benchmark itself: each workload at tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

It lives outside ``tests/``, so the package's own suite does not collect it.
Each tiny run must pass its checks with no failed call and emit every
metric that BENCHMARK.json names for its mode.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# printed by name in the human-readable table of an untraced run
NAMED = {
    "stream": ("stream_audio_s_per_s", "stream_rtf_p50", "stream_rtf_tail"),
    "tune": ("tune_steps_per_s",),
    "survey": ("survey_scenes_per_s", "survey_scene_ms_p50", "survey_scene_ms_tail"),
    "beam": ("beam_kzk_s", "beam_westervelt_s"),
}
# per-layer metrics the workload must move (non-zero in its traced run)
LAYERS = {
    "stream": ("frontend.aec_process.self_s", "frontend.fb_synthesize.self_s", "frontend.fb_analyze.self_s"),
    "tune": ("rl.TuningEnv.step.ms_p50", "rl.ppo_update.self_s", "frontend.srp_localize.calls"),
    "survey": ("scene.render_scene.self_s", "scene.image_source_rir.calls", "dsp.frac_delay_kernel.calls"),
    "beam": ("wavefield.kzk.step_ms_p50", "wavefield.solve_banded.self_s", "wavefield.westervelt.step_ms_p50"),
}


def run(script: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=300, cwd=cwd
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_workload_passes_and_emits_every_metric(workload, trace, kind):
    out = run(HERE / "run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in LAYERS[workload]), values
        if workload == "tune":  # the untraced and the traced call must agree
            assert "PASS  same seed gives the same curve" in out.stdout
    else:
        assert all(v > 0 for v in values.values()), values
        assert all(name in out.stdout for name in NAMED[workload])


def test_refuses_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run(tmp_path / HERE.name / "run.py", "--workload", "beam", "--seed", "1",
              "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
