"""The benchmark's calls into ``nars`` still run and pass their own checks.

``perfbench/workloads.py`` drives ``TuningEnv``, ``train_tuning_policy``,
``render_scene``, the front-end stages and the wavefield solvers through
their public calls. An API change in ``src/`` would otherwise surface only
when the benchmark runs; this test makes one op of the tiny ``tune``,
``stream``, ``survey`` and ``beam`` workloads and changes nothing under
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["Tune", "Stream", "Survey", "Beam"])
def test_tiny_workload_op_passes_every_check(monkeypatch, name):
    workload = getattr(load_workloads(monkeypatch), name)(1, tiny=True)
    op = workload.op(0)
    verdicts = workload.checks([op])
    assert op.ok
    assert verdicts
    assert [(c.name, c.detail) for c in verdicts if not c.passed] == []
