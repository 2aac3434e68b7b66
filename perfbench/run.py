"""Run one benchmark workload in this fresh process and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy. One client
calls the package in a closed loop for ``--seconds`` (whole rounds of the
workload's inputs, at least ``min_ops`` calls). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs a fixed number of calls, each once
untraced and then once traced, and reports the per-layer metrics and the
tracing overhead. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()  # the set-up clock starts before numpy is imported

# numpy/BLAS pools may use at most the CPUs this process may run on
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= _NPROC):
        os.environ[_var] = str(_NPROC)

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# cold import order: each entry is timed on its own, so a module's figure
# is what it adds on top of the ones before it
IMPORT_ORDER = (
    "numpy", "nars.errors", "nars.dsp", "nars.scene", "nars.frontend",
    "nars.wavefield", "nars.io", "nars.rl", "nars.config", "nars.cli",
)
EXTRA_SETUPS = 2  # fresh interpreters that repeat the set-up for the setup_s median

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

LAYER_METRICS = (
    ("frontend.aec_process.self_s", "s"),
    ("frontend.aec_process.frames", "count"),
    ("frontend.fb_synthesize.self_s", "s"),
    ("frontend.fb_analyze.self_s", "s"),
    ("frontend.srp_localize.self_s", "s"),
    ("frontend.srp_localize.calls", "count"),
    ("frontend.srp_localize.distinct_ratio", "ratio"),
    ("frontend.beamform_das.self_s", "s"),
    ("frontend.beamform_das.calls", "count"),
    ("frontend.FilterBankSpec.self_s", "s"),
    ("dsp.frac_delay_kernel.calls", "count"),
    ("dsp.frac_delay_kernel.distinct_ratio", "ratio"),
    ("dsp.frac_delay_kernel.self_s", "s"),
    ("dsp.delay_signal.self_s", "s"),
    ("scene.render_scene.self_s", "s"),
    ("scene.image_source_rir.self_s", "s"),
    ("scene.image_source_rir.calls", "count"),
    ("scene.synth_noise.self_s", "s"),
    ("rl.TuningEnv.init.self_s", "s"),
    ("rl.TuningEnv.step.ms_p50", "ms"),
    ("rl.TuningEnv.step.ms_tail", "ms"),
    ("rl.TuningEnv.step.tail_pct", "%"),
    ("rl.TuningEnv.step.samples", "count"),
    ("rl.train_tuning_policy.self_s", "s"),
    ("rl.ppo_update.self_s", "s"),
    ("rl.objective_and_grad.calls", "count"),
    ("rl.objective_and_grad.self_s", "s"),
    ("wavefield.simulate_kzk_axisym.self_s", "s"),
    ("wavefield.solve_banded.self_s", "s"),
    ("wavefield.kzk.step_ms_p50", "ms"),
    ("wavefield.simulate_westervelt_plane.self_s", "s"),
    ("wavefield.harmonic_spectrum.self_s", "s"),
    ("wavefield.westervelt.step_ms_p50", "ms"),
    ("setup.import_s", "s"),
    *((f"setup.import.{m.removeprefix('nars.')}_s", "s") for m in IMPORT_ORDER),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("stream", "tune", "survey", "beam"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    p.add_argument("--setup-only", action="store_true", help="print one set-up time and exit")
    return p.parse_args(argv)


def _import_nars() -> dict[str, float]:
    times = {}
    for name in IMPORT_ORDER:
        t = time.perf_counter()
        importlib.import_module(name)
        times[name] = time.perf_counter() - t
    return times


def _fresh_setup(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _call(wl, i, Op):
    try:
        return wl.op(i)
    except Exception:  # a failed call is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return Op(0.0, 0.0, False)


def _run_for(wl, seconds, Op):
    """Closed loop for at least ``seconds``, ending on a whole round of inputs."""
    ops, start = [], time.perf_counter()
    while (
        len(ops) < wl.min_ops
        or len(ops) % wl.round_ops
        or time.perf_counter() - start < seconds
    ):
        ops.append(_call(wl, len(ops), Op))
    return ops


def _run_pairs(wl, n, Op, tracer, extra_modules):
    """Each call untraced, then again traced, so that slow drift in machine
    speed falls on both halves of a pair alike."""
    untraced, traced = [], []
    for i in range(n):
        untraced.append(_call(wl, i, Op))
        tracer.op = i
        tracer.install(extra_modules)
        try:
            traced.append(_call(wl, i, Op))
        finally:
            tracer.uninstall()
    return untraced, traced


def _layer_metrics(tracer, traced, untraced, import_s) -> dict[str, float]:
    from workloads import tail

    m = {name: 0.0 for name, _ in LAYER_METRICS}
    for name, calls in tracer.calls.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = tracer.self_s[name]
        m[f"{name}.distinct_ratio"] = tracer.distinct_ratio(name)
    m["frontend.aec_process.frames"] = tracer.work["frontend.aec_process"]
    steps = [1000.0 * d for d in tracer.durations["rl.TuningEnv.step"]]
    if steps:
        m["rl.TuningEnv.step.ms_p50"] = statistics.median(steps)
        m["rl.TuningEnv.step.samples"] = len(steps)
        t = tail(steps)
        if t is not None:
            m["rl.TuningEnv.step.ms_tail"], m["rl.TuningEnv.step.tail_pct"], _ = t
    for key, name in (("kzk_steps", "wavefield.kzk"), ("west_steps", "wavefield.westervelt")):
        steps = [1000.0 * s for o in traced for s in o.detail.get(key, ())]
        if steps:
            m[f"{name}.step_ms_p50"] = statistics.median(steps)
    m["setup.import_s"] = sum(import_s.values())
    for mod, secs in import_s.items():
        m[f"setup.import.{mod.removeprefix('nars.')}_s"] = secs
    base = sum(o.seconds for o in untraced)
    m["trace.overhead_s"] = sum(o.seconds for o in traced) - base
    m["trace.overhead_share"] = m["trace.overhead_s"] / base if base > 0 else 0.0
    known = {name for name, _ in LAYER_METRICS}
    return {k: float(v) for k, v in m.items() if k in known}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "nars" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'nars'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_s = _import_nars()

    import workloads
    from workloads import Op

    tiny = args.size == "tiny"
    tracer = None
    if args.trace and not args.setup_only:
        from tracer import Tracer

        tracer = Tracer()  # the set-up is traced too, as op -1
        tracer.install([workloads])
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tiny=tiny)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setups = [time.perf_counter() - T0]
    if args.setup_only:
        print(repr(setups[0]))
        return 0
    wl.warmup()

    if tracer is not None:
        n = wl.round_ops if tiny else wl.trace_ops
        untraced, traced = _run_pairs(wl, n, Op, tracer, [workloads])
        ops = untraced + traced
        metrics = _layer_metrics(tracer, traced, untraced, import_s)
        units = dict(LAYER_METRICS)
    else:
        setups += [_fresh_setup(args) for _ in range(EXTRA_SETUPS)]
        ops = _run_for(wl, args.seconds, Op)
        done = [o for o in ops if o.ok]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": sum(o.work for o in done) / sum(o.seconds for o in ops),
        }
        units = E2E_UNITS
    checks = wl.checks(ops)
    failed = sum(not o.ok for o in ops)
    correct = failed == 0 and all(c.passed for c in checks)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print(f"  calls {len(ops)}  failed {failed}  work unit {wl.work_unit}")
    if tracer is None:
        print(f"  set-up seconds per fresh interpreter: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, value, unit, note in wl.report(untraced if tracer is not None else ops):
        print(f"  {name:<40} {_fmt(value):>14} {unit:<10} {note}")
    if tracer is not None:
        print("  span                                       calls        total_s         self_s")
        for name, calls, total, self_s in tracer.table():
            print(f"  {name:<40} {calls:>8} {total:>14.6f} {self_s:>14.6f}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{wl.name}-seed{args.seed}-spans.tsv.gz")
    for name, value in metrics.items():
        print(f"  {name:<40} {_fmt(value):>14} {units[name]}")
    for c in checks:
        print(f"  check {'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
