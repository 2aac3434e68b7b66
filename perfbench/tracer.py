"""Spans and counts at the public layer boundaries of ``nars``.

The tracer wraps public functions and methods from outside the package.
A function imported by name into another module (``from .frontend import
srp_localize`` in ``nars.rl``) is a second binding of the same object, so
every binding in every ``nars`` module is replaced, not only the defining
one. Spans (op, name, start, end, parent) and counts stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _digest(array) -> bytes:
    data = np.ascontiguousarray(array)
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest() + repr(data.shape).encode()


def _srp_key(geom, frames, grid=None):
    return _digest(frames), None if grid is None else grid.n_points


def _kernel_key(frac, taps=8):
    return float(frac), int(taps)


def _aec_frames(state, far, mic):
    return mic.bands.shape[1]


# (module, attribute, span name, distinct-input key, work count); the key and
# work functions take the wrapped call's arguments.
FUNCTIONS = (
    ("nars.frontend", "fb_analyze", "frontend.fb_analyze", None, None),
    ("nars.frontend", "fb_synthesize", "frontend.fb_synthesize", None, None),
    ("nars.frontend", "aec_process", "frontend.aec_process", None, _aec_frames),
    ("nars.frontend", "beamform_das", "frontend.beamform_das", None, None),
    ("nars.frontend", "srp_localize", "frontend.srp_localize", _srp_key, None),
    ("nars.dsp", "delay_signal", "dsp.delay_signal", None, None),
    ("nars.dsp", "frac_delay_kernel", "dsp.frac_delay_kernel", _kernel_key, None),
    ("nars.scene", "render_scene", "scene.render_scene", None, None),
    ("nars.scene", "image_source_rir", "scene.image_source_rir", None, None),
    ("nars.scene", "synth_noise", "scene.synth_noise", None, None),
    ("nars.rl", "train_tuning_policy", "rl.train_tuning_policy", None, None),
    ("nars.rl", "ppo_update", "rl.ppo_update", None, None),
    ("nars.rl", "objective_and_grad", "rl.objective_and_grad", None, None),
    ("nars.wavefield", "simulate_kzk_axisym", "wavefield.simulate_kzk_axisym", None, None),
    ("nars.wavefield", "simulate_westervelt_plane", "wavefield.simulate_westervelt_plane", None, None),
    ("nars.wavefield", "solve_banded", "wavefield.solve_banded", None, None),
    ("nars.wavefield", "harmonic_spectrum", "wavefield.harmonic_spectrum", None, None),
)

# (module, class, method, span name)
METHODS = (
    ("nars.frontend", "FilterBankSpec", "__init__", "frontend.FilterBankSpec"),
    ("nars.rl", "TuningEnv", "__init__", "rl.TuningEnv.init"),
    ("nars.rl", "TuningEnv", "step", "rl.TuningEnv.step"),
)


class Tracer:
    """Records one span per wrapped call; self time excludes child spans."""

    def __init__(self):
        self.op = -1  # the benchmark operation that the next spans belong to
        self.spans: list = []  # (op, name, start, end, parent index or -1)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.keys: defaultdict = defaultdict(set)
        self.work: Counter = Counter()
        self._stack: list = []  # [span index, seconds covered by child spans]
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn, key=None, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                spans[index] = (self.op, name, start, end, parent)
                if stack:
                    stack[-1][1] += took
                self.calls[name] += 1
                self.self_s[name] += took - frame[1]
                self.durations[name].append(took)

        return traced

    def install(self, extra_modules=()) -> None:
        modules = [m for n, m in sys.modules.items() if n == "nars" or n.startswith("nars.")]
        modules += list(extra_modules)
        for mod_name, attr, name, key, work in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original, key, work)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        for mod_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def distinct_ratio(self, name: str) -> float:
        """Distinct inputs over calls: the useful share of the attempted work."""
        return len(self.keys[name]) / self.calls[name] if self.calls[name] else 0.0

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total s, self s), by self time."""
        rows = [(n, self.calls[n], sum(self.durations[n]), self.self_s[n]) for n in self.calls]
        return sorted(rows, key=lambda r: -r[3])

    def write(self, path) -> None:
        """Spans as gzipped TSV, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index\top\tname\tstart_s\tend_s\tparent\n")
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
