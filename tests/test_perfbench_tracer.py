"""The benchmark tracer's bindings still name real functions and methods.

``perfbench/tracer.py`` wraps ``nars`` functions by module and attribute
name. A rename in ``src/`` would otherwise surface only when the benchmark
runs; this test reads the tracer's tables and changes nothing under
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import nars.cli  # noqa: F401  (loads every module the tracer patches)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nars_modules():
    return [m for n, m in sys.modules.items() if n == "nars" or n.startswith("nars.")]


def bindings_of(fn):
    """Every (module, name) in nars that holds ``fn``."""
    return [(mod, name) for mod in nars_modules() for name, v in vars(mod).items() if v is fn]


def test_tracer_resolves_every_binding_and_restores_the_originals():
    tracer = load_tracer()
    functions = {
        (mod, attr): getattr(sys.modules[mod], attr) for mod, attr, *_ in tracer.FUNCTIONS
    }
    methods = {
        (mod, cls, meth): getattr(sys.modules[mod], cls).__dict__[meth]
        for mod, cls, meth, _ in tracer.METHODS
    }
    bound = {key: bindings_of(fn) for key, fn in functions.items()}

    t = tracer.Tracer()
    t.install()
    try:
        for (mod, attr), original in functions.items():
            wrapper = getattr(sys.modules[mod], attr)
            assert wrapper is not original and wrapper.__wrapped__ is original, (mod, attr)
            assert bindings_of(original) == [], f"{mod}.{attr} left unwrapped somewhere"
        for (mod, cls, meth), original in methods.items():
            wrapper = getattr(sys.modules[mod], cls).__dict__[meth]
            assert wrapper.__wrapped__ is original, (mod, cls, meth)
    finally:
        t.uninstall()

    for key, fn in functions.items():
        assert bindings_of(fn) == bound[key], key
    for (mod, cls, meth), original in methods.items():
        assert getattr(sys.modules[mod], cls).__dict__[meth] is original
