"""The benchmark tracer still finds every function it wraps.

``perfbench/tracing.py`` refuses to trace a program that lacks one of its
``WRAPPED`` attributes, which fails the benchmark's traced runs.  This
catches a deleted or renamed wrapped function in the fast suite.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, name):
    owner = importlib.import_module(module_name)
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, attr


def test_tracer_wraps_every_target_and_uninstall_restores_them():
    tracing = _load_tracing()
    targets = [_resolve(module, name) for module, name, _ in tracing.WRAPPED]
    originals = [getattr(owner, attr, None) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises TracingError naming any target the program lacks
        for (owner, attr), original in zip(targets, originals):
            wrapped = getattr(owner, attr)
            assert wrapped is not original, f"{owner.__name__}.{attr}"
            assert wrapped.__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
