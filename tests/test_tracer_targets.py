"""The benchmark tracer patches scoreflow functions by name; each of those names must exist.

A refactor that removes or renames a traced function would otherwise break only
`bench/run.py --trace 1`. The tracer is loaded from its file, without writing
bytecode next to it, and every patch is undone before the test ends.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("scoreflow_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(owner, attr):
    """What `Tracer.patch` replaces: the class's own entry for a method, else the attribute."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_existing_names_and_restore_puts_originals_back(monkeypatch):
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        assert all(bound(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert bound(owner, attr) is original, f"{owner.__name__}.{attr}"
