"""The benchmark tracer wraps functions of this package by name.

``perfbench/tracing.py`` lists each wrapped function as a (module,
attribute) pair in ``SHIMS``.  When one of them is renamed or deleted,
every traced benchmark run fails, and perfbench's own tests, which would
notice, are not collected with this suite.
"""

import importlib
from pathlib import Path

import kaczmarz_lab.cli  # noqa: F401  (loads every module the shims name)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_shim_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = []
    for module, attr, _, _ in tracing.SHIMS:
        try:
            owner, name = tracing._resolve(module, attr)
            if not callable(getattr(owner, name)):
                missing.append(f"{module}.{attr}")
        except (KeyError, AttributeError):
            missing.append(f"{module}.{attr}")
    assert missing == []
