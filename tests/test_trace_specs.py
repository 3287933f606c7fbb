"""The end-to-end benchmark's tracer must find every function it wraps.

``kgbench/tracing.py`` swaps a timing wrapper into ``owner.__dict__[attr]``
for every entry of its ``SPECS``; a renamed, deleted or inherited-only
method makes every traced benchmark run raise ``KeyError``.  This checks the
names against the program without running the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "kgbench" / "tracing.py"


def _specs():
    spec = importlib.util.spec_from_file_location("kgbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.SPECS


@pytest.mark.parametrize("owner_path, attr", [(owner, attr) for owner, attr, *_ in _specs()])
def test_traced_function_is_defined_on_its_owner(owner_path, attr):
    module_name, _, owner_name = owner_path.partition(":")
    owner = getattr(importlib.import_module(module_name), owner_name)
    if attr is None:
        assert callable(owner)
    else:
        assert callable(owner.__dict__[attr])
