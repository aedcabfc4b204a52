"""The benchmark's tracer hooks name functions that exist.

`perfbench/tracer.py` wraps tubecat functions by dotted name. A renamed or
deleted target makes every traced benchmark run fail; this test makes it
fail here first. It only resolves the targets and patches nothing.
"""

import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_hook_target_resolves(tracer):
    hooks = list(tracer.HOOKS) + tracer.kernel_hooks()
    assert hooks
    for hook in hooks:
        owner, attr, original = tracer._resolve(hook.target)
        assert inspect.getattr_static(owner, attr) is original, hook.target
        assert callable(original), hook.target
