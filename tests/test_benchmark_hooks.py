"""The benchmark's tracer hooks name functions that exist and fire.

`perfbench/tracer.py` wraps tubecat functions by dotted name. A renamed or
deleted target, or a hook that the code no longer calls, makes every traced
benchmark run fail; these tests make it fail here first. The first only
resolves the targets; the second installs the hooks in a child process and
runs the benchmark's smoke workload under them.
"""

import importlib
import inspect
import os
import subprocess
import sys
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


def test_every_hook_fires_on_smoke():
    src = PERFBENCH.parent / "src"
    script = "\n".join([
        "import tubecat.verify",
        "from tracer import HOOKS, Tracer, kernel_hooks",
        "from workloads import WORKLOADS",
        "workload = WORKLOADS['smoke']",
        "tracer = Tracer()",
        "tracer.install([*HOOKS, *kernel_hooks()])",
        "reports = [tubecat.verify.run_suite(**call) for call in workload.calls]",
        "assert all(report.ok for report in reports)",
        "tracer.check_fired(workload.checks)",
        "print(sum(len(report.outcomes) for report in reports), workload.outcomes)",
    ])
    path = os.pathsep.join(
        p for p in (str(src), str(PERFBENCH), os.environ.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    produced, expected = done.stdout.split()
    assert produced == expected
