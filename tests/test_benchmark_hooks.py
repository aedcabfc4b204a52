"""The benchmark's tracer hooks name functions that exist and fire.

`perfbench/tracer.py` wraps tubecat functions by dotted name. A renamed or
deleted target, or a hook that the code no longer calls, makes every traced
benchmark run fail; these tests make it fail here first. The first only
resolves the targets; the others install the hooks in a child process and
run a workload under them: smoke as the benchmark's self-test runs it, and
each workload's calls at rank 3, so that a hook serving a workload's checks
must fire on that workload, not only on smoke, which runs every check.
"""

import importlib
import importlib.util
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


def _workload_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.WORKLOADS)


def _traced(name: str, *lines: str) -> str:
    """Stdout of a child that installs every hook, binds `workload` to the
    named workload, runs `lines` and checks that the hooks serving the
    workload's checks fired."""
    src = PERFBENCH.parent / "src"
    script = "\n".join([
        "import tubecat.verify",
        "from tracer import HOOKS, Tracer, kernel_hooks",
        "from workloads import WORKLOADS",
        f"workload = WORKLOADS[{name!r}]",
        "tracer = Tracer()",
        "tracer.install([*HOOKS, *kernel_hooks()])",
        *lines,
        "tracer.check_fired(workload.checks)",
    ])
    path = os.pathsep.join(
        p for p in (str(src), str(PERFBENCH), os.environ.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_hook_fires_on_smoke():
    out = _traced(
        "smoke",
        "reports = [tubecat.verify.run_suite(**call) for call in workload.calls]",
        "assert all(report.ok for report in reports)",
        "print(sum(len(report.outcomes) for report in reports), workload.outcomes)",
    )
    produced, expected = out.split()
    assert produced == expected


@pytest.mark.parametrize("name", _workload_names())
def test_hooks_serving_a_workload_fire_on_it_at_rank_three(name):
    _traced(
        name,
        "for call in workload.calls:",
        "    assert tubecat.verify.run_suite(**dict(call, ranks=[3])).ok",
    )
