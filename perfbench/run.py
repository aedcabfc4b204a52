"""Benchmark of `tubecat verify`, one cold process per run of a workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Every workload run is a fresh single-threaded interpreter (child.py), one at
a time, because a user pays the cold-cache cost on every `tubecat verify`.
Untraced children run, at least three, while the next one would end
within S seconds. With
--trace 1 a child under the tracer runs first, and the per-layer metrics are
printed instead of the end-to-end ones. Every child's outcomes are checked:
all ok, the workload's fixed count, and one digest for all children, traced
or not.

The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it is a report
with the samples, the environment and the digests. Spans of a traced run are
written to .perfbench/. README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import ALL_CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 5  # import-only children at the start; one more before each run
# The median of three children still holds when one of them ran in a phase
# where the speed correction falls short (see speed.py).
MIN_RUNS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """A child process failed or the run could not be measured."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run child.py once and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before a {mode} run")
    spawned = time.monotonic()
    argv = [sys.executable, str(CHILD), workload, str(seed), mode, repr(spawned)]
    with subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=remaining)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} run still going after {remaining:.0f} s") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def high_percentile(values: list[float]) -> tuple[float, float]:
    """(level, value) of the highest percentile with ten samples beyond it;
    (0, 0) with ten samples or fewer."""
    if len(values) <= 10:
        return 0.0, 0.0
    ordered = sorted(values)
    return (len(values) - 10) / len(values), ordered[-11]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def gate(expected: int, probes: list[dict], children: list[dict]) -> list[str]:
    """Reasons the run is not correct; empty when it is."""
    problems = [e for c in probes + children for e in c["cold_start_errors"]]
    for child in children:
        if child["outcomes"] != expected:
            problems.append(f"{child['outcomes']} outcomes, expected {expected}")
        problems.extend(child["first_failures"])
    if len({c["digest"] for c in children}) != 1:
        problems.append("outcome digests differ between runs")
    return problems


def outcome_minima(runs: list[dict]) -> list[float]:
    """Each outcome's seconds, the minimum over the run's children, which
    filters out most slow phases of the machine (see speed.py)."""
    return [min(column) for column in zip(*(r["outcome_seconds"] for r in runs))]


def verify_metrics(checks: list[str], minima: list[float]) -> dict[str, tuple[float, str]]:
    """Per-check seconds from the untraced runs' Outcome.seconds."""
    out = {
        f"verify.{check}_s": (sum(s for c, s in zip(checks, minima) if c == check), "s")
        for check in ALL_CHECKS
    }
    objects = [s for c, s in zip(checks, minima) if c == "hom-functor"]
    out["verify.hom-functor.object_s.p50"] = (statistics.median(objects) if objects else 0.0, "s")
    out["verify.hom-functor.object_s.phi"] = (high_percentile(objects)[1], "s")
    return out


def write_trace(name: str, seed: int, trace: dict) -> Path:
    path = ROOT / ".perfbench" / f"{name}-seed{seed}.trace.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(trace))
    return path


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (report, result)."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    spawn("probe", name, seed, deadline)  # writes bytecode caches; not measured
    probes = [spawn("probe", name, seed, deadline) for _ in range(SETUP_PROBES)]
    start = time.monotonic()
    traced = spawn("traced", name, seed, deadline) if trace else None
    runs: list[dict] = []
    durations: list[float] = []
    while len(runs) < MIN_RUNS or time.monotonic() - start + statistics.mean(durations) <= seconds:
        began = time.monotonic()
        probes.append(spawn("probe", name, seed, deadline))
        runs.append(spawn("plain", name, seed, deadline))
        durations.append(time.monotonic() - began)
    children = runs + ([traced] if traced else [])

    problems = gate(workload.outcomes, probes, children)
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [c["setup_s"] for c in probes + runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    minima = outcome_minima(runs)
    if traced:
        metrics = verify_metrics(runs[0]["outcome_checks"], minima)
        metrics.update(layer_metrics(traced["trace"]))
        overhead = traced["raw_wall_s"] / statistics.median(r["raw_wall_s"] for r in runs) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = {
            "wall_s": (statistics.median(samples["wall_s"]), "s"),
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MiB"),
        }

    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": {
            **runs[0]["env"],
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "seed": seed,
        },
        "samples": samples,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "raw_wall_s": [r["raw_wall_s"] for r in runs],
        "raw_setup_s": [c["raw_setup_s"] for c in probes + runs],
        "hom_functor_phi_level": high_percentile(
            [s for c, s in zip(runs[0]["outcome_checks"], minima) if c == "hom-functor"])[0],
        "digest": runs[0]["digest"],
        "problems": problems,
    }
    if traced:
        report["traced_digest"] = traced["digest"]
        report["traced_raw_wall_s"] = traced["raw_wall_s"]
        report["trace_patched_namespaces"] = traced["trace"]["patched"]
        report["trace_file"] = str(write_trace(name, seed, traced["trace"]).relative_to(ROOT))
    result = {
        "correct": not problems,
        "attempted": sum(c["outcomes"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def self_test() -> int:
    """Run the smoke workload untraced and traced; check that every metric
    named in BENCHMARK.json is printed with its unit and that the digests
    of the untraced and traced runs agree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    reports = {}
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        argv = [sys.executable, __file__, "--workload", "smoke", "--seed", "3",
                "--seconds", "1", "--trace", trace]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=DEADLINE_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            errors.append(f"--trace {trace} exited with {done.returncode}:\n{done.stderr[-3000:]}")
            continue
        reports[trace] = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            errors.append(f"--trace {trace} is not correct: {reports[trace]['problems']}")
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        printed = {k: m["unit"] for k, m in result["metrics"].items()}
        if printed != wanted:
            diff = set(printed.items()) ^ set(wanted.items())
            errors.append(f"--trace {trace} metrics differ from BENCHMARK.json {group}: {sorted(diff)}")
    if len(reports) == 2:
        digests = {reports["0"]["digest"], reports["1"]["digest"], reports["1"]["traced_digest"]}
        if len(digests) != 1:
            errors.append(f"untraced and traced digests differ: {sorted(digests)}")
    for error in errors:
        print(error, file=sys.stderr)
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tubecat" / "verify.py").is_file():
        print(f"no tubecat sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in report["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
