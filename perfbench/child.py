"""One cold `tubecat verify` process of the benchmark.

Usage: child.py WORKLOAD SEED MODE SPAWN_TIME

MODE is "probe" (import only), "plain" (run the workload) or "traced" (run
it under the tracer). SPAWN_TIME is the parent's `time.monotonic()` just
before it started this process; the monotonic clock is shared by all
processes, so set-up time is measured from spawn to the finished import of
`tubecat.verify`. The import and a plain run are timed at a fixed reference
speed (speed.py); raw times are returned too. Prints one JSON object as its
last line of output.
"""

import sys
import time

from speed import SpeedProbe

with SpeedProbe() as IMPORT_PROBE:
    import tubecat.verify  # set-up time ends when this import does
IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from tracer import COLD_CACHES, HOOKS, Tracer, cache_info, kernel_hooks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def cold_start_errors() -> list[str]:
    """Caches that already hold entries before the first check."""
    errors = []
    for module, name in COLD_CACHES:
        info = cache_info(module, name)
        if info is not None and info.currsize != 0:
            errors.append(f"{module}.{name} holds {info.currsize} entries before the first check")
    return errors


def digest(outcomes) -> str:
    """SHA-256 of the outcomes' JSON with their timings removed."""
    records = []
    for outcome in outcomes:
        record = outcome.to_json()
        record.pop("seconds", None)
        records.append(record)
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def environment() -> dict:
    kernel = sys.modules.get("tubecat.kernel")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": getattr(kernel, "BACKEND", "no tubecat.kernel.BACKEND"),
        "caches_checked": [
            f"{module}.{name}" for module, name in COLD_CACHES
            if cache_info(module, name) is not None
        ],
    }


def main(argv) -> int:
    workload_name, seed, mode, spawned = argv[1], int(argv[2]), argv[3], float(argv[4])
    setup_s = IMPORT_PROBE.started - spawned + IMPORT_PROBE.seconds()
    module_file = Path(tubecat.verify.__file__).resolve()
    if SRC not in module_file.parents:
        raise SystemExit(f"imported {module_file}, not the checkout's {SRC}")
    result = {
        "setup_s": setup_s,
        "raw_setup_s": IMPORTED - spawned,
        "cold_start_errors": cold_start_errors(),
    }
    if mode == "probe":
        print(json.dumps(result))
        return 0

    workload = WORKLOADS[workload_name]
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install([*HOOKS, *kernel_hooks()])
    probe = SpeedProbe() if tracer is None else contextlib.nullcontext()
    start = time.perf_counter()
    with probe:
        reports = [tubecat.verify.run_suite(**call, seed=seed) for call in workload.calls]
    raw_wall_s = time.perf_counter() - start
    if tracer is None:
        result["wall_s"] = probe.seconds()

    outcomes = [o for report in reports for o in report.outcomes]
    failures = [o.line() for o in outcomes if not o.ok]
    result.update(
        raw_wall_s=raw_wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        outcomes=len(outcomes),
        failed=len(failures),
        first_failures=failures[:3],
        outcome_checks=[o.check for o in outcomes],
        outcome_seconds=[o.seconds for o in outcomes],
        digest=digest(outcomes),
        env=environment(),
    )
    if tracer is not None:
        tracer.check_fired(workload.checks)
        trace = tracer.to_json(start)
        trace["caches"] = {}
        for module, name in COLD_CACHES:
            info = cache_info(module, name)
            if info is not None:
                trace["caches"][f"{module.removeprefix('tubecat.')}.{name}"] = info._asdict()
        result["trace"] = trace
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
