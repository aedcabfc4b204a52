"""Workloads of the benchmark, shared by its parent and child processes.

A workload is a list of `tubecat.verify.run_suite` calls. The benchmark's
seed is passed through as `run_suite(seed=...)`, which only moves the
oracle's 100 sampled symmetry pairs; everything else is exhaustive, as it is
for a user of `tubecat verify`. Why each workload exists is in README.md.
"""

from __future__ import annotations

from typing import NamedTuple

ALL_CHECKS = ("oracle", "rigid", "endo", "gentle", "strings", "hom-functor", "converse")
STRUCTURE_CHECKS = ("rigid", "endo", "gentle", "strings", "converse")


class Workload(NamedTuple):
    calls: tuple[dict, ...]  # keyword arguments of run_suite, seed excluded
    outcomes: int  # fixed number of outcomes the calls produce

    @property
    def checks(self) -> frozenset[str]:
        """The checks the workload runs."""
        out: set[str] = set()
        for call in self.calls:
            out.update([call["only"]] if call.get("only") else ALL_CHECKS)
        return frozenset(out)


WORKLOADS = {
    "suite-r2-6": Workload(({"ranks": [2, 3, 4, 5, 6]},), 1430),
    "structure-r7": Workload(
        tuple({"ranks": [7], "only": check} for check in STRUCTURE_CHECKS), 2774
    ),
    "deep-r5": Workload(({"ranks": [5], "ql_cap": 30},), 286),
    # The self-test's workload; it runs every check, so every hook must fire.
    "smoke": Workload(({"ranks": [2, 3]},), 44),
}
