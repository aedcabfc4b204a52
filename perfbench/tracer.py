"""Outside-in tracing of tubecat's layers.

The tracer wraps functions of tube, kernel, rigid, endo, quiver, strings,
homfunctor and verify from outside the package; no tubecat file changes.
A wrapper replaces the target in every `tubecat.*` namespace that holds it,
because several modules bind functions with `from ... import`. Three kinds:

- count: calls only. Used for the hot leaves (`tau`, `Indec` construction)
  and other functions called hundreds of thousands of times.
- timed: calls and inclusive seconds of the outermost activation; the call
  is pushed on a stack so that nested hooks can see their caller.
- span: as timed, and a span (name, start, end, parent) is kept in memory.

A hook may name a `parent`: then only calls made directly from that hooked
function are `selected`, and `hit(result)` adds to the hook's `hits`.
A missing target, or a hook that never fires on a workload running a check
it serves, raises `HookError`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, NamedTuple

from workloads import ALL_CHECKS


class HookError(RuntimeError):
    """A hook target is missing, or a hook did not fire where it must."""


class Hook(NamedTuple):
    target: str  # dotted path: module, then attribute (class attribute allowed)
    kind: str  # "count", "timed" or "span"
    needs: tuple[str, ...] | None = None  # checks that must fire it; None: any
    parent: str | None = None
    hit: Callable[[object], int] | None = None
    snapshot: bool = False  # span records per-hook call deltas and the rank
    stat: str | None = None  # statistic name; default: target without "tubecat."


SWEEP = ("hom-functor",)

HOOKS = (
    Hook("tubecat.verify.run_suite", "span"),
    *(
        Hook(f"tubecat.verify.check_{check.replace('-', '_')}", "span", (check,), snapshot=True)
        for check in ALL_CHECKS
    ),
    Hook("tubecat.homfunctor.verify_hom_functor", "span", SWEEP),
    Hook(
        "tubecat.homfunctor.in_fundamental_domain", "count", SWEEP,
        parent="homfunctor.verify_hom_functor", hit=bool,
    ),
    Hook("tubecat.homfunctor.sigma_string", "timed", SWEEP),
    Hook("tubecat.homfunctor.sigma", "timed", SWEEP),
    Hook("tubecat.homfunctor.beta_arrow", "count", SWEEP),
    Hook("tubecat.homfunctor.reverse_hammock", "count", SWEEP),
    Hook("tubecat.homfunctor.predicted_dims", "timed", SWEEP),
    Hook("tubecat.homfunctor.oracle_dims", "timed", SWEEP),
    Hook("tubecat.tube.tau", "count", ("oracle", "hom-functor", "converse")),
    Hook("tubecat.tube.Indec.__init__", "count", stat="tube.Indec"),
    Hook("tubecat.tube.hom_tube_oracle", "timed", ("oracle", "hom-functor")),
    Hook("tubecat.strings.enumerate_strings", "span", ("strings", "hom-functor")),
    Hook("tubecat.strings.string_module", "timed", SWEEP),
    Hook("tubecat.strings.is_string", "count", SWEEP),
    Hook("tubecat.endo.endomorphism_algebra", "span"),
    Hook("tubecat.endo.cartan_check", "span", ("endo",)),
    Hook("tubecat.quiver.find_isomorphism", "timed", ("converse",), hit=lambda r: r is not None),
    Hook("tubecat.quiver.is_gentle", "span", ("gentle",)),
    Hook("tubecat.quiver.gorenstein_bound", "span", ("gentle",)),
    Hook("tubecat.quiver.is_cluster_tilted_A", "span", ("endo",)),
    Hook("tubecat.rigid.enumerate_maximal_rigid", "span", hit=len),
    Hook("tubecat.rigid.tau_rigid", "count", ("converse",)),
)

# Caches that must be empty before the first check (cold start), and whose
# statistics the traced run reports. Read with getattr: they may be bounded,
# replaced or deleted.
COLD_CACHES = (
    ("tubecat.tube", "_oracle_dim"),
    ("tubecat.endo", "cached_endomorphism_algebra"),
    ("tubecat.homfunctor", "_triples_by_vertex"),
    ("tubecat.rigid", "_enumerated"),
    ("tubecat.homfunctor", "fundamental_domain"),
)


def kernel_hooks() -> list[Hook]:
    """One timed hook per public routine of `tubecat.kernel`, sharing the
    statistic "kernel"; nested kernel calls add calls but no time."""
    kernel = importlib.import_module("tubecat.kernel")
    names = sorted(
        name for name, value in vars(kernel).items()
        if not name.startswith("_") and inspect.isroutine(value)
    )
    if not names:
        raise HookError("tubecat.kernel exposes no public routine to hook")
    return [Hook(f"tubecat.kernel.{name}", "timed", stat="kernel") for name in names]


def cache_info(module: str, name: str):
    """`cache_info()` of a cached function, or None if it has none."""
    fn = getattr(sys.modules.get(module), name, None)
    info = getattr(fn, "cache_info", None)
    return info() if callable(info) else None


class Stat:
    __slots__ = ("calls", "seconds", "depth", "selected", "hits")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.selected = 0
        self.hits = 0


class Tracer:
    """Holds the statistics, the call stack and the spans of one process."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.needs: dict[str, set[str] | None] = {}
        self.stack: list[str] = []
        self.open_spans: list[int] = []
        self.spans: list[tuple | None] = []
        self.patched = 0

    def install(self, hooks) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "tubecat" or name.startswith("tubecat."))
        ]
        for hook in hooks:
            owner, attr, original = _resolve(hook.target)
            name = hook.stat or hook.target.removeprefix("tubecat.")
            stat = self.stats.setdefault(name, Stat())
            needs = self.needs.get(name, set())
            self.needs[name] = (
                None if needs is None or hook.needs is None else needs | set(hook.needs)
            )
            wrapper = self._wrap(hook, name, stat, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self.patched += 1
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.patched += 1

    def check_fired(self, checks: frozenset[str]) -> None:
        """Raise unless every hook serving one of `checks` was called."""
        silent = [
            name for name, needs in self.needs.items()
            if self.stats[name].calls == 0 and (needs is None or needs & checks)
        ]
        if silent:
            raise HookError(f"hooks never fired on this workload: {', '.join(silent)}")

    def snapshot(self) -> dict[str, tuple[int, int]]:
        return {name: (s.calls, s.selected) for name, s in self.stats.items()}

    def _wrap(self, hook: Hook, name: str, stat: Stat, fn):
        stack, spans, open_spans = self.stack, self.spans, self.open_spans
        parent, hit = hook.parent, hook.hit
        clock = time.perf_counter
        observe = parent is not None or hit is not None

        def record(result):
            if parent is None or (stack and stack[-1] == parent):
                stat.selected += 1
                if hit is not None:
                    stat.hits += hit(result)

        if hook.kind == "count":
            if not observe:
                def counted(*args, **kwargs):
                    stat.calls += 1
                    return fn(*args, **kwargs)
                return counted

            def counted_observed(*args, **kwargs):
                stat.calls += 1
                result = fn(*args, **kwargs)
                record(result)
                return result
            return counted_observed

        is_span = hook.kind == "span"
        snapshot = self.snapshot if hook.snapshot else None

        def timed(*args, **kwargs):
            stat.calls += 1
            outer = stat.depth == 0
            stat.depth += 1
            stack.append(name)
            if is_span:
                index = len(spans)
                spans.append(None)
                up = open_spans[-1] if open_spans else -1
                open_spans.append(index)
                before = snapshot() if snapshot else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                if outer:
                    stat.seconds += end - start
                if is_span:
                    open_spans.pop()
                    extra = None
                    if snapshot:
                        delta = {
                            k: [calls - before[k][0], selected - before[k][1]]
                            for k, (calls, selected) in snapshot().items()
                            if (calls, selected) != before[k]
                        }
                        extra = {"rank": args[0] if args else kwargs.get("n"), "delta": delta}
                    spans[index] = (name, start, end, up, extra)
            if observe:
                record(result)
            return result
        return timed

    def to_json(self, origin: float) -> dict:
        """Statistics and spans, span times in seconds from `origin`."""
        return {
            "patched": self.patched,
            "stats": {
                name: {"calls": s.calls, "seconds": s.seconds, "selected": s.selected, "hits": s.hits}
                for name, s in self.stats.items()
            },
            "spans": [
                [name, start - origin, end - origin, up, extra]
                for name, start, end, up, extra in self.spans
            ],
        }


def _resolve(target: str):
    """(owner, attribute, original) for a dotted target; raise if missing."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        attr = parts[-1]
        original = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if original is None:
            break
        return owner, attr, original
    raise HookError(f"hook target {target} not found")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) of one traced run."""
    stats = trace["stats"]

    def calls(name):
        return stats[name]["calls"]

    def seconds(name):
        return stats[name]["seconds"]

    sweep_x = stats["homfunctor.in_fundamental_domain"]
    top_sigma = top_x = 0
    top = [s for s in trace["spans"] if s[0] == "verify.check_hom_functor"]
    if top:
        delta = max(top, key=lambda s: s[4]["rank"])[4]["delta"]
        top_sigma = delta.get("homfunctor.sigma_string", [0, 0])[0]
        top_x = delta.get("homfunctor.in_fundamental_domain", [0, 0])[1]
    oracle = trace["caches"].get("tube._oracle_dim")
    endo = trace["caches"].get("endo.cached_endomorphism_algebra")
    iso = stats["quiver.find_isomorphism"]
    return {
        "homfunctor.sweep_s": (seconds("homfunctor.verify_hom_functor"), "s"),
        "homfunctor.x_swept": (sweep_x["selected"], "count"),
        "homfunctor.in_domain_frac": (_ratio(sweep_x["hits"], sweep_x["selected"]), "ratio"),
        "homfunctor.sigma_string_calls": (calls("homfunctor.sigma_string"), "count"),
        "homfunctor.sigma_string_s": (seconds("homfunctor.sigma_string"), "s"),
        "homfunctor.sigma_string_per_x": (
            _ratio(calls("homfunctor.sigma_string"), sweep_x["selected"]), "ratio"),
        "homfunctor.sigma_string_per_x.top_rank": (_ratio(top_sigma, top_x), "ratio"),
        "homfunctor.beta_arrow_calls": (calls("homfunctor.beta_arrow"), "count"),
        "homfunctor.reverse_hammock_calls": (calls("homfunctor.reverse_hammock"), "count"),
        "homfunctor.predicted_s": (seconds("homfunctor.predicted_dims"), "s"),
        "homfunctor.oracle_dims_s": (seconds("homfunctor.oracle_dims"), "s"),
        "tube.tau_calls": (calls("tube.tau"), "count"),
        "tube.indec_new": (calls("tube.Indec"), "count"),
        "tube.oracle_calls": (calls("tube.hom_tube_oracle"), "count"),
        "tube.oracle_s": (seconds("tube.hom_tube_oracle"), "s"),
        "tube.oracle_dim_hit_ratio": (
            _ratio(oracle["hits"], oracle["hits"] + oracle["misses"]) if oracle else 0.0, "ratio"),
        "tube.oracle_dim_entries": (oracle["currsize"] if oracle else 0, "count"),
        "kernel.calls": (calls("kernel"), "count"),
        "kernel.s": (seconds("kernel"), "s"),
        "strings.enumerate_calls": (calls("strings.enumerate_strings"), "count"),
        "strings.enumerate_s": (seconds("strings.enumerate_strings"), "s"),
        "strings.module_calls": (calls("strings.string_module"), "count"),
        "strings.module_s": (seconds("strings.string_module"), "s"),
        "strings.is_string_calls": (calls("strings.is_string"), "count"),
        "endo.build_calls": (calls("endo.endomorphism_algebra"), "count"),
        "endo.build_s": (seconds("endo.endomorphism_algebra"), "s"),
        "endo.cache_hit_ratio": (
            _ratio(endo["hits"], endo["hits"] + endo["misses"]) if endo else 0.0, "ratio"),
        "endo.cartan_s": (seconds("endo.cartan_check"), "s"),
        "quiver.iso_calls": (iso["calls"], "count"),
        "quiver.iso_s": (iso["seconds"], "s"),
        "quiver.iso_hit_ratio": (_ratio(iso["hits"], iso["calls"]), "ratio"),
        "quiver.gentle_s": (seconds("quiver.is_gentle"), "s"),
        "quiver.gorenstein_s": (seconds("quiver.gorenstein_bound"), "s"),
        "quiver.recognize_s": (seconds("quiver.is_cluster_tilted_A"), "s"),
        "rigid.enumerate_s": (seconds("rigid.enumerate_maximal_rigid"), "s"),
        "rigid.objects": (stats["rigid.enumerate_maximal_rigid"]["hits"], "count"),
        "rigid.tau_rigid_calls": (calls("rigid.tau_rigid"), "count"),
    }
