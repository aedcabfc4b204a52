"""Maximal rigid objects of the cluster tube and their wing structure.

A maximal rigid object is stored as its n-1 pairwise-compatible summands in
a canonical order: the top summand first, then by descending quasilength,
ties broken by orbit lifted into the top's window. `enumerate_maximal_rigid`
builds every object from the representatives of the translate orbits;
`maximal_compatible_masks` finds the same objects by subset search, as
summand bitmasks, and `verify.check_rigid` compares the two routes on those
masks at run time.

The translate tau is an autoequivalence, and canonical order is relative to
the top, so each translate orbit of n objects is fixed by its
representative, the member whose top is at orbit 1 (Catalan(n - 1) of the
C(2n - 2, n - 1) objects). The representatives are built by filling the
wing of (1, n - 1) and validated through `from_summands`; block k = 2..n of
the list holds their translates by tau^(1 - k), each block sorted like the
first, and the list records the position of each member's representative
(`RigidObjects.positions`). Every object of a rank shares one instance of
each rigid indecomposable, from `_rigid_indecomposables`.

`from_summands` validates an object against one compatibility table per
rank, `kernel.compat_masks(n)`, held by `_compat_table`. The rigid
indecomposable (a, b) has index `rigid_index(n, a, b)` there, and bit j of
mask[i] is set iff the summands with indices i != j are compatible. With
`chosen` the set bits of an object's summands, the summands are pairwise
compatible exactly when `chosen & ~(mask[i] | 1 << i)` is 0 for every
summand i: the own bit is ORed in because mask[i] never holds it, and a
rigid summand is compatible with itself. The summands are tested in
canonical order, and the masks are symmetric, so when the test first fails
at a summand, it is compatible with every earlier one; a scan of the later
ones finds the pair that the error names, the same pair as the pairwise
loop this replaces (`reference_from_summands` in the tests).

The wing test before each summand's mask test cannot fail on a correct
table: every rigid indecomposable outside the wing of a top is incompatible
with that top, which is tested first. It stays as a check of the table that
shares nothing with it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping

from tubecat import kernel
from tubecat.tube import Indec, is_rigid, lift_orbit, tau


@dataclass(frozen=True, order=True)
class RigidObject:
    """A maximal rigid object; summands are canonically ordered, top first."""

    rank: int
    summands: tuple[Indec, ...]

    @property
    def top(self) -> Indec:
        return self.summands[0]

    def vertex_of(self, s: Indec) -> int:
        """Quiver vertex (1-based) of a summand, in canonical order."""
        return self.summands.index(s) + 1

    def summand(self, vertex: int) -> Indec:
        return self.summands[vertex - 1]

    def to_json(self) -> dict:
        return {"rank": self.rank, "summands": [s.to_json() for s in self.summands]}

    @classmethod
    def from_json(cls, data: Mapping) -> "RigidObject":
        n = int(data["rank"])
        return from_summands(n, [Indec.from_json(n, s) for s in data["summands"]])

    @cached_property
    def label(self) -> str:
        """`str(self)`, built once and shared by the outcomes that name it."""
        return "+".join(str(s) for s in self.summands)

    def __str__(self):
        return self.label


def canonical_order(n: int, summands: Iterable[Indec]) -> tuple[Indec, ...]:
    xs = list(summands)
    if xs:
        a = max(xs, key=lambda s: s.ql).orbit
        xs.sort(key=lambda s: (-s.ql, (s.orbit - a) % n))
    return tuple(xs)


def rigid_index(n: int, a: int, b: int) -> int:
    """Index of (a, b) in `kernel.compat_masks(n)`: inverts `kernel.rigid_coords`."""
    return (a - 1) * (n - 1) + b - 1


@lru_cache(maxsize=32)
def _compat_table(n: int) -> tuple[int, ...]:
    """`kernel.compat_masks(n)`, built once per rank and shared by
    `from_summands` and `maximal_compatible_masks`."""
    return tuple(kernel.compat_masks(n))


def from_summands(n: int, summands: Iterable[Indec]) -> RigidObject:
    """Build a maximal rigid object from its summand set, validating it."""
    xs = canonical_order(n, summands)
    if len(set(xs)) != n - 1:
        got = ", ".join(map(str, xs)) or "none"
        raise ValueError(f"expected {n - 1} distinct summands, got {got}")
    for s in xs:
        if s.rank != n:
            raise ValueError(f"summand {s} has rank {s.rank}, expected {n}")
        if not is_rigid(s):
            raise ValueError(f"summand {s} is not rigid")
    top = xs[0]
    if top.ql != n - 1:
        raise ValueError(f"top summand {top} must have quasilength {n - 1}")
    # ql <= n - 1 throughout and xs is sorted by descending ql
    if len(xs) > 1 and xs[1].ql == n - 1:
        raise ValueError("top summand must be unique")
    table = _compat_table(n)
    index = [rigid_index(n, s.orbit, s.ql) for s in xs]
    chosen = sum(1 << i for i in index)  # the summands are distinct
    for k, (s, i) in enumerate(zip(xs, index)):
        # in_wing(s, top), with the orbit lifted into the top's window
        if (s.orbit - top.orbit) % n + s.ql > n - 1:
            raise ValueError(f"summand {s} lies outside the wing of {top}")
        mask = table[i]
        if chosen & ~(mask | 1 << i):
            for t, j in zip(xs[k + 1:], index[k + 1:]):
                if not mask >> j & 1:
                    raise ValueError(f"summands {s} and {t} are incompatible")
            # Every earlier summand passed its own test, so its mask holds
            # bit i: only an asymmetric table gets here.
            raise RuntimeError(f"compatibility table of rank {n} is not symmetric at {s}")
    return RigidObject(n, xs)


@lru_cache(maxsize=1)
def _rigid_indecomposables(n: int) -> tuple[Indec, ...]:
    """The n(n - 1) rigid indecomposables of rank n in `rigid_index` order,
    one instance each, shared by every object that `enumerate_maximal_rigid`
    and `tau_rigid` build at the current rank: orbit a holds the translates
    by tau^(1 - a) of orbit 1."""
    first = [Indec(n, 1, b) for b in range(1, n)]
    return tuple(tau(x, 1 - a) for a in range(1, n + 1) for x in first)


def tau_rigid(t: RigidObject, k: int = 1) -> RigidObject:
    """Apply the translate to every summand.

    The translate is an autoequivalence, so the result is maximal rigid
    again, and canonical order is relative to the top, so it keeps its
    order: no re-validation through `from_summands` is needed. tau^k moves
    (a, b) to orbit a - k, which is k(n - 1) places down the index order.
    """
    n = t.rank
    table = _rigid_indecomposables(n)
    shift = k * (n - 1)
    return RigidObject(
        n, tuple(table[(rigid_index(n, s.orbit, s.ql) - shift) % len(table)] for s in t.summands)
    )


# --- enumeration ----------------------------------------------------------

class RigidObjects(list):
    """The maximal rigid objects of one rank, in enumeration order, with
    `positions[i]` the position of object i's representative (its own for
    a representative), one C int per object."""

    def __init__(self, objects: Iterable[RigidObject], positions: array):
        super().__init__(objects)
        self.positions = positions


def _order(t: RigidObject) -> tuple:
    """The enumeration order: top orbit, then the summands' coordinates."""
    return t.top.orbit, tuple((s.orbit, s.ql) for s in t.summands)


def enumerate_maximal_rigid(n: int) -> RigidObjects:
    """All maximal rigid objects, each once, deterministically ordered:
    the validated representatives, whose top is at orbit 1, then each top
    orbit k = 2..n as the block of their translates by tau^(1 - k)."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    representatives = sorted(
        (from_summands(n, f) for f in _wing_fillings(n, 1, n - 1)), key=_order
    )
    objects = RigidObjects(representatives, array("i", range(len(representatives))))
    for k in range(2, n + 1):
        block = [tau_rigid(r, 1 - k) for r in representatives]
        order = sorted(range(len(block)), key=lambda j: _order(block[j]))
        objects.extend(block[j] for j in order)
        objects.positions.extend(order)
    return objects


def maximal_compatible_masks(n: int) -> Iterator[int]:
    """The summand mask of every maximal rigid object, by subset search:
    each pairwise-compatible (n-1)-subset of the rigid indecomposables, in
    `kernel.compatible_subsets` order, that no outside candidate is
    compatible with in full. Bit i is `kernel.rigid_coords(n, i)`."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    masks = _compat_table(n)
    full = (1 << len(masks)) - 1
    for subset in kernel.compatible_subsets(masks, n - 1):
        chosen, common = 0, full
        for i in subset:
            chosen |= 1 << i
            common &= masks[i]
        if not common & ~chosen:
            yield chosen


def _wing_fillings(n: int, orbit: int, height: int) -> list[tuple[Indec, ...]]:
    """All ways to place `height` pairwise-compatible summands in the wing
    with summit (orbit, height), summit included: split below the summit
    into a left subwing of height c and a right subwing of height
    height - 1 - c. The wing must not cross the seam between orbits n and
    1, as the wing of (1, n - 1) does not; the summands are the rank's
    shared instances."""
    summit = _rigid_indecomposables(n)[rigid_index(n, orbit, height)]
    if height == 1:
        return [(summit,)]
    out = []
    for c in range(height):
        left = _wing_fillings(n, orbit, c) if c else [()]
        right = _wing_fillings(n, orbit + c + 1, height - 1 - c) if c < height - 1 else [()]
        for fl in left:
            for fr in right:
                out.append((summit,) + fl + fr)
    return out


@lru_cache(maxsize=1)
def _enumerated(n: int) -> RigidObjects:
    return enumerate_maximal_rigid(n)


def maximal_rigid_objects(n: int) -> RigidObjects:
    """Cached structured enumeration of the current rank, for the
    verification sweeps; the caller must not change it."""
    return _enumerated(n)


# --- subwing triples -------------------------------------------------------

@dataclass(frozen=True)
class SubwingTriple:
    """Summit with its left/right sub-summits; a missing side is None.

    Non-degenerate: top (a, b), left (a, c), right (a+c+1, b-c-1) with
    1 <= c <= b-2. Degenerate: exactly one side present, of quasilength b-1.
    """

    top: Indec
    left: Indec | None
    right: Indec | None

    @property
    def degenerate(self) -> bool:
        return self.left is None or self.right is None


def subwing_decomposition(t: RigidObject) -> dict[Indec, SubwingTriple]:
    """The subwing triple of every summand of quasilength > 1.

    For each such summand the left member is the summand of largest
    quasilength sharing its ray, if any; the right member is then forced.
    Both members must themselves be summands or absent.
    """
    n = t.rank
    chosen = set(t.summands)
    out = {}
    for x in t.summands:
        if x.ql == 1:
            continue
        left_candidates = [
            s for s in t.summands
            if s is not x and s.orbit == x.orbit and s.ql < x.ql
        ]
        if not left_candidates:
            right = Indec(n, x.orbit + 1, x.ql - 1)
            if right not in chosen:
                raise ValueError(f"no subwing triple for {x}: {right} missing")
            out[x] = SubwingTriple(x, None, right)
            continue
        left = max(left_candidates, key=lambda s: s.ql)
        c = left.ql
        if c == x.ql - 1:
            out[x] = SubwingTriple(x, left, None)
            continue
        right = Indec(n, x.orbit + c + 1, x.ql - c - 1)
        if right not in chosen:
            raise ValueError(f"no subwing triple for {x}: {right} missing")
        out[x] = SubwingTriple(x, left, right)
    return out


# --- tilting-interval encoding ---------------------------------------------

def tilting_intervals(t: RigidObject) -> tuple[tuple[int, int], ...]:
    """Summands as intervals of the linear quiver inside the top wing:
    (a', b') maps to [a'-a+1, a'-a+b'] with a' lifted past the seam."""
    a = t.top.orbit
    out = []
    for s in t.summands:
        lo = lift_orbit(t.rank, s.orbit, a) - a + 1
        out.append((lo, lo + s.ql - 1))
    return tuple(out)


def from_tilting(n: int, top_orbit: int, intervals: Iterable[tuple[int, int]]) -> RigidObject:
    """Inverse of `tilting_intervals` for a chosen top orbit."""
    summands = []
    for lo, hi in intervals:
        if not 1 <= lo <= hi <= n - 1:
            raise ValueError(f"interval {lo}-{hi} out of range 1..{n - 1}")
        summands.append(Indec(n, top_orbit + lo - 1, hi - lo + 1))
    return from_summands(n, summands)
