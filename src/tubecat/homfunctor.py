"""Image of indecomposables under Hom from a maximal rigid object.

Every indecomposable x determines two chains of summands (those with tube
maps to x and those with shifted-part maps to x) and a string for each
chain. Hom(T, -) sends x in the fundamental domain, outside add tau T, to
the string module M(sigma(x)), where sigma(x) joins the two chain strings
through a connecting arrow, and x outside the domain to the direct sum of
the two chain string modules.

The sweep checks this against cluster-Hom dimensions computed by the
independent linear-algebra oracle, vertex by vertex (see "Dimensions per
summand" below for how that comparison is made). A string module has
one basis vector per vertex its string traverses, so `predicted_dims` reads
the prediction from the chains: nothing on add tau T, else the multiset
chain T(x) + chain D(x). That the strings traverse exactly these vertices is
checked where they are built. `_chain_string` joins consecutive members of
a chain by their arrows, so its word, once a string, walks the chain. A
word is a string when each two adjacent letters may follow each other, so
in sigma(x) = sigma_T * beta * sigma_D^-1 only the pairs around beta are
new; and once beta runs from the end of sigma_T to the end of sigma_D, the
walk visits the vertices of sigma_T and then those of sigma_D (through the
loop, the top vertex twice). So `sigma` checks just that, which also
covers a trivial chain string, from the algebra's letter table (see
`strings`). The sweep first checks the chain strings of the painted cells
outside the fundamental domain, in sweep order (`_build_chain_strings`);
it then builds sigma(x) at every domain point, which the bijection check
needs anyway, and that checks the domain's other chains on their first
fetch. So each chain string is checked once.

No module is built per x, and a module checks nothing beyond its string
(see `strings.string_module`). The sweep builds the module of each string
that `enumerate_strings` returns only so that the benchmark's
`strings.string_module` hook fires on the sweep; the loop goes when the
hook moves.

Coordinates are normalized so the top summand is (1, n-1); the vanishing
locus outside the fundamental domain is stated in those coordinates. The
swept x are built once per (rank, cap) (`_Summands`); x = (a, b) is swept
cell (b - 1) n + a - 1.

Each object T gets one table, built on first use and replaced when another
object is asked about, so the module holds state for one object at a time,
besides the rigid summands of one (rank, cap) (see below). The table keeps
the summands as (orbit, ql) integers, the translates of the summands, the
painted reverse hammocks as one chain tuple per cell, the arrows of the
endomorphism algebra by their (source, target) vertices, and one memo: each
chain's string beside its end vertex. A chain string depends only on its
chain, so every wing, arrow and string check, and every end read, runs once
per distinct chain. Consecutive members of a chain are joined by the
algebra's tube-map arrow between them (kind "T"), and the two strings of x
by its shifted-part arrow (kind "D") or the loop, so no arrow id is formed
here.

Both reverse hammocks are painted once per rigid summand and (rank, cap)
(`_summand_cells`), not filtered once per x. `kernel.hom_tube_dim(n, a, b,
c, d)` counts the k with max(0, b - d) <= k <= b - 1 and k = c - a (mod n).
A summand s = (c, d) is rigid, so d <= n - 1 and each window holds at most
one such k. Hence, for x = (a, b):

- Hom(s, x) > 0 exactly when r = (a - c) mod n < d and b >= d - r: from
  orbit a, s paints the ray of all b >= d - r;
- Hom(x, tau^2 s) > 0 exactly when b lies in [k + 1, k + d] for some
  k >= 0 with k = (c - 2 - a) mod n: s paints one interval every n steps.

A table lays its summands' cells out in ascending (ql, vertex) order, so
each chain comes out in the order a stable sort by ql of the filtered
summands gives. The sweep paints up to its cap; a later x above the painted
cap repaints to at least twice the old cap.

Dimensions per summand. At x off add tau T the predicted dimension at
vertex v is the number of times v lies in chain T(x) and chain D(x), and the
oracle's is Hom(s_v, x) + Hom(x, tau^2 s_v) (`oracle_parts`). Both read only
s_v and x, so the comparison is an identity over the n(n - 1) rigid
summands, proved once per (rank, cap): `_Summands` keeps two integer masks
over the swept cells for every rigid s, `fail` where its painted count
differs from its oracle vector and `nz` where that vector is nonzero. Off
add tau T, the per-x comparison fails for T exactly at the cells of the OR
of its summands' `fail` masks. On add tau T the prediction is empty
whatever the cells hold, so there `predicted_dims` and `oracle_dims` are
compared directly. The oracle vanishes at x exactly where no summand's `nz`
holds x. The sweep builds the record of x only at a failing cell, so its
failures are the per-x comparison's.

A report keeps only what failed; `HomFunctorReport.records` rebuilds the
record of every swept x on access, with the helper that builds each failure
record during the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from tubecat import strings as st
from tubecat import tube
from tubecat.endo import LOOP_ID, cached_endomorphism_algebra
from tubecat.rigid import RigidObject
from tubecat.strings import StringWord, ZERO_STRING
from tubecat.tube import Indec, in_wing

Chain = tuple[int, ...]  # summand vertices of a reverse hammock, by ascending ql


def _same_rank(t: RigidObject, x: Indec) -> int:
    if x.rank != t.rank:
        raise ValueError(f"rank mismatch: {x.rank} != {t.rank}")
    return t.rank


def _normalized_orbit(t: RigidObject, x: Indec) -> int:
    """Orbit of x after translating the top summand of t to orbit 1."""
    return (x.orbit - t.top.orbit) % _same_rank(t, x) + 1


def _in_domain(n: int, orbit: int, ql: int) -> bool:
    """Fundamental-domain membership of a top-normalized point: the rigid
    region plus the triangle above it, 3n(n-1)/2 points."""
    return ql <= n - 1 or orbit + ql <= 2 * n - 1


def in_fundamental_domain(t: RigidObject, x: Indec) -> bool:
    return _in_domain(t.rank, _normalized_orbit(t, x), x.ql)


def in_add_tau(t: RigidObject, x: Indec) -> bool:
    _same_rank(t, x)
    return (x.orbit, x.ql) in _table(t).add_tau


def _on_locus(n: int, orbit: int, ql: int) -> bool:
    """Vanishing-locus membership of a top-normalized point: (n, kn - 1),
    k >= 2. Every such point lies outside the fundamental domain."""
    return orbit == n and (ql + 1) % n == 0 and ql >= 2 * n - 1


# --- the rigid summands of one (rank, cap) ---------------------------------------

def _summand_cells(n: int, c: int, d: int, cap: int) -> tuple[list[int], list[int]]:
    """The swept cells, b <= cap, of both reverse hammocks that s = (c, d)
    lies in: its tube-side ray and its shifted-side intervals (see the
    module docstring). A cell outside the sweep raises rather than wrap."""
    tube_side, shifted = [], []
    for a in range(1, n + 1):
        r = (a - c) % n
        if r < d:
            tube_side.extend(range((d - r - 1) * n + a - 1, cap * n, n))
        k = (c - 2 - a) % n
        while k < cap:
            shifted.extend(range(k * n + a - 1, min(k + d, cap) * n, n))
            k += n
    cells = tube_side + shifted
    for cell in (min(cells, default=0), max(cells, default=0)):
        if not 0 <= cell < n * cap:
            raise AssertionError(f"summand ({c},{d}) paints cell {cell} outside the {n * cap} swept cells")
    return tube_side, shifted


class _Summands:
    """The rigid summands s of one (rank, cap): `swept`, the swept x by cell;
    `cells[s]`, the tube-side and shifted-side cells of s; `masks[s]`, on
    first use, its (fail, nz) masks over the swept cells; and `regions[top]`,
    the masks of the cells outside the fundamental domain and of the locus."""

    def __init__(self, n: int, cap: int):
        self.key = (n, cap)
        self.swept = tuple(Indec(n, a, b) for b in range(1, cap + 1) for a in range(1, n + 1))
        self.cells = {
            (c, d): _summand_cells(n, c, d, cap) for c in range(1, n + 1) for d in range(1, n)
        }
        self._masks: dict[tuple[int, int], tuple[int, int]] | None = None
        points = [(cell, cell % n + 1, cell // n + 1) for cell in range(n * cap)]
        self.regions = {top: (
            sum(1 << cell for cell, a, b in points if not _in_domain(n, (a - top) % n + 1, b)),
            sum(1 << cell for cell, a, b in points if _on_locus(n, (a - top) % n + 1, b)),
        ) for top in range(1, n + 1)}

    @property
    def masks(self) -> dict[tuple[int, int], tuple[int, int]]:
        if self._masks is None:
            n, cap = self.key
            self._masks = {}
            for (c, d), cells in self.cells.items():
                count = [0] * (n * cap)
                for cell in cells[0] + cells[1]:
                    count[cell] += 1
                fail = nz = 0
                for cell, got in enumerate(count):
                    want = sum(oracle_parts(n, c, d, cell % n + 1, cell // n + 1))
                    fail |= (got != want) << cell
                    nz |= (want != 0) << cell
                self._masks[c, d] = fail, nz
        return self._masks


_summands: _Summands | None = None


def _painting(n: int, cap: int) -> _Summands:
    """The rigid summands of (n, cap); one entry is held, for the last
    (n, cap) asked for."""
    global _summands
    if _summands is None or _summands.key != (n, cap):
        _summands = _Summands(n, cap)
    return _summands


# --- the table of one object ----------------------------------------------------

class _ObjectTable:
    """Integer data of one maximal rigid object and its string memo.

    Vertices are 1-based positions in the canonical summand order.
    """

    def __init__(self, t: RigidObject):
        n = t.rank
        self.obj = t
        self.lam = cached_endomorphism_algebra(t)
        self.coords = tuple((s.orbit, s.ql) for s in t.summands)
        self.add_tau = frozenset(((a - 2) % n + 1, b) for a, b in self.coords)
        self.arrows = {(a.src, a.tgt): a for a in self.lam.quiver.arrows}
        # Summand vertices by ascending (ql, vertex): the painting order.
        self.by_ql = sorted(
            range(1, len(self.coords) + 1), key=lambda v: self.coords[v - 1][1]
        )
        self.painted = 0
        self.hammocks: dict[str, tuple[Chain, ...]] = {"T": (), "D": ()}
        self.words: dict[Chain, tuple[StringWord, int | None]] = {}

    def paint(self, cap: int) -> None:
        """Paint both reverse hammocks of every x up to `cap` from the cells
        of the summands, laid out in `by_ql` order so every chain is sorted
        by (ql, vertex). A cap at or below the painted one changes nothing."""
        if cap <= self.painted:
            return
        n, cells = self.obj.rank, _painting(self.obj.rank, cap).cells
        tube_side, shifted = [[] for _ in range(n * cap)], [[] for _ in range(n * cap)]
        for v in self.by_ql:
            tube_cells, shifted_cells = cells[self.coords[v - 1]]
            for cell in tube_cells:
                tube_side[cell].append(v)
            for cell in shifted_cells:
                shifted[cell].append(v)
        self.hammocks = {"T": tuple(map(tuple, tube_side)), "D": tuple(map(tuple, shifted))}
        self.painted = cap

    def chain(self, x: Indec, kind: str) -> Chain:
        """Painted chain of x, repainting to a larger cap if x is above."""
        _same_rank(self.obj, x)
        if kind not in self.hammocks:
            raise ValueError(f"kind must be 'T' or 'D', got {kind!r}")
        if x.ql > self.painted:
            self.paint(max(x.ql, 2 * self.painted))
        return self.hammocks[kind][(x.ql - 1) * self.obj.rank + x.orbit - 1]

    def remember(self, chain: Chain, word: StringWord) -> tuple[StringWord, int | None]:
        """Memoise the string of `chain` beside its end vertex, read once by
        `strings.end_vertex` (None for the zero string)."""
        entry = self.words[chain] = (word, None if word.is_zero else st.end_vertex(self.lam, word))
        return entry


_held: _ObjectTable | None = None


def _table(t: RigidObject) -> _ObjectTable:
    """The table of t, replacing the one held for any other object."""
    global _held
    table = _held
    if table is None or table.obj is not t:
        table = _held = _ObjectTable(t)
    return table


# --- reverse hammocks and their strings --------------------------------------

def reverse_hammock(t: RigidObject, x: Indec, kind: str) -> list[Indec]:
    """Summands with tube maps to x (kind "T") or shifted-part maps to x
    (kind "D"), by ascending quasilength; a wing-nested chain. Read from
    the painted table of t."""
    return [t.summands[v - 1] for v in _table(t).chain(x, kind)]


def sigma_string(t: RigidObject, x: Indec, kind: str) -> StringWord:
    """The unique string traversing the reverse-hammock chain once each,
    without shifted-part arrows, ending at the highest-quasilength vertex.
    The zero string when the chain is empty."""
    return _chain_entry(_table(t), x, kind)[0]


def _chain_entry(table: _ObjectTable, x: Indec, kind: str) -> tuple[StringWord, int | None]:
    """The memo entry of x's chain of `kind`: its string and end vertex,
    built and checked on the chain's first fetch."""
    chain = table.chain(x, kind)
    entry = table.words.get(chain)
    if entry is None:
        entry = table.remember(chain, _chain_string(table, chain, reverse_hammock(table.obj, x, kind)))
    return entry


def _chain_string(table: _ObjectTable, chain: Chain, summands: list[Indec]) -> StringWord:
    """One letter per consecutive pair of the chain: its tube-map arrow,
    direct if it points up the chain and inverse if it points down. Letter
    i joins chain[i] to chain[i + 1], so once `is_string` holds the walk is
    the chain, in order."""
    if not chain:
        return ZERO_STRING
    if len(chain) == 1:
        return st.trivial(chain[0])
    letters: list[st.Letter] = []
    for (v_low, low), (v_high, high) in pairwise(zip(chain, summands)):
        if not in_wing(low, high):
            raise AssertionError(f"hammock chain not wing-nested at {low}, {high}")
        up, down = table.arrows.get((v_low, v_high)), table.arrows.get((v_high, v_low))
        if up is not None and up.kind == "T":
            letters.append((up.id, 1))
        elif down is not None and down.kind == "T":
            letters.append((down.id, -1))
        else:
            raise AssertionError(
                f"chain members {low}, {high} are not triple-related"
            )
    word = st.word(letters)
    if not st.is_string(table.lam, word):
        raise AssertionError(f"constructed chain word is not a string: {word}")
    return word


def _build_chain_strings(t: RigidObject, table: _ObjectTable, ql_cap: int) -> None:
    """Memoise the string of every chain painted at a swept x outside the
    fundamental domain, in sweep order and T before D, building only the
    chains not yet held. `sigma` builds the chains of the domain points on
    their first fetch, so each chain string of the sweep is checked once."""
    summands, words = _painting(t.rank, ql_cap), table.words
    swept, outside = summands.swept, summands.regions[t.top.orbit][0]
    for cell in range(outside.bit_length()):
        if outside >> cell & 1:
            for kind, hammock in table.hammocks.items():
                chain = hammock[cell]
                if chain and chain not in words:
                    table.remember(chain, _chain_string(table, chain, reverse_hammock(t, swept[cell], kind)))


def beta_arrow(t: RigidObject, x: Indec) -> str | None:
    """Connecting arrow from the end of the tube-side string to the end of
    the shifted-side string; None when either string is zero. The ends
    are read from the memo of the two chains."""
    table = _table(t)
    end_t, end_d = _chain_entry(table, x, "T")[1], _chain_entry(table, x, "D")[1]
    if end_t is None or end_d is None:
        return None
    if end_t == end_d:
        top_vertex = t.vertex_of(t.top)
        if end_t != top_vertex:
            raise AssertionError(
                f"both chains end at non-top vertex {end_t} for {x}"
            )
        return LOOP_ID
    arrow = table.arrows.get((end_t, end_d))
    if arrow is None or arrow.kind != "D":
        raise AssertionError(
            f"no connecting arrow {end_t} -> {end_d} exists for {x}"
        )
    return arrow.id


def sigma(t: RigidObject, x: Indec) -> StringWord:
    """The string assigned to x in the fundamental domain: one chain string
    if the other is zero, else both joined through the connecting arrow,
    checked only at that arrow (see the module docstring)."""
    if in_add_tau(t, x):
        raise ValueError(f"{x} is a translate of a summand; no string assigned")
    if not in_fundamental_domain(t, x):
        raise ValueError(f"{x} is outside the fundamental domain")
    table = _table(t)
    lam = table.lam
    sig_t = sigma_string(t, x, "T")
    sig_d = sigma_string(t, x, "D")
    if sig_t.is_zero and sig_d.is_zero:
        raise AssertionError(f"both chain strings vanish for {x} in the domain")
    if sig_d.is_zero:
        return sig_t
    if sig_t.is_zero:
        return sig_d
    beta = beta_arrow(t, x)
    arrow, letter = lam.quiver.arrow(beta), (beta, 1)
    head, tail = sig_t.letters, tuple((aid, -d) for aid, d in reversed(sig_d.letters))
    successors = st._letters(lam).successors
    if (
        arrow.src != _chain_entry(table, x, "T")[1]
        or arrow.tgt != _chain_entry(table, x, "D")[1]
        or head and letter not in successors.get(head[-1], ())
        or tail and tail[0] not in successors.get(letter, ())
    ):
        raise AssertionError(f"{beta} does not join {sig_t} to {sig_d} for {x}")
    return st.word(head + (letter,) + tail)


# --- predictions ---------------------------------------------------------------

def predicted_dims(t: RigidObject, x: Indec) -> dict[int, int]:
    """Predicted dimension vector of the image of x: nothing for translates
    of summands, else the multiset of both reverse-hammock chains, which the
    strings of x traverse (zero exactly on the vanishing locus)."""
    if in_add_tau(t, x):
        return {}
    table = _table(t)
    dims: dict[int, int] = {}
    for v in table.chain(x, "T") + table.chain(x, "D"):
        dims[v] = dims.get(v, 0) + 1
    return dims


def oracle_parts(n: int, c: int, d: int, a: int, b: int) -> tuple[int, int]:
    """Hom(s, x) in the tube and Hom(x, tau^2 s), from the linear-algebra
    oracle, for s = (c, d) and x = (a, b) at rank n."""
    return tube._oracle_dim(n, d, b, (a - c) % n), tube._oracle_dim(n, b, d, (c - 2 - a) % n)


def oracle_dims(t: RigidObject, x: Indec) -> dict[int, int]:
    """Per-vertex cluster-Hom dimensions from the linear-algebra oracle:
    Hom(s, x) in the tube plus Hom(x, tau^2 s), for each summand s."""
    n, a, b = _same_rank(t, x), x.orbit, x.ql
    out = {}
    for i, (c, d) in enumerate(_table(t).coords, start=1):
        total = sum(oracle_parts(n, c, d, a, b))
        if total:
            out[i] = total
    return out


# --- verification ---------------------------------------------------------------

def check_ql_cap(n: int, ql_cap: int | None) -> None:
    """Reject a sweep cap below the fundamental domain of rank n, which
    reaches quasilength 2n - 2; a lower cap would sweep only part of it."""
    least = max(1, 2 * n - 2)
    if ql_cap is not None and ql_cap < least:
        raise ValueError(
            f"ql_cap {ql_cap} is below {least}, the largest quasilength "
            f"of the fundamental domain at rank {n}"
        )


def _record(t: RigidObject, x: Indec, pred: dict[int, int], orac: dict[int, int]) -> dict:
    """The report record of x, given its predicted and oracle dimensions."""
    in_f = in_fundamental_domain(t, x)
    is_tau = in_add_tau(t, x)
    sig_t = sigma_string(t, x, "T")
    sig_d = sigma_string(t, x, "D")
    beta = beta_arrow(t, x) if in_f and not is_tau else None
    return {
        "x": x.to_json(),
        "in_F": in_f,
        "in_add_tau": is_tau,
        "sigmaT": sig_t.to_json(),
        "sigmaD": sig_d.to_json(),
        "beta": beta,
        "predicted_dims": {str(v): d for v, d in sorted(pred.items())},
        "oracle_dims": {str(v): d for v, d in sorted(orac.items())},
        "ok": pred == orac,
    }


@dataclass(frozen=True)
class HomFunctorReport:
    rank: int
    rigid_object: RigidObject
    ql_cap: int
    dimension_failures: tuple[dict, ...]
    bijection_ok: bool
    domain_size_ok: bool
    locus_failures: tuple[str, ...]
    expected_count: int

    @property
    def ok(self) -> bool:
        return (
            not self.dimension_failures
            and self.bijection_ok
            and self.domain_size_ok
            and not self.locus_failures
        )

    @property
    def records(self) -> tuple[dict, ...]:
        """One record per swept x, rebuilt on each access."""
        t = self.rigid_object
        return tuple(
            _record(t, x, predicted_dims(t, x), oracle_dims(t, x))
            for x in _painting(self.rank, self.ql_cap).swept
        )

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "rigid_object": self.rigid_object.to_json(),
            "ok": self.ok,
            "bijection_ok": self.bijection_ok,
            "domain_size_ok": self.domain_size_ok,
            "locus_failures": list(self.locus_failures),
            "expected_count": self.expected_count,
            "records": list(self.records),
        }


def verify_hom_functor(t: RigidObject, ql_cap: int | None = None) -> HomFunctorReport:
    """Check the predicted dimensions against the oracle for every x up to
    the quasilength cap, the string bijection on the fundamental domain, its
    cardinality, and the outside vanishing locus.

    The dimensions and the vanishing locus are read from the masks of the
    summands of t, and the sweep builds the record of x only where the
    dimensions differ, in sweep order (see the module docstring). Its
    string modules only fire the benchmark's `strings.string_module` hook."""
    n = t.rank
    check_ql_cap(n, ql_cap)
    if ql_cap is None:
        ql_cap = 3 * n
    lam = cached_endomorphism_algebra(t)
    table = _table(t)
    table.paint(ql_cap)
    summands, add_tau = _painting(n, ql_cap), table.add_tau
    swept = summands.swept
    masks, fail, nz = summands.masks, 0, 0
    for s in table.coords:
        fail |= masks[s][0]
        nz |= masks[s][1]
    for a, b in add_tau:  # the prediction there is empty whatever the cells hold
        cell = (b - 1) * n + a - 1
        fail &= ~(1 << cell)
        fail |= (predicted_dims(t, swept[cell]) != oracle_dims(t, swept[cell])) << cell
    _build_chain_strings(t, table, ql_cap)

    failures = []
    assigned: dict[StringWord, Indec] = {}
    domain_count = 0
    for cell, x in enumerate(swept):
        if fail and fail >> cell & 1:
            failures.append(_record(t, x, predicted_dims(t, x), oracle_dims(t, x)))
        if in_fundamental_domain(t, x) and (x.orbit, x.ql) not in add_tau:
            domain_count += 1
            assigned[sigma(t, x).canonical()] = x
    outside, locus = summands.regions[t.top.orbit]
    off = (outside & ~nz) ^ locus
    locus_failures = [
        f"{swept[cell]}: oracle {'is nonzero' if nz >> cell & 1 else 'vanishes'} off pattern"
        for cell in range(off.bit_length()) if off >> cell & 1
    ]

    # The cap covers the domain (`check_ql_cap`), so the sweep counted all of it.
    expected = (3 * n * n - 5 * n + 2) // 2
    size_ok = domain_count == expected and len(assigned) == expected

    enum = st.enumerate_strings(lam)
    for w in enum.strings:
        st.string_module(lam, w)  # checks nothing new; fires the benchmark's hook
    bijection_ok = (
        enum.band is None
        and set(assigned) == set(enum.strings)
        and len(assigned) == len(enum.strings)
    )

    return HomFunctorReport(
        rank=n,
        rigid_object=t,
        ql_cap=ql_cap,
        dimension_failures=tuple(failures),
        bijection_ok=bijection_ok,
        domain_size_ok=size_ok,
        locus_failures=tuple(locus_failures),
        expected_count=expected,
    )
