"""Quivers with quadratic monomial relations.

Path counting and the Gorenstein dimension of a gentle algebra, both read
from `_free_order`, the one walk over relation-free paths, which does not
recurse; the special biserial and gentle conditions; recognition of type-A
cluster-tilted quivers by one shortest-path search per edge; their
decomposition into blocks, which gives the connecting vertices and an exact
canonical form of the quiver with one vertex pinned; and an exhaustive
isomorphism search with an optional pinned vertex, which certifies the
converse check's matches of canonical forms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping


class DivergentPathsError(ValueError):
    """A relation-free cycle makes the path count infinite."""


class NotGentleError(ValueError):
    """The presentation is not gentle; `witness` is `is_gentle`'s first
    violation."""

    def __init__(self, witness: str | None):
        super().__init__(f"presentation is not gentle: {witness}")
        self.witness = witness


class SizeLimitError(ValueError):
    """Input exceeds the exhaustive-search size limit."""


class NotClusterTiltedError(ValueError):
    """The quiver fails the type-A cluster-tilted recognition; `witness` is
    the recognizer's first violation."""

    def __init__(self, witness: str | None):
        super().__init__(f"not a type-A cluster-tilted quiver: {witness}")
        self.witness = witness


@dataclass(frozen=True, order=True)
class Arrow:
    id: str
    src: int
    tgt: int
    kind: str | None = field(default=None, compare=False)

    def __str__(self):
        return f"{self.id}:{self.src}->{self.tgt}"


@dataclass(frozen=True)
class Quiver:
    """Finite quiver; loops and parallel arrows permitted, arrow ids unique."""

    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        by_id = {a.id: a for a in self.arrows}
        if len(by_id) != len(self.arrows):
            raise ValueError("arrow ids must be unique")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.src not in vs or a.tgt not in vs:
                raise ValueError(f"arrow {a} has endpoint outside the vertex set")
        # Not a field: equality, hash, repr and JSON see only the arrows.
        object.__setattr__(self, "_by_id", by_id)

    def arrow(self, arrow_id: str) -> Arrow:
        return self._by_id[arrow_id]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {"id": a.id, "src": a.src, "tgt": a.tgt, "kind": a.kind}
                for a in self.arrows
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Quiver":
        return cls(
            tuple(data["vertices"]),
            tuple(
                Arrow(d["id"], d["src"], d["tgt"], d.get("kind"))
                for d in data["arrows"]
            ),
        )


@dataclass(frozen=True)
class Presentation:
    """Quiver plus quadratic monomial relations.

    A relation is an ordered pair (b, a) of arrow ids with src(b) == tgt(a),
    read right to left: the path "b after a" is zero.
    """

    quiver: Quiver
    relations: frozenset[tuple[str, str]]

    def __post_init__(self):
        for b, a in self.relations:
            if self.quiver.arrow(b).src != self.quiver.arrow(a).tgt:
                raise ValueError(f"relation ({b}, {a}) is not composable")

    def is_relation(self, second: str, first: str) -> bool:
        return (second, first) in self.relations

    def to_json(self) -> dict:
        data = self.quiver.to_json()
        data["relations"] = sorted([b, a] for b, a in self.relations)
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "Presentation":
        return cls(
            Quiver.from_json(data),
            frozenset((b, a) for b, a in data.get("relations", ())),
        )


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict with the first violation found, if any."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# --- relation-free paths ----------------------------------------------------

def _ends(q: Quiver) -> tuple[dict[int, list[Arrow]], dict[int, list[Arrow]]]:
    """The arrows out of and into each vertex, in arrow order."""
    out: dict[int, list[Arrow]] = {v: [] for v in q.vertices}
    into: dict[int, list[Arrow]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        out[a.src].append(a)
        into[a.tgt].append(a)
    return out, into


def _free_order(p: Presentation) -> tuple[list[Arrow], dict[str, list[Arrow]]]:
    """The arrows, each after its relation-free predecessors, and those
    predecessors by arrow id: Kahn's algorithm, without recursion.

    When a relation-free cycle leaves arrows unordered, each still waits for
    an unordered predecessor, so walking back from one repeats an arrow that
    lies on the cycle. The DivergentPathsError raised here names it.
    """
    q, relations = p.quiver, p.relations
    out, into = _ends(q)
    before = {b.id: [a for a in into[b.src] if (b.id, a.id) not in relations] for b in q.arrows}
    waiting = {aid: len(prev) for aid, prev in before.items()}
    order = [a for a in q.arrows if not waiting[a.id]]
    for a in order:  # grows while it is walked
        for b in out[a.tgt]:
            if (b.id, a.id) not in relations:
                waiting[b.id] -= 1
                if not waiting[b.id]:
                    order.append(b)
    if len(order) < len(q.arrows):
        aid, seen = next(a.id for a in q.arrows if waiting[a.id]), set()
        while aid not in seen:
            seen.add(aid)
            aid = next(a.id for a in before[aid] if waiting[a.id])
        raise DivergentPathsError(
            f"relation-free cycle through arrow {aid!r}; the algebra is infinite-dimensional"
        )
    return order, before


def count_paths(p: Presentation) -> dict[tuple[int, int], int]:
    """Number of relation-free paths between every vertex pair.

    Trivial paths are included on the diagonal. The paths ending with an
    arrow are the arrow alone and those ending with each relation-free
    predecessor, added up in one pass in `_free_order`'s order, without
    recursion; a relation-free cycle raises its DivergentPathsError.
    """
    order, before = _free_order(p)
    ending: dict[str, dict[int, int]] = {}
    vertices = p.quiver.vertices
    totals = {(u, v): int(u == v) for u in vertices for v in vertices}
    for b in order:
        counts = ending[b.id] = {b.src: 1}
        for a in before[b.id]:
            for start, c in ending[a.id].items():
                counts[start] = counts.get(start, 0) + c
        for start, c in counts.items():
            totals[(start, b.tgt)] += c
    return totals


# --- special biserial and gentle conditions ---------------------------------

def is_special_biserial(p: Presentation) -> CheckResult:
    """At most two arrows in and out of each vertex, and each arrow has at
    most one relation-free continuation and one relation-free predecessor."""
    q = p.quiver
    out, into = _ends(q)
    for v in q.vertices:
        if len(out[v]) > 2:
            return CheckResult(False, f"more than two arrows start at vertex {v}")
        if len(into[v]) > 2:
            return CheckResult(False, f"more than two arrows end at vertex {v}")
    for b in q.arrows:
        before = [a for a in into[b.src] if not p.is_relation(b.id, a.id)]
        if len(before) > 1:
            return CheckResult(
                False, f"arrow {b.id} continues {len(before)} arrows without relation"
            )
        after = [g for g in out[b.tgt] if not p.is_relation(g.id, b.id)]
        if len(after) > 1:
            return CheckResult(
                False, f"arrow {b.id} is continued by {len(after)} arrows without relation"
            )
    return CheckResult(True)


def is_gentle(p: Presentation) -> CheckResult:
    """Special biserial with the dual uniqueness condition on zero
    compositions. Relations are quadratic monomials by construction."""
    sb = is_special_biserial(p)
    if not sb:
        return sb
    q = p.quiver
    out, into = _ends(q)
    for b in q.arrows:
        killed_in = [a for a in into[b.src] if p.is_relation(b.id, a.id)]
        if len(killed_in) > 1:
            return CheckResult(
                False, f"arrow {b.id} kills {len(killed_in)} incoming compositions"
            )
        killed_out = [g for g in out[b.tgt] if p.is_relation(g.id, b.id)]
        if len(killed_out) > 1:
            return CheckResult(
                False, f"arrow {b.id} is killed by {len(killed_out)} outgoing arrows"
            )
    return CheckResult(True)


# --- Gorenstein dimension ---------------------------------------------------

@dataclass(frozen=True)
class GorensteinReport:
    """Gorenstein dimension of a finite-dimensional gentle algebra.

    n_g is the length of the longest critical path that starts with a gentle
    arrow, 0 when no gentle arrow exists; `critical_path` is one such path.
    """

    n_g: int
    gentle_arrows: tuple[str, ...]
    critical_path: tuple[str, ...]
    dimension: int


def gorenstein_bound(p: Presentation) -> GorensteinReport:
    """The Gorenstein dimension of a finite-dimensional gentle algebra.

    A gentle arrow is one that is not the second arrow of a relation, and
    a critical path is a path whose consecutive arrows are relations.
    Geiss-Reiten (2005): the algebra is Gorenstein of dimension n_g when
    n_g > 0, and of dimension at most 1 when n_g = 0. In the second case
    the dimension is 0 exactly when no vertex has two arrows out:

    - With no gentle arrow, every arrow b is the second arrow of exactly
      one relation (b, a). Sending b to a is injective, since at most one
      relation follows a, so it permutes the arrows: every arrow is also
      the first arrow of a relation. Say no vertex v has two arrows out.
      Then the relation after each arrow into v has the one arrow out of v
      as its second arrow, and that arrow has one relation before it, so
      v has at most one arrow in as well. Each component is a point or an oriented
      cycle with every path of length 2 zero (the loop with square zero is
      the 1-cycle). These algebras are self-injective: dimension 0.
    - Say v has two arrows out. The projective P(v), spanned by the paths
      out of v, has a socle spanned by two maximal paths, one through each
      arrow. An indecomposable injective has a simple socle, so P(v) is not
      injective. The algebra is not self-injective: dimension 1.

    Each arrow has at most one relation after it and one before it, so the
    critical path from a gentle arrow never meets an arrow twice: the first
    arrow met twice would have two relations before it, or one if it were
    the gentle arrow. Rejects a presentation that is not gentle with
    NotGentleError, and one with a relation-free cycle, whose algebra is
    infinite-dimensional, with the DivergentPathsError of `_free_order`,
    the one walk over relation-free paths, which does not recurse.
    """
    gentle = is_gentle(p)
    if not gentle:
        raise NotGentleError(gentle.witness)
    _free_order(p)
    q = p.quiver
    # Gentle: each arrow has at most one relation after it.
    then = {a: b for b, a in p.relations}
    seconds = set(then.values())
    gentle_arrows = tuple(a.id for a in q.arrows if a.id not in seconds)
    best: tuple[str, ...] = ()
    for start in gentle_arrows:
        path = [start]
        while path[-1] in then:
            path.append(then[path[-1]])
        if len(path) > len(best):
            best = tuple(path)
    n_g = len(best)
    # n_g, or else 1 exactly when some vertex has two arrows out
    dimension = n_g or int(len({a.src for a in q.arrows}) < len(q.arrows))
    return GorensteinReport(n_g, gentle_arrows, best, dimension)


# --- type-A cluster-tilted quiver recognition --------------------------------

def _is_connected(adj: Mapping[int, set[int]]) -> bool:
    start = next(iter(adj))
    seen = {start}
    frontier = [start]
    while frontier:
        for w in adj[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    return len(seen) == len(adj)


def is_cluster_tilted_A(q: Quiver) -> CheckResult:
    """Recognize quivers of type-A cluster-tilted algebras (Buan-Vatne 2008).

    In this order, the first failure being the witness: the underlying graph
    is connected, without loops or 2-cycles; its 3-cycles are oriented;
    valencies are at most four, and the arrows at valency-3 and valency-4
    vertices split over 3-cycles as 2+1 and 2+2; no chordless cycle has
    length >= 4. Then each edge {u, v} lies on at most one 3-cycle, say with
    third vertex x, and a shortest u-v path avoiding the edge and x closes a
    chordless cycle of length >= 4: a chord would shorten the path, and a
    path of length 2 would be a second 3-cycle on the edge. Conversely such a
    cycle through {u, v} avoids x, which would give it a chord.
    """
    if not q.vertices:
        return CheckResult(False, "empty vertex set")
    adj: dict[int, set[int]] = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.src].add(a.tgt)
        adj[a.tgt].add(a.src)
    if not _is_connected(adj):
        return CheckResult(False, "underlying graph is not connected")
    for a in q.arrows:
        if a.src == a.tgt:
            return CheckResult(False, f"loop {a.id} is a length-1 cycle")
    for pair, arrows in Counter(frozenset((a.src, a.tgt)) for a in q.arrows).items():
        if arrows > 1:
            u, v = sorted(pair)
            return CheckResult(False, f"length-2 cycle between {u} and {v}")

    # 3-cycles in vertex-list order, from the common neighbours of each edge
    order = {v: i for i, v in enumerate(q.vertices)}
    later = {u: sorted((w for w in adj[u] if order[w] > order[u]), key=order.get) for u in adj}
    directed = {(a.src, a.tgt) for a in q.arrows}
    triangles = []
    for u in q.vertices:
        for v in later[u]:
            for w in (w for w in later[v] if w in adj[u]):
                if not ((u, v) in directed) == ((v, w) in directed) == ((w, u) in directed):
                    return CheckResult(False, f"unoriented 3-cycle on {(u, v, w)}")
                triangles.append((u, v, w))
    third = {frozenset(t) - {x}: x for t in triangles for x in t}  # edge -> a 3-cycle's apex

    for v in q.vertices:
        val = len(adj[v])  # no loops or parallel arrows remain
        if val > 4:
            return CheckResult(False, f"vertex {v} has valency {val}")
        on_cycle = sum(frozenset((v, w)) in third for w in adj[v])
        if val == 4 and (on_cycle != 4 or sum(v in t for t in triangles) != 2):
            return CheckResult(
                False, f"valency-4 vertex {v} does not split 2+2 over two 3-cycles"
            )
        if val == 3 and on_cycle != 2:
            return CheckResult(
                False, f"valency-3 vertex {v} does not split 2+1 over a 3-cycle"
            )

    for a in q.arrows:  # breadth-first search for a detour around each edge
        u, v = a.src, a.tgt
        x = third.get(frozenset((u, v)))
        parent = {u: u, x: x}  # blocks x (None when no 3-cycle holds the edge)
        frontier = [u]
        for w in frontier:
            for y in adj[w] - parent.keys():
                if (w, y) != (u, v):
                    parent[y] = w
                    frontier.append(y)
        if v in parent:
            cycle = [v]
            while cycle[-1] != u:
                cycle.append(parent[cycle[-1]])
            return CheckResult(
                False, f"chordless cycle of length {len(cycle)}: {tuple(reversed(cycle))}"
            )
    return CheckResult(True)


def _blocks(q: Quiver) -> dict[int, list[tuple]]:
    """The blocks at each vertex v (Buan-Vatne 2008): each oriented 3-cycle
    v -> x -> y -> v as ("cycle", x, y), and each arrow on no 3-cycle as
    ("out", w) or ("in", w) with w its other end.

    A 3-cycle is listed once for each triple of arrows that closes it, so
    a parallel arrow or a loop shows as a second block on the same
    vertices, which no tree of blocks has.
    """
    out, _ = _ends(q)
    blocks: dict[int, list[tuple]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        u, w = a.src, a.tgt
        cycles = [(b, c) for b in out[w] for c in out[b.tgt] if c.tgt == u]
        if not cycles:
            blocks[u].append(("out", w))
            blocks[w].append(("in", u))
        for b, c in cycles:
            if a <= b and a <= c:  # from the cycle's least arrow
                x = b.tgt
                blocks[u].append(("cycle", w, x))
                blocks[w].append(("cycle", x, u))
                blocks[x].append(("cycle", u, w))
    return blocks


def connecting_vertices(q: Quiver) -> frozenset[int]:
    """The vertices in at most one block: of valency one, of valency two
    on a 3-cycle, or the lone vertex of the one-vertex quiver.

    Rejects quivers that fail the type-A recognition with
    NotClusterTiltedError.
    """
    check = is_cluster_tilted_A(q)
    if not check:
        raise NotClusterTiltedError(check.witness)
    return frozenset(v for v, here in _blocks(q).items() if len(here) <= 1)


def canonical_key(q: Quiver, v: int) -> tuple:
    """Canonical form of the quiver q with the vertex v pinned.

    A type-A cluster-tilted quiver is a tree of blocks (`_blocks`), rebuilt
    up to isomorphism from the tree rooted at v: two pinned quivers have
    equal keys exactly when an isomorphism maps pin to pin. A vertex's key
    is the sorted tuple of its blocks other than the one it was entered by,
    ("out", key of w), ("in", key of w) or ("cycle", key of x, key of y);
    sorting at every vertex, not only at the root, keeps it canonical on
    any tree of blocks. The walk is a queue, not a recursion. Raises
    NotClusterTiltedError when it meets a vertex twice or misses one.
    """
    if v not in q.vertices:
        raise ValueError(f"pinned vertex {v} is not a vertex of the quiver")
    blocks = _blocks(q)
    parent = {v: v}
    order = [v]
    for w in order:  # grows while it is walked
        if w != v:  # keep only the blocks w was not entered by
            blocks[w].remove(next(b for b in blocks[w] if parent[w] in b[1:]))
        for b in blocks[w]:
            for u in b[1:]:
                if u in parent:
                    raise NotClusterTiltedError(f"blocks from vertex {v} meet vertex {u} twice")
                parent[u] = w
                order.append(u)
    if len(order) < len(q.vertices):
        missed = next(u for u in q.vertices if u not in parent)
        raise NotClusterTiltedError(f"blocks from vertex {v} miss vertex {missed}")
    key: dict[int, tuple] = {}
    for w in reversed(order):  # every vertex after those it enters
        key[w] = tuple(sorted((b[0], *(key[u] for u in b[1:])) for b in blocks[w]))
    return key[v]


# --- isomorphism ------------------------------------------------------------

_ISO_LIMIT = 12


def find_isomorphism(
    a: Quiver,
    b: Quiver,
    pin: tuple[int, int] | None = None,
) -> dict[int, int] | None:
    """Vertex bijection mapping arrows bijectively with multiplicity. `pin`
    fixes the image of one vertex. Exhaustive with degree pruning; limited
    size."""
    if len(a.vertices) != len(b.vertices) or len(a.arrows) != len(b.arrows):
        return None
    if len(a.vertices) > _ISO_LIMIT:
        raise SizeLimitError(f"isomorphism search limited to {_ISO_LIMIT} vertices")

    mult_a, mult_b = (Counter((x.src, x.tgt) for x in q.arrows) for q in (a, b))

    def degree_keys(q: Quiver) -> dict[int, tuple[int, int, int]]:
        """(arrows out, arrows in, loops) at each vertex."""
        out, into = _ends(q)
        return {v: (len(out[v]), len(into[v]), sum(x.tgt == v for x in out[v])) for v in q.vertices}

    keys_a, keys_b = degree_keys(a), degree_keys(b)
    if sorted(keys_a.values()) != sorted(keys_b.values()):
        return None

    verts_a = sorted(a.vertices)
    used: set[int] = set()
    mapping: dict[int, int] = {}

    def consistent(v: int, w: int) -> bool:
        if keys_a[v] != keys_b[w]:
            return False
        for u, img in mapping.items():
            if mult_a.get((v, u), 0) != mult_b.get((w, img), 0):
                return False
            if mult_a.get((u, v), 0) != mult_b.get((img, w), 0):
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(verts_a):
            return True
        v = verts_a[i]
        candidates = [pin[1]] if pin and pin[0] == v else b.vertices
        for w in candidates:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if pin and (pin[0] not in a.vertices or pin[1] not in b.vertices):
        return None
    return dict(mapping) if backtrack(0) else None


# --- emission ----------------------------------------------------------------

def to_dot(p: Presentation, name: str = "quiver") -> str:
    """DOT text: solid tube-map arrows, bold shifted-part arrows, dashed
    overlay edges for relations."""
    q = p.quiver
    lines = [f"digraph {name} {{"]
    for v in q.vertices:
        lines.append(f"  {v};")
    for a in q.arrows:
        style = ""
        if a.kind in ("D", "loop"):
            style = ", style=bold"
        lines.append(f'  {a.src} -> {a.tgt} [label="{a.id}"{style}];')
    for second, first in sorted(p.relations):
        u = q.arrow(first).src
        w = q.arrow(second).tgt
        lines.append(f"  {u} -> {w} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
