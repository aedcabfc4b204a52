"""Quivers with quadratic monomial relations.

Path counting and the Gorenstein dimension of a gentle algebra, both read
from `_free_order`, the one walk over relation-free paths, which does not
recurse; the special biserial and gentle conditions; recognition of type-A
cluster-tilted quivers as trees of blocks, built once per quiver, whose
block counts give the connecting vertices; `_pinned_form`, the arrows read
in the order of the block walk from a connecting vertex, an exact key of the
quiver pinned there, kept with that order; and `find_isomorphism`, which
checks the zip of two such orders against the two quivers' own arrows.
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


class NotClusterTiltedError(ValueError):
    """The quiver fails the type-A cluster-tilted recognition; `witness` is
    the recognizer's first violation."""

    def __init__(self, witness: str | None):
        super().__init__(f"not a type-A cluster-tilted quiver: {witness}")
        self.witness = witness


@dataclass(frozen=True)
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
        if len(vs) != len(self.vertices):
            raise ValueError("vertex ids must be unique")
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
        try:
            arrows = [Arrow(d["id"], d["src"], d["tgt"], d.get("kind")) for d in data["arrows"]]
            return cls(tuple(data["vertices"]), tuple(arrows))
        except KeyError as exc:
            raise ValueError(f"quiver JSON lacks field {exc}") from None


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
            try:
                second, first = self.quiver.arrow(b), self.quiver.arrow(a)
            except KeyError as exc:
                raise ValueError(f"relation ({b}, {a}) names unknown arrow {exc}") from None
            if second.src != first.tgt:
                raise ValueError(f"relation ({b}, {a}) is not composable")

    def is_relation(self, second: str, first: str) -> bool:
        return (second, first) in self.relations

    def to_json(self) -> dict:
        data = self.quiver.to_json()
        data["relations"] = sorted([b, a] for b, a in self.relations)
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "Presentation":
        relations = data.get("relations", ())
        for r in relations:
            if not isinstance(r, (list, tuple)) or len(r) != 2:
                raise ValueError(f"relation {r!r} is not a pair of arrow ids")
        return cls(Quiver.from_json(data), frozenset(map(tuple, relations)))


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
    """Number of relation-free paths between every vertex pair joined by
    one; a pair that is absent has none.

    Trivial paths are included on the diagonal. The paths ending with an
    arrow are the arrow alone and those ending with each relation-free
    predecessor, added up in one pass in `_free_order`'s order, without
    recursion; a relation-free cycle raises its DivergentPathsError. Only
    the nonzero counts are kept, so the result grows with the paths, not
    with the square of the vertices. An arrow's counts are kept only until
    its last relation-free successor has read them.
    """
    order, before = _free_order(p)
    unread = Counter(a.id for prev in before.values() for a in prev)
    ending: dict[str, dict[int, int]] = {}
    totals = {(v, v): 1 for v in p.quiver.vertices}
    for b in order:
        counts = {b.src: 1}
        for a in before[b.id]:
            for start, c in ending[a.id].items():
                counts[start] = counts.get(start, 0) + c
            unread[a.id] -= 1
            if not unread[a.id]:
                del ending[a.id]
        if unread[b.id]:
            ending[b.id] = counts
        for start, c in counts.items():
            pair = (start, b.tgt)
            totals[pair] = totals.get(pair, 0) + c
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
            if a.id <= b.id and a.id <= c.id:  # from the cycle's least arrow
                x = b.tgt
                blocks[u].append(("cycle", w, x))
                blocks[w].append(("cycle", x, u))
                blocks[x].append(("cycle", u, w))
    return blocks


def _walk(
    blocks: dict[int, list[tuple]], v: int
) -> tuple[dict[int, tuple[int, tuple] | None], tuple[int, int] | None]:
    """Walk the blocks breadth-first from v, with a queue, leaving each
    vertex by its blocks other than the one it was entered by; the block
    lists are read, never changed.

    Returns each vertex met, in the order met, with the vertex and block
    it was entered from (None at v), and the first revisit (w, u), a
    block at w meeting u again, or None. The blocks at w that hold the
    vertex w was entered from are skipped: any but the entering block
    would have met w twice there already.
    """
    via: dict[int, tuple[int, tuple] | None] = {v: None}
    order = [v]
    for w in order:  # grows while it is walked
        came = via[w]
        for b in blocks[w]:
            if came and came[0] in b[1:]:
                continue
            for u in b[1:]:
                if u in via:
                    return via, (w, u)
                via[u] = (w, b)
                order.append(u)
    return via, None


def is_cluster_tilted_A(q: Quiver, blocks: dict[int, list[tuple]] | None = None) -> CheckResult:
    """Recognize quivers of type-A cluster-tilted algebras (Buan-Vatne 2008)
    as connected trees of blocks (`_blocks`), each vertex in at most two.

    In this order, the first failure being the witness: a vertex set that
    is not empty; no loop or 2-cycle; each vertex in at most two blocks;
    a walk of the blocks from the first vertex (`_walk`) that meets no
    vertex twice and misses none. `blocks`, when given, must be
    `_blocks(q)`; `connecting_vertices` and `connecting_keys` pass the
    ones they read.

    Buan-Vatne's conditions say the same: a connected underlying graph;
    valencies at most four, split over 3-cycles as 2+1 at valency 3 and
    2+2 at valency 4; every chordless cycle an oriented 3-cycle. A vertex
    lies in one block per arrow on no 3-cycle and one per 3-cycle. In a
    tree of blocks two 3-cycles share at most a vertex, so two blocks
    give the splits; a cycle of the graph leaving a block would close a
    cycle of blocks, so each stays in an oriented 3-cycle; every arrow is
    in a block, so the blocks are connected as the graph is. Conversely
    the splits leave at most two blocks at a vertex, and a cycle of
    blocks gives the induced cycle below, which the conditions forbid: at
    length 2, an arrow on two 3-cycles, its ends have three arrows on
    3-cycles.

    When the walk meets u again from w, the paths from w and from u back
    to the first vertex join where they meet, leaving out the joining
    vertex if both were entered from it by one 3-cycle. The cycle
    x_1 .. x_k so found has distinct blocks B_1 .. B_k with x_i in B_i
    and B_(i+1), and no other block holds x_i. An arrow between x_i and
    x_j lies in a block holding both, so only consecutive vertices are
    joined: the cycle is induced. Of length 3 it is unoriented, since an
    oriented 3-cycle would be a third block at its vertices; of length 2
    it is an arrow on two 3-cycles, since a lone arrow is one block.
    """
    if not q.vertices:
        return CheckResult(False, "empty vertex set")
    for a in q.arrows:
        if a.src == a.tgt:
            return CheckResult(False, f"loop {a.id} is a length-1 cycle")
    for pair, arrows in Counter(frozenset((a.src, a.tgt)) for a in q.arrows).items():
        if arrows > 1:
            u, v = sorted(pair)
            return CheckResult(False, f"length-2 cycle between {u} and {v}")
    if blocks is None:
        blocks = _blocks(q)
    for v, here in blocks.items():
        if len(here) > 2:
            return CheckResult(False, f"vertex {v} lies in {len(here)} blocks")
    via, meet = _walk(blocks, q.vertices[0])
    if meet is None:
        if len(via) < len(q.vertices):
            return CheckResult(False, "underlying graph is not connected")
        return CheckResult(True)

    def up(x: int) -> list[int]:
        path = [x]
        while via[path[-1]]:
            path.append(via[path[-1]][0])
        return path

    from_w, from_u = up(meet[0]), up(meet[1])
    while len(from_w) > 1 and len(from_u) > 1 and via[from_w[-2]] == via[from_u[-2]]:
        from_w.pop()  # shared, or both entered by one 3-cycle
        from_u.pop()
    if from_w[-1] == from_u[-1]:
        from_u.pop()  # where the two paths join
    cycle = from_w + from_u[::-1]
    if len(cycle) == 2:
        u, v = sorted(cycle)
        return CheckResult(False, f"arrow between {u} and {v} lies on two 3-cycles")
    if len(cycle) == 3:
        return CheckResult(False, f"unoriented 3-cycle on {tuple(sorted(cycle))}")
    return CheckResult(False, f"chordless cycle of length {len(cycle)}: {tuple(cycle)}")


def _tree_of_blocks(q: Quiver) -> tuple[dict[int, list[tuple]], list[int]]:
    """`_blocks(q)` and its vertices in at most one block, in vertex order, or
    NotClusterTiltedError with the recogniser's witness; built once."""
    blocks = _blocks(q)
    check = is_cluster_tilted_A(q, blocks)
    if not check:
        raise NotClusterTiltedError(check.witness)
    return blocks, [v for v, here in blocks.items() if len(here) <= 1]


def connecting_vertices(q: Quiver) -> frozenset[int]:
    """The vertices in at most one block: of valency one, of valency two
    on a 3-cycle, or the lone vertex of the one-vertex quiver."""
    return frozenset(_tree_of_blocks(q)[1])


def _pinned_form(q: Quiver, blocks: dict[int, list[tuple]], v: int) -> tuple[tuple, tuple]:
    """q's arrows as (position of src, position of tgt) pairs, sorted, and
    its vertices, in the order of the block walk from v (`_walk`; `blocks`
    is `_blocks(q)`). q must be connected, as a recognised quiver is, so
    the walk meets every vertex and the order's length is the vertex count."""
    order = tuple(_walk(blocks, v)[0])
    at = {u: i for i, u in enumerate(order)}
    return tuple(sorted((at[a.src], at[a.tgt]) for a in q.arrows)), order


def connecting_keys(q: Quiver) -> dict[int, tuple[tuple, tuple]]:
    """`_pinned_form` at each connecting vertex, from one `_blocks` build:
    the key, equal exactly when an isomorphism maps pin to pin, and the
    walk order, which `find_isomorphism` zips at a key hit.

    The walk order is canonical. From a connecting vertex of a recognised
    quiver the walk meets every vertex once and leaves each by at most one
    block: the pin lies in at most one, every other vertex in at most two,
    one of them the block it was entered by. A block lists its other
    vertices as the arrows orient them, a 3-cycle in its cyclic order. So
    a pinned isomorphism maps the i-th vertex of one walk to the i-th of
    the other, and the keys are equal. Conversely equal keys give equal
    vertex counts, one more than the largest position, and the zip of their
    orders sends each arrow at positions (i, j) to one at (i, j).
    """
    blocks, connecting = _tree_of_blocks(q)
    return {v: _pinned_form(q, blocks, v) for v in connecting}


# --- isomorphism ------------------------------------------------------------

def find_isomorphism(a: Quiver, b: Quiver, pin: tuple, orders: tuple) -> dict[int, int] | None:
    """The map zipping orders[0], a's vertices, with orders[1], b's, if it
    is an isomorphism from a to b that maps pin[0] to pin[1], else None.

    The map is checked on the two quivers alone: a bijection of the vertex
    sets, pin to pin, carrying a's arrows onto b's with multiplicity. No
    block, walk or key is read, so a map returned is a pinned isomorphism
    whatever computed the orders; on the walk orders of equal keys
    (`connecting_keys`) one is returned. Linear in the arrows.
    """
    iso = dict(zip(*orders))
    if iso.keys() != set(a.vertices) or set(iso.values()) != set(b.vertices):
        return None
    if len(b.vertices) != len(iso) or iso.get(pin[0]) != pin[1]:
        return None
    moved = Counter((iso[x.src], iso[x.tgt]) for x in a.arrows)
    return iso if moved == Counter((x.src, x.tgt) for x in b.arrows) else None


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
