"""Helpers that several test modules share and no module of `tubecat`
calls: a presentation constructor, every small gentle presentation, small
enumerations of the tube, the oracle's cluster Hom, the quasisimple map of
a rigid object, the vanishing locus of the Hom-functor sweep, the end
strings of an algebra with the projective/injective comparison built on
them, an algebra with a band, the former recursive path
count, the former object-building brute enumeration, the former builder
that filled the wing of every top and validated every object, the former pinned
isomorphism invariant, the former `quiver.canonical_key` of a quiver pinned
at any vertex, the recursive form that `quiver.connecting_keys` returned
before it read the pinned form of the block walk, the former
`quiver.find_isomorphism`, an exhaustive search
limited to 12 vertices that is now the reference for the block-walk
certificate, a test that a vertex map is a pinned isomorphism, the pinned
pairs that decide whether a key partitions as isomorphism does and the gate
that checks them with the search, the former translate certificates,
the former `strings.string_module`, which walks every vertex,
arrow and relation of the algebra, the former `strings.is_string`, which
reads every letter from the quiver, the `tube._columns` before that, which
looked its unknowns' ids up in a table per column, and the former pair
`tube._columns` and `tube._nullities`, which the one solver per family
`tube._solve` replaced."""

import itertools
from array import array
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from tubecat import homfunctor, kernel, strings
from tubecat.endo import LOOP_ID
from tubecat.quiver import (
    Arrow,
    DivergentPathsError,
    GorensteinReport,
    Presentation,
    NotClusterTiltedError,
    Quiver,
    _blocks,
    _ends,
    _walk,
    count_paths,
    gorenstein_bound,
    is_gentle,
)
from tubecat.rigid import RigidObject, from_summands, tau_rigid
from tubecat.strings import Letter, StringModule, StringWord, trivial, word, zero_module
from tubecat.tube import HomDims, Indec, hom_tube_oracle, in_wing, tau


def presentation(vertices: Sequence[int], arrows: Iterable[tuple], relations: Iterable[tuple[str, str]] = ()) -> Presentation:
    """Convenience constructor; arrows are (id, src, tgt[, kind]) tuples."""
    return Presentation(
        Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows)),
        frozenset(relations),
    )


class SmallGentle(NamedTuple):
    presentation: Presentation
    finite: bool  # count_paths converges
    report: GorensteinReport | None  # None when gorenstein_bound diverges


@lru_cache(maxsize=1)
def small_gentle_presentations() -> tuple[SmallGentle, ...]:
    """Every gentle presentation on vertices 1..k (k <= 3) with 1..4 arrows,
    over every set of relations. The arrows a0, a1, ... run through a
    multiset of (source, target) pairs, so relabellings repeat."""
    out = []
    for k in (1, 2, 3):
        pairs = [(u, v) for u in range(1, k + 1) for v in range(1, k + 1)]
        for m in (1, 2, 3, 4):
            for ends in itertools.combinations_with_replacement(pairs, m):
                degrees = Counter(u for u, _ in ends) + Counter(-v for _, v in ends)
                if max(degrees.values()) > 2:
                    continue
                arrows = [(f"a{i}", u, v) for i, (u, v) in enumerate(ends)]
                composable = [(b, a) for a, _, tgt in arrows for b, src, _ in arrows if src == tgt]
                for r in range(len(composable) + 1):
                    for relations in itertools.combinations(composable, r):
                        p = presentation(range(1, k + 1), arrows, relations)
                        if not is_gentle(p):
                            continue
                        try:
                            count_paths(p)
                            finite = True
                        except DivergentPathsError:
                            finite = False
                        try:
                            report = gorenstein_bound(p)
                        except DivergentPathsError:
                            report = None
                        out.append(SmallGentle(p, finite, report))
    return tuple(out)


def rigid_indecomposables(n: int) -> list[Indec]:
    """The n*(n-1) rigid indecomposables, in the kernel's fixed index order."""
    return [Indec(n, a, b) for a in range(1, n + 1) for b in range(1, n)]


def reference_enumerate_brute(n: int) -> list[RigidObject]:
    """The former brute route of `enumerate_maximal_rigid`, unsorted: every
    pairwise-compatible (n-1)-subset of the rigid indecomposables that no
    outside candidate is compatible with in full, in
    `kernel.compatible_subsets` order, built through `from_summands`."""
    masks = kernel.compat_masks(n)
    out = []
    for subset in kernel.compatible_subsets(masks, n - 1):
        chosen = 0
        for i in subset:
            chosen |= 1 << i
        common = (1 << len(masks)) - 1
        for i in subset:
            common &= masks[i]
        if common & ~chosen:
            continue
        summands = [Indec(n, *kernel.rigid_coords(n, i)) for i in subset]
        out.append(from_summands(n, summands))
    return out


def reference_wing_fillings(n: int, orbit: int, height: int) -> list[tuple[Indec, ...]]:
    """The former `rigid._wing_fillings`, with fresh `Indec`s: every way to
    place `height` pairwise-compatible summands in the wing with summit
    (orbit, height), summit included, by splitting below the summit into a
    left subwing of height c and a right one of height height - 1 - c."""
    summit = Indec(n, orbit, height)
    if height == 1:
        return [(summit,)]
    out = []
    for c in range(height):
        left = reference_wing_fillings(n, orbit, c) if c else [()]
        right = reference_wing_fillings(n, orbit + c + 1, height - 1 - c) if c < height - 1 else [()]
        for fl in left:
            for fr in right:
                out.append((summit,) + fl + fr)
    return out


def reference_enumerate_maximal_rigid(n: int) -> list[RigidObject]:
    """The former `enumerate_maximal_rigid`, before it built each translate
    orbit from its representative: fill the wing of every top, validate
    every object through `from_summands`, and sort by top orbit, then
    summands."""
    objects = [
        from_summands(n, f) for a in range(1, n + 1) for f in reference_wing_fillings(n, a, n - 1)
    ]
    objects.sort(key=lambda t: (t.top.orbit, tuple((s.orbit, s.ql) for s in t.summands)))
    return objects


def quasisimples(n: int) -> list[Indec]:
    return [Indec(n, a, 1) for a in range(1, n + 1)]


def wing_members(summit: Indec) -> list[Indec]:
    """All indecomposables in the wing of `summit`, top-down, left-right."""
    n = summit.rank
    out = []
    for b in range(summit.ql, 0, -1):
        for a in range(summit.orbit, summit.orbit + summit.ql - b + 1):
            out.append(Indec(n, a, b))
    return out


def hom_cluster_oracle(x: Indec, y: Indec) -> HomDims:
    """Cluster Hom dimensions with both parts taken from the oracle."""
    return HomDims(hom_tube_oracle(x, y), hom_tube_oracle(y, tau(x, 2)))


def quasisimple_map(t: RigidObject) -> dict[Indec, Indec]:
    """Send each quasisimple in the top wing to the summand of smallest
    quasilength whose wing contains it; a bijection onto the summands."""
    top = t.top
    out = {}
    for i in range(top.ql):
        q = Indec(t.rank, top.orbit + i, 1)
        best = min(
            (s for s in t.summands if in_wing(q, s)),
            key=lambda s: s.ql,
        )
        out[q] = best
    return out


def on_vanishing_locus(t: RigidObject, x: Indec) -> bool:
    """Outside the fundamental domain, Hom vanishes exactly on the objects
    (n, kn - 1), k >= 2, in top-normalized coordinates. The former
    `homfunctor.on_vanishing_locus`; the sweep reads the same pattern as a
    mask."""
    return homfunctor._on_locus(t.rank, homfunctor._normalized_orbit(t, x), x.ql)


def end_string(p: Presentation, graph: Mapping[Letter, Sequence[Letter]], v: int, d: int) -> StringWord:
    """String of the projective (d = 1) or injective (d = -1) at v.

    Every letter of direction d at v starts one maximal walk of letters of
    that direction in the letter graph: a maximal relation-free path out of
    v (d = 1), or the inverse of one into v (d = -1). There are at most two
    such walks for a special biserial presentation; the string is the first
    walk inverted, followed by the second.
    """
    arrows = [a for a in p.quiver.arrows if (a.src if d > 0 else a.tgt) == v]
    walks = []
    for a in arrows:
        walk = [(a.id, d)]
        while nxt := [y for y in graph[walk[-1]] if y[1] == d]:
            if len(nxt) > 1:
                raise ValueError("not special biserial")
            if nxt[0] in walk:
                kind = "projectives" if d > 0 else "injectives"
                raise ValueError(f"relation-free cycle; {kind} are infinite")
            walk.append(nxt[0])
        walks.append(walk)
    if not walks:
        return trivial(v)
    first, second = walks if len(walks) > 1 else (walks[0], [])
    return word([(aid, -e) for aid, e in reversed(first)] + second)


def projective_string(p, v: int) -> StringWord:
    """String of the indecomposable projective at v: backwards along one
    maximal relation-free path out of v, then forwards along the other; the
    two paths are the walks of direct letters from v in the letter graph."""
    return end_string(p, strings._letters(p).successors, v, 1)


def injective_string(p, v: int) -> StringWord:
    """String of the indecomposable injective at v: forwards along one
    maximal relation-free path into v, then backwards along the other; the
    inverses of the two paths are the walks of inverse letters from v."""
    return end_string(p, strings._letters(p).successors, v, -1)


def projectives_match_injectives(p: Presentation) -> bool:
    """Whether the projective and injective string multisets coincide, that
    is, whether a finite-dimensional string algebra is self-injective: the
    reference for `quiver.gorenstein_bound`'s dimension 0."""
    graph = strings._letters(p).successors
    projs = sorted(end_string(p, graph, v, 1).canonical() for v in p.quiver.vertices)
    injs = sorted(end_string(p, graph, v, -1).canonical() for v in p.quiver.vertices)
    return projs == injs


def free_loop(p: Presentation) -> Presentation:
    """p without the relations of its loop. At rank 2 the loop is the only
    arrow, so the loop alone is a band."""
    return Presentation(p.quiver, frozenset(r for r in p.relations if LOOP_ID not in r))


def reference_columns(n: int, b: int, top: int) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """The `tube._columns` before `columns`: the same steps (new, rows),
    with the ids of the unknowns (i, m) of columns m and m - 1 kept in a
    dict per column; a row naming an unknown that does not exist raises
    `KeyError`."""
    size = 0
    previous: dict[int, int] = {}  # i -> id of the unknown (i, m - 1)
    for m in itertools.count():
        vy = (top - 1 - m) % n  # vertex of e^Y_m; e^X_i sits at (b - 1 - i) mod n
        new = range((b - 1 - vy) % n, b, n)
        current = dict(zip(new, range(size, size + len(new))))
        size += len(new)
        rows = []
        for i in range((b - 2 - vy) % n, b, n):  # e^X_i at vy + 1
            row = ()
            if i + 1 < b:
                row = (current[i + 1],)
            if m >= 1:
                row += (previous[i],)
            if row:
                rows.append(row)
        yield len(new), rows
        previous = current


def columns(n: int, b: int, top: int) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """The former `tube._columns`: the commutation system of X = (0, b)
    against Y with top vertex `top` (vertex of e^Y_j is (top - 1 - j) mod
    n), one step per column m of Y, without end: the number of new unknowns
    (i, m) and the rows at m, numbered over all unknowns so far. The id of
    (i, m) is the column's first id plus (i - lowest) // n."""
    size = 0
    first = lowest = 0
    for m in itertools.count():
        vy = (top - 1 - m) % n  # vertex of e^Y_m; e^X_i sits at (b - 1 - i) mod n
        previous, below = first, lowest  # column m - 1
        first, lowest = size, (b - 1 - vy) % n
        new = len(range(lowest, b, n))
        size += new
        rows = []
        for i in range((b - 2 - vy) % n, b, n):  # e^X_i at vy + 1
            row = ()
            if i + 1 < b:
                row = (first + (i + 1 - lowest) // n,)
            if m >= 1:
                row += (previous + (i - below) // n,)
            if row:
                rows.append(row)
        yield new, rows


def nullities(steps: Iterable[tuple[int, Iterable[tuple[int, ...]]]]) -> Iterator[int]:
    """The former `tube._nullities`: the dimension of the solutions of a
    growing system over any field, after each step. A step (new, rows) adds
    `new` unknowns and then the rows x_u = x_v, given as (u, v), and
    x_u = 0, given as (u,), over all unknowns so far; the nullity is the
    number of components of the equating graph without a zero-row, kept by
    union-find with path halving."""
    parent = array("i")
    grounded = bytearray()
    free = 0
    for new, rows in steps:
        size = len(parent)
        parent.extend(range(size, size + new))
        grounded.extend(bytes(new))
        free += new
        for row in rows:
            u = row[0]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            if len(row) == 1:
                if not grounded[u]:
                    grounded[u] = 1
                    free -= 1
                continue
            v = row[1]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[v] = u
                if not (grounded[u] and grounded[v]):
                    free -= 1
                    grounded[u] = grounded[u] or grounded[v]
        yield free


def reference_count_paths(p: Presentation) -> dict[tuple[int, int], int]:
    """The former `quiver.count_paths`: a depth-first search that counts
    the paths ending with each arrow from those ending with each
    relation-free predecessor, found by scanning every arrow, and raises
    DivergentPathsError on meeting an arrow already on its stack. It
    recurses once per arrow of the longest relation-free path."""
    arrows = p.quiver.arrows
    successors = {
        a.id: [b.id for b in arrows if b.src == a.tgt and not p.is_relation(b.id, a.id)]
        for a in arrows
    }
    by_id = {a.id: a for a in arrows}
    memo: dict[str, dict[int, int]] = {}
    on_stack: set[str] = set()

    def ending_with(aid: str) -> dict[int, int]:
        if aid in memo:
            return memo[aid]
        if aid in on_stack:
            raise DivergentPathsError(
                f"relation-free cycle through arrow {aid!r}; path count diverges"
            )
        on_stack.add(aid)
        counts = {by_id[aid].src: 1}
        for prev in arrows:
            if aid in successors[prev.id]:
                for start, c in ending_with(prev.id).items():
                    counts[start] = counts.get(start, 0) + c
        on_stack.discard(aid)
        memo[aid] = counts
        return counts

    totals = {(u, v): 0 for u in p.quiver.vertices for v in p.quiver.vertices}
    for v in p.quiver.vertices:
        totals[(v, v)] = 1
    for a in arrows:
        for start, c in ending_with(a.id).items():
            totals[(start, a.tgt)] += c
    return totals


def pinned_invariant(q: Quiver, v: int) -> int:
    """Isomorphism invariant of the quiver q with the vertex v pinned.

    Colour refinement (1-WL) on the directed multigraph: vertices start
    coloured "is v" or not, and each round recolours a vertex by its colour
    and the multisets of colours at the other ends of its out- and
    in-arrows, until the number of colours stops growing. Each round's
    colours are renumbered through the sorted palette of its signatures, and
    the key hashes the sequence of sorted signature multisets. Vertex
    numbers and arrow ids and order never enter it, so it is unchanged by
    any relabelling of vertices that carries v along, any reordering of the
    arrows and any renaming of their ids: if (q, v) and (q', v') are
    isomorphic with v mapped to v', their keys are equal. The converse need
    not hold, so equal keys still call for `reference_find_isomorphism`,
    which, unlike the certificate in `quiver`, needs no tree of blocks.
    """
    if v not in q.vertices:
        raise ValueError(f"pinned vertex {v} is not a vertex of the quiver")
    out, into = _ends(q)
    colour = {u: int(u == v) for u in q.vertices}
    n_colours = len(set(colour.values()))
    key = 0
    while True:
        signature = {
            u: (
                colour[u],
                tuple(sorted(colour[a.tgt] for a in out[u])),
                tuple(sorted(colour[a.src] for a in into[u])),
            )
            for u in q.vertices
        }
        key = hash((key, tuple(sorted(signature.values()))))
        palette = sorted(set(signature.values()))
        if len(palette) == n_colours:
            return key
        n_colours = len(palette)
        index = {s: i for i, s in enumerate(palette)}
        colour = {u: index[signature[u]] for u in q.vertices}


def reference_canonical_key(q: Quiver, v: int) -> tuple:
    """The former `quiver.canonical_key`: the canonical form of the quiver q
    with any vertex v pinned, built from its own `_blocks(q)`, and the
    reference whose partition `quiver.connecting_keys` must give at the
    connecting vertices.

    A type-A cluster-tilted quiver is a tree of blocks, rebuilt up to
    isomorphism from the tree rooted at v: two pinned quivers have equal
    keys exactly when an isomorphism maps pin to pin. A vertex's key is the
    sorted tuple of its blocks other than the one it was entered by,
    ("out", key of w), ("in", key of w) or ("cycle", key of x, key of y).
    Raises NotClusterTiltedError when the walk (`_walk`) meets a vertex
    twice or misses one, and ValueError on a pin outside the quiver.
    """
    if v not in q.vertices:
        raise ValueError(f"pinned vertex {v} is not a vertex of the quiver")
    blocks = _blocks(q)
    via, meet = _walk(blocks, v)
    if meet:
        raise NotClusterTiltedError(f"blocks from vertex {v} meet vertex {meet[1]} twice")
    if len(via) < len(q.vertices):
        missed = next(u for u in q.vertices if u not in via)
        raise NotClusterTiltedError(f"blocks from vertex {v} miss vertex {missed}")
    key: dict[int, tuple] = {}
    for w in reversed(via):  # every vertex after those it enters
        # the block w was entered by holds a vertex not yet keyed
        here = (b for b in blocks[w] if all(u in key for u in b[1:]))
        key[w] = tuple(sorted((b[0], *(key[u] for u in b[1:])) for b in here))
    return key[v]


class SizeLimitError(ValueError):
    """Input exceeds the exhaustive-search size limit."""


_ISO_LIMIT = 12


def reference_find_isomorphism(
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


def assert_pinned_isomorphism(
    a: Quiver, b: Quiver, pin: tuple[int, int], mapping: Mapping[int, int]
) -> None:
    """Assert that the map is a bijection of the vertices that sends pin[0]
    to pin[1] and the arrows of a onto those of b, with multiplicity."""
    assert sorted(mapping) == sorted(a.vertices)
    assert sorted(mapping.values()) == sorted(b.vertices)
    assert mapping[pin[0]] == pin[1]
    moved = Counter((mapping[x.src], mapping[x.tgt]) for x in a.arrows)
    assert moved == Counter((x.src, x.tgt) for x in b.arrows)


class KeyedPairs(NamedTuple):
    groups: int  # distinct keys
    alike: list[tuple[Quiver, Quiver, tuple[int, int]]]  # equal keys: must be isomorphic
    apart: list[tuple[Quiver, Quiver, tuple[int, int]]]  # different keys: must not be


def keyed_pairs(pins: Iterable[tuple[Quiver, int]], key: Callable[[Quiver, int], tuple]) -> KeyedPairs:
    """The pinned pairs (a, b, pin) whose isomorphism decides whether `key`
    groups the pinned quivers (q, v) exactly as isomorphism does.

    Each pinned quiver is paired with the first of its key, so equal keys
    must mean isomorphic. The firsts of different keys must be pairwise
    non-isomorphic; a pair is listed only when it has the same vertex
    degrees, in and out, and the same degrees at the pin, since no pinned
    isomorphism joins any other pair.
    """
    groups: dict[tuple, list[tuple[Quiver, int]]] = {}
    for q, v in pins:
        groups.setdefault(key(q, v), []).append((q, v))
    alike, apart = [], []
    by_degrees: dict[tuple, list[tuple[Quiver, int]]] = {}
    for (q0, v0), *rest in groups.values():
        alike += [(q, q0, (v, v0)) for q, v in rest]
        out, into = _ends(q0)
        degrees = (
            tuple(sorted((len(out[u]), len(into[u])) for u in q0.vertices)),
            (len(out[v0]), len(into[v0])),
        )
        apart += [(q0, q, (v0, v)) for q, v in by_degrees.setdefault(degrees, [])]
        by_degrees[degrees].append((q0, v0))
    return KeyedPairs(len(groups), alike, apart)


def assert_keys_partition_as_the_search(
    pins: Iterable[tuple[Quiver, int]], key: Callable[[Quiver, int], tuple]
) -> int:
    """Assert that `key` groups the pinned quivers (q, v) exactly as
    `reference_find_isomorphism` with the pins mapped to each other does,
    on the pairs of `keyed_pairs`, and return the number of groups."""
    pairs = keyed_pairs(pins, key)
    for a, b, pin in pairs.alike:
        assert reference_find_isomorphism(a, b, pin=pin) is not None, (a, b, pin)
    for a, b, pin in pairs.apart:
        assert reference_find_isomorphism(a, b, pin=pin) is None, (a, b, pin)
    return pairs.groups


def reference_certificates(objects: Sequence[RigidObject]) -> list[int]:
    """The translate certificates that the checks computed before the
    object list recorded each member's representative: in list order, each
    representative (top at orbit 1) is entered by its summands, and each
    other object looks up `tau_rigid(t, top.orbit - 1).summands` among the
    representatives entered so far. The position of the representative
    found (a representative's own), or -1 for none."""
    representatives: dict[tuple, int] = {}
    out = []
    for i, t in enumerate(objects):
        k = t.top.orbit - 1
        if k == 0:
            representatives[t.summands] = i
            out.append(i)
        else:
            out.append(representatives.get(tau_rigid(t, k).summands, -1))
    return out


def reference_is_string(p: Presentation, w: StringWord) -> bool:
    """The former `strings.is_string`: every letter's arrow id and direction
    checked against p, then each adjacent pair by `letters_composable`."""
    if w.kind == "zero":
        return True
    if w.kind == "trivial":
        return w.vertex in p.quiver.vertices
    arrow_ids = {a.id for a in p.quiver.arrows}
    if any(aid not in arrow_ids or d not in (1, -1) for aid, d in w.letters):
        return False
    return all(
        strings.letters_composable(p, x, y) for x, y in zip(w.letters, w.letters[1:])
    )


def reference_traversed(p: Presentation, w: StringWord) -> list[int]:
    """The vertices a string visits, with multiplicity (length + 1 of them),
    walked from the definitions `letter_source` and `letter_target` rather
    than the letter table."""
    if w.kind == "zero":
        return []
    if w.kind == "trivial":
        return [w.vertex]
    return [strings.letter_source(p, w.letters[0]), *(strings.letter_target(p, x) for x in w.letters)]


def reference_string_module(p: Presentation, w: StringWord) -> StringModule:
    """The former `strings.string_module`: dimensions and ones kept for
    every vertex and arrow of p, and every relation of p tested, in
    `p.relations` order."""
    if not strings.is_string(p, w):
        raise ValueError(f"not a string of this presentation: {w}")
    if w.kind == "zero":
        return zero_module()
    verts = reference_traversed(p, w)
    dims: dict[int, int] = {v: 0 for v in p.quiver.vertices}
    slot: list[int] = []
    for v in verts:
        slot.append(dims[v])
        dims[v] += 1

    ones: dict[str, list[tuple[int, int]]] = {a.id: [] for a in p.quiver.arrows}
    for i, (aid, d) in enumerate(w.letters):
        ones[aid].append((slot[i + 1], slot[i]) if d > 0 else (slot[i], slot[i + 1]))

    for second, first in p.relations:
        if {i for i, _ in ones[first]} & {j for _, j in ones[second]}:
            raise AssertionError(f"relation ({second}, {first}) acts nonzero")

    return StringModule(
        tuple(sorted((v, d) for v, d in dims.items() if d)),
        tuple(
            (a.id, (dims[a.tgt], dims[a.src]), tuple(ones[a.id]))
            for a in sorted(p.quiver.arrows, key=lambda a: a.id)
        ),
    )
