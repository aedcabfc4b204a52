"""The type-A cluster-tilted recogniser against the subset search it replaced.

`subset_search` is the former `quiver.is_cluster_tilted_A`: it tests every
vertex subset for an induced cycle, so its cost doubles with each vertex.
It is kept here, unchanged, as the reference that the block-tree
recogniser must agree with, verdict for verdict, on the quivers that arise,
on the type-A mutation classes, on random and perturbed quivers, and on
long cycles with oriented 3-cycle ears. `triangle_connecting_vertices` is
the former `quiver.connecting_vertices`, the reference for the one that
reads the block decomposition. `oriented_triangles` and `valency`,
formerly in `quiver`, serve only these two references. On the mutation
classes, `support.reference_canonical_key`, the former
`quiver.canonical_key`, must group the quivers pinned at any vertex exactly
as `support.reference_find_isomorphism`, the former exhaustive isomorphism
search, does; `quiver.connecting_keys`, the pinned form of the block walk,
must partition the pins at connecting vertices exactly as it does, and the
walk orders stored with two equal keys, zipped, must be a pinned
isomorphism.
"""

import itertools
import random
from functools import lru_cache

import pytest

from tubecat.endo import cached_endomorphism_algebra, loopless_quiver
from tubecat.quiver import (
    Arrow,
    CheckResult,
    Quiver,
    connecting_keys,
    connecting_vertices,
    find_isomorphism,
    is_cluster_tilted_A,
)
from tubecat.rigid import maximal_rigid_objects

from support import (
    assert_keys_partition_as_the_search,
    assert_pinned_isomorphism,
    keyed_pairs,
    reference_canonical_key,
    reference_find_isomorphism,
)


# --- the reference: the former subset search ----------------------------------

def oriented_triangles(q: Quiver) -> list[tuple[Arrow, Arrow, Arrow]]:
    """All oriented 3-cycles, as arrow triples starting at the least vertex."""
    out = []
    for a in q.arrows:
        for b in (x for x in q.arrows if x.src == a.tgt):
            if b.tgt == a.src:
                continue
            for c in (x for x in q.arrows if x.src == b.tgt):
                if c.tgt == a.src and a.src < min(a.tgt, b.tgt):
                    out.append((a, b, c))
    return out


def valency(q: Quiver, v: int) -> int:
    """Number of arrow endpoints at v; a loop counts twice."""
    return sum((a.src == v) + (a.tgt == v) for a in q.arrows)


def _underlying_edges(q: Quiver) -> dict[frozenset[int], list[Arrow]]:
    edges: dict[frozenset[int], list[Arrow]] = {}
    for a in q.arrows:
        edges.setdefault(frozenset((a.src, a.tgt)), []).append(a)
    return edges


def _is_connected(q: Quiver) -> bool:
    if not q.vertices:
        return False
    seen = {q.vertices[0]}
    frontier = [q.vertices[0]]
    while frontier:
        v = frontier.pop()
        for a in q.arrows:
            for w in (a.tgt, a.src):
                if v in (a.src, a.tgt) and w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return len(seen) == len(q.vertices)


def subset_search(q: Quiver) -> CheckResult:
    """Recognize quivers of type-A cluster-tilted algebras.

    Chordless cycles of the underlying graph must be oriented 3-cycles,
    valencies are at most four, and the arrows at valency-3 and valency-4
    vertices split over 3-cycles as 2+1 and 2+2. The underlying graph must
    also be connected (type A algebras are connected).
    """
    if not q.vertices:
        return CheckResult(False, "empty vertex set")
    if not _is_connected(q):
        return CheckResult(False, "underlying graph is not connected")
    for a in q.arrows:
        if a.src == a.tgt:
            return CheckResult(False, f"loop {a.id} is a length-1 cycle")
    edges = _underlying_edges(q)
    for pair, multi in edges.items():
        if len(multi) > 1:
            u, v = sorted(pair)
            return CheckResult(False, f"length-2 cycle between {u} and {v}")

    triangles = oriented_triangles(q)
    triangle_vertex_sets = {frozenset((a.src, b.src, c.src)) for a, b, c in triangles}

    # chordless cycles: vertex subsets whose induced simple graph is a cycle
    simple = {pair for pair in edges}
    for size in range(3, len(q.vertices) + 1):
        for subset in itertools.combinations(q.vertices, size):
            sub = set(subset)
            degs = {
                v: sum(1 for e in simple if v in e and e <= sub) for v in subset
            }
            if any(d != 2 for d in degs.values()):
                continue
            if not _is_connected_subset(simple, sub):
                continue
            if size != 3:
                return CheckResult(False, f"chordless cycle of length {size}: {subset}")
            if frozenset(subset) not in triangle_vertex_sets:
                return CheckResult(False, f"unoriented 3-cycle on {subset}")

    arrows_on_triangles = {
        a.id for tri in triangles for a in tri
    }
    for v in q.vertices:
        val = valency(q, v)
        if val > 4:
            return CheckResult(False, f"vertex {v} has valency {val}")
        incident = [a for a in q.arrows if v in (a.src, a.tgt)]
        on_cycle = [a for a in incident if a.id in arrows_on_triangles]
        if val == 4:
            tris_at_v = [t for t in triangles if v in {t[0].src, t[1].src, t[2].src}]
            if len(on_cycle) != 4 or len(tris_at_v) != 2:
                return CheckResult(
                    False, f"valency-4 vertex {v} does not split 2+2 over two 3-cycles"
                )
        if val == 3 and len(on_cycle) != 2:
            return CheckResult(
                False, f"valency-3 vertex {v} does not split 2+1 over a 3-cycle"
            )
    return CheckResult(True)


def _is_connected_subset(simple_edges: set[frozenset[int]], sub: set[int]) -> bool:
    start = next(iter(sub))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for e in simple_edges:
            if v in e and e <= sub:
                (w,) = e - {v} if len(e) == 2 else (v,)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen == sub


def triangle_connecting_vertices(q: Quiver) -> frozenset[int]:
    """Vertices of valency one, or of valency two on an oriented 3-cycle,
    from a scan of the triangles and one of the arrows per vertex."""
    assert is_cluster_tilted_A(q)
    if len(q.vertices) == 1:
        return frozenset(q.vertices)
    triangle_vertices = {
        v for a, b, c in oriented_triangles(q) for v in (a.src, b.src, c.src)
    }
    return frozenset(
        v for v in q.vertices
        if valency(q, v) == 1 or (valency(q, v) == 2 and v in triangle_vertices)
    )


# --- quiver families ----------------------------------------------------------

def quiver(n_vertices, pairs):
    """Quiver on 1..n_vertices with one arrow per (src, tgt) pair."""
    return Quiver(
        tuple(range(1, n_vertices + 1)),
        tuple(Arrow(f"a{i}", s, t) for i, (s, t) in enumerate(pairs)),
    )


def mutate(b, k):
    """Fomin-Zelevinsky mutation of the skew-symmetric matrix b at k."""
    m = len(b)
    return tuple(
        tuple(
            -b[i][j] if k in (i, j)
            else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in range(m)
        )
        for i in range(m)
    )


def canonical(b):
    """Least relabelling of b: equal exactly for isomorphic quivers."""
    m = len(b)
    return min(
        tuple(b[p[i]][p[j]] for i in range(m) for j in range(m))
        for p in itertools.permutations(range(m))
    )


def matrix_quiver(b):
    m = len(b)
    return quiver(m, [(i + 1, j + 1) for i in range(m) for j in range(m) if b[i][j] > 0])


@lru_cache(maxsize=None)
def mutation_class(m):
    """One matrix per isomorphism class in the mutation class of A_m, found by
    mutating class representatives until no new class appears."""
    start = tuple(
        tuple(1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(m))
        for i in range(m)
    )
    classes = {canonical(start): start}
    frontier = [start]
    for b in frontier:
        for k in range(m):
            c = mutate(b, k)
            key = canonical(c)
            if key not in classes:
                classes[key] = c
                frontier.append(c)
    return tuple(classes.values())


def triangulations(polygon):
    """Every triangulation of the convex polygon with the given vertex
    tuple, as a frozenset of triangles; the side (first, last) lies on the
    triangle (first, apex, last)."""
    if len(polygon) < 3:
        return [frozenset()]
    first, last = polygon[0], polygon[-1]
    out = []
    for i in range(1, len(polygon) - 1):
        apex = frozenset({frozenset((first, polygon[i], last))})
        for left in triangulations(polygon[: i + 1]):
            for right in triangulations(polygon[i:]):
                out.append(apex | left | right)
    return out


def triangulations_up_to_rotation(corners):
    def rotated(tri, r):
        return tuple(sorted(tuple(sorted((v + r) % corners for v in t)) for t in tri))

    return len({
        min(rotated(tri, r) for r in range(corners))
        for tri in triangulations(tuple(range(corners)))
    })


def random_quiver(rng):
    """A quiver on at most 8 vertices: a random spanning tree, random extra
    edges, each edge oriented at random; at times with a tree edge dropped,
    an arrow doubled back or a loop added."""
    n = rng.randint(1, 8)
    density = rng.choice((0.1, 0.2, 0.35))
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    if edges and rng.random() < 0.05:
        edges.pop(rng.randrange(len(edges)))
    edges += [
        (i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
        if (i, j) not in edges and rng.random() < density
    ]
    pairs = [(i, j) if rng.random() < 0.5 else (j, i) for i, j in edges]
    if pairs and rng.random() < 0.05:
        pairs.append(rng.choice(pairs)[::-1])
    if rng.random() < 0.05:
        v = rng.randint(1, n)
        pairs.append((v, v))
    return quiver(n, pairs)


def perturbed(b, rng):
    """A type-A quiver with one arrow removed, added, reversed, or hung on
    a new vertex, and its vertices shuffled."""
    m = len(b)
    pairs = [(i + 1, j + 1) for i in range(m) for j in range(m) if b[i][j] > 0]
    move = rng.randrange(4)
    if move == 0 and pairs:
        pairs.pop(rng.randrange(len(pairs)))
    elif move == 1:
        free = [
            (i, j) for i, j in itertools.permutations(range(1, m + 1), 2)
            if b[i - 1][j - 1] == 0
        ]
        if free:
            pairs.append(rng.choice(free))
    elif move == 2 and pairs:
        k = rng.randrange(len(pairs))
        pairs[k] = pairs[k][::-1]
    else:
        m += 1
        pairs.append((m, rng.randint(1, m - 1)))
    images = list(range(1, m + 1))
    rng.shuffle(images)
    return quiver(m, [(images[s - 1], images[t - 1]) for s, t in pairs])


def eared_cycle(k, clockwise, ears):
    """The k-cycle on 1..k with arrow i -> i+1 or back, as `clockwise`
    says, and an oriented 3-cycle through a new vertex on each edge in
    `ears`."""
    pairs = []
    for i in range(k):
        u, v = i + 1, (i + 1) % k + 1
        if not clockwise[i]:
            u, v = v, u
        pairs.append((u, v))
    n = k
    for i in ears:
        u, v = pairs[i]
        n += 1
        pairs += [(v, n), (n, u)]
    return quiver(n, pairs)


def assert_agrees(q):
    new, old = is_cluster_tilted_A(q), subset_search(q)
    assert new.ok == old.ok, (q, new.witness, old.witness)
    return new


# --- agreement ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_agrees_on_every_arising_quiver(n):
    # a translate has the same labelled algebra, so the orbit
    # representatives carry every loopless quiver of the rank
    for t in maximal_rigid_objects(n):
        if t.top.orbit == 1:
            bare, _ = loopless_quiver(cached_endomorphism_algebra(t))
            assert assert_agrees(bare)


@pytest.mark.parametrize(
    "m, classes", [(1, 1), (2, 1), (3, 4), (4, 6), (5, 19), (6, 49)]
)
def test_accepts_the_mutation_class_of_A(m, classes):
    assert triangulations_up_to_rotation(m + 3) == classes
    found = mutation_class(m)
    assert len(found) == classes
    for b in found:
        assert assert_agrees(matrix_quiver(b))
        for k in range(m):
            assert assert_agrees(matrix_quiver(mutate(b, k)))


def arising_quivers(n):
    """Each representative's loopless endomorphism quiver at rank n."""
    return [
        loopless_quiver(cached_endomorphism_algebra(t))[0]
        for t in maximal_rigid_objects(n)
        if t.top.orbit == 1
    ]


def mutation_class_quivers(m):
    """Every quiver of the mutation class of A_m, and each of its
    mutations, which are the class's quivers again under other labels."""
    return [
        matrix_quiver(c)
        for b in mutation_class(m)
        for c in (b, *(mutate(b, k) for k in range(m)))
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_connecting_vertices_on_every_arising_quiver(n):
    for bare in arising_quivers(n):
        assert connecting_vertices(bare) == triangle_connecting_vertices(bare)


@pytest.mark.parametrize("m", range(1, 7))
def test_connecting_vertices_on_the_mutation_class_of_A(m):
    for q in mutation_class_quivers(m):
        assert connecting_vertices(q) == triangle_connecting_vertices(q), q


@pytest.mark.parametrize(
    "m, pinned", [(1, 1), (2, 2), (3, 8), (4, 24), (5, 85), (6, 286)]
)
def test_canonical_key_on_the_mutation_class_of_A(m, pinned):
    # every vertex of every quiver in the class and its mutations; `pinned`
    # is the number of classes of pinned quivers (the least relabelled
    # matrix with the pin kept first gives the same counts)
    pins = [(q, v) for q in mutation_class_quivers(m) for v in range(1, m + 1)]
    assert assert_keys_partition_as_the_search(pins, reference_canonical_key) == pinned


def assert_keys_partition_as_the_reference(quivers):
    """Assert that `connecting_keys` is keyed at the connecting vertices and
    groups the pins (q, c) of all the quivers exactly as
    `reference_canonical_key` does, and return the pins."""
    pins, pairs = [], set()
    for q in quivers:
        keys = connecting_keys(q)
        assert set(keys) == connecting_vertices(q), q
        for c, (key, _) in keys.items():
            pins.append((q, c))
            pairs.add((key, reference_canonical_key(q, c)))
    # one reference key per key, and one key per reference key
    assert len({key for key, _ in pairs}) == len(pairs) == len({ref for _, ref in pairs})
    return pins


@pytest.mark.parametrize("n", range(2, 10))
def test_connecting_keys_on_every_arising_quiver(n):
    assert_keys_partition_as_the_reference(arising_quivers(n))


@pytest.mark.parametrize("m, catalan", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (6, 132)])
def test_connecting_keys_on_the_mutation_class_of_A(m, catalan):
    # pinned at connecting vertices only, the classes are the Catalan(m)
    # that arise at rank m + 1, one per translate orbit
    pins = assert_keys_partition_as_the_reference(mutation_class_quivers(m))
    assert assert_keys_partition_as_the_search(pins, lambda q, v: connecting_keys(q)[v][0]) == catalan


@pytest.mark.parametrize(
    "quivers, size",
    [(arising_quivers, n) for n in range(2, 10)] + [(mutation_class_quivers, m) for m in range(1, 7)],
    ids=[f"rank-{n}" for n in range(2, 10)] + [f"A{m}" for m in range(1, 7)],
)
def test_equal_keys_are_a_certificate(quivers, size):
    # the two walk orders stored with equal keys, zipped, map pin to pin
    # and arrows onto arrows, so the certificate holds at every key hit
    pins = [(q, c) for q in quivers(size) for c in connecting_vertices(q)]
    pairs = keyed_pairs(pins, lambda q, v: connecting_keys(q)[v][0])
    assert pairs.alike or len(pins) == 1
    for a, b, pin in pairs.alike:
        orders = [connecting_keys(q)[v][1] for q, v in zip((a, b), pin)]
        assert_pinned_isomorphism(a, b, pin, dict(zip(*orders)))


@pytest.mark.parametrize("m", range(1, 7))
def test_certificate_on_the_mutation_class_of_A(m):
    # on the pairs that the partition above checks, the certificate on the
    # stored walk orders finds a pinned isomorphism exactly when the search
    # does
    pins = [(q, v) for q in mutation_class_quivers(m) for v in connecting_vertices(q)]
    pairs = keyed_pairs(pins, lambda q, v: connecting_keys(q)[v][0])
    for a, b, pin in pairs.alike + pairs.apart:
        orders = tuple(connecting_keys(q)[v][1] for q, v in zip((a, b), pin))
        found = find_isomorphism(a, b, pin, orders)
        assert (found is None) == (reference_find_isomorphism(a, b, pin) is None), (a, b, pin)
        if found is not None:
            assert_pinned_isomorphism(a, b, pin, found)


def test_agrees_on_random_quivers():
    rng = random.Random(20080501)
    accepted = 0
    for _ in range(5000):
        accepted += assert_agrees(random_quiver(rng)).ok
    assert 50 < accepted < 4950


def test_accepted_random_quivers_are_trees_of_blocks():
    # the recogniser, connecting_keys and connecting_vertices read one
    # block decomposition: what the first accepts, the reference key walks
    # from every vertex, and the others agree with their references
    rng = random.Random(1796)
    accepted = []
    for _ in range(2000):
        q = random_quiver(rng)
        if is_cluster_tilted_A(q):
            accepted.append(q)
            for v in q.vertices:
                reference_canonical_key(q, v)  # raises unless the blocks form a tree
            assert connecting_vertices(q) == triangle_connecting_vertices(q), q
    assert_keys_partition_as_the_reference(accepted)
    assert len(accepted) > 100


def test_agrees_on_perturbed_type_A_quivers():
    rng = random.Random(2008)
    verdicts = []
    for m in range(2, 7):
        for b in mutation_class(m):
            for _ in range(10):
                verdicts.append(assert_agrees(perturbed(b, rng)).ok)
    assert 0 < sum(verdicts) < len(verdicts)


def _cycle_in_witness(witness):
    length_text, _, cycle_text = witness.removeprefix("chordless cycle of length ").partition(": ")
    cycle = tuple(int(v) for v in cycle_text.strip("()").split(", "))
    assert int(length_text) == len(cycle)
    return cycle


@pytest.mark.parametrize("k", [4, 5, 6])
def test_eared_cycles_name_an_induced_cycle(k):
    rng = random.Random(k)
    for clockwise in itertools.product((True, False), repeat=k):
        for r in range(k + 1):
            for ears in itertools.combinations(range(k), r):
                q = eared_cycle(k, clockwise, ears)
                result = is_cluster_tilted_A(q)
                assert not result
                cycle = _cycle_in_witness(result.witness)
                assert len(cycle) >= 4 and len(set(cycle)) == len(cycle)
                ring = {frozenset((cycle[i - 1], cycle[i])) for i in range(len(cycle))}
                induced = {
                    frozenset((a.src, a.tgt)) for a in q.arrows
                    if a.src in cycle and a.tgt in cycle
                }
                assert induced == ring, (q, result.witness)
                if k == 4 or rng.random() < 0.02:
                    assert not subset_search(q)


def test_triangle_listing():
    cycle3 = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1)))
    assert len(oriented_triangles(cycle3)) == 1


# --- witnesses ---------------------------------------------------------------

def test_valency_witness_comes_before_a_cycle():
    # a vertex of valency 5 hung on an oriented 4-cycle: the block count
    # is checked before the walk that would find the 4-cycle
    q = quiver(7, [(1, 2), (2, 3), (3, 4), (4, 1)] + [(1, v) for v in (5, 6, 7)])
    assert not subset_search(q)
    result = is_cluster_tilted_A(q)
    assert result.witness == "vertex 1 lies in 5 blocks"


def test_three_3_cycles_on_one_edge():
    # 1 -> 2 and 2 -> w -> 1 for w = 3, 4, 5: every arrow lies on an oriented
    # 3-cycle, but vertices 1 and 2 each carry three of them
    q = quiver(5, [(1, 2)] + [(2, w) for w in (3, 4, 5)] + [(w, 1) for w in (3, 4, 5)])
    assert not subset_search(q)
    result = is_cluster_tilted_A(q)
    assert result.witness == "vertex 1 lies in 3 blocks"


def test_two_3_cycles_on_one_edge():
    # 1 -> 2 and 2 -> w -> 1 for w = 3, 4: each vertex lies in at most two
    # blocks, and the walk meets vertex 2 again by the second 3-cycle, from
    # the first vertex or, in another vertex order, from the oriented
    # triangle's third vertex
    pairs = [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)]
    q = quiver(4, pairs)
    assert subset_search(q).witness == "valency-3 vertex 1 does not split 2+1 over a 3-cycle"
    for vertices in itertools.permutations((1, 2, 3, 4)):
        arrows = tuple(Arrow(f"a{i}", s, t) for i, (s, t) in enumerate(pairs))
        result = is_cluster_tilted_A(Quiver(vertices, arrows))
        assert result.witness == "arrow between 1 and 2 lies on two 3-cycles", vertices


def test_bare_unoriented_triangle_witness_is_the_subset_search_witness():
    q = quiver(3, [(1, 2), (2, 3), (1, 3)])
    assert is_cluster_tilted_A(q).witness == subset_search(q).witness == (
        "unoriented 3-cycle on (1, 2, 3)"
    )


def test_unoriented_3_cycle_witness_unchanged():
    # vertex 3 lies on the oriented 3-cycle and on two arrows of the
    # unoriented one: the block count rejects it before the walk
    q = quiver(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (3, 5)])
    assert subset_search(q).witness == "unoriented 3-cycle on (3, 4, 5)"
    assert is_cluster_tilted_A(q).witness == "vertex 3 lies in 3 blocks"
