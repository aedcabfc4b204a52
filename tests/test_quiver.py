"""Tests for quivers with quadratic monomial relations."""

import inspect
import random
import re
import sys
import tracemalloc
from functools import lru_cache
from math import comb

import pytest

from tubecat.endo import cached_endomorphism_algebra, loopless_quiver
from tubecat.quiver import (
    Arrow,
    DivergentPathsError,
    NotClusterTiltedError,
    NotGentleError,
    Presentation,
    Quiver,
    _blocks,
    connecting_keys,
    connecting_vertices,
    count_paths,
    find_isomorphism,
    gorenstein_bound,
    is_cluster_tilted_A,
    is_gentle,
    is_special_biserial,
    to_dot,
)
from tubecat.rigid import maximal_rigid_objects

from support import (
    SizeLimitError,
    assert_keys_partition_as_the_search,
    assert_pinned_isomorphism,
    keyed_pairs,
    presentation,
    projectives_match_injectives,
    reference_canonical_key,
    reference_count_paths,
    reference_find_isomorphism,
    small_gentle_presentations,
)

DUAL_NUMBERS = presentation([1], [("w", 1, 1, "loop")], [("w", "w")])
RANK3_ALGEBRA = presentation(
    [1, 2], [("w", 1, 1, "loop"), ("a", 1, 2, "T")], [("w", "w")]
)
CYCLE3 = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1)))


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="arrow ids must be unique"):
            Quiver((1, 2), (Arrow("a", 1, 2), Arrow("a", 2, 1)))

    def test_repeated_vertex_ids_rejected(self):
        with pytest.raises(ValueError, match="vertex ids must be unique"):
            Quiver((1, 1), ())
        with pytest.raises(ValueError, match="vertex ids must be unique"):
            Quiver.from_json({"vertices": [1, 2, 1], "arrows": []})

    def test_unknown_relation_arrow_rejected(self):
        data = RANK3_ALGEBRA.to_json()
        data["relations"].append(["zz", "a"])
        with pytest.raises(ValueError, match=r"relation \(zz, a\) names unknown arrow 'zz'"):
            Presentation.from_json(data)

    def test_arrow_lookup(self):
        assert CYCLE3.arrow("b") == Arrow("b", 2, 3)
        with pytest.raises(KeyError):
            CYCLE3.arrow("d")

    def test_lookup_is_not_a_field(self):
        # The id lookup is built per instance; equality, hash, repr and JSON
        # see only the vertices and arrows.
        copy = Quiver.from_json(CYCLE3.to_json())
        assert copy is not CYCLE3 and copy == CYCLE3
        assert hash(copy) == hash(CYCLE3)
        assert repr(CYCLE3) == f"Quiver(vertices=(1, 2, 3), arrows={CYCLE3.arrows!r})"
        assert set(CYCLE3.to_json()) == {"vertices", "arrows"}

    def test_dangling_arrow_rejected(self):
        with pytest.raises(ValueError):
            Quiver((1,), (Arrow("a", 1, 2),))

    def test_noncomposable_relation_rejected(self):
        with pytest.raises(ValueError):
            presentation([1, 2, 3], [("a", 1, 2), ("b", 1, 3)], [("b", "a")])

    def test_json_roundtrip(self):
        p = RANK3_ALGEBRA
        assert Presentation.from_json(p.to_json()) == p

    def test_json_without_arrows_names_the_field(self):
        data = RANK3_ALGEBRA.to_json()
        del data["arrows"]
        with pytest.raises(ValueError, match="^quiver JSON lacks field 'arrows'$"):
            Presentation.from_json(data)

    def test_json_arrow_without_target_names_the_field(self):
        data = CYCLE3.to_json()
        del data["arrows"][1]["tgt"]
        with pytest.raises(ValueError, match="^quiver JSON lacks field 'tgt'$"):
            Quiver.from_json(data)

    @pytest.mark.parametrize("relation", [["w"], ["w", "w", "w"], "ww", 5])
    def test_json_relation_that_is_no_pair_is_named(self, relation):
        data = RANK3_ALGEBRA.to_json()
        data["relations"].append(relation)
        with pytest.raises(ValueError, match=re.escape(f"relation {relation!r} is not a pair")):
            Presentation.from_json(data)


class TestCountPaths:
    def test_dual_numbers(self):
        assert count_paths(DUAL_NUMBERS) == {(1, 1): 2}

    def test_rank3_algebra(self):
        paths = count_paths(RANK3_ALGEBRA)
        assert paths == {(1, 1): 2, (1, 2): 2, (2, 2): 1}  # no path 2 -> 1
        assert sum(paths.values()) == 5  # the total dimension

    def test_no_arrows_gives_identity(self):
        paths = count_paths(presentation([1, 2, 3], []))
        assert paths == {(1, 1): 1, (2, 2): 1, (3, 3): 1}

    def test_divergence_detected(self):
        with pytest.raises(DivergentPathsError):
            count_paths(presentation([1], [("w", 1, 1)]))
        with pytest.raises(DivergentPathsError):
            count_paths(
                presentation([1, 2], [("a", 1, 2), ("b", 2, 1)])
            )

    def test_against_matrix_powers(self):
        """On a relation-free acyclic quiver the path count is the geometric
        series of the adjacency matrix."""
        np = pytest.importorskip("numpy")
        p = presentation(
            [1, 2, 3, 4],
            [("a", 1, 2), ("b", 2, 3), ("c", 2, 4), ("d", 3, 4), ("e", 1, 3)],
        )
        verts = p.quiver.vertices
        adj = np.zeros((4, 4), dtype=int)
        for arrow in p.quiver.arrows:
            adj[verts.index(arrow.src), verts.index(arrow.tgt)] += 1
        series = np.eye(4, dtype=int)
        power = np.eye(4, dtype=int)
        for _ in range(4):
            power = power @ adj
            series += power
        paths = count_paths(p)
        assert paths == {
            (u, v): series[i, j]
            for i, u in enumerate(verts)
            for j, v in enumerate(verts)
            if series[i, j]
        }


def acyclic_presentations(count: int = 400, seed: int = 0) -> list[Presentation]:
    """Random presentations on vertices 1..k whose arrows all go from a
    smaller to a larger vertex, so every path count is finite; parallel
    arrows, diamonds and vertices with three or more arrows occur, and so
    do arbitrary relations."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(2, 6)
        arrows = []
        for i in range(rng.randint(1, 10)):
            u, v = sorted(rng.sample(range(1, k + 1), 2))
            arrows.append((f"a{i}", u, v))
        composable = [(b, a) for a, _, tgt in arrows for b, src, _ in arrows if src == tgt]
        relations = [r for r in composable if rng.random() < 0.3]
        out.append(presentation(range(1, k + 1), arrows, relations))
    return out


def nonzero(counts: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """A dense path count with its zeros dropped, the form of `count_paths`."""
    return {pair: c for pair, c in counts.items() if c}


def relation_free_successors(p: Presentation, aid: str) -> list[str]:
    tgt = p.quiver.arrow(aid).tgt
    return [b.id for b in p.quiver.arrows if b.src == tgt and (b.id, aid) not in p.relations]


def assert_names_an_arrow_on_a_relation_free_cycle(p: Presentation) -> str:
    """The arrow that count_paths' error names, checked to come back to
    itself by relation-free steps, in a walk of its own."""
    with pytest.raises(DivergentPathsError) as raised:
        count_paths(p)
    named = re.fullmatch(
        r"relation-free cycle through arrow '(\w+)'; the algebra is infinite-dimensional",
        str(raised.value),
    ).group(1)
    reached, frontier = set(), relation_free_successors(p, named)
    while frontier:
        aid = frontier.pop()
        if aid not in reached:
            reached.add(aid)
            frontier.extend(relation_free_successors(p, aid))
    assert named in reached, (p, named)
    return named


class TestFreeOrder:
    """`count_paths` walks `_free_order` once, without recursion, and keeps
    only the nonzero counts; the former recursive search is
    `reference_count_paths`, which lists every vertex pair."""

    def test_equals_the_recursive_count_on_small_gentle_presentations(self):
        cases = small_gentle_presentations()
        assert len(cases) == 1426
        for c in cases:
            if c.finite:
                assert count_paths(c.presentation) == nonzero(reference_count_paths(c.presentation)), c
            else:
                with pytest.raises(DivergentPathsError):
                    reference_count_paths(c.presentation)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_recursive_count_on_every_representative(self, n):
        reps = [t for t in maximal_rigid_objects(n) if t.top.orbit == 1]
        for t in reps:
            lam = cached_endomorphism_algebra(t)
            assert count_paths(lam) == nonzero(reference_count_paths(lam)), t

    def test_equals_the_recursive_count_on_acyclic_presentations(self):
        diamond = [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)]
        fixed = [
            presentation([1, 2, 3, 4], diamond),
            presentation([1, 2, 3, 4], diamond, [("c", "a")]),
            presentation([1, 2, 3, 4], diamond + [("e", 1, 2), ("f", 2, 4)], [("f", "e")]),
            presentation([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 1, 2)]),
        ]
        cases = fixed + acyclic_presentations()
        assert sum(not is_gentle(p) for p in cases) > 100
        assert sum(len({(a.src, a.tgt) for a in p.quiver.arrows}) < len(p.quiver.arrows) for p in cases) > 100
        for p in cases:
            assert count_paths(p) == nonzero(reference_count_paths(p)), p
        assert count_paths(fixed[0])[1, 4] == 2
        assert count_paths(fixed[1])[1, 4] == 1
        assert count_paths(fixed[2])[1, 4] == 4  # ac, af, bd, ec; fe is zero

    def test_named_arrow_lies_on_a_relation_free_cycle(self):
        infinite = [c.presentation for c in small_gentle_presentations() if not c.finite]
        assert len(infinite) == 878
        for p in infinite:
            assert_names_an_arrow_on_a_relation_free_cycle(p)

    def test_arrow_after_a_cycle_is_not_named(self):
        # c comes first and waits for the free loop w, but lies on no cycle
        p = presentation([1, 2], [("c", 1, 2), ("w", 1, 1)])
        assert assert_names_an_arrow_on_a_relation_free_cycle(p) == "w"
        rng = random.Random(3)
        divergent = 0
        for _ in range(400):
            k = rng.randint(1, 4)
            arrows = [(f"a{i}", rng.randint(1, k), rng.randint(1, k)) for i in range(rng.randint(1, 7))]
            composable = [(b, a) for a, _, tgt in arrows for b, src, _ in arrows if src == tgt]
            p = presentation(range(1, k + 1), arrows, [r for r in composable if rng.random() < 0.4])
            try:
                count_paths(p)
            except DivergentPathsError:
                assert_names_an_arrow_on_a_relation_free_cycle(p)
                divergent += 1
        assert divergent > 100

    def test_frees_each_arrows_counts_after_its_last_reader(self):
        # On a relation-free path the counts of the paths ending with each
        # arrow are as many as the result's; kept to the end, they raised
        # the peak to about 1.46 times the result.
        m = 400
        p = presentation(range(m + 1), [(f"a{i}", i, i + 1) for i in range(m)])
        tracemalloc.start()
        try:
            paths = count_paths(p)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(paths) == (m + 1) * (m + 2) // 2
        assert peak < 1.1 * kept

    def test_long_path_does_not_recurse(self):
        # A relation-free path with more arrows than the recursion limit,
        # lowered to 100 frames above the current depth, listed sink first.
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            m = sys.getrecursionlimit() + 100
            p = presentation(range(m + 1), [(f"a{i}", i, i + 1) for i in reversed(range(m))])
            paths = count_paths(p)
            with pytest.raises(RecursionError):
                reference_count_paths(p)
        finally:
            sys.setrecursionlimit(old)
        assert sum(paths.values()) == (m + 1) * (m + 2) // 2
        assert paths[0, m] == 1 and (m, 0) not in paths


class TestSpecialBiserial:
    def test_family_examples(self):
        assert is_special_biserial(DUAL_NUMBERS)
        assert is_special_biserial(RANK3_ALGEBRA)

    def test_three_parallel_arrows(self):
        p = presentation([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 1, 2)])
        result = is_special_biserial(p)
        assert not result
        assert "vertex 1" in result.witness

    def test_two_loops_no_relations(self):
        result = is_special_biserial(presentation([1], [("x", 1, 1), ("y", 1, 1)]))
        assert not result
        assert "without relation" in result.witness


class TestGentle:
    def test_family_and_path_algebra(self):
        assert is_gentle(RANK3_ALGEBRA)
        assert is_gentle(presentation([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]))

    def test_shared_relation_target_fails(self):
        p = presentation(
            [1, 2, 3],
            [("u", 1, 2), ("v", 1, 2), ("w2", 2, 3)],
            [("w2", "u"), ("w2", "v")],
        )
        assert is_special_biserial(p)
        result = is_gentle(p)
        assert not result
        assert "w2" in result.witness

    def test_gentle_implies_special_biserial(self):
        from tubecat.endo import cached_endomorphism_algebra
        from tubecat.rigid import maximal_rigid_objects

        for n in (2, 3, 4, 5):
            for t in maximal_rigid_objects(n):
                lam = cached_endomorphism_algebra(t)
                assert is_gentle(lam)
                assert is_special_biserial(lam)


class TestGorenstein:
    def test_dual_numbers_dimension_zero(self):
        report = gorenstein_bound(DUAL_NUMBERS)
        assert report.n_g == 0
        assert report.dimension == 0

    def test_rank3_algebra(self):
        report = gorenstein_bound(RANK3_ALGEBRA)
        assert report.n_g == 1
        assert report.dimension == 1
        assert "a" in report.gentle_arrows

    def test_linear_quiver(self):
        report = gorenstein_bound(presentation([1, 2], [("a", 1, 2)]))
        assert report.n_g == 1
        assert report.critical_path == ("a",)

    def test_bound_by_arrow_count(self):
        p = presentation(
            [1, 2, 3, 4],
            [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)],
            [("b", "a"), ("c", "b")],
        )
        report = gorenstein_bound(p)
        assert report.n_g == 3
        assert report.critical_path == ("a", "b", "c")
        assert report.dimension == 3

    def test_unresolved_interval(self):
        # one oriented 3-cycle with all compositions zero: no gentle arrows
        p = presentation(
            [1, 2, 3],
            [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)],
            [("b", "a"), ("c", "b"), ("a", "c")],
        )
        # is self-injective: dimension 0
        report = gorenstein_bound(p)
        assert report.n_g == 0
        assert report.dimension == 0
        assert projectives_match_injectives(p)

    def test_rejects_non_gentle(self):
        with pytest.raises(ValueError):
            gorenstein_bound(presentation([1], [("x", 1, 1), ("y", 1, 1)]))

    def test_not_gentle_error_carries_the_witness(self):
        p = presentation(
            [1, 2, 3],
            [("u", 1, 2), ("v", 1, 2), ("w2", 2, 3)],
            [("w2", "u"), ("w2", "v")],
        )
        with pytest.raises(NotGentleError) as raised:
            gorenstein_bound(p)
        assert isinstance(raised.value, ValueError)
        assert raised.value.witness == is_gentle(p).witness == "arrow w2 kills 2 incoming compositions"
        assert str(raised.value) == "presentation is not gentle: arrow w2 kills 2 incoming compositions"

    def test_rejects_a_relation_free_cycle(self):
        # gentle, with no gentle arrow, but xyxy... never ends
        p = presentation([1], [("x", 1, 1), ("y", 1, 1)], [("x", "x"), ("y", "y")])
        assert is_gentle(p)
        with pytest.raises(DivergentPathsError, match="relation-free cycle"):
            gorenstein_bound(p)
        with pytest.raises(DivergentPathsError):
            count_paths(p)

    def test_every_small_gentle_algebra_without_gentle_arrows(self):
        # Dimension 0 exactly when the projective and injective strings
        # coincide, that is, when the algebra is self-injective.
        cases = [c for c in small_gentle_presentations() if c.finite and c.report.n_g == 0]
        assert len(cases) == 46
        assert sum(projectives_match_injectives(c.presentation) for c in cases) == 20
        for c in cases:
            assert c.report.dimension == (0 if projectives_match_injectives(c.presentation) else 1), c

    def test_every_small_gentle_algebra_with_gentle_arrows(self):
        cases = [c for c in small_gentle_presentations() if c.finite and c.report.n_g > 0]
        assert len(cases) == 502
        for c in cases:
            assert c.report.dimension == c.report.n_g == len(c.report.critical_path)
            assert not projectives_match_injectives(c.presentation)

    def test_divergence_agrees_with_the_path_count(self):
        cases = small_gentle_presentations()
        assert (len(cases), sum(not c.finite for c in cases)) == (1426, 878)
        for c in cases:
            assert c.finite == (c.report is not None), c


class TestClusterTiltedRecognition:
    def test_examples(self):
        assert is_cluster_tilted_A(CYCLE3)
        linear = Quiver((1, 2, 3, 4), tuple(Arrow(f"a{i}", i, i + 1) for i in (1, 2, 3)))
        assert is_cluster_tilted_A(linear)

    def test_oriented_four_cycle_rejected(self):
        q = Quiver(
            (1, 2, 3, 4),
            (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4), Arrow("d", 4, 1)),
        )
        result = is_cluster_tilted_A(q)
        assert not result
        assert "length 4" in result.witness

    def test_unoriented_triangle_rejected(self):
        q = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 1, 3)))
        assert not is_cluster_tilted_A(q)

    def test_loops_and_double_arrows_rejected(self):
        assert not is_cluster_tilted_A(Quiver((1,), (Arrow("w", 1, 1),)))
        assert not is_cluster_tilted_A(
            Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
        )

    def test_disconnected_rejected(self):
        q = Quiver((1, 2, 3, 4), (Arrow("a", 1, 2), Arrow("b", 3, 4)))
        assert not is_cluster_tilted_A(q)

    def test_two_triangles_sharing_a_vertex(self):
        q = Quiver(
            (1, 2, 3, 4, 5),
            (
                Arrow("a", 1, 2),
                Arrow("b", 2, 3),
                Arrow("c", 3, 1),
                Arrow("d", 3, 4),
                Arrow("e", 4, 5),
                Arrow("f", 5, 3),
            ),
        )
        assert is_cluster_tilted_A(q)
        assert sorted(connecting_vertices(q)) == [1, 2, 4, 5]


class TestConnectingVertices:
    def test_linear_ends(self):
        q = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3)))
        assert connecting_vertices(q) == frozenset({1, 3})

    def test_cycle_all_three(self):
        assert connecting_vertices(CYCLE3) == frozenset({1, 2, 3})

    def test_attached_cycle(self):
        q = Quiver(
            (1, 2, 3, 4),
            (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4), Arrow("d", 4, 2)),
        )
        assert connecting_vertices(q) == frozenset({1, 3, 4})

    def test_single_vertex(self):
        assert connecting_vertices(Quiver((1,), ())) == frozenset({1})

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            connecting_vertices(Quiver((1,), (Arrow("w", 1, 1),)))


class TestIsomorphism:
    """`support.reference_find_isomorphism`, the exhaustive search that the
    block-walk certificate replaced, kept as the certificate's reference."""

    def test_identity_and_negative(self):
        assert reference_find_isomorphism(CYCLE3, CYCLE3) is not None
        linear = Quiver((1, 2, 3), (Arrow("x", 1, 2), Arrow("y", 2, 3)))
        assert reference_find_isomorphism(CYCLE3, linear) is None

    def test_relabelled(self):
        other = Quiver((7, 8, 9), (Arrow("p", 9, 7), Arrow("q", 7, 8), Arrow("r", 8, 9)))
        iso = reference_find_isomorphism(CYCLE3, other)
        assert iso is not None
        assert reference_find_isomorphism(CYCLE3, other, pin=(1, 9)) is not None
        assert reference_find_isomorphism(CYCLE3, other, pin=(1, 7)) is not None

    def test_pin_to_wrong_orbit(self):
        a3 = Quiver((1, 2, 3), (Arrow("x", 1, 2), Arrow("y", 2, 3)))
        b3 = Quiver((4, 5, 6), (Arrow("u", 4, 5), Arrow("v", 5, 6)))
        assert reference_find_isomorphism(a3, b3, pin=(1, 4)) is not None
        assert reference_find_isomorphism(a3, b3, pin=(1, 5)) is None

    def test_multiplicity_aware(self):
        double = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 1, 2)))
        split = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
        assert reference_find_isomorphism(double, split) is None
        assert reference_find_isomorphism(double, double) is not None

    def test_size_limit(self):
        big = Quiver(tuple(range(13)), ())
        with pytest.raises(SizeLimitError):
            reference_find_isomorphism(big, big)


@lru_cache(maxsize=None)
def _arising_pins(top_rank):
    """Every (loopless endomorphism quiver, pin) of ranks 2..top_rank, pinned
    at the loop vertex and then at each connecting vertex."""
    out = []
    for n in range(2, top_rank + 1):
        for t in maximal_rigid_objects(n):
            bare, loop_vertex = loopless_quiver(cached_endomorphism_algebra(t))
            for v in (loop_vertex, *sorted(connecting_vertices(bare))):
                out.append((bare, v))
    return out


def _relabel_vertices(q, v, rng):
    images = list(q.vertices)
    rng.shuffle(images)
    perm = dict(zip(q.vertices, images))
    arrows = tuple(Arrow(a.id, perm[a.src], perm[a.tgt], a.kind) for a in q.arrows)
    return Quiver(tuple(images), arrows), perm[v]


def _shuffle_arrows(q, v, rng):
    arrows = list(q.arrows)
    rng.shuffle(arrows)
    return Quiver(q.vertices, tuple(arrows)), v


def _rename_arrows(q, v, rng):
    names = [f"z{i}" for i in range(len(q.arrows))]
    rng.shuffle(names)
    arrows = tuple(Arrow(name, a.src, a.tgt, a.kind) for name, a in zip(names, q.arrows))
    return Quiver(q.vertices, arrows), v


def _representative_pins(n):
    """Each representative's (loopless endomorphism quiver, pin) at rank n,
    pinned at the loop vertex and then at each connecting vertex."""
    pins = []
    for t in maximal_rigid_objects(n):
        if t.top.orbit == 1:
            bare, loop_vertex = loopless_quiver(cached_endomorphism_algebra(t))
            pins += [(bare, v) for v in (loop_vertex, *sorted(connecting_vertices(bare)))]
    return pins


@lru_cache(maxsize=None)
def _forms(q):
    """`connecting_keys(q)`, built once per quiver: the tests below key and
    certify each arising quiver many times. Read it, never change it."""
    return connecting_keys(q)


def connecting_key(q, v):
    return _forms(q)[v][0]


def certify(a, b, pin):
    """`find_isomorphism` on the walk orders that `connecting_keys` stores
    beside the keys at the two pins."""
    orders = tuple(_forms(q)[v][1] for q, v in zip((a, b), pin))
    return find_isomorphism(a, b, pin, orders)


class TestPinnedInvariant:
    """`connecting_keys`, the exact invariant of a quiver pinned at each
    connecting vertex; the arising pins are all connecting. Each changed
    copy must also be certified by `find_isomorphism` through the stored
    walk orders, its map checked."""

    @pytest.mark.parametrize(
        "change", [_relabel_vertices, _shuffle_arrows, _rename_arrows]
    )
    def test_unchanged_on_arising_pins(self, change):
        rng = random.Random(7)
        pairs = 0
        for bare, v in _arising_pins(7):
            moved, w = change(bare, v, rng)
            assert connecting_key(moved, w) == connecting_key(bare, v), (bare, v)
            found = certify(bare, moved, (v, w))
            assert found is not None, (bare, v)
            assert_pinned_isomorphism(bare, moved, (v, w), found)
            pairs += 1
        assert pairs > 924

    def test_unchanged_by_all_three_at_once(self):
        rng = random.Random(11)
        for bare, v in _arising_pins(6):
            moved, w = bare, v
            for change in (_rename_arrows, _shuffle_arrows, _relabel_vertices):
                moved, w = change(moved, w, rng)
            assert moved != bare or not bare.arrows
            found = certify(moved, bare, (w, v))
            assert found is not None
            assert_pinned_isomorphism(moved, bare, (w, v), found)
            assert connecting_key(moved, w) == connecting_key(bare, v)

    def test_separates_the_arising_classes(self):
        # one key per translate orbit: Catalan(n - 1) classes at rank n
        for n, classes in zip(range(2, 8), (1, 2, 5, 14, 42, 132)):
            keys = {
                connecting_key(*loopless_quiver(cached_endomorphism_algebra(t)))
                for t in maximal_rigid_objects(n)
            }
            assert len(keys) == classes, n

    @pytest.mark.parametrize("n", range(2, 10))
    def test_partitions_the_arising_pins_as_the_search(self, n):
        pins = _representative_pins(n)
        assert assert_keys_partition_as_the_search(pins, connecting_key) == comb(2 * n - 2, n - 1) // n

    def test_moving_the_pin_changes_the_key(self):
        # the middle vertex of a path lies in two blocks: it is not keyed
        def keys(q):
            return {v: key for v, (key, _) in connecting_keys(q).items()}

        linear = Quiver((1, 2, 3), (Arrow("x", 1, 2), Arrow("y", 2, 3)))
        source, sink = keys(linear).values()
        assert list(keys(linear)) == [1, 3] and source != sink
        sources = keys(Quiver((1, 2, 3), (Arrow("x", 1, 2), Arrow("y", 3, 2))))
        assert list(sources) == [1, 3] and sources[1] == sources[3]
        assert sources[1] != source
        cycle = keys(CYCLE3)
        assert list(cycle) == [1, 2, 3] and len(set(cycle.values())) == 1
        assert cycle[1] != source
        # each walk order starts at its pin and follows the arrows
        assert [order for _, order in connecting_keys(CYCLE3).values()] == [
            (1, 2, 3), (2, 3, 1), (3, 1, 2),
        ]

    def test_counts_arrow_multiplicity(self):
        # a second arrow on the same two vertices, or a loop, is a second
        # block there: no tree of blocks
        single = Quiver((1, 2), (Arrow("a", 1, 2),))
        assert connecting_keys(single) == {1: (((0, 1),), (1, 2)), 2: (((1, 0),), (2, 1))}
        for extra, witness in (
            (Arrow("b", 1, 2), "length-2 cycle between 1 and 2"),
            (Arrow("b", 2, 1), "length-2 cycle between 1 and 2"),
            (Arrow("b", 1, 1), "loop b is a length-1 cycle"),
        ):
            twice = Quiver((1, 2), (Arrow("a", 1, 2), extra))
            with pytest.raises(NotClusterTiltedError) as caught:
                connecting_keys(twice)
            assert caught.value.witness == witness

    def test_rejects_what_is_no_tree_of_blocks(self):
        # the recogniser's witness, as `connecting_vertices` raises it
        apart = Quiver((1, 2, 3), (Arrow("a", 1, 2),))
        square = Quiver((1, 2, 3, 4), tuple(Arrow(f"a{i}", i, i % 4 + 1) for i in range(1, 5)))
        # two oriented 3-cycles on the edge 1 -> 2
        pairs = [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)]
        shared = Quiver((1, 2, 3, 4), tuple(Arrow(f"a{i}", *e) for i, e in enumerate(pairs)))
        for q, witness in (
            (apart, "underlying graph is not connected"),
            (square, "chordless cycle of length 4: (4, 1, 2, 3)"),
            (shared, "arrow between 1 and 2 lies on two 3-cycles"),
        ):
            for keyed in (connecting_keys, connecting_vertices):
                with pytest.raises(NotClusterTiltedError) as caught:
                    keyed(q)
                assert caught.value.witness == witness

    def test_pin_outside_the_quiver(self):
        # only the connecting vertices are keyed; the reference raises
        assert 4 not in connecting_keys(CYCLE3)
        with pytest.raises(ValueError, match="pinned vertex 4"):
            reference_canonical_key(CYCLE3, 4)


def _chain(blocks):
    """A tree of blocks in one chain from vertex 0: "out" and "in" add a
    lone arrow from or to a new vertex, "cycle" an oriented 3-cycle
    through two new vertices, and each block starts at the last vertex
    added. Vertex 0 lies in one block: it is connecting."""
    arrows, end = [], 0
    for kind in blocks:
        if kind == "cycle":
            x, y = end + 1, end + 2
            arrows += [(end, x), (x, y), (y, end)]
            end = y
        else:
            arrows.append((end, end + 1) if kind == "out" else (end + 1, end))
            end += 1
    return Quiver(tuple(range(end + 1)), tuple(Arrow(f"c{i}", *e) for i, e in enumerate(arrows)))


LONG_CHAIN = _chain([
    "out", "cycle", "in", "in", "cycle", "out", "cycle", "cycle",
    "in", "out", "cycle", "out", "in", "cycle", "out",
])


class TestCertificate:
    """`find_isomorphism`, which zips the two walk orders stored with the
    keys and checks the map against the two quivers' arrows, against
    `support.reference_find_isomorphism`; each map it returns is checked
    here."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_agrees_with_the_search_on_the_partition_pairs(self, n):
        pairs = keyed_pairs(_representative_pins(n), connecting_key)
        assert pairs.alike
        for a, b, pin in pairs.alike + pairs.apart:
            found = certify(a, b, pin)
            assert (found is None) == (reference_find_isomorphism(a, b, pin) is None), (a, b, pin)
            if found is not None:
                assert_pinned_isomorphism(a, b, pin, found)

    def test_certifies_past_the_search_limit(self):
        q = LONG_CHAIN
        assert len(q.vertices) >= 20 and is_cluster_tilted_A(q)
        rng = random.Random(3)
        moved, w = q, 0
        for change in (_rename_arrows, _shuffle_arrows, _relabel_vertices):
            moved, w = change(moved, w, rng)
        found = certify(q, moved, (0, w))
        assert found is not None
        assert_pinned_isomorphism(q, moved, (0, w), found)
        with pytest.raises(SizeLimitError):
            reference_find_isomorphism(q, moved, pin=(0, w))

    def test_refutes_a_reversed_lone_arrow(self):
        # The reversed copy is still a chain of blocks from the pin, with the
        # same walk order, but its pinned key, exact at connecting vertices,
        # differs, and the certificate sees the arrow reversed.
        q = LONG_CHAIN
        lone = q.arrow("c16")
        assert ("out", lone.tgt) in _blocks(q)[lone.src]  # on no 3-cycle
        reversed_ = Quiver(q.vertices, tuple(
            Arrow(x.id, x.tgt, x.src) if x == lone else x for x in q.arrows
        ))
        (key, order), (reversed_key, reversed_order) = (
            connecting_keys(x)[0] for x in (q, reversed_)
        )
        assert key != reversed_key and order == reversed_order
        assert certify(q, reversed_, (0, 0)) is None
        assert certify(reversed_, q, (0, 0)) is None

    def test_refutes_an_order_with_two_vertices_swapped(self):
        # On an isomorphic pair, pinned at a connecting vertex, the zip of
        # the stored orders is the one pinned isomorphism; swapping two
        # neighbours in the target's order breaks an arrow or moves the pin.
        rng = random.Random(5)
        for q, v in [(LONG_CHAIN, 0)] + _arising_pins(5)[::7]:
            moved, w = _relabel_vertices(q, v, rng)
            order, target = connecting_keys(q)[v][1], connecting_keys(moved)[w][1]
            assert find_isomorphism(q, moved, (v, w), (order, target)) is not None
            for i in range(len(target) - 1):
                swapped = list(target)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert find_isomorphism(q, moved, (v, w), (order, swapped)) is None, (q, v, i)

    def test_refutes_a_map_that_is_no_pinned_bijection(self):
        order = connecting_keys(CYCLE3)[1][1]
        assert find_isomorphism(CYCLE3, CYCLE3, (1, 1), (order, order)) == {1: 1, 2: 2, 3: 3}
        for pin, orders in (
            ((1, 2), (order, order)),  # the map does not send pin to pin
            ((1, 1), (order, order[:2])),  # short of a vertex
            ((1, 1), (order, (1, 2, 2))),  # not injective
            ((1, 1), (order + (4,), order + (3,))),  # a vertex outside a
        ):
            assert find_isomorphism(CYCLE3, CYCLE3, pin, orders) is None, (pin, orders)


class TestEmission:
    def test_dot_styles(self):
        p = presentation(
            [1, 2, 3],
            [("a", 1, 2, "T"), ("b", 2, 3, "D"), ("w", 1, 1, "loop")],
            [("b", "a"), ("w", "w")],
        )
        dot = to_dot(p, "lam")
        assert "digraph lam" in dot
        assert '1 -> 2 [label="a"];' in dot
        assert '2 -> 3 [label="b", style=bold];' in dot
        assert "style=dashed" in dot

    def test_json_relations_sorted(self):
        p = RANK3_ALGEBRA
        data = p.to_json()
        assert data["relations"] == [["w", "w"]]
        assert {a["kind"] for a in data["arrows"]} == {"loop", "T"}
