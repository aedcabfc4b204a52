"""Tests for the endomorphism-algebra construction."""

import pytest

from tubecat.endo import (
    bundle,
    bundle_dot,
    bundle_json,
    cartan_check,
    cached_endomorphism_algebra,
    cluster_tilted_completion,
    endomorphism_algebra,
    loopless_quiver,
    tilted_algebra,
)
from tubecat.quiver import (
    connecting_vertices,
    count_paths,
    gorenstein_bound,
    is_cluster_tilted_A,
    is_gentle,
)
from tubecat.rigid import from_summands, from_tilting, maximal_rigid_objects
from tubecat.tube import Indec

from support import presentation, projectives_match_injectives

T3_LADDER = from_summands(3, [Indec(3, 1, 2), Indec(3, 1, 1)])
T4_CYCLE = from_summands(4, [Indec(4, 1, 3), Indec(4, 1, 1), Indec(4, 3, 1)])
T2 = from_summands(2, [Indec(2, 1, 1)])


def arrow_set(p):
    return {(a.id, a.src, a.tgt, a.kind) for a in p.quiver.arrows}


class TestTiltedAlgebra:
    def test_rank3_ladder(self):
        g = tilted_algebra(T3_LADDER)
        assert arrow_set(g) == {("a1_2", 1, 2, "T")}
        assert g.relations == frozenset()

    def test_rank4_nondegenerate(self):
        g = tilted_algebra(T4_CYCLE)
        assert arrow_set(g) == {("a1_2", 1, 2, "T"), ("a3_1", 3, 1, "T")}
        assert g.relations == frozenset({("a1_2", "a3_1")})

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ladder_gives_linear_quiver(self, n):
        t = from_summands(n, [Indec(n, 1, b) for b in range(1, n)])
        g = tilted_algebra(t)
        assert g.relations == frozenset()
        assert {(a.src, a.tgt) for a in g.quiver.arrows} == {
            (i, i + 1) for i in range(1, n - 1)
        }


class TestCompletion:
    def test_no_relations_unchanged(self):
        g = presentation([1, 2], [("a", 1, 2)])
        assert cluster_tilted_completion(g) == g

    def test_single_relation_closes_cycle(self):
        g = presentation([1, 2, 3], [("b", 2, 3), ("a", 1, 2)], [("b", "a")])
        done = cluster_tilted_completion(g)
        assert ("b3_1", 3, 1, "D") in arrow_set(done)
        assert done.relations == frozenset({("b", "a"), ("b3_1", "b"), ("a", "b3_1")})

    def test_rank4_worked_example(self):
        done = cluster_tilted_completion(tilted_algebra(T4_CYCLE))
        assert ("b2_3", 2, 3, "D") in arrow_set(done)
        assert len(done.relations) == 3


class TestEndomorphismAlgebra:
    def test_rank2_dual_numbers(self):
        lam = endomorphism_algebra(T2)
        assert arrow_set(lam) == {("w", 1, 1, "loop")}
        assert lam.relations == frozenset({("w", "w")})
        assert sum(count_paths(lam).values()) == 2

    def test_rank3_worked_example(self):
        lam = endomorphism_algebra(T3_LADDER)
        assert arrow_set(lam) == {("w", 1, 1, "loop"), ("a1_2", 1, 2, "T")}
        assert lam.relations == frozenset({("w", "w")})
        assert sum(count_paths(lam).values()) == 5

    def test_rank4_cycle_with_loop(self):
        lam = endomorphism_algebra(T4_CYCLE)
        assert arrow_set(lam) == {
            ("a1_2", 1, 2, "T"),
            ("a3_1", 3, 1, "T"),
            ("b2_3", 2, 3, "D"),
            ("w", 1, 1, "loop"),
        }
        assert len(lam.relations) == 4

    def test_loop_sits_at_top_vertex(self):
        for n in (2, 3, 4, 5):
            for t in maximal_rigid_objects(n):
                lam = cached_endomorphism_algebra(t)
                bare, loop_vertex = loopless_quiver(lam)
                assert loop_vertex == t.vertex_of(t.top) == 1


class TestCartanCheck:
    def test_rank3_entries(self):
        paths = count_paths(cached_endomorphism_algebra(T3_LADDER))
        assert paths == {(1, 1): 2, (1, 2): 2, (2, 2): 1}  # no path 2 -> 1
        assert cartan_check(T3_LADDER).ok

    def test_rank2_total(self):
        report = cartan_check(T2)
        assert report.ok
        assert report.total_paths == report.total_hom == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_object(self, n):
        for t in maximal_rigid_objects(n):
            report = cartan_check(t)
            assert report.ok, (t, report.mismatches)

    def test_recognizer_and_connecting_vertex(self):
        for n in (2, 3, 4, 5):
            for t in maximal_rigid_objects(n):
                bare, loop_vertex = loopless_quiver(cached_endomorphism_algebra(t))
                assert is_cluster_tilted_A(bare)
                assert loop_vertex in connecting_vertices(bare)


class TestGorensteinFamily:
    def test_rank2_dimension_zero(self):
        lam = cached_endomorphism_algebra(T2)
        report = gorenstein_bound(lam)
        assert report.dimension == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dimension_one(self, n):
        for t in maximal_rigid_objects(n):
            lam = cached_endomorphism_algebra(t)
            report = gorenstein_bound(lam)
            assert report.dimension == 1, (t, report)
            if report.gentle_arrows:
                assert report.n_g == 1

    @pytest.mark.parametrize("n, without_gentle_arrows", [
        (2, 1), (3, 0), (4, 1), (5, 0), (6, 2), (7, 0), (8, 5),
    ])
    def test_every_representative_against_the_reference(self, n, without_gentle_arrows):
        # Dimension 0 exactly when the projective and injective strings
        # coincide, on the algebras with and without gentle arrows alike.
        no_gentle_arrows = 0
        for t in maximal_rigid_objects(n):
            if t.top.orbit != 1:
                continue
            lam = cached_endomorphism_algebra(t)
            report = gorenstein_bound(lam)
            assert report.dimension == (0 if n == 2 else 1), t
            assert (report.dimension == 0) == projectives_match_injectives(lam), t
            no_gentle_arrows += report.n_g == 0
        assert no_gentle_arrows == without_gentle_arrows

    def test_cycle_object_has_no_gentle_arrows(self):
        """All arrows on the 3-cycle or the loop: n_g = 0, and the loop
        vertex has two arrows out, so the algebra is not self-injective."""
        lam = cached_endomorphism_algebra(T4_CYCLE)
        assert is_gentle(lam)
        report = gorenstein_bound(lam)
        assert report.n_g == 0
        assert report.gentle_arrows == ()
        assert report.dimension == 1
        assert not projectives_match_injectives(lam)


class TestSevenRankInstance:
    def test_bundle_shape(self):
        """A rank-7 object mixing degenerate and non-degenerate triples:
        six vertices, one 3-cycle per tilted relation, loop at a
        connecting vertex."""
        t = from_tilting(7, 1, [(1, 6), (1, 2), (1, 1), (4, 6), (4, 4), (6, 6)])
        lam = cached_endomorphism_algebra(t)
        assert len(lam.quiver.vertices) == 6
        tilted = tilted_algebra(t)
        n_cycles = len(tilted.relations)
        assert len(lam.quiver.arrows) == len(tilted.quiver.arrows) + n_cycles + 1
        assert len(lam.relations) == 3 * n_cycles + 1
        bare, loop_vertex = loopless_quiver(lam)
        assert is_cluster_tilted_A(bare)
        assert loop_vertex in connecting_vertices(bare)
        assert cartan_check(t).ok
        assert is_gentle(lam)


class TestEmission:
    def test_bundle_json_schema(self):
        data = bundle_json(T4_CYCLE, bundle(T4_CYCLE))
        assert data["rank"] == 4
        assert data["tilting_intervals"] == ["1-3", "1-1", "3-3"]
        for name in ("tilted", "cluster_tilted", "endomorphism"):
            assert set(data[name]) == {"vertices", "arrows", "relations"}
        kinds = {a["kind"] for a in data["endomorphism"]["arrows"]}
        assert kinds == {"T", "D", "loop"}

    def test_bundle_dot(self):
        dots = bundle_dot(bundle(T4_CYCLE))
        assert set(dots) == {"tilted", "cluster_tilted", "endomorphism"}
        assert "style=dashed" in dots["endomorphism"]
