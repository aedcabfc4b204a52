"""String and band combinatorics tests."""

import hashlib
import json

import pytest

from tubecat import strings
from tubecat.endo import cached_endomorphism_algebra
from tubecat.quiver import count_paths, presentation
from tubecat.rigid import maximal_rigid_objects
from tubecat.strings import (
    InfiniteTypeError,
    ZERO_STRING,
    count_indecomposables,
    end_vertex,
    enumerate_strings,
    injective_string,
    is_string,
    projective_string,
    start_vertex,
    string_module,
    traversed_vertices,
    trivial,
    word,
    zero_module,
)
from tubecat.tube import Indec, in_wing

RANK3 = presentation([1, 2], [("w", 1, 1, "loop"), ("a", 1, 2, "T")], [("w", "w")])
KRONECKER = presentation([1, 2], [("a", 1, 2), ("b", 1, 2)])
LINEAR_A3 = presentation([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])


def stored_matrix(m, arrow_id):
    """An arrow's action as a numpy array, read from the stored
    (arrow id, shape, entries) record rather than from `action`; skips the
    calling test when numpy is missing."""
    np = pytest.importorskip("numpy")
    for aid, shape, entries in m.actions:
        if aid == arrow_id:
            return np.array(entries, dtype=int).reshape(shape)
    raise KeyError(arrow_id)


class TestWords:
    def test_canonical_identifies_inverse(self):
        w = word([("a", -1), ("w", 1)])
        assert w.canonical() == w.inverse().canonical()
        assert w.canonical().canonical() == w.canonical()

    def test_zero_string(self):
        assert ZERO_STRING.is_zero
        assert ZERO_STRING.length == -1
        assert ZERO_STRING.to_json() is None
        assert is_string(RANK3, ZERO_STRING)
        assert string_module(RANK3, ZERO_STRING) == zero_module()

    def test_display_reads_right_to_left(self):
        w = word([("w", -1), ("a", 1)])  # inverse loop first, then the arrow
        assert w.to_json() == ["a", "w^-1"]
        assert str(w) == "a*w^-1"

    def test_endpoints(self):
        w = word([("a", -1), ("w", 1)])
        assert start_vertex(RANK3, w) == 2
        assert end_vertex(RANK3, w) == 1
        assert traversed_vertices(RANK3, w) == [2, 1, 1]

    def test_string_predicate(self):
        assert is_string(RANK3, word([("w", 1), ("a", 1)]))      # a then w? no: w then a
        assert not is_string(RANK3, word([("w", 1), ("w", 1)]))  # squared loop
        assert not is_string(RANK3, word([("w", 1), ("w", -1)]))  # immediate inverse
        assert not is_string(RANK3, word([("a", 1), ("w", 1)]))  # not composable
        assert is_string(RANK3, word([("a", -1), ("w", 1), ("a", 1)]))

    def test_inverse_relation_detected(self):
        # both letters inverse: their inverse reading must avoid relations too
        assert not is_string(RANK3, word([("w", -1), ("w", -1)]))


class TestEnumeration:
    def test_rank3_exact_set(self):
        enum = enumerate_strings(RANK3)
        assert enum.complete
        expected = {
            trivial(1).canonical(),
            trivial(2).canonical(),
            word([("a", 1)]).canonical(),
            word([("w", 1)]).canonical(),
            word([("w", 1), ("a", 1)]).canonical(),
            word([("w", -1), ("a", 1)]).canonical(),
            word([("a", -1), ("w", 1), ("a", 1)]).canonical(),
        }
        assert set(enum.strings) == expected
        assert count_indecomposables(RANK3) == 7

    def test_rank2(self):
        lam2 = presentation([1], [("w", 1, 1, "loop")], [("w", "w")])
        enum = enumerate_strings(lam2)
        assert set(enum.strings) == {trivial(1), word([("w", 1)])}

    def test_kronecker_band(self):
        enum = enumerate_strings(KRONECKER)
        assert not enum.complete
        assert enum.bands == (word([("a", 1), ("b", -1)]).canonical(),)
        with pytest.raises(InfiniteTypeError):
            count_indecomposables(KRONECKER)

    def test_linear_a3(self):
        assert count_indecomposables(LINEAR_A3) == 6

    def test_rejects_non_special_biserial(self):
        bad = presentation([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 1, 2)])
        with pytest.raises(ValueError):
            enumerate_strings(bad)

    def test_pinned_for_all_objects(self):
        # Digest of every enumeration at ranks 2..6 (strings, bands, cap)
        # as produced by the earlier recursive walk.
        data = []
        for n in range(2, 7):
            for t in maximal_rigid_objects(n):
                enum = enumerate_strings(cached_endomorphism_algebra(t))
                data.append([
                    n,
                    str(t),
                    [s.to_json() for s in enum.strings],
                    [b.to_json() for b in enum.bands],
                    enum.complete,
                    enum.cap,
                ])
        assert len(data) == 350
        digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
        assert digest == "3719ae74722a4b20dd54043076eea905b91f131fd37bf65cc7d163f6c8de9291"

    def test_long_walk_does_not_recurse(self):
        # A branch of 1500 letters is deeper than Python's default
        # recursion limit.
        loop = presentation([1], [("w", 1, 1, "loop")])
        enum = enumerate_strings(loop, cap=1500)
        assert enum.bands == (word([("w", 1)]),)
        assert not enum.complete
        assert len(enum.strings) == 1501
        assert max(s.length for s in enum.strings) == 1500

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_count_formula_for_all_objects(self, n):
        expected = (3 * n * n - 5 * n + 2) // 2
        for t in maximal_rigid_objects(n):
            assert count_indecomposables(cached_endomorphism_algebra(t)) == expected


class TestStringModules:
    def test_trivial_gives_simple(self):
        m = string_module(RANK3, trivial(2))
        assert m.dims == ((2, 1),)
        assert m.total_dim == 1

    def test_peak_word_dimensions(self):
        m = string_module(RANK3, word([("a", -1), ("w", 1), ("a", 1)]))
        assert dict(m.dims) == {1: 2, 2: 2}
        assert m.total_dim == 4

    def test_hook_word_dimensions(self):
        m = string_module(RANK3, word([("a", -1), ("w", 1)]))
        assert dict(m.dims) == {1: 2, 2: 1}

    def test_dimension_is_length_plus_one(self):
        for t in maximal_rigid_objects(4):
            lam = cached_endomorphism_algebra(t)
            for s in enumerate_strings(lam).strings:
                assert string_module(lam, s).total_dim == s.length + 1

    def test_actions_respect_relations(self):
        lam = cached_endomorphism_algebra(maximal_rigid_objects(4)[0])
        for s in enumerate_strings(lam).strings:
            m = string_module(lam, s)
            for second, first in lam.relations:
                assert not (stored_matrix(m, second) @ stored_matrix(m, first)).any()

    def test_action_rows_match_stored_entries(self):
        lam = cached_endomorphism_algebra(maximal_rigid_objects(4)[0])
        for s in enumerate_strings(lam).strings:
            m = string_module(lam, s)
            for aid, shape, _ in m.actions:
                rows = m.action(aid)
                assert len(rows) == shape[0]
                assert [list(r) for r in rows] == stored_matrix(m, aid).tolist()

    def test_empty_actions_keep_their_shape(self):
        # At e1 the arrow a: 1 -> 2 acts 0 x 1, at e2 it acts 1 x 0.
        assert string_module(RANK3, trivial(1)).action("a") == ()
        assert string_module(RANK3, trivial(2)).action("a") == ((),)
        with pytest.raises(KeyError):
            string_module(RANK3, trivial(1)).action("nope")

    def test_relation_acting_nonzero_is_caught(self, monkeypatch):
        # w*w is a relation, so only a forged string can pass through it.
        monkeypatch.setattr(strings, "is_string", lambda p, w: True)
        with pytest.raises(AssertionError, match=r"relation \(w, w\) acts nonzero"):
            string_module(RANK3, word([("w", 1), ("w", 1)]))

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            string_module(RANK3, word([("w", 1), ("w", 1)]))

    def test_json_schema(self):
        m = string_module(RANK3, word([("w", 1)]))
        data = json.loads(json.dumps(m.to_json()))
        assert data["dims"] == {"1": 2}
        assert data["actions"]["w"] == [[0, 0], [1, 0]]
        assert data["actions"]["a"] == []

    def test_module_dims_sums(self):
        """The dimension at a vertex sums the string's visits to it."""
        for w in (trivial(1), word([("a", 1)]), word([("w", 1)])):
            visits = traversed_vertices(RANK3, w)
            expected = tuple(sorted((v, visits.count(v)) for v in set(visits)))
            assert string_module(RANK3, w).dims == expected


class TestStructuralFacts:
    """Exhaustive facts about strings of the endomorphism algebras."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_at_most_one_shifted_letter(self, n):
        for t in maximal_rigid_objects(n):
            lam = cached_endomorphism_algebra(t)
            shifted = {
                a.id for a in lam.quiver.arrows if a.kind in ("D", "loop")
            }
            for s in enumerate_strings(lam).strings:
                uses = sum(1 for aid, _ in s.letters if aid in shifted)
                assert uses <= 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_strings_traverse_the_loop(self, n):
        for t in maximal_rigid_objects(n):
            lam = cached_endomorphism_algebra(t)
            for s in enumerate_strings(lam).strings:
                if s.kind != "word":
                    continue
                if start_vertex(lam, s) == end_vertex(lam, s):
                    assert any(aid == "w" for aid, _ in s.letters), s

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_plain_strings_match_wing_pairs(self, n):
        """Strings without shifted-part letters correspond to ordered wing
        containments among summands, counted up to orientation."""
        for t in maximal_rigid_objects(n):
            lam = cached_endomorphism_algebra(t)
            shifted = {a.id for a in lam.quiver.arrows if a.kind in ("D", "loop")}
            plain = [
                s
                for s in enumerate_strings(lam).strings
                if all(aid not in shifted for aid, _ in s.letters)
            ]
            pairs = sum(
                1
                for x in t.summands
                for y in t.summands
                if in_wing(x, y)
            )
            assert len(plain) == pairs


class TestProjectivesAndInjectives:
    def test_dims_match_path_counts(self):
        for t in maximal_rigid_objects(4):
            lam = cached_endomorphism_algebra(t)
            paths = count_paths(lam)
            for v in lam.quiver.vertices:
                proj = string_module(lam, projective_string(lam, v))
                inj = string_module(lam, injective_string(lam, v))
                for u in lam.quiver.vertices:
                    assert proj.dim(u) == paths[(v, u)]
                    assert inj.dim(u) == paths[(u, v)]

    def test_family_never_self_injective_above_rank_two(self):
        from tubecat.strings import projectives_match_injectives

        for n in (3, 4, 5):
            for t in maximal_rigid_objects(n):
                assert not projectives_match_injectives(
                    cached_endomorphism_algebra(t)
                )

    def test_dual_numbers_match(self):
        from tubecat.strings import projectives_match_injectives

        lam2 = presentation([1], [("w", 1, 1, "loop")], [("w", "w")])
        assert projectives_match_injectives(lam2)
