"""String and band combinatorics tests."""

import hashlib
import inspect
import json
import random
import re
import sys
from collections import namedtuple

import pytest

from tubecat import homfunctor, strings
from tubecat.endo import cached_endomorphism_algebra
from tubecat.quiver import Presentation, count_paths
from tubecat.rigid import maximal_rigid_objects
from tubecat.strings import (
    ZERO_STRING,
    StringModule,
    end_vertex,
    enumerate_strings,
    is_string,
    letter_source,
    letter_target,
    letters_composable,
    string_module,
    trivial,
    word,
    zero_module,
)
from tubecat.tube import Indec, in_wing

from support import (
    enumeration_order,
    injective_string,
    presentation,
    projective_string,
    projectives_match_injectives,
    reference_is_string,
    reference_string_module,
    reference_traversed,
    small_gentle_presentations,
)

RANK3 = presentation([1, 2], [("w", 1, 1, "loop"), ("a", 1, 2, "T")], [("w", "w")])
KRONECKER = presentation([1, 2], [("a", 1, 2), ("b", 1, 2)])
LINEAR_A3 = presentation([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])


def oriented_cycle(m):
    return presentation(range(1, m + 1), [(f"a{i}", i, i % m + 1) for i in range(1, m + 1)])


class InfiniteTypeError(ValueError):
    """Band modules exist; the indecomposables cannot be counted."""

    def __init__(self, band):
        super().__init__(f"presentation has band modules: {band}")
        self.band = band


def count_indecomposables(p):
    """Number of canonical strings, trivial ones included, zero excluded."""
    enum = enumerate_strings(p)
    if enum.band is not None:
        raise InfiniteTypeError(enum.band)
    return len(enum.strings)


def start_vertex(p, w):
    if w.kind == "trivial":
        return w.vertex
    if w.kind == "word":
        return letter_source(p, w.letters[0])
    raise ValueError("the zero string has no endpoints")


def stored_matrix(m, arrow_id):
    """An arrow's action as a numpy array, built from the stored sparse
    (arrow id, shape, positions of ones) record rather than from `action`;
    skips the calling test when numpy is missing."""
    np = pytest.importorskip("numpy")
    for aid, shape, ones in m.actions:
        if aid == arrow_id:
            matrix = np.zeros(shape, dtype=int)
            for i, j in ones:
                matrix[i, j] = 1
            return matrix
    raise KeyError(arrow_id)


def _builds_a_module(p, w):
    """Whether `string_module` builds a module for w; the only refusal it
    may give is that w is not a string."""
    try:
        string_module(p, w)
    except ValueError as exc:
        assert str(exc) == f"not a string of this presentation: {w}"
        return False
    return True


def dense_string_module(p, w):
    """The former dense builder of `string_module`, as its `to_json()`:
    every action a flat row-major 0/1 list, and the relation check read
    from the entries of both matrices."""
    if not strings.is_string(p, w):
        raise ValueError(f"not a string of this presentation: {w}")
    if w.kind == "zero":
        return {"dims": {}, "actions": {}}
    verts = reference_traversed(p, w)
    dims = {v: 0 for v in p.quiver.vertices}
    slot = []
    for v in verts:
        slot.append(dims[v])
        dims[v] += 1
    shapes = {a.id: (dims[a.tgt], dims[a.src]) for a in p.quiver.arrows}
    mats = {aid: [0] * (rows * cols) for aid, (rows, cols) in shapes.items()}
    if w.kind == "word":
        for i, (aid, d) in enumerate(w.letters):
            row, col = (slot[i + 1], slot[i]) if d > 0 else (slot[i], slot[i + 1])
            mats[aid][row * shapes[aid][1] + col] = 1
    for second, first in p.relations:
        rows, cols = shapes[first]
        mat = mats[first]
        live = {j for j in range(rows) if any(mat[j * cols:(j + 1) * cols])}
        inner = shapes[second][1]
        if any(x and k % inner in live for k, x in enumerate(mats[second])):
            raise AssertionError(f"relation ({second}, {first}) acts nonzero")
    return {
        "dims": {str(v): d for v, d in sorted(dims.items()) if d},
        "actions": {
            aid: [mats[aid][i * cols:(i + 1) * cols] for i in range(rows)]
            for aid, (rows, cols) in sorted(shapes.items())
        },
    }


def _representatives(n):
    return [t for t in maximal_rigid_objects(n) if t.top.orbit == 1]


class TestWords:
    def test_canonical_identifies_inverse(self):
        w = word([("a", -1), ("w", 1)])
        assert w.canonical() == w.inverse().canonical()
        assert w.canonical().canonical() == w.canonical()

    def test_every_string_is_truthy(self):
        # No length protocol: a trivial string is not an empty container,
        # and the zero string's length is -1, not 0.
        for w in (trivial(3), ZERO_STRING, word([("a", 1)])):
            assert w
        assert ZERO_STRING.length == -1 and trivial(3).length == 0

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
        assert reference_traversed(RANK3, w) == [2, 1, 1]

    def test_string_predicate(self):
        assert is_string(RANK3, word([("w", 1), ("a", 1)]))      # a then w? no: w then a
        assert not is_string(RANK3, word([("w", 1), ("w", 1)]))  # squared loop
        assert not is_string(RANK3, word([("w", 1), ("w", -1)]))  # immediate inverse
        assert not is_string(RANK3, word([("a", 1), ("w", 1)]))  # not composable
        assert is_string(RANK3, word([("a", -1), ("w", 1), ("a", 1)]))

    @pytest.mark.parametrize("direction", [0, 2, -5])
    def test_direction_other_than_one_is_no_string(self, direction):
        """A letter is an arrow read forwards (1) or backwards (-1); any
        other direction is rejected rather than read as an inverse."""
        lam = cached_endomorphism_algebra(maximal_rigid_objects(3)[0])
        assert is_string(lam, word([("a1_2", 1)])) and is_string(lam, word([("a1_2", -1)]))
        forged = word([("a1_2", direction)])
        assert not is_string(lam, forged)
        with pytest.raises(ValueError, match="not a string"):
            string_module(lam, forged)

    def test_inverse_relation_detected(self):
        # both letters inverse: their inverse reading must avoid relations too
        assert not is_string(RANK3, word([("w", -1), ("w", -1)]))


def _small_gentle(finite_only=False):
    return [
        c.presentation for c in small_gentle_presentations() if c.finite or not finite_only
    ]


def _forged_letters(p):
    """Letters outside the table of p: a known arrow read in directions 0,
    2 and -5, and an unknown arrow id."""
    aid = min(a.id for a in p.quiver.arrows)
    return [(aid, 0), (aid, 2), (aid, -5), ("no-such-arrow", 1)]


class TestLetterTable:
    """The letter table that the string layer reads, against the
    definitions it is built from, and the one table held."""

    @staticmethod
    def assert_table_is_the_definitions(p):
        table = strings._letters(p)
        assert table.presentation is p
        arrows = sorted(p.quiver.arrows, key=lambda a: a.id)
        letters = [(a.id, d) for a in arrows for d in (1, -1)]
        assert list(table.ends) == list(table.successors) == letters
        for x in letters:
            assert table.ends[x] == (letter_source(p, x), letter_target(p, x))
            assert table.successors[x] == tuple(y for y in letters if letters_composable(p, x, y))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_equals_the_definitions_on_every_representative(self, n):
        for t in _representatives(n):
            self.assert_table_is_the_definitions(cached_endomorphism_algebra(t))

    def test_equals_the_definitions_on_small_gentle_presentations(self):
        cases = _small_gentle()
        assert (len(cases), len(_small_gentle(finite_only=True))) == (1426, 548)
        for p in cases:
            self.assert_table_is_the_definitions(p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_is_string_on_enumerated_and_chain_strings(self, n):
        """Every enumerated string and every chain string of the sweep is a
        string for the table and for the former predicate, and the sweep's
        memo holds the end vertex of each chain string's walk."""
        for t in _representatives(n):
            lam = cached_endomorphism_algebra(t)
            assert homfunctor.verify_hom_functor(t).ok
            entries = list(homfunctor._table(t).words.values())
            for w, end in entries:
                assert end == (None if w.is_zero else reference_traversed(lam, w)[-1]), (t, w)
            for w in (*enumerate_strings(lam).strings, *(w for w, _ in entries)):
                assert is_string(lam, w) and reference_is_string(lam, w), (t, w)

    def test_is_string_on_the_small_gentle_strings(self):
        for p in _small_gentle(finite_only=True):
            for w in enumerate_strings(p).strings:
                assert is_string(p, w) and reference_is_string(p, w), (p, w)

    def test_is_string_on_short_and_forged_words(self):
        """Every word of one or two letters over the letters of p and the
        forged ones: unknown ids, directions 0, 2 and -5, and every pair
        that does not compose. `string_module` raises exactly on the words
        that are not strings."""
        algebras = [cached_endomorphism_algebra(t) for n in (2, 3, 4) for t in _representatives(n)]
        rejected = 0
        for p in [*algebras, *_small_gentle(finite_only=True), RANK3, KRONECKER]:
            alphabet = [*strings._letters(p).ends, *_forged_letters(p)]
            words = [word([x]) for x in alphabet] + [word([x, y]) for x in alphabet for y in alphabet]
            for w in words:
                expected = reference_is_string(p, w)
                assert is_string(p, w) == expected, (p, w)
                assert _builds_a_module(p, w) == expected, (p, w)
                rejected += not expected
        assert rejected > 10_000

    @pytest.mark.parametrize("forged", [("a", 0), ("a", 2), ("a", -5), ("no-such-arrow", 1)])
    def test_end_vertex_refuses_forged_last_letters(self, forged):
        """A letter outside the table is not a letter of p: `end_vertex`
        raises on it as `string_module` does, naming the word."""
        for w in (word([forged]), word([("w", 1), forged])):
            with pytest.raises(ValueError) as refused:
                end_vertex(RANK3, w)
            assert str(refused.value) == f"not a string of this presentation: {w}"

    def test_one_table_for_the_last_presentation(self):
        """Alternating two presentations rebuilds the table each time and
        answers each correctly; an equal copy is another presentation."""
        rank3_only = word([("a", -1), ("w", 1), ("a", 1)])
        a3_only = word([("a", 1), ("b", 1)])
        expected = {p: enumerate_strings(p) for p in (RANK3, LINEAR_A3)}
        copy = Presentation.from_json(RANK3.to_json())
        assert copy == RANK3 and copy is not RANK3
        rounds = [(RANK3, rank3_only, a3_only), (LINEAR_A3, a3_only, rank3_only)] * 3
        # The copy right after RANK3: a table matched by equality would be kept.
        for p, good, bad in [*rounds, rounds[0], (copy, rank3_only, a3_only)]:
            assert is_string(p, good) and not is_string(p, bad)
            assert strings._held.presentation is p
            assert enumerate_strings(p) == expected[p]
            assert end_vertex(p, good) == reference_traversed(p, good)[-1]
        tables = [name for name, value in vars(strings).items() if isinstance(value, strings._LetterTable)]
        assert tables == ["_held"]
        caches = {
            name for name, value in vars(strings).items()
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == strings.__name__
        }
        assert caches == set()  # no module-level cache of any kind


class TestEnumeration:
    def test_rank3_exact_set(self):
        enum = enumerate_strings(RANK3)
        assert enum.band is None
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
        assert enum.strings == ()
        assert enum.band == word([("a", 1), ("b", -1)]).canonical()
        with pytest.raises(InfiniteTypeError):
            count_indecomposables(KRONECKER)

    def test_linear_a3(self):
        assert count_indecomposables(LINEAR_A3) == 6

    def test_rejects_non_special_biserial(self):
        bad = presentation([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 1, 2)])
        with pytest.raises(ValueError):
            enumerate_strings(bad)

    def test_pinned_for_all_objects(self):
        # Digest of every enumeration at ranks 2..6, in the former
        # enumeration order, as produced by the earlier recursive walk,
        # whose record also held the bands, a completeness flag and the
        # default length cap: rebuilt here.
        data = []
        for n in range(2, 7):
            for t in enumeration_order(maximal_rigid_objects(n)):
                lam = cached_endomorphism_algebra(t)
                enum = enumerate_strings(lam)
                assert enum.band is None
                cap = 4 * max(1, len(lam.quiver.arrows)) * max(1, len(lam.quiver.vertices))
                data.append([n, str(t), [s.to_json() for s in enum.strings], [], True, cap])
        assert len(data) == 350
        digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
        assert digest == "3719ae74722a4b20dd54043076eea905b91f131fd37bf65cc7d163f6c8de9291"

    def test_long_walk_does_not_recurse(self):
        # The linear quiver's longest string is longer than the recursion
        # limit, lowered to 100 frames above the current depth.
        limit = len(inspect.stack(0)) + 100
        m = limit + 2
        path = presentation(range(1, m + 1), [(f"a{i}", i, i + 1) for i in range(1, m)])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            enum = enumerate_strings(path)
        finally:
            sys.setrecursionlimit(old)
        assert enum.band is None
        assert len(enum.strings) == m * (m + 1) // 2
        assert max(s.length for s in enum.strings) == m - 1 > limit

    @pytest.mark.parametrize("p", [
        presentation([1, 2], [("a", 1, 2)]),
        presentation([1], [("w", 1, 1)], [("w", "w")]),
    ], ids=["A2", "loop-w2"])
    def test_cap_at_the_longest_string(self, p):
        # The longest string has one letter, so the walk ends by itself
        # after one letter and lists what the former walk did at cap 1.
        enum = enumerate_strings(p)
        reference = reference_enumeration(p, 1)
        assert enum.band is None and reference.complete
        assert enum.strings == reference.strings
        assert max(s.length for s in enum.strings) == 1

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_raises(self, cap):
        # There is no length cap to pass, by position or by name.
        with pytest.raises(TypeError):
            enumerate_strings(LINEAR_A3, cap)
        with pytest.raises(TypeError):
            enumerate_strings(LINEAR_A3, cap=cap)

    @pytest.mark.parametrize("p, visits, band", [
        (oriented_cycle(16), 16, word([(f"a{i}", 1) for i in range(1, 17)])),
        (presentation([1], [("w", 1, 1)]), 1, word([("w", 1)])),
    ], ids=["16-cycle", "free-loop"])
    def test_band_returns_at_its_first_closing(self, p, visits, band, monkeypatch):
        # `_is_canonical` runs once per visited walk.
        seen = []
        is_canonical = strings._is_canonical
        monkeypatch.setattr(strings, "_is_canonical", lambda ls: seen.append(ls) or is_canonical(ls))
        assert enumerate_strings(p) == strings.StringEnumeration((), band)
        assert len(seen) == visits

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_count_formula_for_all_objects(self, n):
        expected = (3 * n * n - 5 * n + 2) // 2
        for t in maximal_rigid_objects(n):
            assert count_indecomposables(cached_endomorphism_algebra(t)) == expected


class TestStringModules:
    def test_trivial_gives_simple(self):
        m = string_module(RANK3, trivial(2))
        assert m.dims == ((2, 1),)

    def test_peak_word_dimensions(self):
        m = string_module(RANK3, word([("a", -1), ("w", 1), ("a", 1)]))
        assert dict(m.dims) == {1: 2, 2: 2}

    def test_hook_word_dimensions(self):
        m = string_module(RANK3, word([("a", -1), ("w", 1)]))
        assert dict(m.dims) == {1: 2, 2: 1}

    def test_dimension_is_length_plus_one(self):
        for t in maximal_rigid_objects(4):
            lam = cached_endomorphism_algebra(t)
            for s in enumerate_strings(lam).strings:
                assert sum(d for _, d in string_module(lam, s).dims) == s.length + 1

    def test_actions_respect_relations(self):
        """Every relation with both arrows on the word acts by zero; an arrow
        off the word is not kept, since it acts by zero."""
        lam = cached_endomorphism_algebra(maximal_rigid_objects(4)[0])
        for s in enumerate_strings(lam).strings:
            m = string_module(lam, s)
            kept = {aid for aid, _, _ in m.actions}
            assert kept == {aid for aid, _ in s.letters}
            for second, first in lam.relations:
                if {second, first} <= kept:
                    assert not (stored_matrix(m, second) @ stored_matrix(m, first)).any()

    def test_action_rows_match_stored_entries(self):
        lam = cached_endomorphism_algebra(maximal_rigid_objects(4)[0])
        for s in enumerate_strings(lam).strings:
            m = string_module(lam, s)
            for aid, shape, _ in m.actions:
                rows = m.action(aid)
                assert len(rows) == shape[0]
                assert [list(r) for r in rows] == stored_matrix(m, aid).tolist()

    def test_arrows_off_the_word_are_not_kept(self):
        # A trivial string has no arrow on its word; a: 1 -> 2 on the word
        # a * w acts 1 x 2, and w acts 2 x 2.
        for v in (1, 2):
            assert string_module(RANK3, trivial(v)).actions == ()
            with pytest.raises(KeyError):
                string_module(RANK3, trivial(v)).action("a")
        m = string_module(RANK3, word([("w", 1), ("a", 1)]))
        assert m.action("a") == ((0, 1),)
        assert m.action("w") == ((0, 0), (1, 0))
        with pytest.raises(KeyError):
            m.action("nope")

    def test_relation_acting_nonzero_is_caught(self, monkeypatch):
        # w*w is a relation: the walk refuses it even past a forged `is_string`.
        monkeypatch.setattr(strings, "is_string", lambda p, w: True)
        with pytest.raises(ValueError, match=r"^not a string of this presentation: w\*w$"):
            string_module(RANK3, word([("w", 1), ("w", 1)]))

    @pytest.mark.parametrize("builder", [string_module, reference_string_module, dense_string_module])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_tube_and_shifted_relation_is_caught(self, builder, inverse, monkeypatch):
        """A relation between a tube-map arrow and a shifted-part arrow,
        forged forwards and as its inverse, past a forged `is_string`: the
        one-pass walk refuses the word, and the reference and dense
        builders, which trust `is_string`, fail their relation test."""
        lam = cached_endomorphism_algebra(maximal_rigid_objects(4)[0])
        kinds = {a.id: a.kind for a in lam.quiver.arrows}
        second, first = next(
            r for r in lam.relations if {kinds[r[0]], kinds[r[1]]} == {"T", "D"}
        )
        forged = word([(first, 1), (second, 1)])
        forged = forged.inverse() if inverse else forged
        assert not is_string(lam, forged)
        monkeypatch.setattr(strings, "is_string", lambda p, w: True)
        if builder is string_module:
            caught = pytest.raises(ValueError, match=rf"^not a string of this presentation: {re.escape(str(forged))}$")
        else:
            caught = pytest.raises(AssertionError, match=rf"^relation \({second}, {first}\) acts nonzero$")
        with caught:
            builder(lam, forged)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_modules_equal_the_dense_builder(self, n):
        """On the arrows of the word; the dense builder's other arrows act
        by zero."""
        for t in _representatives(n):
            lam = cached_endomorphism_algebra(t)
            for s in enumerate_strings(lam).strings:
                dense, on_word = dense_string_module(lam, s), {aid for aid, _ in s.letters}
                assert not any(map(any, (
                    row for aid, rows in dense["actions"].items() if aid not in on_word for row in rows
                )))
                dense["actions"] = {aid: rows for aid, rows in dense["actions"].items() if aid in on_word}
                assert string_module(lam, s).to_json() == dense

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_modules_equal_the_reference(self, n):
        """The module built from the word's own vertices and arrows equals
        the former one built over the whole algebra on the arrows of the
        word, in arrow order, and each other arrow acts by zero there."""
        for t in _representatives(n):
            lam = cached_endomorphism_algebra(t)
            for s in enumerate_strings(lam).strings:
                reference, on_word = reference_string_module(lam, s), {aid for aid, _ in s.letters}
                assert all(not ones for aid, _, ones in reference.actions if aid not in on_word)
                kept = tuple(action for action in reference.actions if action[0] in on_word)
                assert string_module(lam, s) == StringModule(reference.dims, kept), (t, s)

    def test_forged_relation_fails_as_the_reference(self, monkeypatch):
        """Past a forged `is_string`, the reference builder names the
        relation, and `string_module` refuses the word as `is_string`
        would have."""
        forged = word([("w", 1), ("w", 1)])
        with pytest.raises(ValueError) as honest:
            string_module(RANK3, forged)
        monkeypatch.setattr(strings, "is_string", lambda p, w: True)
        with pytest.raises(ValueError) as past_forged:
            string_module(RANK3, forged)
        with pytest.raises(AssertionError) as reference:
            reference_string_module(RANK3, forged)
        assert str(past_forged.value) == str(honest.value) == "not a string of this presentation: w*w"
        assert str(reference.value) == "relation (w, w) acts nonzero"

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            string_module(RANK3, word([("w", 1), ("w", 1)]))

    def test_json_schema(self):
        m = string_module(RANK3, word([("w", 1)]))
        data = json.loads(json.dumps(m.to_json()))
        assert data["dims"] == {"1": 2}
        assert data["actions"] == {"w": [[0, 0], [1, 0]]}

    def test_module_dims_sums(self):
        """The dimension at a vertex sums the string's visits to it."""
        for w in (trivial(1), word([("a", 1)]), word([("w", 1)])):
            visits = reference_traversed(RANK3, w)
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
                    assert proj.dim(u) == paths.get((v, u), 0)
                    assert inj.dim(u) == paths.get((u, v), 0)

    def test_family_never_self_injective_above_rank_two(self):
        for n in (3, 4, 5):
            for t in maximal_rigid_objects(n):
                assert not projectives_match_injectives(
                    cached_endomorphism_algebra(t)
                )

    def test_dual_numbers_match(self):
        lam2 = presentation([1], [("w", 1, 1, "loop")], [("w", "w")])
        assert projectives_match_injectives(lam2)


# --- references: the former walk and the former projective/injective builders --

def reference_is_canonical(letters):
    """Compare the keys of both readings, building the inverse."""
    inverse = tuple((aid, -d) for aid, d in reversed(letters))
    return strings._letter_keys(letters) <= strings._letter_keys(inverse)


def reference_canonical_letters(letters):
    """The former `_canonical_letters`."""
    if reference_is_canonical(letters):
        return letters
    return tuple((aid, -d) for aid, d in reversed(letters))


def reference_canonical_band(forward):
    """The former `_canonical_band`: primitive root of the cyclic word, in
    its least rotation over both orientations."""
    n = len(forward)
    period = next(k for k in range(1, n + 1) if n % k == 0 and forward == forward[:k] * (n // k))
    forward = forward[:period]
    backward = tuple((aid, -d) for aid, d in reversed(forward))
    rotations = [ls[i:] + ls[:i] for ls in (forward, backward) for i in range(period)]
    return word(min(rotations, key=strings._letter_keys))


ReferenceEnumeration = namedtuple("ReferenceEnumeration", "strings bands complete cap")


def reference_enumeration(p, cap):
    """The walk with a length cap, before it stopped at its first band: one
    iterator over the remaining next letters per letter of the growing
    branch, `first_seen` mapping each letter on the branch to its first
    position, every visit canonicalised. It lists every string of at most
    `cap` letters and every band closed within them."""
    sb = strings.is_special_biserial(p)
    if not sb:
        raise ValueError(f"presentation is not special biserial: {sb.witness}")
    all_letters = []
    for a in sorted(p.quiver.arrows, key=lambda a: a.id):
        all_letters.append((a.id, 1))
        all_letters.append((a.id, -1))
    by_source = {}
    for letter in all_letters:
        by_source.setdefault(strings.letter_source(p, letter), []).append(letter)
    successors = {
        x: [y for y in by_source.get(strings.letter_target(p, x), ())
            if strings.letters_composable(p, x, y)]
        for x in all_letters
    }
    found, bands = set(), set()
    capped = False
    budget = 1_000_000

    def visit(letters):
        nonlocal capped, budget
        budget -= 1
        if budget < 0:
            raise RuntimeError(f"string walk exceeded the node budget at cap {cap}")
        found.add(reference_canonical_letters(tuple(letters)))
        if len(letters) >= cap:
            capped = capped or bool(successors[letters[-1]])
            return iter(())
        return iter(successors[letters[-1]])

    for first in all_letters:
        letters = [first]
        first_seen = {first: 0}
        branches = [visit(letters)]
        while branches:
            nxt = next(branches[-1], None)
            if nxt is None:
                branches.pop()
                last = letters.pop()
                if first_seen[last] == len(letters):
                    del first_seen[last]
                continue
            if nxt in first_seen:
                bands.add(reference_canonical_band(tuple(letters[first_seen[nxt]:])))
            else:
                first_seen[nxt] = len(letters)
            letters.append(nxt)
            branches.append(visit(letters))

    if capped and not bands:
        raise RuntimeError(f"string walk exceeded cap {cap} without finding a band")
    found_words = tuple(strings.StringWord("word", letters) for letters in sorted(found))
    trivials = tuple(trivial(v) for v in sorted(p.quiver.vertices))
    return ReferenceEnumeration(trivials + found_words, tuple(sorted(bands)), not bands, cap)


def reference_paths_from(p, v):
    """The former `_maximal_paths_from`."""
    out = []
    for first in [a for a in p.quiver.arrows if a.src == v]:
        path = [first.id]
        while True:
            cur = path[-1]
            nxt = [
                g.id
                for g in p.quiver.arrows
                if g.src == p.quiver.arrow(cur).tgt and not p.is_relation(g.id, cur)
            ]
            if not nxt:
                break
            if len(nxt) > 1:
                raise ValueError("not special biserial")
            if nxt[0] in path:
                raise ValueError("relation-free cycle; projectives are infinite")
            path.append(nxt[0])
        out.append(path)
    return out


def reference_paths_into(p, v):
    """The former `_maximal_paths_into`."""
    out = []
    for last in [a for a in p.quiver.arrows if a.tgt == v]:
        path = [last.id]
        while True:
            cur = path[0]
            prev = [
                a.id
                for a in p.quiver.arrows
                if a.tgt == p.quiver.arrow(cur).src and not p.is_relation(cur, a.id)
            ]
            if not prev:
                break
            if len(prev) > 1:
                raise ValueError("not special biserial")
            if prev[0] in path:
                raise ValueError("relation-free cycle; injectives are infinite")
            path.insert(0, prev[0])
        out.append(path)
    return out


def reference_projective(p, v):
    branches = reference_paths_from(p, v)
    if not branches:
        return trivial(v)
    u, w_branch = branches if len(branches) > 1 else (branches[0], [])
    return word([(aid, -1) for aid in reversed(u)] + [(aid, 1) for aid in w_branch])


def reference_injective(p, v):
    branches = reference_paths_into(p, v)
    if not branches:
        return trivial(v)
    u, w_branch = branches if len(branches) > 1 else (branches[0], [])
    return word([(aid, 1) for aid in u] + [(aid, -1) for aid in reversed(w_branch)])


def reference_match(p):
    vs = p.quiver.vertices
    projs = sorted(word(reference_canonical_letters(s.letters)) if s.letters else s
                   for s in (reference_projective(p, v) for v in vs))
    injs = sorted(word(reference_canonical_letters(s.letters)) if s.letters else s
                  for s in (reference_injective(p, v) for v in vs))
    return projs == injs


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_matches_reference(p):
    """The walk against the capped one at 2 * #arrows + 1 letters, which
    lists every band-free walk and closes every cycle of distinct letters:
    the same strings without bands, one of its bands otherwise."""
    enum = enumerate_strings(p)
    reference = reference_enumeration(p, 2 * len(p.quiver.arrows) + 1)
    if enum.band is None:
        assert reference.complete and enum.strings == reference.strings
    else:
        assert enum.strings == () and enum.band in reference.bands
    for v in p.quiver.vertices:
        assert outcome(projective_string, p, v) == outcome(reference_projective, p, v)
        assert outcome(injective_string, p, v) == outcome(reference_injective, p, v)
    assert outcome(projectives_match_injectives, p) == outcome(reference_match, p)


def random_special_biserial(rng):
    """A random special biserial presentation: up to 5 vertices, up to 7
    arrows with ids in shuffled order, each composable pair a relation with
    probability one half."""
    while True:
        vertices = list(range(1, rng.randint(1, 5) + 1))
        ids = [f"x{i}" for i in range(rng.randint(1, 7))]
        rng.shuffle(ids)
        arrows = [(aid, rng.choice(vertices), rng.choice(vertices)) for aid in ids]
        relations = [
            (b, a) for a, _, a_tgt in arrows for b, b_src, _ in arrows
            if b_src == a_tgt and rng.random() < 0.5
        ]
        p = presentation(vertices, arrows, relations)
        if strings.is_special_biserial(p):
            return p


class TestAgainstTheReferences:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_every_representative(self, n):
        for t in maximal_rigid_objects(n):
            if t.top.orbit == 1:
                assert_matches_reference(cached_endomorphism_algebra(t))

    def test_kronecker(self):
        assert_matches_reference(KRONECKER)

    @pytest.mark.parametrize("relations", [[], [("w", "w")]])
    def test_one_vertex_loop(self, relations):
        assert_matches_reference(presentation([1], [("w", 1, 1)], relations))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_oriented_cycles(self, m):
        assert_matches_reference(oriented_cycle(m))

    def test_random_special_biserial(self):
        rng = random.Random(20090511)
        with_bands = 0
        for _ in range(500):
            p = random_special_biserial(rng)
            assert_matches_reference(p)
            with_bands += enumerate_strings(p).band is not None
        assert with_bands > 50

    def test_canonical_predicate_on_every_visited_walk(self, monkeypatch):
        seen = []
        is_canonical = strings._is_canonical
        monkeypatch.setattr(strings, "_is_canonical", lambda ls: seen.append(ls) or is_canonical(ls))
        for n in range(2, 7):
            for t in maximal_rigid_objects(n):
                enumerate_strings(cached_endomorphism_algebra(t))
        assert len(seen) > 10_000
        for letters in seen:
            assert is_canonical(letters) == reference_is_canonical(letters)

    def test_canonical_predicate_on_ties(self):
        # A tuple that ends with the inverse of its first letter ties at
        # the first comparison, so the predicate reads further inward.
        rng = random.Random(7)
        alphabet = [(aid, d) for aid in "ab" for d in (1, -1)]
        for _ in range(2000):
            first = rng.choice(alphabet)
            middle = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
            letters = (first, *middle, (first[0], -first[1]))
            assert strings._is_canonical(letters) == reference_is_canonical(letters)
            assert strings._canonical_letters(letters) == reference_canonical_letters(letters)
        palindrome = (("a", 1), ("b", -1), ("b", 1), ("a", -1))  # its own inverse
        assert strings._is_canonical(palindrome)
