"""Enumeration and wing-structure tests for maximal rigid objects."""

import itertools
import re
from math import comb

import pytest

from tubecat import kernel, rigid
from tubecat.rigid import (
    RigidObject,
    enumerate_maximal_rigid,
    from_summands,
    from_tilting,
    maximal_compatible_masks,
    maximal_rigid_objects,
    rigid_index,
    subwing_decomposition,
    tau_rigid,
    tilting_intervals,
)
from tubecat.tube import Indec, in_wing, is_compatible, is_rigid, lift_orbit, tau
from tubecat.verify import check_rigid

from support import (
    hom_cluster_oracle,
    quasisimple_map,
    reference_enumerate_brute,
    rigid_indecomposables,
    wing_members,
)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def summand_mask(t: RigidObject) -> int:
    """Bit i set iff `kernel.rigid_coords(t.rank, i)` is a summand of t."""
    return sum(1 << rigid_index(t.rank, s.orbit, s.ql) for s in t.summands)


def layout_order(objects) -> list[RigidObject]:
    """The order of `enumerate_maximal_rigid`: top orbit, then the summands'
    coordinates with the orbit taken relative to the top, which are those of
    the object's translate with top at orbit 1."""

    def key(t):
        n, a = t.rank, t.top.orbit
        return a, tuple(((s.orbit - a) % n + 1, s.ql) for s in t.summands)

    return sorted(objects, key=key)


def is_maximal_rigid(n: int, summands) -> bool:
    """True iff the set is pairwise compatible (self-extensions included)
    and no rigid indecomposable outside it is compatible with every member."""
    xs = list(dict.fromkeys(summands))
    for i, s in enumerate(xs):
        if s.rank != n or not is_rigid(s):
            return False
        for t in xs[i:]:
            if not is_compatible(s, t):
                return False
    chosen = set(xs)
    for a in range(1, n + 1):
        for b in range(1, n):
            cand = Indec(n, a, b)
            if cand in chosen:
                continue
            if all(is_compatible(cand, s) for s in xs):
                return False
    return True


def reference_from_summands(n: int, summands) -> RigidObject:
    """The pairwise validator that `from_summands` replaced: the same checks
    in the same order, with every pair settled by `is_compatible`."""
    xs = list(summands)
    top = max(xs, key=lambda s: s.ql)
    xs.sort(key=lambda s: (-s.ql, lift_orbit(n, s.orbit, top.orbit)))
    xs = tuple(xs)
    if len(set(xs)) != n - 1:
        got = ", ".join(map(str, xs))
        raise ValueError(f"expected {n - 1} distinct summands, got {got}")
    for s in xs:
        if s.rank != n:
            raise ValueError(f"summand {s} has rank {s.rank}, expected {n}")
        if not is_rigid(s):
            raise ValueError(f"summand {s} is not rigid")
    top = xs[0]
    if top.ql != n - 1:
        raise ValueError(f"top summand {top} must have quasilength {n - 1}")
    if sum(1 for s in xs if s.ql == n - 1) != 1:
        raise ValueError("top summand must be unique")
    for i, s in enumerate(xs):
        if not in_wing(s, top):
            raise ValueError(f"summand {s} lies outside the wing of {top}")
        for t in xs[i + 1:]:
            if not is_compatible(s, t):
                raise ValueError(f"summands {s} and {t} are incompatible")
    return RigidObject(n, xs)


def validated(build, n: int, summands):
    """What `build` makes of the summands: the object, or its error message."""
    try:
        return build(n, summands)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestEnumeration:
    def test_rank_two(self):
        objects = enumerate_maximal_rigid(2)
        assert [t.summands for t in objects] == [
            (Indec(2, 1, 1),),
            (Indec(2, 2, 1),),
        ]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_counts_and_route_agreement(self, n):
        structured = [summand_mask(t) for t in enumerate_maximal_rigid(n)]
        brute = list(maximal_compatible_masks(n))
        assert len(set(structured)) == len(structured) == n * catalan(n - 1)
        assert len(set(brute)) == len(brute)
        assert set(structured) == set(brute)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_masks_follow_the_reference_brute_route(self, n):
        """The masks are those of the objects the former brute route built
        and validated, in its order; those objects, laid out in blocks of
        one top orbit each in the representatives' order, are the
        structured ones."""
        objects = reference_enumerate_brute(n)
        assert [summand_mask(t) for t in objects] == list(maximal_compatible_masks(n))
        assert layout_order(objects) == enumerate_maximal_rigid(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orbit_representatives_come_first(self, n):
        """The order `verify._per_orbit` relies on: the Catalan(n - 1)
        objects with top at orbit 1 precede every other object."""
        tops = [t.top.orbit for t in maximal_rigid_objects(n)]
        first = catalan(n - 1)
        assert tops[:first] == [1] * first
        assert 1 not in tops[first:]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_literal_subset_filter(self, n):
        """Independent route: filter every (n-1)-subset of the rigid
        indecomposables by pairwise compatibility and maximality."""
        rigids = rigid_indecomposables(n)
        found = []
        for subset in itertools.combinations(rigids, n - 1):
            if all(is_compatible(x, y) for x, y in itertools.combinations(subset, 2)):
                if is_maximal_rigid(n, subset):
                    found.append(from_summands(n, subset))
        assert sorted(found) == sorted(enumerate_maximal_rigid(n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_maximal_clique_has_full_size(self, n):
        # every subset of the rigid indecomposables, of any size, that is
        # pairwise compatible and lacks a further compatible summand
        rigids = rigid_indecomposables(n)
        cliques = 0
        for size in range(1, len(rigids) + 1):
            for clique in itertools.combinations(rigids, size):
                if all(is_compatible(x, y) for x, y in itertools.combinations(clique, 2)):
                    if not any(
                        all(is_compatible(x, y) for y in clique)
                        for x in rigids if x not in clique
                    ):
                        assert size == n - 1, clique
                        cliques += 1
        assert cliques == comb(2 * n - 2, n - 1)

    def test_deterministic_order(self):
        objects = enumerate_maximal_rigid(4)
        assert type(objects) is list
        assert objects == layout_order(objects)
        assert objects == enumerate_maximal_rigid(4)
        # block 4 lists the translates of block 1 in its order, unsorted
        assert [str(t) for t in objects[:5]] == [
            "(1,3)+(1,1)+(3,1)",
            "(1,3)+(1,2)+(1,1)",
            "(1,3)+(1,2)+(2,1)",
            "(1,3)+(2,2)+(2,1)",
            "(1,3)+(2,2)+(3,1)",
        ]
        assert [str(t) for t in objects[15:]] == [
            "(4,3)+(4,1)+(2,1)",
            "(4,3)+(4,2)+(4,1)",
            "(4,3)+(4,2)+(1,1)",
            "(4,3)+(1,2)+(1,1)",
            "(4,3)+(1,2)+(2,1)",
        ]

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            enumerate_maximal_rigid(1)
        with pytest.raises(ValueError, match=r"^rank must be >= 2$"):
            next(maximal_compatible_masks(1))


class TestValidation:
    def test_examples(self):
        assert is_maximal_rigid(3, [Indec(3, 1, 2), Indec(3, 1, 1)])
        assert not is_maximal_rigid(3, [Indec(3, 1, 1)])
        assert not is_maximal_rigid(3, [Indec(3, 1, 3), Indec(3, 1, 1)])

    def test_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError, match=r"^top summand \(1,1\) must have quasilength 2$"):
            from_summands(3, [Indec(3, 1, 1), Indec(3, 2, 1)])  # no top
        with pytest.raises(ValueError, match=r"^summands \(1,2\) and \(3,1\) are incompatible$"):
            from_summands(3, [Indec(3, 1, 2), Indec(3, 3, 1)])  # incompatible
        with pytest.raises(ValueError, match=r"^summands \(1,1\) and \(2,1\) are incompatible$"):
            from_summands(4, [Indec(4, 1, 3), Indec(4, 1, 1), Indec(4, 2, 1)])  # in the wing, incompatible
        with pytest.raises(ValueError, match=r"^expected 2 distinct summands, got \(1,2\), \(1,2\)$"):
            from_summands(3, [Indec(3, 1, 2), Indec(3, 1, 2)])  # duplicate

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_empty_summand_set(self, n):
        with pytest.raises(ValueError, match=rf"^expected {n - 1} distinct summands, got none$"):
            from_summands(n, [])

    def test_top_is_first_summand(self):
        for t in maximal_rigid_objects(4):
            assert t.top.ql == 3
            assert all(s.ql <= t.top.ql for s in t.summands)
            assert all(in_wing(s, t.top) for s in t.summands)

    def test_json_roundtrip(self):
        t = from_summands(4, [Indec(4, 2, 3), Indec(4, 2, 1), Indec(4, 4, 1)])
        assert RigidObject.from_json(t.to_json()) == t


class TestSubwingTriples:
    def test_rank_three_ladder(self):
        t = from_summands(3, [Indec(3, 1, 2), Indec(3, 1, 1)])
        triples = subwing_decomposition(t)
        assert set(triples) == {Indec(3, 1, 2)}
        triple = triples[Indec(3, 1, 2)]
        assert triple.left == Indec(3, 1, 1)
        assert triple.right is None
        assert triple.degenerate

    def test_rank_four_nondegenerate(self):
        t = from_summands(4, [Indec(4, 1, 3), Indec(4, 1, 1), Indec(4, 3, 1)])
        triple = subwing_decomposition(t)[Indec(4, 1, 3)]
        assert triple.left == Indec(4, 1, 1)
        assert triple.right == Indec(4, 3, 1)
        assert not triple.degenerate

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ladder_is_all_left_degenerate(self, n):
        t = from_summands(n, [Indec(n, 1, b) for b in range(1, n)])
        for triple in subwing_decomposition(t).values():
            assert triple.right is None
            assert triple.left == Indec(n, 1, triple.top.ql - 1)

    def test_nondegenerate_coordinates(self):
        """Non-degenerate triples follow (a,c) / (a+c+1, b-c-1)."""
        for n in (4, 5, 6):
            for t in maximal_rigid_objects(n):
                for triple in subwing_decomposition(t).values():
                    if triple.degenerate:
                        continue
                    a, b = triple.top.orbit, triple.top.ql
                    c = triple.left.ql
                    assert 1 <= c <= b - 2
                    assert triple.left == Indec(n, a, c)
                    assert triple.right == Indec(n, a + c + 1, b - c - 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partition_counts(self, n):
        """Each summand of quasilength q holds exactly q summands in its
        wing; triples split the count as ql(left) + ql(right) + 1."""
        for t in maximal_rigid_objects(n):
            for s in t.summands:
                inside = [u for u in t.summands if in_wing(u, s)]
                assert len(inside) == s.ql
            for triple in subwing_decomposition(t).values():
                left = triple.left.ql if triple.left else 0
                right = triple.right.ql if triple.right else 0
                assert left + right + 1 == triple.top.ql


class TestWingStructure:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_containment_trichotomy(self, n):
        for t in maximal_rigid_objects(n):
            for x, y in itertools.combinations(t.summands, 2):
                x_in_y = in_wing(x, y)
                y_in_x = in_wing(y, x)
                if x_in_y or y_in_x:
                    continue
                wx = set(wing_members(x))
                wy = set(wing_members(y))
                assert not (wx & wy), (x, y)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_compatible_sets_in_wings(self, n):
        """Inside a wing of height h: compatible sets have at most h
        members, and the maximal ones contain the summit."""
        for a in range(1, n + 1):
            for h in range(1, n):
                summit = Indec(n, a, h)
                members = wing_members(summit)
                best = 0
                for size in range(1, len(members) + 1):
                    for subset in itertools.combinations(members, size):
                        if all(
                            is_compatible(x, y)
                            for x, y in itertools.combinations(subset, 2)
                        ) and all(is_compatible(x, x) for x in subset):
                            best = max(best, size)
                            if size == h:
                                assert summit in subset
                assert best == h

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quasisimple_map_bijection(self, n):
        for t in maximal_rigid_objects(n):
            mapping = quasisimple_map(t)
            assert len(mapping) == n - 1
            assert set(mapping.values()) == set(t.summands)

    def test_quasisimple_map_example(self):
        t = from_summands(3, [Indec(3, 1, 2), Indec(3, 1, 1)])
        mapping = quasisimple_map(t)
        assert mapping[Indec(3, 1, 1)] == Indec(3, 1, 1)
        assert mapping[Indec(3, 2, 1)] == Indec(3, 1, 2)
        t2 = from_summands(2, [Indec(2, 1, 1)])
        assert quasisimple_map(t2) == {Indec(2, 1, 1): Indec(2, 1, 1)}


class TestTiltingEncoding:
    def test_intervals(self):
        t = from_summands(4, [Indec(4, 1, 3), Indec(4, 1, 1), Indec(4, 3, 1)])
        assert tilting_intervals(t) == ((1, 3), (1, 1), (3, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_roundtrip_and_bijection(self, n):
        """Objects correspond to (top orbit, interval set) pairs, with
        Catalan-many interval sets per orbit."""
        seen = {}
        for t in maximal_rigid_objects(n):
            key = (t.top.orbit, frozenset(tilting_intervals(t)))
            assert key not in seen
            seen[key] = t
            assert from_tilting(n, t.top.orbit, tilting_intervals(t)) == t
        per_orbit = {}
        for orbit, intervals in seen:
            per_orbit.setdefault(orbit, set()).add(intervals)
        assert all(len(v) == catalan(n - 1) for v in per_orbit.values())
        interval_families = set(per_orbit[1])
        assert all(set(fam) == interval_families for fam in per_orbit.values())

    def test_from_tilting_validation(self):
        with pytest.raises(ValueError, match=r"^interval 4-4 out of range 1\.\.3$"):
            from_tilting(4, 1, [(1, 3), (1, 1), (4, 4)])  # out of range
        with pytest.raises(ValueError, match=r"^summands \(1,1\) and \(2,1\) are incompatible$"):
            from_tilting(4, 1, [(1, 3), (1, 1), (2, 2)])  # in the wing, incompatible


class TestTauAction:
    def test_orbit_of_objects(self):
        t = from_summands(3, [Indec(3, 1, 2), Indec(3, 1, 1)])
        r = tau_rigid(t, 1)
        assert r.summands == (Indec(3, 3, 2), Indec(3, 3, 1))
        assert tau_rigid(t, 3) == t

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_translate_permutes_objects(self, n):
        objects = set(maximal_rigid_objects(n))
        assert {tau_rigid(t, 1) for t in objects} == objects

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_validating_route(self, n):
        # tau_rigid skips from_summands; its result, summand order included,
        # must be the one from_summands builds and validates.
        for t in maximal_rigid_objects(n):
            for k in range(n + 1):
                fast = tau_rigid(t, k)
                slow = from_summands(n, [tau(s, k) for s in t.summands])
                assert fast.summands == slow.summands and fast == slow


def oracle_ext1(x: Indec, y: Indec) -> int:
    """dim Ext^1(x, y) = total Hom from y to tau(x), both parts from the
    linear-algebra oracle."""
    return sum(hom_cluster_oracle(y, tau(x)))


class TestKernel:
    """The kernel's masks and subset search against routes that share no
    code with it."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_compat_masks_match_oracle(self, n):
        # Rank 7 has 42 candidates and rank 9 has 72, past 32- and 64-bit
        # masks.
        rigids = rigid_indecomposables(n)
        expected = [
            sum(
                1 << j
                for j, y in enumerate(rigids)
                if j != i and oracle_ext1(x, y) == 0 and oracle_ext1(y, x) == 0
            )
            for i, x in enumerate(rigids)
        ]
        assert kernel.compat_masks(n) == expected
        assert rigid._compat_table(n) == tuple(expected)

    def test_masks_cross_64_bits(self):
        assert max(kernel.compat_masks(9)).bit_length() > 64

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rigid_coords_follow_rigid_indecomposables(self, n):
        indices = range(n * (n - 1))
        coords = [kernel.rigid_coords(n, i) for i in indices]
        assert coords == [(x.orbit, x.ql) for x in rigid_indecomposables(n)]
        assert [rigid_index(n, a, b) for a, b in coords] == list(indices)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_compatible_subsets_match_literal_filter(self, n):
        masks = kernel.compat_masks(n)
        literal = [
            subset
            for subset in itertools.combinations(range(len(masks)), n - 1)
            if all(masks[i] >> j & 1 for i, j in itertools.combinations(subset, 2))
        ]
        assert list(kernel.compatible_subsets(masks, n - 1)) == literal


def compatible_index_pairs(n: int) -> list[tuple[int, int]]:
    masks = kernel.compat_masks(n)
    return [(i, j) for i, j in itertools.combinations(range(len(masks)), 2) if masks[i] >> j & 1]


class TestCompatTable:
    """`from_summands` against the pairwise validator it replaced, and
    faults in the compatibility table it reads."""

    # Only the structured route's objects: the reference brute route builds
    # the same ones (`test_masks_follow_the_reference_brute_route`).
    @pytest.mark.parametrize("n", range(2, 9), ids="structured-{}".format)
    def test_equals_reference_on_every_object(self, n):
        for t in enumerate_maximal_rigid(n):
            given = sorted(t.summands)  # not in canonical order
            assert from_summands(n, given) == t
            assert reference_from_summands(n, given) == t

    FAULTY = [
        (3, [Indec(3, 1, 2), Indec(3, 1, 2)]),  # duplicate
        (3, [Indec(3, 1, 2), Indec(4, 1, 1)]),  # wrong rank
        (3, [Indec(3, 1, 3), Indec(3, 1, 1)]),  # not rigid
        (4, [Indec(4, 1, 2), Indec(4, 1, 1), Indec(4, 3, 1)]),  # no top
        (4, [Indec(4, 1, 3), Indec(4, 2, 3), Indec(4, 1, 1)]),  # two tops
        (4, [Indec(4, 1, 3), Indec(4, 4, 1), Indec(4, 1, 1)]),  # outside the wing
        (4, [Indec(4, 1, 3), Indec(4, 3, 2), Indec(4, 1, 1)]),  # outside, incompatible later
        (4, [Indec(4, 1, 3), Indec(4, 1, 1), Indec(4, 2, 1)]),  # incompatible
    ]

    @pytest.mark.parametrize("n, summands", FAULTY)
    def test_same_error_on_faulty_input(self, n, summands):
        got = validated(from_summands, n, summands)
        assert isinstance(got, str)
        assert got == validated(reference_from_summands, n, summands)

    @pytest.mark.parametrize("n", [4, 5])
    def test_same_outcome_on_every_single_replacement(self, n):
        """Replace one summand of each object by any other rigid
        indecomposable: duplicates, lost and second tops, incompatible
        pairs and neighbouring objects all arise."""
        rigids = rigid_indecomposables(n)
        errors = set()
        for t in maximal_rigid_objects(n):
            for p, old in enumerate(t.summands):
                for r in rigids:
                    if r == old:
                        continue
                    given = t.summands[:p] + (r,) + t.summands[p + 1:]
                    got = validated(from_summands, n, given)
                    assert got == validated(reference_from_summands, n, given), given
                    if isinstance(got, str):
                        errors.add(re.sub(r"\(\d+,\d+\)", "X", got))
        assert errors == {
            f"ValueError: expected {n - 1} distinct summands, got " + ", ".join(["X"] * (n - 1)),
            f"ValueError: top summand X must have quasilength {n - 1}",
            "ValueError: top summand must be unique",
            "ValueError: summands X and X are incompatible",
        }

    @pytest.mark.parametrize("n", range(2, 10))
    def test_outside_the_wing_means_incompatible_with_the_top(self, n):
        """Why no valid table lets a summand reach the wing test and fail
        it: the top's own compatibility test rejects it first."""
        top = Indec(n, 1, n - 1)
        for x in rigid_indecomposables(n):
            assert in_wing(x, top) or not is_compatible(x, top), x

    @pytest.fixture
    def serve_table(self, monkeypatch):
        """Serve a given table as `kernel.compat_masks`, with the caches
        that hold the table or objects built from it emptied around it."""
        def serve(table):
            monkeypatch.setattr(kernel, "compat_masks", lambda n: table)
            rigid._compat_table.cache_clear()
            rigid._enumerated.cache_clear()
        yield serve
        rigid._compat_table.cache_clear()
        rigid._enumerated.cache_clear()

    @pytest.mark.parametrize("i, j", compatible_index_pairs(4))
    def test_cleared_bit_pair_fails_check_rigid(self, i, j, serve_table):
        # Only the representatives are validated: a pair that one of them
        # holds fails its validation, any other pair the brute route's
        # masks, which then lack the objects that hold it.
        holders = [
            t for t in reference_enumerate_brute(4)
            if {i, j} <= {rigid_index(4, s.orbit, s.ql) for s in t.summands}
        ]
        assert holders
        table = kernel.compat_masks(4)
        table[i] &= ~(1 << j)
        table[j] &= ~(1 << i)
        serve_table(table)
        (outcome,) = check_rigid(4)
        assert not outcome.ok
        if any(t.top.orbit == 1 for t in holders):
            assert "are incompatible" in outcome.detail
        else:
            assert outcome.detail.startswith("brute route lacks ")
            assert outcome.detail in {f"brute route lacks {t}" for t in holders}

    def test_spurious_bit_pair_meets_the_wing_test(self, serve_table):
        # (3,2) lies outside the wing of (1,3) and is incompatible with
        # (1,1), which follows it: the wing test must come first.
        top, outside, low = Indec(4, 1, 3), Indec(4, 3, 2), Indec(4, 1, 1)
        i, j = ((s.orbit - 1) * 3 + s.ql - 1 for s in (top, outside))
        table = kernel.compat_masks(4)
        table[i] |= 1 << j
        table[j] |= 1 << i
        serve_table(table)
        with pytest.raises(ValueError, match=r"^summand \(3,2\) lies outside the wing of \(1,3\)$"):
            from_summands(4, [top, outside, low])

    def test_table_cache_is_bounded(self):
        maxsize = rigid._compat_table.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_objects_and_shared_summands_held_for_one_rank(self):
        for cached in (rigid._enumerated, rigid._rigid_indecomposables):
            assert cached.cache_info().maxsize == 1
