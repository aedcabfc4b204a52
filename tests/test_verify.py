"""The verification suite itself: outcome records, error capture, check
selection, faults injected into the oracle and the converse check, and the
per-orbit checks and the converse on representatives, keyed by the
canonical form, shown equal to a loop over every object, and the builder of
the object list, shown equal to the former one, with the representatives'
positions it records equal to the translate certificates the checks
computed before."""

import hashlib
import json
from array import array
from math import comb

import pytest

from tubecat import endo, kernel, quiver, rigid, tube, verify
from tubecat.endo import cached_endomorphism_algebra, endomorphism_algebra
from tubecat.quiver import Arrow, Presentation, Quiver
from tubecat.rigid import (
    RigidObjects,
    from_summands,
    maximal_rigid_objects,
    rigid_index,
    tau_rigid,
)
from tubecat.tube import Indec

from support import (
    free_loop,
    pinned_invariant,
    presentation,
    reference_certificates,
    reference_enumerate_maximal_rigid,
    reference_find_isomorphism,
)

OUTCOME_KEYS = {"check", "rank", "ok", "detail", "subject", "seconds"}


class TestTimed:
    def test_exception_becomes_failing_outcome(self):
        def boom():
            raise ZeroDivisionError("division by zero")

        out = verify._timed("oracle", 3, boom, subject="T")
        assert not out.ok
        assert out.detail.startswith("error:")
        assert out.detail == "error: division by zero"
        assert (out.check, out.rank, out.subject) == ("oracle", 3, "T")
        assert out.seconds >= 0

    def test_failure_keeps_its_detail(self):
        out = verify._timed("rigid", 2, lambda: (False, "witness"))
        assert not out.ok and out.detail == "witness"
        assert out.line() == "FAIL n=2 rigid: witness"


class TestOutcome:
    def test_to_json_keys(self):
        out = verify.Outcome("endo", 4, True, "dimension 9", "T", 0.123456)
        data = out.to_json()
        assert set(data) == OUTCOME_KEYS
        assert data["seconds"] == 0.1235
        assert data["subject"] == "T"

    def test_report_json(self):
        report = verify.SuiteReport()
        report.extend([
            verify.Outcome("rigid", 2, True, "x"),
            verify.Outcome("rigid", 3, False, "y"),
        ])
        data = report.to_json()
        assert data["ok"] is False
        assert [c["rank"] for c in data["checks"]] == [2, 3]


class TestRunSuite:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check 'nope'"):
            verify.run_suite([2], only="nope")

    def test_only_runs_one_check(self):
        report = verify.run_suite([2, 3], only="rigid")
        assert [(o.check, o.rank) for o in report.outcomes] == [
            ("rigid", 2),
            ("rigid", 3),
        ]
        assert report.ok

    @pytest.mark.parametrize("cap", [3, 0, -3])
    def test_ql_cap_below_the_domain_rejected(self, cap, monkeypatch):
        ran = []
        monkeypatch.setitem(
            verify._CHECK_FUNCTIONS, "rigid", lambda n, c, s: ran.append(n) or []
        )
        with pytest.raises(ValueError, match=f"ql_cap {cap} is below 4, .* at rank 3"):
            verify.run_suite([2, 3], only="rigid", ql_cap=cap)
        assert ran == []

    def test_ql_cap_at_the_domain_accepted(self):
        assert verify.run_suite([2, 3], only="rigid", ql_cap=4).ok
        assert verify.run_suite([2], only="rigid", ql_cap=2).ok

    def test_rank_three_outcome_counts(self):
        report = verify.run_suite([3])
        assert report.ok
        counts = {}
        for o in report.outcomes:
            counts[o.check] = counts.get(o.check, 0) + 1
        # 6 maximal rigid objects at rank 3, one outcome each for the
        # per-object checks.
        assert counts == {
            "oracle": 4,
            "rigid": 1,
            "endo": 6,
            "gentle": 6,
            "strings": 6,
            "hom-functor": 6,
            "converse": 1,
        }


def _built_without(monkeypatch, n, dropped):
    """Serve the checks the list that `enumerate_maximal_rigid` builds
    with the representative `dropped` left out of its wing fillings, so
    that its whole translate orbit is missing."""
    real = rigid._wing_fillings
    with monkeypatch.context() as m:
        m.setattr(rigid, "_wing_fillings", lambda n, a, h: [
            f for f in real(n, a, h) if set(f) != set(dropped.summands)
        ])
        objects = rigid.enumerate_maximal_rigid(n)
    monkeypatch.setattr(verify, "maximal_rigid_objects", lambda n: objects)
    return objects


def _served(monkeypatch, objects, positions):
    """Serve the checks `objects` with the recorded `positions`."""
    listed = RigidObjects(objects, array("i", positions))
    monkeypatch.setattr(verify, "maximal_rigid_objects", lambda n: listed)
    return listed


class TestRigid:
    def test_checks_the_cached_objects(self, monkeypatch):
        # The cached enumeration is what every other check walks; a fault in
        # it must fail the comparison with the brute route.
        objects = maximal_rigid_objects(4)
        assert len(_built_without(monkeypatch, 4, objects[0])) == 16
        (outcome,) = verify.check_rigid(4)
        assert not outcome.ok
        # objects[0] is (1,3)+(1,1)+(3,1); the mask lists it in index order.
        assert outcome.detail == "structured route lacks brute mask (1,1)+(1,3)+(3,1)"

    def test_duplicate_cached_object_is_named(self, monkeypatch):
        # objects[6] replaced by an equal copy of objects[5], in the same
        # block and with the same representative
        objects = maximal_rigid_objects(4)
        twin = from_summands(4, reversed(objects[5].summands))
        assert twin == objects[5] and twin is not objects[5]
        positions = list(objects.positions)
        positions[6] = positions[5]
        _served(monkeypatch, objects[:6] + [twin] + objects[7:], positions)
        (outcome,) = verify.check_rigid(4)
        assert not outcome.ok
        assert outcome.detail == f"structured route lists {objects[5]} twice"

    def test_faulty_blocks_are_named(self, monkeypatch):
        objects = maximal_rigid_objects(4)
        positions = list(objects.positions)
        swapped = positions[:5] + [positions[6], positions[5]] + positions[7:]
        outside = positions[:5] + [7] + positions[6:]
        cases = [
            (objects[:-1], positions[:-1], "19 objects do not fill 4 blocks"),
            (objects[5:] + objects[:5], positions, f"{objects[5]} has top orbit 2 in block 1"),
            (objects, swapped, f"tau^1 of {objects[5]} is not its representative {objects[positions[6]]}"),
            (objects, outside, f"{objects[5]} names position 7, no representative"),
        ]
        for listed, recorded, detail in cases:
            _served(monkeypatch, listed, recorded)
            (outcome,) = verify.check_rigid(4)
            assert (outcome.ok, outcome.detail) == (False, detail)

    def test_extra_brute_mask_is_named(self, monkeypatch):
        real = verify.maximal_compatible_masks
        spurious = sum(1 << rigid_index(4, a, 1) for a in (1, 2, 3))

        def masks(n):
            yield from real(n)
            yield spurious

        monkeypatch.setattr(verify, "maximal_compatible_masks", masks)
        (outcome,) = verify.check_rigid(4)
        assert not outcome.ok
        assert outcome.detail == "structured route lacks brute mask (1,1)+(2,1)+(3,1)"

    def test_missing_brute_mask_names_the_object(self, monkeypatch):
        real = verify.maximal_compatible_masks
        last = maximal_rigid_objects(4)[-1]
        dropped = sum(1 << rigid_index(4, s.orbit, s.ql) for s in last.summands)
        monkeypatch.setattr(
            verify, "maximal_compatible_masks", lambda n: (m for m in real(n) if m != dropped)
        )
        (outcome,) = verify.check_rigid(4)
        assert not outcome.ok
        assert outcome.detail == "brute route lacks (4,3)+(4,2)+(4,1)"
        assert str(last) == "(4,3)+(4,2)+(4,1)"

    def test_detail_when_both_routes_agree(self):
        (outcome,) = verify.check_rigid(4)
        assert outcome.ok
        assert outcome.detail == "20 objects, both routes identical"


class TestHomFunctorCap:
    def test_cap_below_the_domain_rejected(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "verify_hom_functor", lambda *a: ran.append(a))
        with pytest.raises(ValueError, match="ql_cap 3 is below 4, .* at rank 3"):
            verify.check_hom_functor(3, 3)
        assert ran == []

    def test_cap_at_the_domain_accepted(self):
        outcomes = verify.check_hom_functor(3, 4)
        assert len(outcomes) == 6 and all(o.ok for o in outcomes)


class TestOracleFault:
    def test_off_by_one_at_one_pair_is_reported(self, monkeypatch):
        # (1,9) -> (2,9) lies above quasilength 3, so the calibration
        # contracts, which only start at quasilength <= n, never ask for it.
        # The agreement loop reads the oracle on integer coordinates, where
        # (n, b, d, shift) = (3, 9, 9, 1) is that pair and the n = 3 pairs
        # (a,9) -> (a+1,9) that share its value: entry d = 9 of the family
        # (n, b, top) = (3, 9, 1), top = (shift + d) mod n.
        real = tube._family

        def faulty(n, b, top, d):
            dims = real(n, b, top, d)
            if (n, b, top) == (3, 9, 1) and len(dims) >= 9:
                dims = dims[:8] + [dims[8] + 1] + dims[9:]
            return dims

        monkeypatch.setattr(tube, "_family", faulty)
        try:
            agreement, calibration, boundary, symmetry = verify.check_oracle(3)
        finally:
            tube._oracle_dim.cache_clear()  # drop any one-key read of the fault
        assert not agreement.ok
        assert agreement.detail == "3/729 disagreements, first at (1,9)->(2,9)"
        assert calibration.ok and boundary.ok and symmetry.ok

    def test_agreement_reads_each_oracle_key_once(self, monkeypatch):
        # The oracle's 30 * 30 * 5 values are read as 30 * 5 families, each
        # once, and the kernel once per pair, 150 ** 2; counted over the
        # agreement alone.
        reads, pairs = [], [0]
        real_family, real_hom = tube._family, kernel.hom_tube_dim

        def family(*key):
            reads.append(key)
            return real_family(*key)

        def hom(*args):
            pairs[0] += 1
            return real_hom(*args)

        counts = []
        real_timed = verify._timed

        def timed(check, rank, predicate, subject=None):
            before = len(reads), pairs[0]
            out = real_timed(check, rank, predicate, subject)
            counts.append((predicate.__name__, len(reads) - before[0], pairs[0] - before[1]))
            return out

        monkeypatch.setattr(tube, "_family", family)
        monkeypatch.setattr(kernel, "hom_tube_dim", hom)
        monkeypatch.setattr(verify, "_timed", timed)
        agreement = verify.check_oracle(5, 30)[0]
        assert agreement.ok and agreement.detail == "22500 pairs agree exactly"
        assert counts[0] == ("agreement", 150, 22500)
        assert {(n, b, top) for n, b, top, _ in reads[:150]} == {
            (5, b, top) for b in range(1, 31) for top in range(5)
        }
        assert {d for *_, d in reads[:150]} == {30}

    def test_cap_zero_is_not_the_default(self):
        """A cap below the fundamental domain is rejected before any
        outcome, as `run_suite` rejects it; the default cap is 3n."""
        for cap in (0, 1):
            with pytest.raises(ValueError, match=f"ql_cap {cap} is below 2, .* at rank 2"):
                verify.check_oracle(2, ql_cap=cap)
        assert verify.check_oracle(2)[0].detail == "144 pairs agree exactly"

    def test_unfaulted_oracle_agrees(self):
        agreement = verify.check_oracle(3)[0]
        assert agreement.ok
        assert agreement.detail == "729 pairs agree exactly"


def _rows(outcomes):
    return [{k: v for k, v in o.to_json().items() if k != "seconds"} for o in outcomes]


def _digest(outcomes):
    return hashlib.sha256(json.dumps(_rows(outcomes), sort_keys=True).encode()).hexdigest()


# SHA-256 of the outcome JSON without `seconds`, ranks 2..6, taken from the
# scan over all classes that the bucketed search replaced.
CONVERSE_DIGEST = "e2ee0e6c80a90d5838321016c9c8e7795164249190a18a86cdf245c402f46c07"
ENDO_DIGEST = "b17839b49d1e484dd29fe828dc87742ca174aa28f0ae1a0b11441c90dcf5daa5"


def _is_translate_orbit(members) -> bool:
    """Whether the members are exactly the translates of the first one."""
    current = members[0]
    orbit = set()
    for _ in range(current.rank):
        orbit.add(current)
        current = tau_rigid(current, 1)
    return orbit == set(members)


def _all_object_converse(n):
    """The converse check before the quotient and before the canonical key:
    every object's quiver built and compared, each joining a class by the
    exhaustive `reference_find_isomorphism` within its bucket of
    `pinned_invariant`."""

    def run():
        buckets = {}
        classes = []  # (quiver, loop vertex, members)
        for t in maximal_rigid_objects(n):
            bare, lv = verify.loopless_quiver(cached_endomorphism_algebra(t))
            bucket = buckets.setdefault(pinned_invariant(bare, lv), [])
            for q, vertex, members in bucket:
                if reference_find_isomorphism(bare, q, pin=(lv, vertex)) is not None:
                    members.append(t)
                    break
            else:
                bucket.append((bare, lv, [t]))
                classes.append(bucket[-1])

        for q, vertex, members in classes:
            if len(members) != n:
                return False, f"class at vertex {vertex} has {len(members)} objects"
            if not _is_translate_orbit(members):
                return False, f"class at vertex {vertex} is not one translate orbit"

        for q, _, _ in classes:
            for c in verify.connecting_vertices(q):
                bucket = buckets.get(pinned_invariant(q, c), ())
                if not any(
                    reference_find_isomorphism(q, q2, pin=(c, v2)) is not None
                    for q2, v2, _ in bucket
                ):
                    return False, f"connecting vertex {c} of a class quiver unrealized"
        return True, f"{len(classes)} classes, each a full translate orbit"

    return [verify._timed("converse", n, run)]


class TestConverse:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_all_object_check(self, n):
        assert _rows(verify.check_converse(n)) == _rows(_all_object_converse(n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_translates_share_the_labelled_algebra(self, n):
        # The quotient rests on this: canonical order is relative to the top,
        # so tau^k T has the same labelled algebra, arrow kinds included.
        for t in maximal_rigid_objects(n):
            rep = tau_rigid(t, t.top.orbit - 1)
            assert endomorphism_algebra(t).to_json() == endomorphism_algebra(rep).to_json()

    @pytest.mark.parametrize("n", [4, 6])
    def test_builds_only_the_representatives(self, n, monkeypatch):
        built = []
        real = endo.endomorphism_algebra

        def counting(t):
            built.append(t)
            return real(t)

        cached_endomorphism_algebra.cache_clear()
        monkeypatch.setattr(endo, "endomorphism_algebra", counting)
        try:
            (out,) = verify.check_converse(n)
        finally:
            cached_endomorphism_algebra.cache_clear()
        assert out.ok
        assert len(built) == comb(2 * (n - 1), n - 1) // n  # Catalan(n - 1)
        assert all(t.top.orbit == 1 for t in built)

    def test_orphaned_members_fail_by_the_certificate(self, monkeypatch):
        # A representative left out takes its orbit with it: a connecting
        # vertex that its class realized is found unrealized, and rigid
        # names the first brute mask of the orbit.
        dropped = maximal_rigid_objects(4)[1]
        assert str(dropped) == "(1,3)+(1,2)+(1,1)"
        _built_without(monkeypatch, 4, dropped)
        (out,) = verify.check_converse(4)
        assert (out.ok, out.detail) == (False, "connecting vertex 3 of a class quiver unrealized")
        (rigid_out,) = verify.check_rigid(4)
        assert rigid_out.detail == "structured route lacks brute mask (1,1)+(1,2)+(1,3)"

    def test_repeated_member_fails_the_orbit_count(self, monkeypatch):
        # One member listed twice in place of another, with the same
        # representative: the class still has n objects, as converse counts
        # them, and the orbit count that rigid proves fails.
        objects = maximal_rigid_objects(4)
        rep = objects[0]
        twice, dropped = tau_rigid(rep, -1), tau_rigid(rep, -2)
        assert rep.top.orbit == 1 and len({rep, twice, dropped}) == 3
        _served(monkeypatch, [twice if t == dropped else t for t in objects], objects.positions)
        (out,) = verify.check_converse(4)
        assert out.ok
        (rigid_out,) = verify.check_rigid(4)
        assert rigid_out.detail == f"{twice} has top orbit 2 in block 3"

    def test_outcomes_pinned(self):
        converse = [o for n in range(2, 7) for o in verify.check_converse(n)]
        endo = [o for n in range(2, 7) for o in verify.check_endo(n)]
        assert _digest(converse) == CONVERSE_DIGEST
        assert _digest(endo) == ENDO_DIGEST

    def test_rank_seven(self):
        (out,) = verify.check_converse(7)
        assert out.ok
        assert out.detail == "132 classes, each a full translate orbit"

    def test_constant_key_fails_on_the_refuted_hit(self, monkeypatch):
        # A constant key sends every representative to the first class. At
        # rank 2 there is one class, so every hit holds; from rank 3 on the
        # certificate refutes the second representative.
        monkeypatch.setattr(verify, "connecting_keys", lambda q: dict.fromkeys(q.vertices, 0))
        assert verify.check_converse(2)[0].ok
        for n in range(3, 7):
            second = [t for t in maximal_rigid_objects(n) if t.top.orbit == 1][1]
            (out,) = verify.check_converse(n)
            assert not out.ok
            assert out.detail == f"key of {second} hits a class that the certificate refutes"

    def test_refuted_realization_fails_naming_the_vertex(self, monkeypatch):
        # Each representative's key at its loop vertex is its own, so the
        # five classes at rank 4 form; every other connecting vertex gets
        # the first class's key. The first class quiver is an oriented
        # 3-cycle, so each of its vertices does realize the first class.
        # The second class quiver is 1 -> 2 -> 3 with the loop at 1, which
        # is not looked up; its other end, vertex 3, does not realize it.
        real = verify.connecting_keys
        loops = dict(  # each representative's quiver -> its loop vertex
            verify.loopless_quiver(cached_endomorphism_algebra(t))
            for t in maximal_rigid_objects(4) if t.top.orbit == 1
        )
        first, vertex = next(iter(loops.items()))
        first_key = real(first)[vertex]

        def faulty(q):
            return {c: key if c == loops[q] else first_key for c, key in real(q).items()}

        monkeypatch.setattr(verify, "connecting_keys", faulty)
        (out,) = verify.check_converse(4)
        assert not out.ok
        assert out.detail == "connecting vertex 3 hits a class that the certificate refutes"

    def test_loop_at_a_non_connecting_vertex_names_the_object(self, monkeypatch):
        # The first representative whose quiver has a vertex in two blocks
        # is given its loop there.
        real = verify.loopless_quiver
        for t in maximal_rigid_objects(5):
            bare, _ = real(cached_endomorphism_algebra(t))
            inner = sorted(set(bare.vertices) - quiver.connecting_vertices(bare))
            if inner:
                victim, moved = cached_endomorphism_algebra(t), inner[0]
                break

        def faulty(p):
            bare, lv = real(p)
            return (bare, moved) if p is victim else (bare, lv)

        monkeypatch.setattr(verify, "loopless_quiver", faulty)
        (out,) = verify.check_converse(5)
        assert not out.ok
        assert out.detail == f"loop of {t} at non-connecting vertex {moved}"

    def test_blocks_built_once_per_representative(self, monkeypatch):
        calls, certificates = [], []
        real, certify = quiver._blocks, verify.find_isomorphism

        def counting(q):
            calls.append(q)
            return real(q)

        def counting_certificates(*args, **kwargs):
            certificates.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(quiver, "_blocks", counting)
        monkeypatch.setattr(verify, "find_isomorphism", counting_certificates)
        (out,) = verify.check_converse(7)
        assert out.ok
        # Catalan(6) representatives, each keyed at every connecting vertex
        # from one block tree, and two block trees per certificate, one for
        # each quiver it walks
        assert len(certificates) == 252
        assert len(calls) == 132 + 2 * 252

    def test_isomorphism_searches_stay_linear(self, monkeypatch):
        calls = []
        real = verify.find_isomorphism

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "find_isomorphism", counting)
        (out,) = verify.check_converse(6)
        assert out.ok
        # Each of the 42 representatives opens its own class, with no
        # isomorphism certificate, and the 210 other objects join by their
        # recorded positions. Of the 112 (class quiver, connecting
        # vertex) pairs, the 42 at a class's own loop vertex hit that class
        # with the same pin and take none; each of the other 70 takes one,
        # which certifies its key's hit. A scan over all classes takes
        # 7,744.
        assert len(calls) == 70

    def test_relabelled_copy_joins_its_class(self, monkeypatch):
        # One translate orbit is given a vertex-relabelled copy of the first
        # class's (quiver, loop vertex): isomorphic, not equal. The copies
        # must land in that class and make it too large.
        real = verify.loopless_quiver
        pairs = [real(cached_endomorphism_algebra(t)) for t in maximal_rigid_objects(5)]
        target, target_vertex = pairs[0]
        victim = next(
            t for t, (bare, lv) in zip(maximal_rigid_objects(5), pairs)
            if reference_find_isomorphism(bare, target, pin=(lv, target_vertex)) is None
        )
        victims = [cached_endomorphism_algebra(tau_rigid(victim, k)) for k in range(5)]
        perm = dict(zip(target.vertices, reversed(target.vertices)))
        copy = Quiver(
            target.vertices,
            tuple(Arrow(a.id, perm[a.src], perm[a.tgt], a.kind) for a in target.arrows),
        )
        assert copy != target and perm[target_vertex] != target_vertex

        def faulty(p):
            if any(p is v for v in victims):
                return copy, perm[target_vertex]
            return real(p)

        monkeypatch.setattr(verify, "loopless_quiver", faulty)
        (out,) = verify.check_converse(5)
        assert not out.ok
        assert out.detail == f"class at vertex {target_vertex} has 10 objects"


class TestEndo:
    def test_recognizer_runs_once_per_representative(self, monkeypatch):
        calls = []
        real = quiver.is_cluster_tilted_A

        def counting(q, *blocks):
            calls.append(q)
            return real(q, *blocks)

        # check_endo may reach the recognizer directly or through
        # connecting_vertices; count both routes
        monkeypatch.setattr(quiver, "is_cluster_tilted_A", counting)
        monkeypatch.setattr(verify, "is_cluster_tilted_A", counting, raising=False)
        outcomes = verify.check_endo(5)
        assert all(o.ok for o in outcomes)
        # one call per translate orbit: Catalan(4) representatives, and
        # still one outcome for each of the 70 objects
        assert len(calls) == 14
        assert len(outcomes) == 70

    def test_recognizer_witness_in_detail(self, monkeypatch):
        def planted(q, *blocks):
            return quiver.CheckResult(False, "planted witness")

        monkeypatch.setattr(quiver, "is_cluster_tilted_A", planted)
        monkeypatch.setattr(verify, "is_cluster_tilted_A", planted, raising=False)
        outcomes = verify.check_endo(3)
        assert [o.detail for o in outcomes] == ["recognizer: planted witness"] * 6


class TestGentle:
    """A gentle algebra with a relation-free cycle is infinite-dimensional
    and fails the gentle check."""

    def test_two_loops_with_square_zero(self, monkeypatch):
        # gentle, but xyxy... is never zero
        lam = Presentation(
            Quiver((1,), (Arrow("x", 1, 1), Arrow("y", 1, 1))),
            frozenset({("x", "x"), ("y", "y")}),
        )
        monkeypatch.setattr(verify, "cached_endomorphism_algebra", lambda t: lam)
        detail = "error: relation-free cycle through arrow 'x'; the algebra is infinite-dimensional"
        assert [(o.ok, o.detail) for o in verify.check_gentle(2)] == [(False, detail)] * 2

    def test_free_loop(self, monkeypatch):
        real = verify.cached_endomorphism_algebra
        monkeypatch.setattr(verify, "cached_endomorphism_algebra", lambda t: free_loop(real(t)))
        detail = "error: relation-free cycle through arrow 'w'; the algebra is infinite-dimensional"
        assert [(o.ok, o.detail) for o in verify.check_gentle(2)] == [(False, detail)] * 2


    def test_is_gentle_runs_once_per_representative(self, monkeypatch):
        # Counted in every namespace that holds it: the verdict reads the
        # gentle check through `gorenstein_bound` only.
        calls = []
        real = quiver.is_gentle

        def counting(p):
            calls.append(p)
            return real(p)

        for module in (quiver, verify):
            if hasattr(module, "is_gentle"):
                monkeypatch.setattr(module, "is_gentle", counting)
        outcomes = verify.check_gentle(7)
        assert len(outcomes) == 924 and all(o.ok for o in outcomes)
        assert len(calls) == 132

    @pytest.mark.parametrize("arrows, relations, witness", [
        ([("x", 1, 1), ("y", 1, 1)], [], "arrow x continues 2 arrows without relation"),
        (
            [("u", 1, 2), ("v", 1, 2), ("w2", 2, 3)],
            [("w2", "u"), ("w2", "v")],
            "arrow w2 kills 2 incoming compositions",
        ),
    ], ids=["not-special-biserial", "shared-relation"])
    def test_not_gentle_detail(self, monkeypatch, arrows, relations, witness):
        lam = presentation(sorted({v for _, *ends in arrows for v in ends}), arrows, relations)
        monkeypatch.setattr(verify, "cached_endomorphism_algebra", lambda t: lam)
        detail = f"not gentle: {witness}"
        assert [(o.ok, o.detail) for o in verify.check_gentle(2)] == [(False, detail)] * 2


PER_ORBIT = {
    "endo": (verify.check_endo, verify._endo_verdict),
    "gentle": (verify.check_gentle, verify._gentle_verdict),
    "strings": (verify.check_strings, verify._strings_verdict),
    "hom-functor": (
        verify.check_hom_functor,
        lambda t: verify._hom_functor_verdict(t, None),
    ),
}


def _per_object(check, n, verdict):
    """The loop that `_per_orbit` replaced: every object's own verdict."""
    return [
        verify._timed(check, n, lambda t=t: verdict(t), subject=str(t))
        for t in maximal_rigid_objects(n)
    ]


class TestPerOrbit:
    @pytest.mark.parametrize("check", sorted(PER_ORBIT))
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_the_loop_over_every_object(self, check, n):
        run, verdict = PER_ORBIT[check]
        assert _rows(run(n)) == _rows(_per_object(check, n, verdict))

    @pytest.mark.parametrize("check", ["endo", "gentle", "strings"])
    def test_equals_the_loop_over_every_object_at_rank_seven(self, check):
        run, verdict = PER_ORBIT[check]
        assert _rows(run(7)) == _rows(_per_object(check, 7, verdict))

    def test_band_fails_the_strings_check(self, monkeypatch):
        real = verify.cached_endomorphism_algebra
        monkeypatch.setattr(verify, "cached_endomorphism_algebra", lambda t: free_loop(real(t)))
        outcomes = verify.check_strings(2)
        assert len(outcomes) == 2
        assert [(o.ok, o.detail) for o in outcomes] == [(False, "band detected: w")] * 2

    def test_orphaned_members_fail_by_name(self, monkeypatch):
        # A representative left out takes its orbit with it: the per-orbit
        # checks see 16 objects, and rigid names a member of the orbit.
        objects = maximal_rigid_objects(4)
        dropped = objects[2]
        assert dropped.top.orbit == 1
        orbit = {tau_rigid(dropped, -k) for k in range(4)}
        _built_without(monkeypatch, 4, dropped)
        for check in ("endo", "gentle", "strings", "hom-functor"):
            outcomes = PER_ORBIT[check][0](4)
            assert len(outcomes) == 16 and all(o.ok for o in outcomes)
            assert not {o.subject for o in outcomes} & {str(t) for t in orbit}
        (outcome,) = verify.check_rigid(4)
        masks = {
            "+".join(map(str, sorted(t.summands, key=lambda s: rigid_index(4, s.orbit, s.ql))))
            for t in orbit
        }
        assert outcome.detail in {f"structured route lacks brute mask {m}" for m in masks}

    def test_failed_representative_makes_members_run_their_own(self, monkeypatch):
        n = 5
        objects = maximal_rigid_objects(n)
        rep = objects[3]
        planted = cached_endomorphism_algebra(rep)
        calls = []
        real = quiver.is_gentle

        def faulty(lam):
            calls.append(lam)
            if lam is planted:
                return quiver.CheckResult(False, "planted witness")
            return real(lam)

        monkeypatch.setattr(quiver, "is_gentle", faulty)
        outcomes = verify.check_gentle(n)
        assert len(outcomes) == 70
        assert [o.subject for o in outcomes if not o.ok] == [str(rep)]
        assert outcomes[3].detail == "not gentle: planted witness"
        # 14 representatives, plus the 4 other members of the failed orbit
        assert len(calls) == 14 + 4
        members = {tau_rigid(rep, -k) for k in range(1, n)}
        assert {id(lam) for lam in calls[14:]} == {
            id(cached_endomorphism_algebra(t)) for t in members
        }


def _variants(n):
    """The real object list of rank n and three faulty ones: a representative
    dropped, a member listed twice, and a member listed before its
    representative."""
    objects = list(maximal_rigid_objects(n))
    rep = objects[-1]
    while rep.top.orbit != 1:
        rep = tau_rigid(rep, rep.top.orbit - 1)
    member = objects[-1]
    assert member.top.orbit != 1
    return {
        "real": objects,
        "dropped": [t for t in objects if t != rep],
        "repeated": objects + [member],
        "member-first": [member] + objects[:-1],
    }


def _count_tau_rigid(monkeypatch) -> list:
    """Count the calls of `tau_rigid`, with no object list built yet."""
    calls = []
    real = rigid.tau_rigid

    def counting(t, k=1):
        calls.append(t)
        return real(t, k)

    monkeypatch.setattr(rigid, "tau_rigid", counting)
    rigid._enumerated.cache_clear()
    return calls


class TestCertificates:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_builder_equals_the_former_one(self, n):
        objects = rigid.enumerate_maximal_rigid(n)
        assert type(objects) is RigidObjects
        assert objects == reference_enumerate_maximal_rigid(n)
        assert list(objects.positions) == reference_certificates(objects)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_members_share_the_interned_summands(self, n):
        objects = rigid.enumerate_maximal_rigid(n)
        table = rigid._rigid_indecomposables(n)
        assert list(table) == [Indec(n, a, b) for a in range(1, n + 1) for b in range(1, n)]
        for t in objects:
            for s in t.summands:
                assert s is table[rigid_index(n, s.orbit, s.ql)]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_validates_only_the_representatives(self, n, monkeypatch):
        calls = []
        real = rigid.from_summands

        def counting(m, summands):
            calls.append(m)
            return real(m, summands)

        monkeypatch.setattr(rigid, "from_summands", counting)
        rigid.enumerate_maximal_rigid(n)
        assert len(calls) == comb(2 * n - 2, n - 1) // n  # Catalan(n - 1)

    @pytest.mark.parametrize("variant", ["real", "dropped", "repeated", "member-first"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_loop_each_check_ran(self, n, variant, monkeypatch):
        # The recorded positions are the certificates the checks computed;
        # a faulty list served with its certificates fails rigid.
        objects = _variants(n)[variant]
        certificates = reference_certificates(objects)
        assert (-1 in certificates) == (variant in ("dropped", "member-first"))
        if variant == "real":
            assert list(maximal_rigid_objects(n).positions) == certificates
        _served(monkeypatch, objects, certificates)
        (outcome,) = verify.check_rigid(n)
        assert outcome.ok == (variant == "real")

    def test_one_integer_per_object(self):
        got = maximal_rigid_objects(6).positions
        assert got.typecode == "i" and got.itemsize * len(got) == 4 * comb(10, 5)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_suite_certifies_each_member_once(self, n, monkeypatch):
        # Each member is built once, as the translate of its representative.
        calls = _count_tau_rigid(monkeypatch)
        assert verify.run_suite([n]).ok
        assert len(calls) == comb(2 * n - 2, n - 1) - comb(2 * n - 2, n - 1) // n
        assert all(t.top.orbit == 1 for t in calls)

    def test_structure_checks_at_rank_seven_certify_each_member_once(self, monkeypatch):
        calls = _count_tau_rigid(monkeypatch)
        for check in ("rigid", "endo", "gentle", "strings", "converse"):
            assert verify.run_suite([7], only=check).ok
        assert len(calls) == 924 - 132
        assert all(t.top.orbit == 1 for t in calls)

    @pytest.mark.parametrize("check", ["endo", "gentle", "strings", "hom-functor", "converse"])
    def test_fresh_list_for_one_check_is_read_by_its_own_positions(self, check, monkeypatch):
        # The other checks walk the cached enumeration before and after the
        # fresh list, one orbit short; each list carries its own positions,
        # so only the one check sees the fresh list, as it sees it alone.
        n = 4
        real = verify.maximal_rigid_objects
        with monkeypatch.context() as m:
            fresh = _built_without(m, n, real(n)[2])
            alone = verify._CHECK_FUNCTIONS[check](n, None, 0)
        faulty = []

        def objects(n):
            return fresh if faulty else real(n)

        def once(*args, inner=verify._CHECK_FUNCTIONS[check]):
            faulty.append(check)
            try:
                return inner(*args)
            finally:
                faulty.clear()

        expected = verify.run_suite([n]).outcomes
        monkeypatch.setattr(verify, "maximal_rigid_objects", objects)
        monkeypatch.setitem(verify._CHECK_FUNCTIONS, check, once)
        got = verify.run_suite([n]).outcomes
        assert _rows(o for o in got if o.check != check) == _rows(
            o for o in expected if o.check != check
        )
        assert _rows(o for o in got if o.check == check) == _rows(alone)
        assert len(alone) == (1 if check == "converse" else 16)
