"""Fundamental domain, hammock strings and image-prediction tests."""

import hashlib
import inspect
import json
import re
from collections import Counter

import pytest

from tubecat import homfunctor, strings
from tubecat.endo import cached_endomorphism_algebra
from tubecat.homfunctor import (
    beta_arrow,
    in_add_tau,
    in_fundamental_domain,
    oracle_dims,
    predicted_dims,
    reverse_hammock,
    sigma,
    sigma_string,
    verify_hom_functor,
)
from tubecat.quiver import Arrow, Presentation, Quiver, count_paths
from tubecat.rigid import (
    from_summands,
    maximal_rigid_objects,
    subwing_decomposition,
    tau_rigid,
)
from tubecat.strings import (
    end_vertex,
    enumerate_strings,
    is_string,
    string_module,
    word,
)
from tubecat.tube import (
    Indec,
    hom_tube,
    in_wing,
    indecomposables_up_to,
    lift_orbit,
    tau,
)

from support import (
    enumeration_order,
    free_loop,
    on_vanishing_locus,
    projective_string,
    quasisimple_map,
    quasisimples,
    reference_traversed,
    wing_members,
)

T3 = from_summands(3, [Indec(3, 1, 2), Indec(3, 1, 1)])
T2 = from_summands(2, [Indec(2, 1, 1)])
X13 = Indec(3, 1, 3)


def fundamental_domain(n):
    """The fundamental domain in top-normalized coordinates, from the paper's
    definition: the rigid region (ql <= n - 1) plus the triangle above it
    (orbit + ql <= 2n - 1, orbit in 1..n)."""
    return frozenset(
        Indec(n, a, b)
        for a in range(1, n + 1)
        for b in range(1, 2 * n)
        if b <= n - 1 or a + b <= 2 * n - 1
    )


def module_dims(modules):
    """Summed dimension vector of a family of modules."""
    out = {}
    for m in modules:
        for v, d in m.dims:
            out[v] = out.get(v, 0) + d
    return out


def reference_modules(t, x):
    """The predicted image of x as string modules, as the theorem states it:
    nothing on add tau T, M(sigma(x)) inside the fundamental domain, and
    M(sigma_T(x)) + M(sigma_D(x)) outside it."""
    if in_add_tau(t, x):
        return ()
    lam = cached_endomorphism_algebra(t)
    if in_fundamental_domain(t, x):
        return (string_module(lam, sigma(t, x)),)
    words = (sigma_string(t, x, "T"), sigma_string(t, x, "D"))
    return tuple(string_module(lam, w) for w in words if not w.is_zero)


def reference_sigma(t, x):
    """The former whole-word join of sigma(x): sigma_T * beta * sigma_D^-1
    checked letter by letter as a string (the former
    `strings.concatenate`), then its sorted traversal compared with
    chain T(x) + chain D(x)."""
    if in_add_tau(t, x):
        raise ValueError(f"{x} is a translate of a summand; no string assigned")
    if not in_fundamental_domain(t, x):
        raise ValueError(f"{x} is outside the fundamental domain")
    lam = cached_endomorphism_algebra(t)
    sig_t = sigma_string(t, x, "T")
    sig_d = sigma_string(t, x, "D")
    if sig_t.is_zero and sig_d.is_zero:
        raise AssertionError(f"both chain strings vanish for {x} in the domain")
    if sig_d.is_zero:
        return sig_t
    if sig_t.is_zero:
        return sig_d
    joined = word(sig_t.letters + ((homfunctor.beta_arrow(t, x), 1),) + sig_d.inverse().letters)
    if not is_string(lam, joined):
        raise ValueError(f"concatenation is not a string: {joined}")
    both = [s for kind in ("T", "D") for s in reverse_hammock(t, x, kind)]
    if sorted(reference_traversed(lam, joined)) != sorted(map(t.vertex_of, both)):
        raise AssertionError(f"joined string {joined} of {x} does not traverse {both}")
    return joined


def reference_verify_hom_functor(t, ql_cap=None):
    """The per-x sweep: `predicted_dims` against `oracle_dims` at every x,
    and the vanishing locus read from the oracle."""
    n = t.rank
    homfunctor.check_ql_cap(n, ql_cap)
    if ql_cap is None:
        ql_cap = 3 * n
    lam = cached_endomorphism_algebra(t)
    homfunctor._table(t).paint(ql_cap)

    failures = []
    locus_failures = []
    assigned = {}
    domain_count = 0
    for x in homfunctor._painting(n, ql_cap).swept:
        in_f = in_fundamental_domain(t, x)
        is_tau = in_add_tau(t, x)
        pred = homfunctor.predicted_dims(t, x)
        orac = homfunctor.oracle_dims(t, x)
        if pred != orac:
            failures.append(homfunctor._record(t, x, pred, orac))
        if in_f:
            if not is_tau:
                domain_count += 1
                assigned[sigma(t, x).canonical()] = x
            continue
        sigma_string(t, x, "T")
        sigma_string(t, x, "D")
        vanishes = not orac
        if vanishes != on_vanishing_locus(t, x):
            locus_failures.append(
                f"{x}: oracle {'vanishes' if vanishes else 'is nonzero'} off pattern"
            )

    expected = (3 * n * n - 5 * n + 2) // 2
    size_ok = domain_count == expected and len(assigned) == expected
    enum = enumerate_strings(lam)
    for w in enum.strings:
        string_module(lam, w)
    bijection_ok = (
        enum.band is None
        and set(assigned) == set(enum.strings)
        and len(assigned) == len(enum.strings)
    )
    return homfunctor.HomFunctorReport(
        rank=n,
        rigid_object=t,
        ql_cap=ql_cap,
        dimension_failures=tuple(failures),
        bijection_ok=bijection_ok,
        domain_size_ok=size_ok,
        locus_failures=tuple(locus_failures),
        expected_count=expected,
    )


def reference_chain_string(t, triples, x, kind):
    """The former chain-string builder: each lower member of a chain is the
    left or right child of the next member's subwing triple, and the pair is
    joined by the arrow `endo.tilted_algebra` names `a{i}_{j}` for i -> j:
    higher -> left child (inverse letter), right child -> higher (direct)."""
    chain = reverse_hammock(t, x, kind)
    if not chain:
        return strings.ZERO_STRING
    if len(chain) == 1:
        return strings.trivial(t.vertex_of(chain[0]))
    letters = []
    for low, high in zip(chain, chain[1:]):
        triple = triples.get(high)
        v_low, v_high = t.vertex_of(low), t.vertex_of(high)
        if triple is not None and triple.left == low:
            letters.append((f"a{v_high}_{v_low}", -1))
        elif triple is not None and triple.right == low:
            letters.append((f"a{v_low}_{v_high}", 1))
        else:
            raise AssertionError(f"chain members {low}, {high} are not triple-related")
    return strings.word(letters)


def _coherent_lift(n, region):
    """BFS lift of a tube region to the translation plane: ray moves keep
    the lifted orbit, coray moves shift it. None on inconsistency."""
    start = min(region)
    lifts = {start: start.orbit}
    frontier = [start]
    while frontier:
        y = frontier.pop()
        base = lifts[y]
        moves = [(Indec(n, y.orbit, y.ql + 1), base)]
        if y.ql >= 2:
            moves.append((Indec(n, y.orbit, y.ql - 1), base))
            moves.append((Indec(n, y.orbit + 1, y.ql - 1), base + 1))
        moves.append((Indec(n, y.orbit - 1, y.ql + 1), base - 1))
        for neighbor, lifted in moves:
            if neighbor not in region:
                continue
            if neighbor in lifts:
                if lifts[neighbor] != lifted:
                    return None
                continue
            lifts[neighbor] = lifted
            frontier.append(neighbor)
    return {(lifts[y], y.ql) for y in lifts}


class TestFundamentalDomain:
    def test_rank3_members(self):
        fd = fundamental_domain(3)
        expected = {
            Indec(3, a, b) for a in (1, 2, 3) for b in (1, 2)
        } | {Indec(3, 1, 3), Indec(3, 2, 3), Indec(3, 1, 4)}
        assert fd == frozenset(expected)

    def test_rank2_members(self):
        assert fundamental_domain(2) == frozenset(
            {Indec(2, 1, 1), Indec(2, 2, 1), Indec(2, 1, 2)}
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_size_formula(self, n):
        assert len(fundamental_domain(n)) == 3 * n * (n - 1) // 2

    def test_rotation_for_other_tops(self):
        t = from_summands(3, [Indec(3, 2, 2), Indec(3, 2, 1)])
        assert tau(t.top, 1) == Indec(3, 1, 2)  # the top, normalized
        assert in_fundamental_domain(t, Indec(3, 2, 3))
        assert not in_fundamental_domain(t, Indec(3, 1, 4))


class TestReverseHammocks:
    def test_worked_example(self):
        assert reverse_hammock(T3, X13, "T") == [Indec(3, 1, 1), Indec(3, 1, 2)]
        assert reverse_hammock(T3, X13, "D") == [Indec(3, 1, 2)]

    def test_translate_summands_have_empty_hammocks(self):
        for t in (T2, T3):
            for s in t.summands:
                x = tau(s, 1)
                assert reverse_hammock(t, x, "T") == []
                assert reverse_hammock(t, x, "D") == []

    def test_empty_iff_translate_inside_domain(self):
        for n in (2, 3, 4):
            for t in maximal_rigid_objects(n):
                rotation = t.top.orbit - 1
                for xn in fundamental_domain(n):
                    x = tau(xn, -rotation)
                    empty = (
                        not reverse_hammock(t, x, "T")
                        and not reverse_hammock(t, x, "D")
                    )
                    assert empty == in_add_tau(t, x)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            reverse_hammock(T3, X13, "Q")


class TestSigmaStrings:
    def test_worked_example(self):
        sig_t = sigma_string(T3, X13, "T")
        assert sig_t.letters == (("a1_2", -1),)
        sig_d = sigma_string(T3, X13, "D")
        assert sig_d.kind == "trivial" and sig_d.vertex == 1

    def test_zero_for_translates(self):
        for s in T3.summands:
            assert sigma_string(T3, tau(s, 1), "T").is_zero
            assert sigma_string(T3, tau(s, 1), "D").is_zero

    def test_ends_at_highest_quasilength(self):
        for n in (2, 3, 4, 5):
            for t in maximal_rigid_objects(n):
                lam = cached_endomorphism_algebra(t)
                for x in indecomposables_up_to(n, 2 * n):
                    for kind in ("T", "D"):
                        chain = reverse_hammock(t, x, kind)
                        sig = sigma_string(t, x, kind)
                        if not chain:
                            assert sig.is_zero
                            continue
                        assert end_vertex(lam, sig) == t.vertex_of(chain[-1])
                        visited = sorted(reference_traversed(lam, sig))
                        assert visited == sorted(t.vertex_of(s) for s in chain)

    def test_no_shifted_letters(self):
        for t in maximal_rigid_objects(4):
            lam = cached_endomorphism_algebra(t)
            shifted = {a.id for a in lam.quiver.arrows if a.kind in ("D", "loop")}
            for x in indecomposables_up_to(4, 8):
                for kind in ("T", "D"):
                    sig = sigma_string(t, x, kind)
                    assert all(aid not in shifted for aid, _ in sig.letters)


class TestBetaArrow:
    def test_loop_for_worked_example(self):
        assert beta_arrow(T3, X13) == "w"

    def test_absent_on_boundary_rays(self):
        # no tube maps from the object on the short ray below the seam
        n = 3
        x_ray = Indec(n, n, n)      # on the ray where sigma-T vanishes
        assert sigma_string(T3, x_ray, "T").is_zero
        assert beta_arrow(T3, x_ray) is None
        x_coray = Indec(n, n - 1, n)
        assert sigma_string(T3, x_coray, "D").is_zero
        assert beta_arrow(T3, x_coray) is None

    def test_connects_string_endpoints(self):
        for n in (3, 4, 5):
            for t in maximal_rigid_objects(n):
                lam = cached_endomorphism_algebra(t)
                for x in indecomposables_up_to(n, 2 * n):
                    sig_t = sigma_string(t, x, "T")
                    sig_d = sigma_string(t, x, "D")
                    if sig_t.is_zero or sig_d.is_zero:
                        assert beta_arrow(t, x) is None
                        continue
                    beta = beta_arrow(t, x)
                    arrow = lam.quiver.arrow(beta)
                    assert arrow.kind in ("D", "loop")
                    assert arrow.src == end_vertex(lam, sig_t)
                    assert arrow.tgt == end_vertex(lam, sig_d)


class TestSigma:
    def test_worked_example(self):
        sig = sigma(T3, X13)
        assert sig.letters == (("a1_2", -1), ("w", 1))
        assert str(sig) == "w*a1_2^-1"

    def test_summands_give_projective_strings(self):
        for n in (2, 3, 4):
            for t in maximal_rigid_objects(n):
                lam = cached_endomorphism_algebra(t)
                paths = count_paths(lam)
                for s in t.summands:
                    sig = sigma(t, s)
                    assert sig.canonical() == projective_string(
                        lam, t.vertex_of(s)
                    ).canonical()
                    m = string_module(lam, sig)
                    for u in lam.quiver.vertices:
                        assert m.dim(u) == paths.get((t.vertex_of(s), u), 0)

    def test_quasisimple_images(self):
        """A quasisimple receives tube maps exactly from the summands whose
        coray passes through it (right wing edge)."""
        for n in (2, 3, 4):
            for t in maximal_rigid_objects(n):
                mapping = quasisimple_map(t)
                for q in mapping:
                    chain = reverse_hammock(t, q, "T")
                    assert chain == sorted(
                        (
                            s
                            for s in t.summands
                            if (s.orbit + s.ql - 1 - q.orbit) % n == 0
                        ),
                        key=lambda s: s.ql,
                    )
                    if not in_add_tau(t, q):  # Hom(T, tau T) = 0: no string
                        sig = sigma(t, q)
                        assert 0 <= sig.length <= 2 * (n - 1) - 1
                    assert predicted_dims(t, q) == oracle_dims(t, q)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_equals_the_whole_word_join(self, n):
        points = 0
        for t in _representatives(n):
            for x in sorted(fundamental_domain(n)):
                assert in_fundamental_domain(t, x)
                if not in_add_tau(t, x):
                    assert sigma(t, x) == reference_sigma(t, x), (t, x)
                    points += 1
        assert points == len(_representatives(n)) * (3 * n * n - 5 * n + 2) // 2

    @pytest.mark.parametrize(
        "fault, summands, at, fake",
        [
            # Both chain strings are e1, at the top vertex; a2_1 runs 2 -> 1.
            ("wrong-source", [(1, 3), (2, 2), (2, 1)], (1, 3), "a2_1"),
            # Both chain strings are e1; a1_2 runs 1 -> 2.
            ("wrong-target", [(1, 3), (1, 1), (3, 1)], (2, 3), "a1_2"),
            # sigma_T is a3_1, ending at 1, and a1_2 * a3_1 is a relation.
            ("relation", [(1, 3), (1, 1), (3, 1)], (3, 3), "a1_2"),
        ],
    )
    def test_bad_connecting_arrow_is_caught(self, fault, summands, at, fake, monkeypatch):
        """A connecting arrow that leaves or enters the wrong vertex, or
        that forms a relation with the last letter of sigma_T, fails sigma
        at that x and the object's hom-functor outcome, and no other
        outcome."""
        from tubecat.verify import check_hom_functor

        n = 4
        victim = from_summands(n, [Indec(n, *s) for s in summands])
        x = Indec(n, *at)
        lam = cached_endomorphism_algebra(victim)
        sig_t, sig_d = sigma_string(victim, x, "T"), sigma_string(victim, x, "D")
        arrow, ends = lam.quiver.arrow(fake), (end_vertex(lam, sig_t), end_vertex(lam, sig_d))
        honest = homfunctor.beta_arrow
        assert victim.top.orbit == 1 and honest(victim, x) != fake
        assert {
            "wrong-source": arrow.src != ends[0],
            "wrong-target": arrow.src == ends[0] and arrow.tgt != ends[1],
            "relation": sig_t.kind == "word" and lam.is_relation(fake, sig_t.letters[-1][0]),
        }[fault]
        monkeypatch.setattr(
            homfunctor, "beta_arrow",
            lambda t, y: fake if (t, y) == (victim, x) else honest(t, y),
        )
        monkeypatch.setattr(homfunctor, "_held", None)
        message = f"{fake} does not join {sig_t} to {sig_d} for {x}"
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            sigma(victim, x)
        with pytest.raises((AssertionError, ValueError)):
            reference_sigma(victim, x)
        failed = [o for o in check_hom_functor(n) if not o.ok]
        assert [(o.subject, o.detail) for o in failed] == [(str(victim), f"error: {message}")]

    @pytest.mark.parametrize("kind", ["T", "D"])
    def test_loop_beside_a_chain_string_ending_in_it_is_caught(self, kind, monkeypatch):
        """A forged chain string a3_1 * w ends at the top vertex, where the
        connecting loop starts and ends, so only the letters around the
        loop show the fault: w * w is a relation (kind "T"), and w followed
        by its inverse is no string (kind "D")."""
        n = 4
        victim = from_summands(n, [Indec(n, 1, 3), Indec(n, 1, 1), Indec(n, 3, 1)])
        x = Indec(n, 3, 3)
        assert beta_arrow(victim, x) == "w"
        honest = homfunctor.sigma_string
        forged = word([("a3_1", 1), ("w", 1)])
        monkeypatch.setattr(
            homfunctor, "sigma_string",
            lambda t, y, k: forged if (y, k) == (x, kind) else honest(t, y, k),
        )
        sig_t, sig_d = (forged, "a3_1") if kind == "T" else ("a3_1", forged)
        with pytest.raises(AssertionError, match=re.escape(f"w does not join {sig_t} to {sig_d} for {x}")):
            sigma(victim, x)

    def test_rejects_translates_and_outsiders(self):
        with pytest.raises(ValueError):
            sigma(T3, tau(T3.summands[0], 1))
        with pytest.raises(ValueError):
            sigma(T3, Indec(3, 3, 3))


class TestPredictions:
    def test_vanishing_point(self):
        assert predicted_dims(T3, Indec(3, 3, 5)) == {}
        assert on_vanishing_locus(T3, Indec(3, 3, 5))
        assert oracle_dims(T3, Indec(3, 3, 5)) == {}

    def test_worked_dimensions(self):
        assert predicted_dims(T3, X13) == {1: 2, 2: 1}
        assert oracle_dims(T3, X13) == {1: 2, 2: 1}

    def test_translates_vanish(self):
        assert predicted_dims(T3, tau(T3.top, 1)) == {}
        assert oracle_dims(T3, tau(T3.top, 1)) == {}

    def test_outside_domain_splits_in_two(self):
        x = Indec(3, 1, 5)
        assert not in_fundamental_domain(T3, x)
        parts = reference_modules(T3, x)
        assert len(parts) == 2
        assert predicted_dims(T3, x) == module_dims(parts) == oracle_dims(T3, x)

    def test_locus_pattern_rotates_with_top(self):
        t = from_summands(3, [Indec(3, 2, 2), Indec(3, 2, 1)])
        assert on_vanishing_locus(t, Indec(3, 1, 5))
        assert not on_vanishing_locus(t, Indec(3, 3, 5))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_locus_is_the_stated_pattern_outside_the_domain(self, n):
        """The locus test, which does not ask for the domain, equals the
        pattern read outside the fundamental domain, at every x up to ql 5n
        of every object."""
        hits = 0
        for t in maximal_rigid_objects(n):
            for x in indecomposables_up_to(n, 5 * n):
                orbit = (x.orbit - t.top.orbit) % n + 1
                stated = not in_fundamental_domain(t, x) and (
                    orbit == n and (x.ql + 1) % n == 0 and x.ql >= 2 * n - 1
                )
                assert on_vanishing_locus(t, x) == stated, (t, x)
                hits += stated
        assert hits == len(maximal_rigid_objects(n)) * sum(
            1 for b in range(2 * n - 1, 5 * n + 1) if (b + 1) % n == 0
        )


class TestVerifyHomFunctor:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_objects(self, n):
        for t in maximal_rigid_objects(n):
            report = verify_hom_functor(t)
            assert report.ok, (t, report.dimension_failures[:2])
            assert report.expected_count == (3 * n * n - 5 * n + 2) // 2

    def test_report_schema(self):
        report = verify_hom_functor(T2)
        record = report.records[0]
        assert set(record) == {
            "x",
            "in_F",
            "in_add_tau",
            "sigmaT",
            "sigmaD",
            "beta",
            "predicted_dims",
            "oracle_dims",
            "ok",
        }
        data = report.to_json()
        assert data["ok"] is True
        assert data["expected_count"] == 2

    @pytest.mark.parametrize("cap", [3, 0, -3])
    def test_cap_below_the_domain_raises_before_painting(self, cap, monkeypatch):
        # The rank-3 fundamental domain reaches quasilength 4.
        painted = []
        monkeypatch.setattr(homfunctor._ObjectTable, "paint", lambda self, c: painted.append(c))
        with pytest.raises(ValueError, match=f"ql_cap {cap} is below 4, .* at rank 3"):
            verify_hom_functor(T3, cap)
        assert painted == []

    def test_band_fails_the_bijection(self, monkeypatch):
        real = homfunctor.cached_endomorphism_algebra
        monkeypatch.setattr(homfunctor, "cached_endomorphism_algebra", lambda t: free_loop(real(t)))
        monkeypatch.setattr(homfunctor, "_held", None)  # a table built on the band algebra
        report = verify_hom_functor(T2)
        assert enumerate_strings(free_loop(real(T2))).band == word([("w", 1)])
        assert not report.bijection_ok and not report.ok
        assert report.domain_size_ok and not report.dimension_failures

    def test_cap_covering_the_domain(self):
        for t in maximal_rigid_objects(3):
            report = verify_hom_functor(t, 4)
            assert report.ok and report.bijection_ok and report.domain_size_ok
            assert report.ql_cap == 4


class TestHammockLemmas:
    """Exhaustive checks of the hammock facts used by the construction."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unique_quasisimple_per_hammock(self, n):
        for t in maximal_rigid_objects(n):
            for x in indecomposables_up_to(n, 3 * n):
                for kind in ("T", "D"):
                    if kind == "T":
                        qs = [q for q in quasisimples(n) if hom_tube(q, x) > 0]
                    else:
                        qs = [
                            q
                            for q in quasisimples(n)
                            if hom_tube(x, tau(q, 2)) > 0
                        ]
                    assert len(qs) == 1
                    for member in reverse_hammock(t, x, kind):
                        assert in_wing(qs[0], member)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_top_absent_iff_translate_wing(self, n):
        for t in maximal_rigid_objects(n):
            rotation = t.top.orbit - 1
            translated_top = tau(t.top, 1)
            for xn in fundamental_domain(n):
                x = tau(xn, -rotation)
                in_r = (
                    hom_tube(t.top, x) > 0 or hom_tube(x, tau(t.top, 2)) > 0
                )
                in_translate_wing = x.ql <= n - 1 and in_wing(x, translated_top)
                assert (not in_r) == in_translate_wing, (t, x)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_at_most_one_triple_member_per_hammock(self, n):
        for t in maximal_rigid_objects(n):
            triples = [
                tr for tr in subwing_decomposition(t).values() if not tr.degenerate
            ]
            for x in indecomposables_up_to(n, 3 * n):
                for kind in ("T", "D"):
                    members = set(reverse_hammock(t, x, kind))
                    for tr in triples:
                        assert not (
                            tr.left in members and tr.right in members
                        ), (t, x, kind)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shifted_string_forces_tube_string(self, n):
        """Inside the fundamental domain: if the tube-side string of x equals
        the shifted-side string of y and is non-zero, then y also has a
        non-zero tube-side string."""
        for t in maximal_rigid_objects(n):
            rotation = t.top.orbit - 1
            sweep = [tau(xn, -rotation) for xn in fundamental_domain(n)]
            sig_t = {x: sigma_string(t, x, "T") for x in sweep}
            sig_d = {x: sigma_string(t, x, "D") for x in sweep}
            for x in sweep:
                if sig_t[x].is_zero:
                    continue
                for y in sweep:
                    if sig_d[y] == sig_t[x]:
                        assert not sig_t[y].is_zero, (t, x, y)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hammock_rectangles_inside_domain(self, n):
        """Forward hammocks of objects in the normalized top wing, cut to
        the fundamental domain, form one connected region that lifts
        coherently to the translation plane as a full interval product in
        ray/coray coordinates."""
        domain = fundamental_domain(n)
        for x in wing_members(Indec(n, 1, n - 1)):
            for kind in ("T", "D"):
                if kind == "T":
                    region = {y for y in domain if hom_tube(x, y) > 0}
                else:
                    region = {y for y in domain if hom_tube(y, tau(x, 2)) > 0}
                if not region:
                    continue
                lifted = _coherent_lift(n, region)
                assert lifted is not None, (x, kind, "lift conflict")
                assert len(lifted) == len(region), (x, kind, "disconnected")
                coords = {(a, a + b) for a, b in lifted}
                rays = {u for u, _ in coords}
                corays = {v for _, v in coords}
                product = {
                    (u, v)
                    for u in range(min(rays), max(rays) + 1)
                    for v in range(min(corays), max(corays) + 1)
                }
                assert coords == product, (x, kind)


class TestObjectTable:
    """The per-object table and its memos against the definitions they
    replace."""

    # SHA-256 of the sorted-key JSON of every report of a rank, in the
    # former enumeration order, computed from the implementation that
    # rebuilt every chain for every x.
    REPORT_DIGESTS = {
        (2, None): "47dcbb26652125f108f8c52a9543ba32f974fa046b5b4a792cdd3c2f02d9b324",
        (3, None): "0dc89310f4f7c49a1eaa0d4c556a2d8ae7b763fb23d02d3327baeb7ba75f0872",
        (4, None): "b1541c37e8ba496569fe19d0371d1ebce7d456d1405ad78b30eb7fc464a85e48",
        (5, 30): "9a013f2782340afbf6198f5372af5f4c971b7498b38c2543de2fcfc09dee53c1",
        (6, None): "a3a9b3937b9ed0509ca80c7c8a33fd4cdcf8f54ae69d9d1798b6616b2e8f15b9",
    }

    @pytest.mark.parametrize("n, cap", list(REPORT_DIGESTS))
    def test_reports_match_pinned_digest(self, n, cap):
        objects = enumeration_order(maximal_rigid_objects(n))
        reports = [verify_hom_functor(t, cap).to_json() for t in objects]
        data = json.dumps(reports, sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == self.REPORT_DIGESTS[(n, cap)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_domain_test_matches_members(self, n):
        members = fundamental_domain(n)
        for t in maximal_rigid_objects(n):
            rotation = t.top.orbit - 1
            for x in indecomposables_up_to(n, 3 * n):
                xn = tau(x, rotation)
                expected = xn.ql <= n - 1 or xn in members
                assert in_fundamental_domain(t, x) == expected, (t, x)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_add_tau_matches_translates(self, n):
        for t in maximal_rigid_objects(n):
            translates = {tau(s, 1) for s in t.summands}
            for x in indecomposables_up_to(n, 3 * n):
                assert in_add_tau(t, x) == (x in translates), (t, x)

    @staticmethod
    def _assert_hammocks_match_filter(t, xs):
        """Painted reverse hammocks against the Hom filter over summands,
        stably sorted by quasilength."""
        for x in xs:
            tube_side = sorted(
                (s for s in t.summands if hom_tube(s, x) > 0),
                key=lambda s: s.ql,
            )
            shifted = sorted(
                (s for s in t.summands if hom_tube(x, tau(s, 2)) > 0),
                key=lambda s: s.ql,
            )
            assert reverse_hammock(t, x, "T") == tube_side, (t, x)
            assert reverse_hammock(t, x, "D") == shifted, (t, x)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reverse_hammock_matches_filter(self, n):
        for t in maximal_rigid_objects(n):
            self._assert_hammocks_match_filter(t, indecomposables_up_to(n, 3 * n))

    def test_painting_matches_filter_on_rank7_representatives(self):
        n = 7
        for t in maximal_rigid_objects(n):
            if t.top.orbit == 1:
                self._assert_hammocks_match_filter(t, indecomposables_up_to(n, 3 * n))

    @pytest.mark.parametrize("n", [3, 5])
    def test_repaint_above_a_sweep(self, n):
        """x at ql 10n after a sweep painted to 3n extends the painting."""
        for t in maximal_rigid_objects(n):
            assert verify_hom_functor(t).ok
            assert homfunctor._table(t).painted == 3 * n
            top = [Indec(n, a, 10 * n) for a in range(1, n + 1)]
            self._assert_hammocks_match_filter(t, top)
            assert homfunctor._table(t).painted >= 10 * n
            self._assert_hammocks_match_filter(t, indecomposables_up_to(n, 10 * n))

    @pytest.mark.parametrize("n", [3, 5])
    def test_paint_high_before_low(self, n, monkeypatch):
        """On a fresh table, ql 3n + 1 is asked for before ql 1."""
        for t in maximal_rigid_objects(n):
            monkeypatch.setattr(homfunctor, "_held", None)
            high = [Indec(n, a, 3 * n + 1) for a in range(1, n + 1)]
            low = [Indec(n, a, 1) for a in range(1, n + 1)]
            self._assert_hammocks_match_filter(t, high + low)
            self._assert_hammocks_match_filter(t, indecomposables_up_to(n, 3 * n + 1))

    def test_rejects_other_rank_after_memoising(self):
        assert sigma_string(T3, Indec(3, 1, 1), "T").kind == "trivial"
        queries = {
            "sigma_string": lambda x: sigma_string(T3, x, "T"),
            "sigma": lambda x: sigma(T3, x),
            "predicted_dims": lambda x: predicted_dims(T3, x),
            "oracle_dims": lambda x: oracle_dims(T3, x),
            "in_fundamental_domain": lambda x: in_fundamental_domain(T3, x),
            "in_add_tau": lambda x: in_add_tau(T3, x),
            "on_vanishing_locus": lambda x: on_vanishing_locus(T3, x),
        }
        # Read at rank 3, the x lie in the domain, in add tau T, outside the
        # domain and on the vanishing locus.
        for x in (Indec(5, 4, 1), Indec(5, 3, 1), Indec(5, 1, 9), Indec(4, 3, 5), Indec(2, 1, 1)):
            for name, query in queries.items():
                with pytest.raises(ValueError, match="rank mismatch"):
                    query(x)
                    pytest.fail(f"{name} answered for {x}")

    def test_wrong_oracle_for_one_x_is_reported(self, monkeypatch, drop_painting):
        """An oracle part off by one at a single (summand, x) fails exactly
        that x, also when its chain strings were already memoised for an
        earlier x, and exactly as the per-x reference reports it."""
        t = maximal_rigid_objects(4)[3]
        seen = set()
        target = None
        for x in indecomposables_up_to(4, 12):
            pair = (tuple(reverse_hammock(t, x, "T")), tuple(reverse_hammock(t, x, "D")))
            if pair in seen and pair != ((), ()):
                target = x
                break
            seen.add(pair)
        assert target is not None

        honest = homfunctor.oracle_parts
        first = (t.summands[0].orbit, t.summands[0].ql)

        def off_by_one(n, c, d, a, b):
            hom, hom_shifted = honest(n, c, d, a, b)
            if (c, d) == first and (a, b) == (target.orbit, target.ql):
                hom += 1
            return hom, hom_shifted

        monkeypatch.setattr(homfunctor, "oracle_parts", off_by_one)
        homfunctor._painting.cache_clear()
        report = verify_hom_functor(t)
        assert not report.ok
        assert [r["x"] for r in report.dimension_failures] == [target.to_json()]
        reference = reference_verify_hom_functor(t)
        assert report.dimension_failures == reference.dimension_failures
        assert report.to_json() == reference.to_json()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_predicted_dims_match_reference_modules(self, n):
        """At every swept x of every representative, the chain multiset is
        the dimension vector of the predicted string modules."""
        for t in maximal_rigid_objects(n):
            if t.top.orbit != 1:
                continue
            for x in indecomposables_up_to(n, 3 * n):
                assert predicted_dims(t, x) == module_dims(reference_modules(t, x)), (t, x)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_chain_strings_match_the_triple_route(self, n):
        """Chain strings read from the algebra's arrows equal the strings
        built from the subwing triples, at every swept x of every
        representative, for both kinds."""
        for t in maximal_rigid_objects(n):
            if t.top.orbit != 1:
                continue
            triples = subwing_decomposition(t)
            for x in indecomposables_up_to(n, 3 * n):
                for kind in ("T", "D"):
                    expected = reference_chain_string(t, triples, x, kind)
                    assert sigma_string(t, x, kind) == expected, (t, x, kind)

    def test_tube_arrow_of_kind_d_fails_exactly_its_orbit(self, monkeypatch):
        """One tube-map arrow relabelled as a shifted-part arrow in the
        algebra of one rank-5 translate orbit: the chain strings that need
        it have no tube-map arrow between their members, so exactly that
        orbit's hom-functor outcomes fail."""
        from tubecat.verify import check_hom_functor

        n = 5
        victim = maximal_rigid_objects(n)[3]
        assert victim.top.orbit == 1
        orbit = {tau_rigid(victim, k) for k in range(n)}
        honest = homfunctor.cached_endomorphism_algebra
        lam = honest(victim)
        assert all(honest(t).to_json() == lam.to_json() for t in orbit)
        flip = next(a for a in lam.quiver.arrows if a.kind == "T")
        arrows = tuple(
            Arrow(a.id, a.src, a.tgt, "D") if a.id == flip.id else a
            for a in lam.quiver.arrows
        )
        flipped = Presentation(Quiver(lam.quiver.vertices, arrows), lam.relations)
        monkeypatch.setattr(
            homfunctor, "cached_endomorphism_algebra",
            lambda t: flipped if t in orbit else honest(t),
        )
        monkeypatch.setattr(homfunctor, "_held", None)
        outcomes = check_hom_functor(n)
        failed = [o for o in outcomes if not o.ok]
        assert len(outcomes) == 70 and len(failed) == len(orbit) == n
        assert {o.subject for o in failed} == {str(t) for t in orbit}
        for o in failed:
            assert o.detail.startswith("error: chain members "), o.detail
            assert o.detail.endswith(" are not triple-related")

    def test_dropped_hammock_summand_fails_that_x(self, monkeypatch, drop_painting):
        """A summand that lost one of its painted cells is missing from the
        chain there, a dimension failure at exactly that x."""
        n = 4
        t = maximal_rigid_objects(n)[3]
        monkeypatch.setattr(homfunctor, "_held", None)
        table = homfunctor._table(t)
        table.paint(3 * n)
        cell = next(
            cell for cell, chain in enumerate(table.hammocks["T"])
            if cell >= (2 * n - 2) * n and len(chain) >= 2
        )
        dropped = table.hammocks["T"][cell][-1]
        _plant(monkeypatch, t.summands[dropped - 1], "T", lambda cells: [c for c in cells if c != cell])
        report = verify_hom_functor(t)
        assert not report.ok
        [failure] = report.dimension_failures
        assert failure["x"] == homfunctor._painting(n, 3 * n).swept[cell].to_json()
        pred, orac = failure["predicted_dims"], failure["oracle_dims"]
        assert pred.get(str(dropped), 0) == orac[str(dropped)] - 1

    def test_failing_string_module_is_an_error_outcome(self, monkeypatch):
        """A string whose module build raises fails the hom-functor
        outcome of its object with the error."""
        from tubecat.verify import check_hom_functor

        t = maximal_rigid_objects(3)[1]
        lam = cached_endomorphism_algebra(t)
        target = enumerate_strings(lam).strings[-1]
        honest = strings.string_module

        def failing(p, w):
            if p is lam and w == target:
                raise AssertionError(f"module build fails on {w}")
            return honest(p, w)

        monkeypatch.setattr(strings, "string_module", failing)
        failed = [o for o in check_hom_functor(3) if not o.ok]
        assert [o.subject for o in failed] == [str(t)]
        assert failed[0].detail == f"error: module build fails on {target}"

    def test_state_held_for_one_object(self):
        objects = maximal_rigid_objects(5)
        for t in objects:
            assert verify_hom_functor(t).ok
        assert verify_hom_functor(objects[0], 30).ok
        held = {
            name: value for name, value in vars(homfunctor).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set, tuple, homfunctor._ObjectTable, homfunctor._Summands))
        }
        assert set(held) == {"_held"}
        assert held["_held"].obj is objects[0]
        info = homfunctor._painting.cache_info()
        assert info.maxsize == info.currsize == 1
        summands = homfunctor._painting(5, 30)
        assert homfunctor._painting.cache_info().hits == info.hits + 1
        assert summands.key == (5, 30) and len(summands.cells) == len(summands.masks) == 5 * 4
        assert summands.swept == tuple(Indec(5, a, b) for b in range(1, 31) for a in range(1, 6))
        caches = {
            name for name, value in vars(homfunctor).items()
            if hasattr(value, "cache_info")
            and getattr(value, "__module__", None) == homfunctor.__name__
        }
        assert caches == {"_painting"}  # the one (rank, cap) above


def _representatives(n):
    return [t for t in maximal_rigid_objects(n) if t.top.orbit == 1]


@pytest.fixture
def drop_painting():
    """Drop the held painting of a (rank, cap) when the test ends, so that a
    fault planted in it reaches no later test."""
    yield
    homfunctor._painting.cache_clear()


def _plant(monkeypatch, summand, kind, change):
    """Plant a fault in the painting of one rigid summand: `change` maps its
    tube-side (kind "T") or shifted-side ("D") cells to the planted ones.
    The tables painted afterwards and the summands' masks read them; the
    test that plants asks for `drop_painting`."""
    honest, side = homfunctor._summand_cells, "TD".index(kind)

    def planted(n, c, d, cap):
        cells = list(honest(n, c, d, cap))
        if (c, d) == (summand.orbit, summand.ql):
            cells[side] = change(cells[side])
        return tuple(cells)

    monkeypatch.setattr(homfunctor, "_summand_cells", planted)
    homfunctor._painting.cache_clear()
    monkeypatch.setattr(homfunctor, "_held", None)


def _ending(route, t):
    """The dimension failures of a sweep, or the repr of what it raised."""
    try:
        return route(t).dimension_failures
    except (AssertionError, IndexError) as exc:
        return repr(exc)


@pytest.mark.usefixtures("drop_painting")
class TestDimensionsPerSummand:
    """The sweep's dimension and locus proofs, read from each rigid
    summand's masks, against the per-x reference route, with faults planted
    in the summands' cells."""

    @pytest.mark.parametrize("n, cap", [(2, 6), (3, 9), (4, 12), (5, 15), (6, 18), (7, 21), (5, 30)])
    def test_reports_equal_the_per_x_route(self, n, cap):
        for t in _representatives(n):
            report = verify_hom_functor(t, cap)
            reference = reference_verify_hom_functor(t, cap)
            assert report.dimension_failures == reference.dimension_failures == ()
            assert report.to_json() == reference.to_json(), t

    def test_masks_read_the_parts(self):
        """Each rigid summand's cells hold every swept x as often as its
        two oracle parts say, so its `fail` mask is empty, and its `nz` mask
        holds the x where the parts sum to a nonzero value."""
        for n, cap in [(n, 3 * n) for n in range(2, 8)] + [(5, 30)]:
            summands = homfunctor._Summands(n, cap)
            assert set(summands.cells) == {(c, d) for c in range(1, n + 1) for d in range(1, n)}
            assert set(summands.masks) == set(summands.cells)
            for (c, d), (fail, nz) in summands.masks.items():
                tube_side, shifted = map(Counter, summands.cells[c, d])
                assert fail == 0, (n, c, d)
                for cell in range(n * cap):
                    parts = homfunctor.oracle_parts(n, c, d, cell % n + 1, cell // n + 1)
                    assert (tube_side[cell], shifted[cell]) == parts, (n, c, d, cell)
                    assert nz >> cell & 1 == (sum(parts) != 0)
                assert max(tube_side | shifted, default=0) < n * cap

    @pytest.mark.parametrize("old, new, cell", [
        ("if r < d:", "if r <= d:", -2),
        ("range((d - r - 1) * n + a - 1, cap * n, n)", "range((d - r - 1) * n + a - 1, (cap + 1) * n, n)", 9),
    ], ids=["ray-from-b-0", "ray-past-the-cap"])
    def test_cell_outside_the_sweep_fails_in_the_painter(self, old, new, cell):
        """A painter fault that leaves the swept cells raises where the
        summand is painted, naming the cell, instead of wrapping a negative
        cell to the cap's row or indexing past the sweep."""
        source = inspect.getsource(homfunctor._summand_cells)
        assert source.count(old) == 1
        namespace = dict(vars(homfunctor))
        exec(source.replace(old, new), namespace)
        with pytest.raises(AssertionError, match=rf"^summand \(1,1\) paints cell {cell} outside the 9 swept cells$"):
            namespace["_summand_cells"](3, 1, 1, 3)

    @pytest.mark.parametrize("honest_part", [0, 1])
    def test_part_of_two_sends_its_summand_to_the_fallback(self, honest_part, monkeypatch):
        """An oracle part of 2, where the honest part is 0 or 1, sends the
        cell of its summand to the per-x comparison alone: an object with
        that summand fails exactly that x, with the reference's records,
        and no other x off add tau T is compared by `oracle_dims`; an
        object without that summand still passes."""
        n = 4
        objects = _representatives(n)
        t = objects[2]
        c, d = t.summands[-1].orbit, t.summands[-1].ql
        honest = homfunctor.oracle_parts
        target = next(
            x for x in indecomposables_up_to(n, 3 * n)
            if honest(n, c, d, x.orbit, x.ql)[0] == honest_part
            and not in_fundamental_domain(t, x)
        )

        def doubled(n_, c_, d_, a, b):
            hom, hom_shifted = honest(n_, c_, d_, a, b)
            if (c_, d_, a, b) == (c, d, target.orbit, target.ql):
                hom = 2
            return hom, hom_shifted

        monkeypatch.setattr(homfunctor, "oracle_parts", doubled)
        homfunctor._painting.cache_clear()
        calls = []
        counted = homfunctor.oracle_dims
        monkeypatch.setattr(
            homfunctor, "oracle_dims", lambda obj, x: calls.append(x) or counted(obj, x)
        )
        report = verify_hom_functor(t)
        add_tau = {(x.orbit, x.ql) for x in calls[:-1]}
        assert add_tau == set(homfunctor._table(t).add_tau)
        assert calls[-1] == target
        [failure] = report.dimension_failures
        assert failure["x"] == target.to_json()
        assert failure["oracle_dims"][str(t.vertex_of(t.summands[-1]))] >= 2
        reference = reference_verify_hom_functor(t)
        assert report.dimension_failures == reference.dimension_failures
        assert report.to_json() == reference.to_json()

        other = next(u for u in objects if (c, d) not in {(s.orbit, s.ql) for s in u.summands})
        assert verify_hom_functor(other).ok

    def test_add_tau_is_compared_directly(self, monkeypatch):
        """At a point of add tau T the prediction is empty whatever its
        cells hold, so the cells agreeing with the oracle there prove
        nothing: a summand painted into such a cell, with the oracle part
        to match, still fails exactly that x."""
        n = 5
        t = _representatives(n)[4]
        target = tau(t.summands[1], 1)
        c, d = t.summands[0].orbit, t.summands[0].ql
        cell = (target.ql - 1) * n + target.orbit - 1
        honest = homfunctor.oracle_parts

        def planted(n_, c_, d_, a, b):
            hom, hom_shifted = honest(n_, c_, d_, a, b)
            if (c_, d_, a, b) == (c, d, target.orbit, target.ql):
                hom_shifted += 1
            return hom, hom_shifted

        monkeypatch.setattr(homfunctor, "oracle_parts", planted)
        _plant(monkeypatch, t.summands[0], "D", lambda cells: cells + [cell])
        table = homfunctor._table(t)
        table.paint(3 * n)
        assert table.hammocks["D"][cell] == (1,)
        assert homfunctor._painting(n, 3 * n).masks[c, d][0] == 0
        report = verify_hom_functor(t)
        assert [f["x"] for f in report.dimension_failures] == [target.to_json()]
        reference = reference_verify_hom_functor(t)
        assert report.dimension_failures == reference.dimension_failures
        assert report.to_json() == reference.to_json()

    def test_add_tau_cell_ignores_what_it_holds(self, monkeypatch):
        """A summand painted into a cell of add tau T, without an oracle part
        to match, leaves the prediction there empty, so the sweep passes as
        the reference does, although that summand's `fail` mask holds the
        cell."""
        n = 5
        t = _representatives(n)[4]
        target = tau(t.summands[1], 1)
        cell = (target.ql - 1) * n + target.orbit - 1
        _plant(monkeypatch, t.summands[0], "D", lambda cells: cells + [cell])
        table = homfunctor._table(t)
        table.paint(3 * n)
        assert table.hammocks["D"][cell] == (1,)
        s = t.summands[0]
        assert homfunctor._painting(n, 3 * n).masks[s.orbit, s.ql][0] == 1 << cell
        report = verify_hom_functor(t)
        assert report.ok
        assert report.to_json() == reference_verify_hom_functor(t).to_json()

    def test_add_tau_point_is_compared_once(self, monkeypatch):
        """A nonzero oracle value planted at one point of add tau T fails the
        dimension check there with the reference's record, while
        `predicted_dims` and `oracle_dims` are each called once at every
        point of add tau T, the failing one included, and nowhere else."""
        n = 5
        t = _representatives(n)[4]
        target = tau(t.summands[1], 1)
        c, d = t.summands[0].orbit, t.summands[0].ql
        honest = homfunctor.oracle_parts

        def planted(n_, c_, d_, a, b):
            hom, hom_shifted = honest(n_, c_, d_, a, b)
            if (c_, d_, a, b) == (c, d, target.orbit, target.ql):
                hom += 1
            return hom, hom_shifted

        monkeypatch.setattr(homfunctor, "oracle_parts", planted)
        homfunctor._painting.cache_clear()
        calls = {"predicted_dims": Counter(), "oracle_dims": Counter()}
        for name, seen in calls.items():
            counted = getattr(homfunctor, name)
            monkeypatch.setattr(
                homfunctor, name, lambda u, x, f=counted, seen=seen: seen.update([x]) or f(u, x)
            )
        report = verify_hom_functor(t)
        assert calls["predicted_dims"] == calls["oracle_dims"] == Counter(tau(s, 1) for s in t.summands)
        [failure] = report.dimension_failures
        assert failure["x"] == target.to_json()
        assert (failure["predicted_dims"], failure["oracle_dims"]) == ({}, {"1": 1})
        assert report.to_json() == reference_verify_hom_functor(t).to_json()

    def test_summand_moved_to_another_cell_is_not_proved(self, monkeypatch):
        """A summand dropped from one of its cells and repeated in another
        keeps its count of cells but not its cells: its `fail` mask holds
        both, and the sweep ends as the reference ends."""
        n = 4
        t = _representatives(n)[3]
        s = t.summands[0]
        cells = sorted(homfunctor._summand_cells(n, s.orbit, s.ql, 3 * n)[0])
        _plant(monkeypatch, s, "T", lambda got: [c for c in got if c != cells[0]] + [cells[1]])
        assert homfunctor._painting(n, 3 * n).masks[s.orbit, s.ql][0] == 1 << cells[0] | 1 << cells[1]
        ended = _ending(verify_hom_functor, t)
        assert ended == _ending(reference_verify_hom_functor, t)
        assert ended != ()

    @pytest.mark.parametrize("change", ["drop", "repeat", "foreign"])
    def test_changed_cell_runs_the_per_x_loop(self, change, monkeypatch):
        """A summand that loses a painted cell, holds it twice, or gains a
        cell it has no map at ends the sweep as the per-x reference ends it:
        a lost or gained summand fails exactly its x, and a repeated one
        raises where the chain string of the cell is built."""
        n = 4
        t = _representatives(n)[3]
        monkeypatch.setattr(homfunctor, "_held", None)
        table = homfunctor._table(t)
        table.paint(3 * n)
        cell = next(
            cell for cell, chain in enumerate(table.hammocks["D"])
            if cell >= (2 * n - 2) * n and chain
        )
        chain = table.hammocks["D"][cell]
        if change == "foreign":
            v = next(v for v in range(1, n) if v not in chain)
        else:
            v = chain[-1]
        s = t.summands[v - 1]
        if change == "drop":
            _plant(monkeypatch, s, "D", lambda cells: [c for c in cells if c != cell])
        else:
            _plant(monkeypatch, s, "D", lambda cells: cells + [cell])
        assert homfunctor._painting(n, 3 * n).masks[s.orbit, s.ql][0] == 1 << cell

        ended = _ending(verify_hom_functor, t)
        assert ended == _ending(reference_verify_hom_functor, t)
        if change == "repeat":
            assert isinstance(ended, str)
        else:
            assert [f["x"] for f in ended] == [homfunctor._painting(n, 3 * n).swept[cell].to_json()]

    @pytest.mark.parametrize("fault", ["is nonzero", "vanishes"])
    def test_oracle_off_the_locus_pattern_is_reported(self, fault, monkeypatch):
        """An oracle that is nonzero at a point of the vanishing locus, or
        that vanishes at an outside point off it, fails the locus check at
        exactly that x, with the dimensions there, as the per-x reference
        reports it."""
        n = 4
        t = _representatives(n)[2]
        outside = [x for x in homfunctor._painting(n, 3 * n).swept if not in_fundamental_domain(t, x)]
        target = next(x for x in outside if on_vanishing_locus(t, x) == (fault == "is nonzero"))
        top = (t.top.orbit, t.top.ql)
        honest = homfunctor.oracle_parts

        def planted(n_, c, d, a, b):
            if (a, b) != (target.orbit, target.ql):
                return honest(n_, c, d, a, b)
            return (1, 0) if fault == "is nonzero" and (c, d) == top else (0, 0)

        monkeypatch.setattr(homfunctor, "oracle_parts", planted)
        homfunctor._painting.cache_clear()
        report = verify_hom_functor(t)
        assert report.locus_failures == (f"{target}: oracle {fault} off pattern",)
        assert [f["x"] for f in report.dimension_failures] == [target.to_json()]
        assert report.to_json() == reference_verify_hom_functor(t).to_json()

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_summand_fault_reaches_every_holder(self, n, monkeypatch):
        """One cell dropped from one rigid summand's tube-side cells reaches
        both the dimension failures and the chain strings of every
        representative that holds that summand, at that x alone, as the
        per-x reference reports it; a representative without the summand
        still passes. The summand is the first or the last member of the
        chain there in every holder, so the chain left is a string."""
        representatives = _representatives(n)
        swept = homfunctor._painting(n, 3 * n).swept

        def at_an_end_everywhere(s, cell):
            holders = [t for t in representatives if s in t.summands]
            chains = [(homfunctor._table(t).chain(swept[cell], "T"), t.vertex_of(s)) for t in holders]
            return 0 < len(holders) < len(representatives) and all(
                (v,) in (chain[:1], chain[-1:]) for chain, v in chains
            )

        s, cell = next(
            (s, cell)
            for s in sorted({s for t in representatives for s in t.summands}, key=lambda s: -s.ql)
            for cell in sorted(homfunctor._summand_cells(n, s.orbit, s.ql, 3 * n)[0])
            if not in_fundamental_domain(representatives[0], swept[cell]) and at_an_end_everywhere(s, cell)
        )
        x = swept[cell]
        honest = {t: sigma_string(t, x, "T") for t in representatives}
        _plant(monkeypatch, s, "T", lambda cells: [c for c in cells if c != cell])
        for t in representatives:
            report = verify_hom_functor(t)
            if s not in t.summands:
                assert report.ok, t
                continue
            v, lam = t.vertex_of(s), cached_endomorphism_algebra(t)
            [failure] = report.dimension_failures
            assert failure["x"] == x.to_json()
            assert failure["oracle_dims"][str(v)] - failure["predicted_dims"].get(str(v), 0) == 1
            chain = homfunctor._table(t).chain(x, "T")
            sig = sigma_string(t, x, "T")
            assert v not in chain and sorted(reference_traversed(lam, sig)) == sorted(chain)
            assert failure["sigmaT"] == sig.to_json() != honest[t].to_json()
            assert report.to_json() == reference_verify_hom_functor(t).to_json()

    def test_passing_sweep_calls_both_dimension_hooks(self, monkeypatch):
        """A proved sweep still compares `predicted_dims` with `oracle_dims`
        at the n - 1 points of add tau T of each representative, and nowhere
        else."""
        from tubecat.verify import check_hom_functor

        n = 5
        calls = {"predicted": [], "oracle": []}
        predicted, oracle = homfunctor.predicted_dims, homfunctor.oracle_dims
        monkeypatch.setattr(
            homfunctor, "predicted_dims",
            lambda t, x: calls["predicted"].append((t, x)) or predicted(t, x),
        )
        monkeypatch.setattr(
            homfunctor, "oracle_dims",
            lambda t, x: calls["oracle"].append((t, x)) or oracle(t, x),
        )
        assert all(o.ok for o in check_hom_functor(n))
        representatives = _representatives(n)
        for seen in calls.values():
            assert sorted({t for t, _ in seen}, key=representatives.index) == representatives
            for t in representatives:
                points = [x for u, x in seen if u is t]
                assert sorted(points) == sorted(tau(s, 1) for s in t.summands)


class TestChainPass:
    """The sweep builds each chain string at the first swept cell that needs
    it, in its one walk over the cells."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_each_chain_string_is_built_once(self, n, monkeypatch):
        """One `_chain_string` per distinct non-empty chain painted at a
        swept x off add tau T, and none for any other chain; chain strings
        are fetched only for the sigma of domain points."""
        built, fetched = [], []
        honest, fetch = homfunctor._chain_string, homfunctor.sigma_string

        def counting(table, chain, summands):
            built.append(chain)
            return honest(table, chain, summands)

        monkeypatch.setattr(homfunctor, "_chain_string", counting)
        monkeypatch.setattr(
            homfunctor, "sigma_string", lambda t, x, k: fetched.append(x) or fetch(t, x, k)
        )
        for t in _representatives(n):
            monkeypatch.setattr(homfunctor, "_held", None)
            built.clear()
            fetched.clear()
            assert verify_hom_functor(t).ok
            assert fetched and all(in_fundamental_domain(t, x) for x in fetched)
            table = homfunctor._table(t)
            chains = {
                chain
                for hammock in table.hammocks.values()
                for cell, chain in enumerate(hammock)
                if chain and (cell % n + 1, cell // n + 1) not in table.add_tau
            }
            assert sorted(c for c in built if c) == sorted(chains), t
            assert built.count(()) <= 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pass_walks_only_cells_outside_the_domain(self, n, monkeypatch):
        """On a fresh table the sweep reads a hammock, in sweep order, only
        for a chain that no earlier cell built: at an outside x, each of its
        non-empty chains not yet held, T before D; at a domain point off add
        tau T, each chain of its sigma not yet held. Each distinct non-empty
        chain off add tau T is built exactly once. (On these objects every
        chain painted outside the domain is held by the time its cell is
        swept, so the reads all fall on domain points; a chain painted only
        outside is built, and fails, at its cell in
        `test_unnested_chain_outside_the_domain_fails_its_object`.)"""
        read, built = [], []
        honest_read, honest_build = homfunctor.reverse_hammock, homfunctor._chain_string
        monkeypatch.setattr(
            homfunctor, "reverse_hammock", lambda t, x, k: read.append((x, k)) or honest_read(t, x, k)
        )
        monkeypatch.setattr(
            homfunctor, "_chain_string", lambda table, c, s: built.append(c) or honest_build(table, c, s)
        )
        swept = homfunctor._painting(n, 3 * n).swept
        for t in _representatives(n):
            monkeypatch.setattr(homfunctor, "_held", None)
            read.clear()
            built.clear()
            assert verify_hom_functor(t).ok
            table = homfunctor._table(t)
            first, held = [], set()
            for cell, x in enumerate(swept):
                if (x.orbit, x.ql) in table.add_tau:
                    continue
                inside = in_fundamental_domain(t, x)
                for kind in ("T", "D"):
                    chain = table.hammocks[kind][cell]
                    if chain not in held and (chain or inside):
                        held.add(chain)
                        first.append((x, kind))
            assert read == first, t
            chains = {
                chain
                for hammock in table.hammocks.values()
                for cell, chain in enumerate(hammock)
                if chain and (cell % n + 1, cell // n + 1) not in table.add_tau
            }
            assert sorted(c for c in built if c) == sorted(chains) == sorted(c for c in table.words if c), t

    def test_unnested_chain_outside_the_domain_fails_its_object(self, monkeypatch):
        """A chain painted in reverse at one x outside the fundamental
        domain, and nowhere else, fails the hom-functor outcome of its
        object, and no other, with the detail the per-x fetch gave."""
        from tubecat.verify import check_hom_functor

        n = 4
        victim = _representatives(n)[3]
        honest = homfunctor._ObjectTable.paint
        planted = []

        def paint(table, cap):
            honest(table, cap)
            if table.obj is victim:
                hammock = list(table.hammocks["T"])
                cell = next(
                    cell for cell, chain in enumerate(hammock)
                    if len(chain) >= 2 and not in_fundamental_domain(victim, Indec(n, cell % n + 1, cell // n + 1))
                )
                hammock[cell] = hammock[cell][::-1]
                table.hammocks["T"] = tuple(hammock)
                planted.append(hammock[cell])

        monkeypatch.setattr(homfunctor._ObjectTable, "paint", paint)
        monkeypatch.setattr(homfunctor, "_held", None)
        ended = _ending(verify_hom_functor, victim)
        low, high = (victim.summands[v - 1] for v in planted[0][:2])
        message = f"hammock chain not wing-nested at {low}, {high}"
        assert ended == repr(AssertionError(message))
        monkeypatch.setattr(homfunctor, "_held", None)
        assert _ending(reference_verify_hom_functor, victim) == ended
        failed = [o for o in check_hom_functor(n) if not o.ok]
        assert [(o.subject, o.detail) for o in failed] == [(str(victim), f"error: {message}")]
