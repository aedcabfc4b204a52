"""Tube coordinate and Hom/Ext dimension tests.

Expected values marked as oracle-derived were computed by running
hom_tube_oracle (the nilpotent-representation model) and frozen here.
"""

import ast
import hashlib
import inspect
import json
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tubecat import tube
from tubecat.verify import check_oracle
from tubecat.tube import (
    HomDims,
    Indec,
    ext1_cluster,
    has_D_endomorphism,
    hom_cluster,
    hom_tube,
    hom_tube_oracle,
    in_wing,
    indecomposables_up_to,
    is_compatible,
    is_rigid,
    lift_orbit,
    tau,
    _oracle_dim,
)

from support import (
    columns,
    hom_cluster_oracle,
    nullities,
    quasisimples,
    reference_columns,
    rigid_indecomposables,
    wing_members,
)

small_rank = hst.integers(min_value=2, max_value=6)


@hst.composite
def indec(draw, max_ql_factor=3):
    n = draw(small_rank)
    a = draw(hst.integers(min_value=1, max_value=n))
    b = draw(hst.integers(min_value=1, max_value=max_ql_factor * n))
    return Indec(n, a, b)


class TestIndec:
    def test_orbit_normalized(self):
        assert Indec(4, 5, 2) == Indec(4, 1, 2)
        assert Indec(4, 0, 2) == Indec(4, 4, 2)
        assert Indec(4, -3, 2) == Indec(4, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Indec(1, 1, 1)
        with pytest.raises(ValueError):
            Indec(3, 1, 0)

    def test_json_roundtrip(self):
        x = Indec(5, 3, 7)
        assert x.to_json() == [3, 7]
        assert Indec.from_json(5, x.to_json()) == x

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hom_tube(Indec(3, 1, 1), Indec(4, 1, 1))


class TestTau:
    def test_coordinate_shift(self):
        assert tau(Indec(4, 1, 3), 1) == Indec(4, 4, 3)
        assert tau(Indec(4, 2, 5), -2) == Indec(4, 4, 5)

    def test_order_n_on_orbits(self):
        assert tau(Indec(3, 1, 1), 3) == Indec(3, 1, 1)

    @given(indec(), hst.integers(-9, 9), hst.integers(-9, 9))
    def test_group_action(self, x, j, k):
        assert tau(x, 0) == x
        assert tau(tau(x, j), k) == tau(x, j + k)


class TestHomTube:
    def test_oracle_derived_values(self):
        assert hom_tube(Indec(4, 1, 2), Indec(4, 1, 3)) == 1
        assert hom_tube(Indec(3, 1, 2), Indec(3, 2, 2)) == 1

    def test_rigid_objects_have_no_map_to_translate(self):
        for n in range(2, 6):
            for a in range(1, n + 1):
                for b in range(1, n):
                    x = Indec(n, a, b)
                    assert hom_tube(x, tau(x, 1)) == 0

    def test_oracle_examples(self):
        assert hom_tube_oracle(Indec(4, 1, 1), Indec(4, 3, 1)) == 0
        assert hom_tube_oracle(Indec(2, 1, 1), Indec(2, 1, 1)) == 1
        assert hom_tube_oracle(Indec(3, 1, 3), Indec(3, 2, 2)) == 1

    def test_oracle_calibration_contracts(self):
        for n in range(2, 7):
            for a in range(1, n + 1):
                for b in range(1, n):
                    x = Indec(n, a, b)
                    assert hom_tube_oracle(x, Indec(n, a, b + 1)) == 1
                    if b >= 2:
                        assert hom_tube_oracle(x, Indec(n, a + 1, b - 1)) == 1
                    assert hom_tube_oracle(x, Indec(n, a - 1, b)) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_agreement_small(self, n):
        xs = list(indecomposables_up_to(n, 3 * n))
        for x in xs:
            for y in xs:
                assert hom_tube(x, y) == hom_tube_oracle(x, y), (x, y)

    @given(indec(), hst.integers(-6, 6))
    @settings(max_examples=200)
    def test_tau_equivariance(self, x, k):
        y = Indec(x.rank, (x.orbit * 2) % x.rank + 1, max(1, x.ql - 1))
        assert hom_tube(x, y) == hom_tube(tau(x, k), tau(y, k))

    def test_one_dimensionality_up_to_rank(self):
        for n in range(2, 6):
            xs = list(indecomposables_up_to(n, n))
            for x in xs:
                for y in xs:
                    assert hom_tube(x, y) <= 1


def _oracle_keys():
    """n in 2..6 with b, d in 1..3n, plus n = 5 with b, d in 1..30."""
    keys = {
        (n, b, d, s)
        for n in range(2, 7)
        for b in range(1, 3 * n + 1)
        for d in range(1, 3 * n + 1)
        for s in range(n)
    }
    keys |= {
        (5, b, d, s) for b in range(1, 31) for d in range(1, 31) for s in range(5)
    }
    return sorted(keys)


def _clear_oracle_memos():
    _oracle_dim.cache_clear()
    tube._families.clear()


def reference_oracle_dim(n, b, d, shift):
    """The oracle's system for one key, built on its own: the per-key
    construction that the nested families replaced."""
    vx = [(b - 1 - i) % n for i in range(b)]        # vertex of e^X_i, orbit a = 0
    vy = [(shift + d - 1 - j) % n for j in range(d)]  # vertex of e^Y_j
    slots = {}
    for j, v in enumerate(vy):
        slots.setdefault(v, []).append(j)

    unknowns = {}
    for i, v in enumerate(vx):
        for j in slots.get(v, ()):
            unknowns[(i, j)] = len(unknowns)
    if not unknowns:
        return 0

    rows = []
    for i in range(b):
        for m in slots.get((vx[i] - 1) % n, ()):
            row = ()
            if i + 1 < b:
                row = (unknowns[(i + 1, m)],)
            if m >= 1:
                row += (unknowns[(i, m - 1)],)
            if row:
                rows.append(row)
    return _one_step(len(unknowns), rows)


def _one_step(size, rows):
    """Nullity of one system, solved as a single step."""
    return next(nullities([(size, rows)]))


def commutation_nullity(n, b, top, d):
    """dim Hom(X, Y) for X = (0, b) and Y of quasilength d with top vertex
    `top`, as the nullity of the written-out commutation matrix, by exact
    rank. In the model of `hom_tube_oracle` the arrow sends e_j to e_{j+1}
    in both, and f(e^X_i) = sum of f[i, j] e^Y_j over the e^Y_j at the
    vertex of e^X_i; one row per (i, j) is the coefficient of e^Y_j in
    f(arrow e^X_i) - arrow f(e^X_i)."""
    vx = [(b - 1 - i) % n for i in range(b)]
    vy = [(top - 1 - j) % n for j in range(d)]
    pairs = [(i, j) for i in range(b) for j in range(d) if vx[i] == vy[j]]
    if not pairs:
        return 0
    unknown = {pair: k for k, pair in enumerate(pairs)}
    matrix = []
    for i in range(b):
        for j in range(d):
            row = [0] * len(pairs)
            if (i + 1, j) in unknown:
                row[unknown[i + 1, j]] += 1
            if (i, j - 1) in unknown:
                row[unknown[i, j - 1]] -= 1
            matrix.append(row)
    return len(pairs) - _rational_rank(matrix)


def _rational_rank(matrix):
    m = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [u - f * v for u, v in zip(m[r], m[rank])]
        rank += 1
    return rank


@hst.composite
def equality_system(draw):
    """(size, rows) over at most 8 unknowns: rows (u, v) for x_u = x_v,
    self-equalities included, and (u,) for x_u = 0, with some rows
    repeated and a cycle through some of the unknowns."""
    size = draw(hst.integers(0, 8))
    if size == 0:
        return 0, []
    unknown = hst.integers(0, size - 1)
    rows = draw(hst.lists(
        hst.one_of(hst.tuples(unknown, unknown), hst.tuples(unknown)), max_size=10
    ))
    cycle = draw(hst.lists(unknown, unique=True, max_size=size))
    rows += [(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    if rows:
        rows += draw(hst.lists(hst.sampled_from(rows), max_size=3))
    return size, draw(hst.permutations(rows))


@hst.composite
def growing_system(draw):
    """An `equality_system` cut into steps (new unknowns, rows): each row
    comes at or after the step that adds the unknowns it names, and steps
    may add no unknown or no row."""
    size, rows = draw(equality_system())
    cuts = sorted(draw(hst.lists(hst.integers(0, size), max_size=4)) + [size])
    sizes = [b - a for a, b in zip([0] + cuts, cuts)]
    step_rows = [[] for _ in cuts]
    for row in rows:
        first = next(k for k, c in enumerate(cuts) if max(row) < c)
        step_rows[draw(hst.integers(first, len(cuts) - 1))].append(row)
    return list(zip(sizes, step_rows))


def _coefficient_row(size, row):
    """The row as a vector: e_u - e_v for (u, v), e_u for (u,)."""
    vector = [0] * size
    vector[row[0]] += 1
    if len(row) == 2:
        vector[row[1]] -= 1
    return vector


def _references(tree, roots):
    """Every name and attribute read by the top-level functions `roots` of
    a module and by the top-level functions they name, transitively."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    seen, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if node.id in functions:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names | seen


class TestOracle:
    def test_table_pinned_to_dense_reference(self):
        # Digest of the oracle table as computed by the earlier dense
        # row reduction; recomputed here from cleared memos.
        _clear_oracle_memos()
        data = [[*key, _oracle_dim(*key)] for key in _oracle_keys()]
        assert len(data) == 7335
        digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
        assert digest == "061273862ceb7942a235aba3f1fa5c0ca0f0371153133a381a461caaa97c8587"

    def test_families_equal_per_key_systems(self):
        _clear_oracle_memos()
        for n in range(2, 9):
            for b in range(1, 25):
                for d in range(1, 25):
                    for s in range(n):
                        assert _oracle_dim(n, b, d, s) == reference_oracle_dim(
                            n, b, d, s
                        ), (n, b, d, s)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_order_of_requests_is_irrelevant(self, n):
        # Descending requests solve each family to its longest at once;
        # ascending ones resume it one column at a time.
        keys = [(n, b, d, s) for b in (1, 2, n, 2 * n + 1) for s in range(n)
                for d in range(1, 41)]
        _clear_oracle_memos()
        ascending = [_oracle_dim(*key) for key in keys]
        _clear_oracle_memos()
        descending = [_oracle_dim(*key) for key in reversed(keys)][::-1]
        assert ascending == descending
        assert ascending == [reference_oracle_dim(*key) for key in keys]

    def test_each_family_solved_once(self, monkeypatch):
        starts, pulled = {}, []
        solve = tube._solve

        def counted(n, b, top):
            starts[n, b, top] = starts.get((n, b, top), 0) + 1
            for nullity in solve(n, b, top):
                pulled.append((n, b, top))
                yield nullity

        monkeypatch.setattr(tube, "_solve", counted)
        _clear_oracle_memos()
        assert all(outcome.ok for outcome in check_oracle(5, 30))
        assert len(starts) == 150  # b <= 30, five top vertices
        assert set(starts.values()) == {1}
        assert len(pulled) == 4500  # 30 columns per family, each once
        assert all(len(dims) == 30 for dims, _ in tube._families.values())
        # One-key reads in any order, as the sweep makes, solve nothing more.
        for key in reversed(_oracle_keys()):
            if key[0] == 5 and key[1] <= 30 and key[2] <= 30:
                _oracle_dim(*key)
        assert len(starts) == 150 and len(pulled) == 4500

    @pytest.mark.parametrize(
        "n, b_max, length",
        [(n, 3 * n + 1, 3 * n + 1) for n in range(2, 9)] + [(5, 30, 30)],
    )
    def test_columns_equal_the_per_column_tables(self, n, b_max, length):
        # Over the first `length` columns of every family with b <= b_max,
        # the one solver's nullities equal the former pair's, whose ids by
        # arithmetic equal those of a dict per column; (5, 30, 30) is every
        # family that `check_oracle(5, 30)` solves, to its last column.
        for b in range(1, b_max + 1):
            for top in range(n):
                steps = list(islice(columns(n, b, top), length))
                assert steps == list(islice(reference_columns(n, b, top), length)), (b, top)
                assert list(islice(tube._solve(n, b, top), length)) == list(nullities(steps)), (b, top)

    def test_rejects_quasilength_below_one(self):
        # A d below 1 once read the last solved entry through dims[-1].
        _clear_oracle_memos()
        assert _oracle_dim(3, 2, 3, 0) == reference_oracle_dim(3, 2, 3, 0)
        for key in [(3, 2, 0, 0), (3, 0, 3, 0), (3, -1, 2, 1), (3, 2, -3, 0)]:
            with pytest.raises(ValueError, match="quasilengths must be >= 1"):
                _oracle_dim(*key)
        with pytest.raises(ValueError, match="quasilengths must be >= 1"):
            tube._family(3, 0, 0, 3)
        assert _oracle_dim.cache_info().currsize == 1
        assert list(tube._families) == [(3, 2, 0)]

    @given(growing_system())
    @settings(max_examples=300)
    def test_nullity_matches_rational_rank(self, steps):
        size, rows = 0, []
        for nullity, (new, step_rows) in zip(nullities(steps), steps):
            size += new
            rows += step_rows
            matrix = [_coefficient_row(size, row) for row in rows]
            assert nullity == size - _rational_rank(matrix)

    @given(hst.data())
    @settings(max_examples=100, deadline=None)
    def test_solver_matches_rational_rank(self, data):
        # Every prefix of a family against its explicit matrix, by exact rank.
        n = data.draw(hst.integers(2, 5))
        b, d = data.draw(hst.integers(1, 2 * n + 1)), data.draw(hst.integers(1, 2 * n + 1))
        top = data.draw(hst.integers(0, n - 1))
        assert list(islice(tube._solve(n, b, top), d)) == [
            commutation_nullity(n, b, top, k) for k in range(1, d + 1)
        ]

    def test_nullity_examples(self):
        assert _one_step(0, []) == 0
        assert _one_step(3, []) == 3  # isolated unknowns are free
        assert _one_step(3, [(0, 1), (1, 2), (2, 0)]) == 1  # a cycle
        assert _one_step(3, [(0, 1), (1, 2), (2,)]) == 0  # a grounded chain
        # Two components, one of them grounded.
        assert _one_step(4, [(0, 1), (2, 3), (3,), (3,)]) == 1
        # Two grounded components joined stay one grounded component.
        assert _one_step(4, [(0,), (1,), (2, 3), (0, 1), (1, 3)]) == 0

    def test_oracle_independent_of_closed_forms(self):
        tree = ast.parse(inspect.getsource(tube))
        forbidden = {"kernel", "hom_tube", "hom_cluster", "ext1_cluster"}
        used = _references(tree, ["hom_tube_oracle", "_oracle_dim", "_family"])
        assert {"_oracle_dim", "_family", "_solve", "_same_rank"} <= used
        assert not used & forbidden, used & forbidden
        # The scan sees a closed form's use of the kernel.
        assert "kernel" in _references(tree, ["hom_tube"])


class TestHomCluster:
    def test_quasisimple_endomorphisms(self):
        assert hom_cluster(Indec(4, 1, 1), Indec(4, 1, 1)) == HomDims(1, 0)

    def test_top_summand_both_parts(self):
        for n in range(2, 7):
            x = Indec(n, 1, n - 1)
            dims = hom_cluster(x, x)
            assert dims == HomDims(1, 1)
            assert dims.total == 2

    def test_two_dimensional_space_at_rank_three(self):
        assert hom_cluster(Indec(3, 1, 1), Indec(3, 1, 2)).total == 2

    def test_matches_oracle_version(self):
        for n in (2, 3, 4):
            xs = list(indecomposables_up_to(n, 2 * n))
            for x in xs:
                for y in xs:
                    assert hom_cluster(x, y) == hom_cluster_oracle(x, y)


class TestExtAndCompatibility:
    def test_summand_pair_has_no_extension(self):
        assert ext1_cluster(Indec(3, 1, 1), Indec(3, 1, 2)) == 0

    def test_full_quasilength_never_rigid(self):
        for n in range(2, 7):
            for a in range(1, n + 1):
                x = Indec(n, a, n)
                assert ext1_cluster(x, x) > 0

    def test_symmetry_exhaustive_small(self):
        for n in (2, 3, 4):
            xs = list(indecomposables_up_to(n, 2 * n))
            for x in xs:
                for y in xs:
                    assert ext1_cluster(x, y) == ext1_cluster(y, x)

    @given(indec(), indec())
    @settings(max_examples=300)
    def test_symmetry_property(self, x, y):
        if x.rank != y.rank:
            y = Indec(x.rank, y.orbit, y.ql)
        assert ext1_cluster(x, y) == ext1_cluster(y, x)

    def test_compatibility_examples(self):
        assert is_compatible(Indec(3, 1, 2), Indec(3, 1, 1))
        assert is_compatible(Indec(3, 1, 2), Indec(3, 2, 1))
        for n in (2, 3, 4):
            x = Indec(n, 1, n)
            assert not is_compatible(x, x)

    def test_matches_tube_level_criterion(self):
        for n in (2, 3, 4, 5):
            for x in rigid_indecomposables(n):
                for y in rigid_indecomposables(n):
                    tube_level = (
                        hom_tube(y, tau(x, 1)) == 0 and hom_tube(x, tau(y, 1)) == 0
                    )
                    assert is_compatible(x, y) == tube_level


class TestDEndomorphisms:
    def test_stated_examples(self):
        assert has_D_endomorphism(Indec(5, 2, 4))
        assert not has_D_endomorphism(Indec(5, 2, 3))
        assert has_D_endomorphism(Indec(2, 1, 1))

    def test_quasilength_equivalence_exhaustive(self):
        for n in range(2, 7):
            for x in indecomposables_up_to(n, 3 * n):
                assert has_D_endomorphism(x) == (x.ql >= n - 1), x


class TestWings:
    def test_members_of_small_wing(self):
        w = wing_members(Indec(3, 1, 2))
        assert w == [Indec(3, 1, 2), Indec(3, 1, 1), Indec(3, 2, 1)]

    def test_membership_across_seam(self):
        summit = Indec(4, 3, 3)
        assert in_wing(Indec(4, 1, 1), summit)  # orbit 1 lifts to 5
        assert in_wing(Indec(4, 4, 2), summit)
        assert not in_wing(Indec(4, 2, 1), summit)

    def test_summit_in_own_wing(self):
        for n in (2, 3, 5):
            for x in rigid_indecomposables(n):
                assert in_wing(x, x)

    def test_wing_needs_rigid_summit(self):
        with pytest.raises(ValueError):
            in_wing(Indec(3, 1, 1), Indec(3, 1, 3))

    def test_lift_orbit_window(self):
        assert lift_orbit(4, 1, 3) == 5
        assert lift_orbit(4, 3, 3) == 3
        assert lift_orbit(4, 2, 3) == 6

    def test_quasisimples(self):
        assert quasisimples(3) == [Indec(3, 1, 1), Indec(3, 2, 1), Indec(3, 3, 1)]

    def test_rigid_count(self):
        for n in range(2, 8):
            xs = rigid_indecomposables(n)
            assert len(xs) == n * (n - 1)
            assert all(is_rigid(x) for x in xs)
