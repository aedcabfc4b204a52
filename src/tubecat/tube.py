"""Coordinates and Hom/Ext combinatorics of the rank-n tube and cluster tube.

Indecomposables are points (orbit, ql) on an infinite cylinder of width n.
The closed-form Hom count lives in `kernel`; `hom_tube_oracle`
recomputes the same dimension from an explicit nilpotent-representation
model and is the ground truth the closed form is validated against. The
oracle is the nullity of the model's commutation system. Each row of that
system equates two unknowns or sets one unknown to zero, so over any field
the nullity is the number of connected components of the graph of equated
unknowns that hold no zero-row. The systems for X = (0, b) and Y of growing
quasilength with a fixed top vertex nest, so each such family is solved by
one pass, `_solve`, over the columns of Y: it numbers each column's
unknowns by arithmetic (the column's first id plus the index's distance
from the column's lowest index, divided by n, since the index in X steps by
n), joins them by union-find, and yields the nullity after each column.
The solver is kept suspended between requests and resumed where it
stopped, and one reader, `_family`, extends a family and returns its list
of nullities, so every column of a family is solved once; `_oracle_dim`
reads one entry of it. The oracle uses nothing from `kernel` and no
closed-form reasoning about the tube.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from typing import Iterator, NamedTuple

from tubecat import kernel


@dataclass(frozen=True, order=True)
class Indec:
    """An indecomposable object: orbit coordinate (mod rank) and quasilength."""

    rank: int
    orbit: int
    ql: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")
        if self.ql < 1:
            raise ValueError(f"quasilength must be >= 1, got {self.ql}")
        orb = (self.orbit - 1) % self.rank + 1
        if orb != self.orbit:
            object.__setattr__(self, "orbit", orb)

    def to_json(self) -> list[int]:
        return [self.orbit, self.ql]

    @classmethod
    def from_json(cls, rank: int, data) -> "Indec":
        a, b = data
        return cls(rank, int(a), int(b))

    def __str__(self):
        return f"({self.orbit},{self.ql})"


class HomDims(NamedTuple):
    """Dimensions of the two summands of a cluster-category Hom space."""

    t_dim: int
    d_dim: int

    @property
    def total(self) -> int:
        return self.t_dim + self.d_dim


def _same_rank(x: Indec, y: Indec) -> int:
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} != {y.rank}")
    return x.rank


def tau(x: Indec, k: int = 1) -> Indec:
    """k-th power of the translate: (a, b) -> (a - k, b). Negative k allowed."""
    return Indec(x.rank, (x.orbit - k - 1) % x.rank + 1, x.ql)


def hom_tube(x: Indec, y: Indec) -> int:
    """dim Hom(x, y) in the tube, by the closed-form count."""
    n = _same_rank(x, y)
    return kernel.hom_tube_dim(n, x.orbit, x.ql, y.orbit, y.ql)


def hom_cluster(x: Indec, y: Indec) -> HomDims:
    """Cluster-category Hom dimensions: tube maps plus shifted-part maps.

    The shifted part has the dimension of the tube Hom from y to the second
    translate of x.
    """
    n = _same_rank(x, y)
    return HomDims(*kernel.cluster_dims(n, x.orbit, x.ql, y.orbit, y.ql))


def ext1_cluster(x: Indec, y: Indec) -> int:
    """dim Ext^1 in the cluster tube; equals the total Hom from y to tau(x)."""
    n = _same_rank(x, y)
    return kernel.ext1_dim(n, x.orbit, x.ql, y.orbit, y.ql)


def is_compatible(x: Indec, y: Indec) -> bool:
    """True iff Ext^1 vanishes in both directions."""
    n = _same_rank(x, y)
    return kernel.pair_compatible(n, x.orbit, x.ql, y.orbit, y.ql)


def has_D_endomorphism(x: Indec) -> bool:
    """True iff x admits a shifted-part endomorphism; equivalent to ql >= n - 1."""
    return hom_tube(x, tau(x, 2)) > 0


def is_rigid(x: Indec) -> bool:
    return x.ql <= x.rank - 1


# --- wings ---------------------------------------------------------------

def lift_orbit(n: int, orbit: int, base: int) -> int:
    """Representative of `orbit` in the integer window [base, base + n - 1]."""
    return base + (orbit - base) % n


def in_wing(x: Indec, summit: Indec) -> bool:
    """Wing membership, with the orbit of x lifted across the mod-n seam.

    Wings are only defined below summits of quasilength <= n - 1, so the
    lift into a window of width n is unambiguous.
    """
    n = _same_rank(x, summit)
    if summit.ql > n - 1:
        raise ValueError(f"wing summit must have quasilength <= {n - 1}")
    a = lift_orbit(n, x.orbit, summit.orbit)
    return a + x.ql <= summit.orbit + summit.ql


# --- independent linear-algebra oracle -----------------------------------

def hom_tube_oracle(x: Indec, y: Indec) -> int:
    """dim Hom(x, y) computed from explicit nilpotent representations.

    Models (a, b) as the uniserial representation of the cyclic quiver with
    arrows q -> q-1 whose socle sits at vertex a: basis e_0, ..., e_{b-1}
    graded by vertices a+b-1, ..., a, with the arrow action shifting the
    grading down. The Hom dimension is the nullity of the linear system of
    commutation equations. Depends on the input only through (b, d, c - a
    mod n), which the cache key exploits; systems with the same b and the
    same top vertex c + d mod n nest and are solved together as one family,
    by one union-find and without any closed form.
    """
    n = _same_rank(x, y)
    return _oracle_dim(n, x.ql, y.ql, (y.orbit - x.orbit) % n)


# Each started family (n, b, top): the nullities found so far, for d = 1,
# 2, ..., and its suspended solver; see `_family`.
_families: dict[tuple[int, int, int], tuple[list[int], Iterator[int]]] = {}


@lru_cache(maxsize=None)
def _oracle_dim(n: int, b: int, d: int, shift: int) -> int:
    """Nullity of the commutation system for X = (0, b) and Y = (shift, d):
    one entry of the family (n, b, (shift + d) mod n), read by `_family`.

    The unknowns are the entries (i, j) of a graded map with e^X_i and e^Y_j
    at the same vertex. Each row says that the map commutes with one arrow
    at one basis vector: the arrow sends e^X_i to e^X_{i+1} and e^Y_{m-1}
    to e^Y_m, so the row equates the unknowns (i + 1, m) and (i, m - 1), or
    sets the one that exists to zero when the other index falls off its
    basis. A system of such rows is solved by exactly the assignments that
    are constant on each connected component of the graph joining equated
    unknowns and zero on every component holding a zero-row, over any
    field; `_solve` counts the free components.

    The systems nest. The vertex of e^Y_j is (shift + d - 1 - j) mod n,
    which depends only on the top t = (shift + d) mod n and on j. Fix n, b
    and t and let d grow: the system for d + 1 is the system for d plus the
    unknowns (i, d) and the rows at m = d, and no earlier unknown or row
    changes. So one pass over the columns m = 0, 1, ... gives the nullity
    for every d. The cache serves the repeated one-key reads of the sweep
    and the calibration; a caller that wants a whole family reads it from
    `_family` at once.
    """
    return _family(n, b, (shift + d) % n, d)[d - 1]


def _family(n: int, b: int, top: int, d: int) -> list[int]:
    """The nullities of the family (n, b, top) for Y of quasilength 1, 2,
    ..., at least d, in order: the family's own list, which the caller
    must not change.

    The family keeps the nullities it has found and its solver, suspended
    after the last column it solved; a shorter list resumes the solver
    until it has d entries. Every column of every family is thus solved
    exactly once, whatever the order of requests.
    """
    if b < 1 or d < 1:
        raise ValueError(f"quasilengths must be >= 1, got b={b}, d={d}")
    state = _families.get((n, b, top))
    if state is None:
        state = _families[n, b, top] = ([], _solve(n, b, top))
    dims, solver = state
    if len(dims) < d:
        dims.extend(islice(solver, d - len(dims)))
    return dims


def _solve(n: int, b: int, top: int) -> Iterator[int]:
    """The nullity of the commutation system of X = (0, b) against Y with
    top vertex `top` (vertex of e^Y_j is (top - 1 - j) mod n) after each
    column m of Y, without end.

    The unknowns of column m are the (i, m) with e^X_i at the vertex of
    e^Y_m, that is i in range(lowest, b, n) for lowest = (b - 1 - vy) % n,
    numbered in that order after those of the earlier columns. So the id of
    (i, m) is the column's first id plus (i - lowest) // n, and a row at m,
    which names unknowns of columns m and m - 1 only, reads both ids from
    those two columns' first ids and lowest indices.

    A solution is constant on each connected component of the graph whose
    edges are the equating rows, and zero on each component that holds a
    zero-row; any such assignment is a solution. So the nullity is the
    number of components without a zero-row. Union-find with path halving
    keeps the components and a count of the free ones: a new unknown adds
    one, a zero-row on a free root removes one, and joining two distinct
    roots removes one unless both are grounded. The forest is held in an
    `array` and the grounded flags in a `bytearray`, since a family's
    solver stays alive between requests. That the nullities are those of
    the explicit system is checked in `tests/test_tube.py`.
    """
    parent = array("i")
    grounded = bytearray()
    free = 0
    first = lowest = 0
    for m in count():
        vy = (top - 1 - m) % n  # vertex of e^Y_m; e^X_i sits at (b - 1 - i) mod n
        previous, below = first, lowest  # column m - 1
        first, lowest = len(parent), (b - 1 - vy) % n
        new = len(range(lowest, b, n))
        parent.extend(range(first, first + new))
        grounded.extend(bytes(new))
        free += new
        for i in range((b - 2 - vy) % n, b, n):  # e^X_i at vy + 1
            # The row equates (i + 1, m) and (i, m - 1); -1 marks the one
            # that does not exist, and the row then sets the other to zero.
            u = first + (i + 1 - lowest) // n if i + 1 < b else -1
            v = previous + (i - below) // n if m else -1
            if u < 0:
                if v < 0:
                    continue
                u, v = v, u
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            if v < 0:
                if not grounded[u]:
                    grounded[u] = 1
                    free -= 1
                continue
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[v] = u
                if not (grounded[u] and grounded[v]):
                    free -= 1
                    grounded[u] = grounded[u] or grounded[v]
        yield free


def indecomposables_up_to(n: int, ql_cap: int) -> Iterator[Indec]:
    for a in range(1, n + 1):
        for b in range(1, ql_cap + 1):
            yield Indec(n, a, b)
