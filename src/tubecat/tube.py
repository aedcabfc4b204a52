"""Coordinates and Hom/Ext combinatorics of the rank-n tube and cluster tube.

Indecomposables are points (orbit, ql) on an infinite cylinder of width n.
The closed-form Hom count lives in `kernel`; `hom_tube_oracle`
recomputes the same dimension from an explicit nilpotent-representation
model and is the ground truth the closed form is validated against. The
oracle is the nullity of the model's commutation system. Each row of that
system equates two unknowns or sets one unknown to zero, so over any field
the nullity is the number of connected components of the graph of equated
unknowns that hold no zero-row; union-find counts them (see `_oracle_dim`).
The oracle uses nothing from `kernel` and no closed-form reasoning about
the tube.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

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


def rigid_indecomposables(n: int) -> list[Indec]:
    """The n*(n-1) rigid indecomposables, in the kernel's fixed index order."""
    return [Indec(n, a, b) for a in range(1, n + 1) for b in range(1, n)]


def quasisimples(n: int) -> list[Indec]:
    return [Indec(n, a, 1) for a in range(1, n + 1)]


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


def wing_members(summit: Indec) -> list[Indec]:
    """All indecomposables in the wing of `summit`, top-down, left-right."""
    n = summit.rank
    out = []
    for b in range(summit.ql, 0, -1):
        for a in range(summit.orbit, summit.orbit + summit.ql - b + 1):
            out.append(Indec(n, a, b))
    return out


# --- independent linear-algebra oracle -----------------------------------

def hom_tube_oracle(x: Indec, y: Indec) -> int:
    """dim Hom(x, y) computed from explicit nilpotent representations.

    Models (a, b) as the uniserial representation of the cyclic quiver with
    arrows q -> q-1 whose socle sits at vertex a: basis e_0, ..., e_{b-1}
    graded by vertices a+b-1, ..., a, with the arrow action shifting the
    grading down. The Hom dimension is the nullity of the linear system of
    commutation equations. Depends on the input only through (b, d, c - a
    mod n), which the cache key exploits.
    """
    n = _same_rank(x, y)
    return _oracle_dim(n, x.ql, y.ql, (y.orbit - x.orbit) % n)


@lru_cache(maxsize=None)
def _oracle_dim(n: int, b: int, d: int, shift: int) -> int:
    """Nullity of the commutation system for X = (0, b) and Y = (shift, d).

    The unknowns are the entries (i, j) of a graded map with e^X_i and e^Y_j
    at the same vertex, found by joining each vertex to the Y slots there.
    Each row says that the map commutes with one arrow at one basis vector:
    the arrow sends e^X_i to e^X_{i+1} and e^Y_m to e^Y_{m-1}, so the row
    equates the unknowns (i + 1, m) and (i, m - 1), or sets the one that
    exists to zero when the other index falls off its basis. A system of
    such rows is solved by exactly the assignments that are constant on
    each connected component of the graph joining equated unknowns and
    zero on every component holding a zero-row, over any field; `_nullity`
    counts the free components.
    """
    vx = [(b - 1 - i) % n for i in range(b)]        # vertex of e^X_i, orbit a = 0
    vy = [(shift + d - 1 - j) % n for j in range(d)]  # vertex of e^Y_j
    slots: dict[int, list[int]] = {}
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
    return _nullity(len(unknowns), rows)


def _nullity(size: int, rows: Iterable[tuple[int, ...]]) -> int:
    """Dimension of the solutions in k^size of rows x_u = x_v, given as
    (u, v), and x_u = 0, given as (u,), over any field k.

    A solution is constant on each connected component of the graph whose
    edges are the equating rows, and zero on each component that holds a
    zero-row; any such assignment is a solution. So the nullity is the
    number of components without a zero-row, found by union-find with
    path halving.
    """
    parent = list(range(size))
    grounded = [False] * size
    for row in rows:
        u = row[0]
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        if len(row) == 1:
            grounded[u] = True
            continue
        v = row[1]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[v] = u
            grounded[u] = grounded[u] or grounded[v]
    return sum(1 for u in range(size) if parent[u] == u and not grounded[u])


def hom_cluster_oracle(x: Indec, y: Indec) -> HomDims:
    """Cluster Hom dimensions with both parts taken from the oracle."""
    return HomDims(hom_tube_oracle(x, y), hom_tube_oracle(y, tau(x, 2)))


def indecomposables_up_to(n: int, ql_cap: int) -> Iterator[Indec]:
    for a in range(1, n + 1):
        for b in range(1, ql_cap + 1):
            yield Indec(n, a, b)
