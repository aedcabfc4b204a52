"""Helpers that several test modules share and no module of `tubecat`
calls: small enumerations of the tube, the oracle's cluster Hom, the
quasisimple map of a rigid object, the end strings of an algebra and an
algebra with a band."""

from tubecat import strings
from tubecat.endo import LOOP_ID
from tubecat.quiver import Presentation
from tubecat.rigid import RigidObject
from tubecat.strings import StringWord
from tubecat.tube import HomDims, Indec, hom_tube_oracle, in_wing, tau


def rigid_indecomposables(n: int) -> list[Indec]:
    """The n*(n-1) rigid indecomposables, in the kernel's fixed index order."""
    return [Indec(n, a, b) for a in range(1, n + 1) for b in range(1, n)]


def quasisimples(n: int) -> list[Indec]:
    return [Indec(n, a, 1) for a in range(1, n + 1)]


def wing_members(summit: Indec) -> list[Indec]:
    """All indecomposables in the wing of `summit`, top-down, left-right."""
    n = summit.rank
    out = []
    for b in range(summit.ql, 0, -1):
        for a in range(summit.orbit, summit.orbit + summit.ql - b + 1):
            out.append(Indec(n, a, b))
    return out


def hom_cluster_oracle(x: Indec, y: Indec) -> HomDims:
    """Cluster Hom dimensions with both parts taken from the oracle."""
    return HomDims(hom_tube_oracle(x, y), hom_tube_oracle(y, tau(x, 2)))


def quasisimple_map(t: RigidObject) -> dict[Indec, Indec]:
    """Send each quasisimple in the top wing to the summand of smallest
    quasilength whose wing contains it; a bijection onto the summands."""
    top = t.top
    out = {}
    for i in range(top.ql):
        q = Indec(t.rank, top.orbit + i, 1)
        best = min(
            (s for s in t.summands if in_wing(q, s)),
            key=lambda s: s.ql,
        )
        out[q] = best
    return out


def projective_string(p, v: int) -> StringWord:
    """String of the indecomposable projective at v: backwards along one
    maximal relation-free path out of v, then forwards along the other; the
    two paths are the walks of direct letters from v in the letter graph."""
    return strings._end_string(p, strings._letter_graph(p), v, 1)


def injective_string(p, v: int) -> StringWord:
    """String of the indecomposable injective at v: forwards along one
    maximal relation-free path into v, then backwards along the other; the
    inverses of the two paths are the walks of inverse letters from v."""
    return strings._end_string(p, strings._letter_graph(p), v, -1)


def free_loop(p: Presentation) -> Presentation:
    """p without the relations of its loop. At rank 2 the loop is the only
    arrow, so the loop alone is a band."""
    return Presentation(p.quiver, frozenset(r for r in p.relations if LOOP_ID not in r))
