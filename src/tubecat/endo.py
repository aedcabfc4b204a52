"""Endomorphism presentations of maximal rigid objects.

Builds the tilted presentation from the subwing triples, completes relation
paths to 3-cycles, and adjoins the squared-zero loop at the top vertex.
The Cartan check validates the result against cluster-Hom dimensions
computed independently, entry by entry.

Arrow direction follows the opposite-algebra convention throughout: a map
from summand j to summand i yields the arrow i -> j, so paths i -> j pair
with Hom(T_j, T_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from tubecat.quiver import Arrow, Presentation, Quiver, count_paths, to_dot
from tubecat.rigid import RigidObject, subwing_decomposition, tilting_intervals
from tubecat.tube import hom_cluster

LOOP_ID = "w"


def _t_arrow(i: int, j: int) -> Arrow:
    return Arrow(f"a{i}_{j}", i, j, "T")


def tilted_algebra(t: RigidObject) -> Presentation:
    """Quiver with relations on the summand vertices, from the triples.

    A non-degenerate triple at vertex i with left child j and right child k
    contributes arrows i -> j and k -> i and the zero relation of their
    composition; a degenerate triple contributes its single arrow.
    """
    n = t.rank
    vertices = tuple(range(1, n))
    arrows: list[Arrow] = []
    relations: set[tuple[str, str]] = set()
    vertex = {s: v for v, s in enumerate(t.summands, start=1)}
    for summand, triple in subwing_decomposition(t).items():  # in summand order
        i = vertex[summand]
        left = vertex[triple.left] if triple.left is not None else None
        right = vertex[triple.right] if triple.right is not None else None
        if left is not None:
            arrows.append(_t_arrow(i, left))
        if right is not None:
            arrows.append(_t_arrow(right, i))
        if left is not None and right is not None:
            relations.add((arrows[-2].id, arrows[-1].id))
    return Presentation(Quiver(vertices, tuple(arrows)), frozenset(relations))


def cluster_tilted_completion(g: Presentation) -> Presentation:
    """Insert one arrow from the end to the start of every relation path and
    replace the relations by all consecutive pairs around the new 3-cycles."""
    arrows = list(g.quiver.arrows)
    relations: set[tuple[str, str]] = set()
    for second, first in sorted(g.relations):
        start = g.quiver.arrow(first).src
        end = g.quiver.arrow(second).tgt
        new = Arrow(f"b{end}_{start}", end, start, "D")
        arrows.append(new)
        relations.add((second, first))
        relations.add((new.id, second))
        relations.add((first, new.id))
    return Presentation(Quiver(g.quiver.vertices, tuple(arrows)), frozenset(relations))


def endomorphism_algebra(t: RigidObject, completed: Presentation | None = None) -> Presentation:
    """Completion of the tilted presentation plus a squared-zero loop at the
    top vertex. Arrow kinds: "T" from triples, "D" from completion, "loop".
    `completed`, when given, is that completion, already built for t."""
    completed = completed or cluster_tilted_completion(tilted_algebra(t))
    top = t.vertex_of(t.top)
    arrows = completed.quiver.arrows + (Arrow(LOOP_ID, top, top, "loop"),)
    relations = completed.relations | {(LOOP_ID, LOOP_ID)}
    return Presentation(Quiver(completed.quiver.vertices, arrows), frozenset(relations))


@lru_cache(maxsize=None)
def cached_endomorphism_algebra(t: RigidObject) -> Presentation:
    return endomorphism_algebra(t)


def loopless_quiver(p: Presentation) -> tuple[Quiver, int]:
    """The quiver with the loop removed, and the loop vertex."""
    loops = [a for a in p.quiver.arrows if a.kind == "loop"]
    if len(loops) != 1:
        raise ValueError("expected exactly one loop arrow")
    arrows = tuple(a for a in p.quiver.arrows if a.kind != "loop")
    return Quiver(p.quiver.vertices, arrows), loops[0].src


# --- Cartan check -----------------------------------------------------------

@dataclass(frozen=True)
class CartanReport:
    ok: bool
    mismatches: tuple[tuple[int, int, int, int], ...]  # (i, j, paths, hom)
    total_paths: int
    total_hom: int


def cartan_check(t: RigidObject) -> CartanReport:
    """Path counts i -> j must equal cluster-Hom dimensions Hom(T_j, T_i),
    for every ordered vertex pair (a pair absent from `count_paths` has no
    path); totals must agree as well."""
    p = cached_endomorphism_algebra(t)
    paths = count_paths(p)
    mismatches = []
    total_paths = total_hom = 0
    for i in p.quiver.vertices:
        for j in p.quiver.vertices:
            n_paths = paths.get((i, j), 0)
            n_hom = hom_cluster(t.summand(j), t.summand(i)).total
            total_paths += n_paths
            total_hom += n_hom
            if n_paths != n_hom:
                mismatches.append((i, j, n_paths, n_hom))
    return CartanReport(not mismatches, tuple(mismatches), total_paths, total_hom)


# --- emission -----------------------------------------------------------------

def bundle(t: RigidObject) -> dict[str, Presentation]:
    """The tilted, cluster-tilted and endomorphism presentations of t, each
    built once: the endomorphism presentation extends the completion."""
    tilted = tilted_algebra(t)
    completed = cluster_tilted_completion(tilted)
    return {
        "tilted": tilted,
        "cluster_tilted": completed,
        "endomorphism": endomorphism_algebra(t, completed),
    }


def bundle_json(t: RigidObject, presentations: dict[str, Presentation]) -> dict:
    """The object, its tilting intervals and its `bundle` as JSON."""
    out: dict = t.to_json()
    out["tilting_intervals"] = [f"{lo}-{hi}" for lo, hi in tilting_intervals(t)]
    for name, pres in presentations.items():
        out[name] = pres.to_json()
    return out


def bundle_dot(presentations: dict[str, Presentation]) -> dict[str, str]:
    """DOT text of each presentation of a `bundle`."""
    return {name: to_dot(pres, name) for name, pres in presentations.items()}
