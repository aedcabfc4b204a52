"""String and band combinatorics for quadratic monomial presentations.

A string is a reduced walk of arrows and inverse arrows that avoids the
relations in both readings. Words are stored in walk order (first letter
applied first) and displayed right to left, matching path composition.
Canonical forms identify a word with its inverse.

Which letter may follow which depends on the two letters only, so the
letters and their successors form one graph. Strings are the walks in it,
and a cycle in it is a band. The graph is kept in a letter table, built once
per presentation from `letter_source`, `letter_target` and
`letters_composable`, which stay the definitions: the arrows by id, each
letter's (source, target) and each letter's successors. One table is held,
for the last presentation asked for, matched by identity. `is_string`,
`end_vertex`, `enumerate_strings` and `string_module` read it alone: a
letter outside it (an unknown arrow id, or a direction other than 1 and -1)
is not a letter of p.

A walk that repeats a letter has closed a band, so without bands every
walk has distinct letters, at most 2 * #arrows of them. `enumerate_strings`
therefore needs no length cap: it ends by itself or at its first band, and
one band is enough, since a presentation is of finite type exactly when it
has none (Butler-Ringel).

`string_module` builds a string's module in the one walk that `is_string`
makes, with no relation test (see there).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from tubecat.quiver import Presentation, is_special_biserial

Letter = tuple[str, int]  # (arrow id, +1 direct / -1 inverse)

_arrow_id = attrgetter("id")  # sorts arrows by id; `Arrow`s have no order


@dataclass(frozen=True, order=True)
class StringWord:
    """A string: a walk ("word"), a single vertex ("trivial"), or the unique
    zero string of length -1."""

    kind: str  # "zero" | "trivial" | "word"
    letters: tuple[Letter, ...] = ()
    vertex: int | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "trivial", "word"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "word" and not self.letters:
            raise ValueError("word strings need at least one letter")
        if self.kind == "trivial" and self.vertex is None:
            raise ValueError("trivial strings need a vertex")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def length(self) -> int:
        """Word length; the zero string has length -1 by convention."""
        if self.kind == "zero":
            return -1
        return len(self.letters)

    def inverse(self) -> "StringWord":
        if self.kind != "word":
            return self
        return StringWord(
            "word", tuple((aid, -d) for aid, d in reversed(self.letters))
        )

    def canonical(self) -> "StringWord":
        if self.kind != "word":
            return self
        letters = _canonical_letters(self.letters)
        return self if letters is self.letters else StringWord("word", letters)

    def to_json(self) -> list | None:
        """Right-to-left display order, inverse letters suffixed with ^-1."""
        if self.kind == "zero":
            return None
        if self.kind == "trivial":
            return [f"e{self.vertex}"]
        return [
            aid if d > 0 else f"{aid}^-1" for aid, d in reversed(self.letters)
        ]

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "trivial":
            return f"e{self.vertex}"
        return "*".join(self.to_json())


ZERO_STRING = StringWord("zero")


def trivial(vertex: int) -> StringWord:
    return StringWord("trivial", (), vertex)


def word(letters) -> StringWord:
    return StringWord("word", tuple(letters))


def _letter_keys(letters: tuple[Letter, ...]):
    return tuple((aid, 0 if d > 0 else 1) for aid, d in letters)


def _is_canonical(letters: tuple[Letter, ...]) -> bool:
    """Whether `_letter_keys(letters) <= _letter_keys(inverse)`, without
    building the inverse: letter i is compared with the inverse of letter
    -1 - i, from both ends inward, up to the first difference."""
    for (aid, d), (bid, e) in zip(letters, reversed(letters)):
        if aid != bid:
            return aid < bid
        if d == e:  # the inverse of (bid, e) is (aid, -d): direct comes first
            return d > 0
    return True


def _canonical_letters(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """`letters` or its inverse, whichever has the smaller key; `letters`
    itself on a tie."""
    if _is_canonical(letters):
        return letters
    return tuple((aid, -d) for aid, d in reversed(letters))


def letter_source(p: Presentation, letter: Letter) -> int:
    a = p.quiver.arrow(letter[0])
    return a.src if letter[1] > 0 else a.tgt


def letter_target(p: Presentation, letter: Letter) -> int:
    a = p.quiver.arrow(letter[0])
    return a.tgt if letter[1] > 0 else a.src


def end_vertex(p: Presentation, w: StringWord) -> int:
    """The vertex a string ends at, read from the letter table; ValueError
    on a last letter that is not a letter of p, as in `string_module`."""
    if w.kind == "trivial":
        return w.vertex
    if w.kind == "word":
        ends = _letters(p).ends.get(w.letters[-1])
        if ends is None:
            raise ValueError(f"not a string of this presentation: {w}")
        return ends[1]
    raise ValueError("the zero string has no endpoints")


def letters_composable(p: Presentation, x: Letter, y: Letter) -> bool:
    """May y follow x in a string?"""
    if letter_target(p, x) != letter_source(p, y):
        return False
    if x[0] == y[0] and x[1] == -y[1]:
        return False
    if x[1] > 0 and y[1] > 0 and p.is_relation(y[0], x[0]):
        return False
    if x[1] < 0 and y[1] < 0 and p.is_relation(x[0], y[0]):
        return False
    return True


class _LetterTable:
    """The letters of one presentation, direct before inverse by arrow id:
    `ends` maps each letter to its (source, target) and `successors` to the
    letters that may follow it, in that order."""

    __slots__ = ("presentation", "ends", "successors")

    def __init__(self, p: Presentation):
        self.presentation = p
        self.ends: dict[Letter, tuple[int, int]] = {}
        by_source: dict[int, list[Letter]] = {}
        for a in sorted(p.quiver.arrows, key=_arrow_id):
            for x in ((a.id, 1), (a.id, -1)):
                self.ends[x] = ends = (letter_source(p, x), letter_target(p, x))
                by_source.setdefault(ends[0], []).append(x)
        self.successors = {
            x: tuple([y for y in by_source.get(tgt, ()) if letters_composable(p, x, y)])
            for x, (_, tgt) in self.ends.items()
        }


_held: _LetterTable | None = None


def _letters(p: Presentation) -> _LetterTable:
    """The letter table of p, replacing the one held for any other
    presentation."""
    global _held
    table = _held
    if table is None or table.presentation is not p:
        table = _held = _LetterTable(p)
    return table


def is_string(p: Presentation, w: StringWord) -> bool:
    """A word is a string when its first letter is a letter of p and each
    next letter may follow the one before, which makes it a letter of p too."""
    if w.kind == "zero":
        return True
    if w.kind == "trivial":
        return w.vertex in p.quiver.vertices
    successors, letters = _letters(p).successors, w.letters
    if letters[0] not in successors:
        return False
    for x, y in zip(letters, letters[1:]):
        if y not in successors[x]:
            return False
    return True


# --- enumeration -------------------------------------------------------------

@dataclass(frozen=True)
class StringEnumeration:
    """Every canonical string, or the first band the walk closed.

    `band` is None exactly when the presentation has no band, that is, is
    of finite type (Butler-Ringel). A band-free walk never repeats a
    letter, so it has at most 2 * #arrows letters and the list is finite.
    With a band there is no finite list, so `strings` is empty.
    """

    strings: tuple[StringWord, ...]
    band: StringWord | None


def enumerate_strings(p: Presentation) -> StringEnumeration:
    """Every walk in the letter table's graph, depth first, up to its first
    band.

    A stack of letter tuples: pop a walk and record it, then push it once
    per successor of its last letter, extended by that successor. A
    successor already in the walk closes a cycle of valid transitions,
    which is exactly a band, taken from the successor's occurrence; the
    walk returns it at once. So every walk on the stack has distinct
    letters, at most 2 * #arrows of them, and the walk ends by itself or
    at its first band.

    A string and its inverse are one string (Butler-Ringel). A walk is
    recorded only if `_is_canonical`, so no inverse is built per visit.
    This is exact: strings are closed under inversion, a walk and its
    inverse have the same length, so the inverse is visited too, and no
    string is its own inverse (its middle would be a letter followed by its
    inverse, or a letter equal to its inverse). Each `StringWord` is built
    once, at the end.

    The stack is explicit, so long strings do not meet Python's recursion
    limit; a walk of more than a million visits raises RuntimeError.
    """
    sb = is_special_biserial(p)
    if not sb:
        raise ValueError(f"presentation is not special biserial: {sb.witness}")

    graph = _letters(p).successors
    found: list[tuple[Letter, ...]] = []
    budget = 1_000_000
    stack = [(letter,) for letter in graph]
    while stack:
        walk = stack.pop()
        budget -= 1
        if budget < 0:
            raise RuntimeError("string walk exceeded the node budget")
        if _is_canonical(walk):
            found.append(walk)
        for nxt in graph[walk[-1]]:
            if nxt in walk:
                return StringEnumeration((), _canonical_band(walk[walk.index(nxt):]))
            stack.append(walk + (nxt,))

    # Trivial strings sort before words, and words by their letters.
    strings = tuple(trivial(v) for v in sorted(p.quiver.vertices)) + tuple(
        StringWord("word", letters) for letters in sorted(found)
    )
    return StringEnumeration(strings, None)


def _canonical_band(cycle: tuple[Letter, ...]) -> StringWord:
    """A cycle of distinct letters, hence primitive, in its least rotation
    over both orientations."""
    backward = tuple((aid, -d) for aid, d in reversed(cycle))
    rotations = [ls[i:] + ls[:i] for ls in (cycle, backward) for i in range(len(cycle))]
    return word(min(rotations, key=_letter_keys))


# --- string modules ------------------------------------------------------------

@dataclass(frozen=True)
class StringModule:
    """Dimension vector plus 0/1 actions on vertex-graded basis slots of
    the arrows on the word only, by arrow id; any other arrow acts by zero.

    Each action is stored sparsely, as its (target dim, source dim) shape
    and the (row, column) positions of its ones. `action` and `to_json`
    expand it."""

    dims: tuple[tuple[int, int], ...]  # (vertex, dimension), sorted
    actions: tuple[tuple[str, tuple[int, int], tuple[tuple[int, int], ...]], ...]

    def dim(self, vertex: int) -> int:
        return dict(self.dims).get(vertex, 0)

    def action(self, arrow_id: str) -> tuple[tuple[int, ...], ...]:
        """The matrix of the arrow's action as row tuples; KeyError off the word."""
        for aid, (rows, cols), ones in self.actions:
            if aid == arrow_id:
                matrix = [[0] * cols for _ in range(rows)]
                for i, j in ones:
                    matrix[i][j] = 1
                return tuple(map(tuple, matrix))
        raise KeyError(arrow_id)

    def to_json(self) -> dict:
        return {
            "dims": {str(v): d for v, d in self.dims},
            "actions": {
                aid: [list(row) for row in self.action(aid)]
                for aid, _, _ in self.actions
            },
        }


def string_module(p: Presentation, w: StringWord) -> StringModule:
    """The standard module of a string (Butler-Ringel): one basis slot per
    traversed vertex, identity arrow actions along the word, only the
    word's vertices and arrows kept. The zero string yields the zero module.

    One walk over the letter table places each letter's target slot and a
    1 of its arrow at (target slot, source slot), and raises ValueError at
    a letter that is not a letter of p (the first) or may not follow the
    one before, exactly where `is_string` is false.

    No relation is tested. Each slot is one walk position, so a 1 of arrow
    a in row s and a 1 of arrow b in column s compose in b a only at slot
    s's position, where the word reads a then b or b^-1 then a^-1; there
    `letters_composable` refuses the relation (b, a)."""
    if w.kind == "zero":
        return zero_module()
    if w.kind == "trivial":
        if w.vertex not in p.quiver.vertices:
            raise ValueError(f"not a string of this presentation: {w}")
        return StringModule(((w.vertex, 1),), ())
    table = _letters(p)
    ends = allowed = table.ends
    dims: dict[int, int] = {}
    ones: dict[str, list[tuple[int, int]]] = {}
    here = 0
    for x in w.letters:
        if x not in allowed:
            raise ValueError(f"not a string of this presentation: {w}")
        src, tgt = ends[x]
        if not dims:  # the first letter's source takes the first slot
            dims[src] = 1
        there = dims.get(tgt, 0)
        dims[tgt] = there + 1
        ones.setdefault(x[0], []).append((there, here) if x[1] > 0 else (here, there))
        here, allowed = there, table.successors[x]
    return StringModule(tuple(sorted(dims.items())), tuple([
        (aid, (dims[tgt], dims[src]), tuple(pos))
        for aid, pos in sorted(ones.items()) for src, tgt in (ends[aid, 1],)
    ]))


def zero_module() -> StringModule:
    return StringModule((), ())

