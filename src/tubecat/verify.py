"""Verification suite: every structural claim, checked per rank and object.

Each check emits outcome records that the command line prints or serializes;
a record is one (check, rank[, object]) verdict with a short detail string.

The per-object checks endo, gentle, strings and hom-functor compute their
verdict once per translate orbit, on the member whose top summand is at
orbit 1 (Catalan(n - 1) representatives of the C(2n - 2, n - 1) objects),
and carry it to the other n - 1 members; see `_per_orbit`. The quotient is
exact because each verdict depends on T only through data that the translate
leaves unchanged:

- `canonical_order` lists the summands relative to the top, so T and tau T
  have the same vertex numbering, hence the same labelled endomorphism
  algebra, Cartan matrix, loop vertex, gentleness, Gorenstein data and
  strings.
- `kernel.hom_tube_dim` sees orbits only through (c - a) mod n, so every
  closed-form Hom count between summands, and from a summand to x, is
  invariant when both are translated.
- `tube._oracle_dim` is keyed on that shift alone: it reads entry d of the
  nested family keyed on (shift + d) mod n (`tube._family`), each family
  one solver resumed column by column, so the oracle's dimensions are
  invariant too.
- The Hom-functor sweep covers every orbit 1..n for each ql <= cap, so the
  swept set of x is closed under the translate. Its dimension and locus
  proofs are masks per rigid summand, each painted and read from the oracle
  through (a - c) mod n alone, so they move with T and x; the fundamental
  domain and the vanishing locus are stated in top-normalized coordinates.

Each member still gets its own outcome, and takes its representative's:
`rigid.enumerate_maximal_rigid` lists the representatives, then each top
orbit's block of their translates in the same order, so the quotient needs
no certificate pass, and `rigid.representative_position` reads that layout
for every check. `check_rigid` proves it: each block holds one top orbit,
each member rotated to top orbit 1 is the representative that the layout
names, and the brute route's masks, rotated the same way, hit every
representative exactly n times, so the list is every maximal rigid object
once, in translate orbits of n. `check_converse` works on the same
quotient: it keys the quivers of the representatives only, one pinned form
per connecting vertex, counts n objects per representative, and certifies
each key hit on the two quivers' arrows through the stored walk orders,
sharing no code with the key.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb

from tubecat import kernel, tube, strings as st
from tubecat.endo import (
    cached_endomorphism_algebra,
    cartan_check,
    loopless_quiver,
)
from tubecat.homfunctor import check_ql_cap, verify_hom_functor
from tubecat.quiver import (
    NotClusterTiltedError,
    NotGentleError,
    connecting_keys,
    connecting_vertices,
    find_isomorphism,
    gorenstein_bound,
)
from tubecat.rigid import (
    maximal_compatible_masks,
    maximal_rigid_objects,
    representative_position,
    rigid_index,
)
from tubecat.tube import (
    Indec,
    ext1_cluster,
    has_D_endomorphism,
    hom_tube,
    hom_tube_oracle,
    indecomposables_up_to,
    tau,
)

CHECK_NAMES = (
    "oracle",
    "rigid",
    "endo",
    "gentle",
    "strings",
    "hom-functor",
    "converse",
)


@dataclass(frozen=True, slots=True)
class Outcome:
    check: str
    rank: int
    ok: bool
    detail: str
    subject: str | None = None
    seconds: float = 0.0

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        subject = f" T={self.subject}" if self.subject else ""
        return f"{status} n={self.rank} {self.check}{subject}: {self.detail}"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "rank": self.rank,
            "ok": self.ok,
            "detail": self.detail,
            "subject": self.subject,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class SuiteReport:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def extend(self, outcomes):
        self.outcomes.extend(outcomes)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [o.to_json() for o in self.outcomes],
        }


def _timed(check, rank, predicate, subject=None):
    start = time.perf_counter()
    try:
        ok, detail = predicate()
    except Exception as exc:  # surfaced as a failing outcome, not a crash
        ok, detail = False, f"error: {exc}"
    return Outcome(check, rank, ok, detail, subject, time.perf_counter() - start)


# --- individual checks -------------------------------------------------------


def check_oracle(n: int, ql_cap: int | None = None, seed: int = 0) -> list[Outcome]:
    """Closed-form Hom counts against the linear-algebra oracle, plus the
    calibration contracts and the boundary facts they pin down."""
    check_ql_cap(n, ql_cap)
    cap = 3 * n if ql_cap is None else ql_cap

    def agreement():  # on integer coordinates; `calibration` calls the oracle by Indec
        # The oracle depends on a pair only through (b, d, (c - a) mod n), and
        # its value at shift is entry d of the family (n, b, (shift + d) mod n),
        # so the n * cap**2 values come from reading each of the n * cap
        # families once; every pair still meets the kernel.
        oracle = []
        for b in range(1, cap + 1):
            family = [tube._family(n, b, top, cap) for top in range(n)]
            oracle.append([
                [family[(shift + d) % n][d - 1] for shift in range(n)] for d in range(1, cap + 1)
            ])
        xs = [(a, b) for a in range(1, n + 1) for b in range(1, cap + 1)]
        bad = 0
        first = ""
        for a, b in xs:
            row = oracle[b - 1]
            for c, d in xs:
                if kernel.hom_tube_dim(n, a, b, c, d) != row[d - 1][(c - a) % n]:
                    bad += 1
                    if not first:
                        first = f"{Indec(n, a, b)}->{Indec(n, c, d)}"
        pairs = len(xs) ** 2
        if bad:
            return False, f"{bad}/{pairs} disagreements, first at {first}"
        return True, f"{pairs} pairs agree exactly"

    def calibration():
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                x = Indec(n, a, b)
                if hom_tube_oracle(x, Indec(n, a, b + 1)) != 1:
                    return False, f"ray map at {x}"
                if b >= 2 and hom_tube_oracle(x, Indec(n, a + 1, b - 1)) != 1:
                    return False, f"coray map at {x}"
                if b <= n - 1 and hom_tube_oracle(x, Indec(n, a - 1, b)) != 0:
                    return False, f"translate of {x} receives a map"
        return True, "ray, coray and translate contracts hold"

    def boundary():
        small = list(indecomposables_up_to(n, n))
        for x in indecomposables_up_to(n, cap):
            rigid = hom_tube(x, tau(x, 1)) == 0
            if rigid != (x.ql <= n - 1):
                return False, f"rigidity boundary fails at {x}"
            if has_D_endomorphism(x) != (x.ql >= n - 1):
                return False, f"shifted-endomorphism boundary fails at {x}"
            if x.ql <= n:
                for y in small:
                    if hom_tube(x, y) > 1:
                        return False, f"multi-dimensional Hom at {x}->{y}"
        return True, "rigidity and endomorphism boundaries match quasilength"

    def symmetry():
        rng = random.Random(seed)
        for _ in range(100):
            x = Indec(n, rng.randint(1, n), rng.randint(1, cap))
            y = Indec(n, rng.randint(1, n), rng.randint(1, cap))
            if ext1_cluster(x, y) != ext1_cluster(y, x):
                return False, f"asymmetric extension space at {x}, {y}"
        return True, "100 sampled extension spaces are symmetric"

    return [
        _timed("oracle", n, agreement),
        _timed("oracle", n, calibration),
        _timed("oracle", n, boundary),
        _timed("oracle", n, symmetry),
    ]


def check_rigid(n: int) -> list[Outcome]:
    def partition():
        # The cached objects every other check walks, against the brute
        # route's summand masks; only the representatives' masks are held.
        # A summand mask has n(n - 1) bits, n - 1 per orbit, so tau^(1 - a)
        # moves a mask with its top at orbit a to orbit 1 by a cyclic shift
        # of (a - 1)(n - 1) bits.
        objects = maximal_rigid_objects(n)
        size, extra = divmod(len(objects), n)
        if extra:
            return False, f"{len(objects)} objects do not fill {n} blocks"
        width = n * (n - 1)
        full = (1 << width) - 1

        def at_orbit_one(mask, a):
            shift = (a - 1) * (n - 1)
            return (mask >> shift | mask << (width - shift)) & full

        index = {}  # a representative's mask -> its position
        for k in range(1, n + 1):
            for i in range((k - 1) * size, k * size):
                t = objects[i]
                if t.top.orbit != k:
                    return False, f"{t} has top orbit {t.top.orbit} in block {k}"
                mask = at_orbit_one(sum(1 << rigid_index(n, s.orbit, s.ql) for s in t.summands), k)
                if k == 1:
                    if mask in index:
                        return False, f"structured route lists {t} twice"
                    index[mask] = i
                r = representative_position(n, len(objects), i)
                if index.get(mask) != r:
                    return False, f"tau^{k - 1} of {t} is not its representative {objects[r]}"

        tops = sum(1 << rigid_index(n, a, n - 1) for a in range(1, n + 1))
        hits = [0] * size  # per representative, one bit per top orbit hit
        for mask in maximal_compatible_masks(n):
            top, r = mask & tops, None
            if top and not top & (top - 1):
                a = top.bit_length() // (n - 1)
                r = index.get(at_orbit_one(mask, a))
            if r is None or hits[r] >> (a - 1) & 1:
                bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
                coords = "+".join("({},{})".format(*kernel.rigid_coords(n, i)) for i in bits)
                return False, f"structured route lacks brute mask {coords}"
            hits[r] |= 1 << (a - 1)
        every = (1 << n) - 1
        for r, hit in enumerate(hits):
            if hit != every:
                missing = every & ~hit
                k = (missing & -missing).bit_length()
                return False, f"brute route lacks {objects[(k - 1) * size + r]}"
        expected = comb(2 * (n - 1), n - 1)
        if len(objects) != expected:
            return False, f"{len(objects)} objects, expected {expected}"
        return True, f"{expected} objects, both routes identical"

    return [_timed("rigid", n, partition)]


def _endo_verdict(t) -> tuple[bool, str]:
    lam = cached_endomorphism_algebra(t)
    rep = cartan_check(t)
    if not rep.ok:
        return False, f"path/Hom mismatch at {rep.mismatches[:3]}"
    bare, loop_vertex = loopless_quiver(lam)
    try:
        connecting = connecting_vertices(bare)
    except NotClusterTiltedError as exc:
        return False, f"recognizer: {exc.witness}"
    if loop_vertex not in connecting:
        return False, f"loop at non-connecting vertex {loop_vertex}"
    return True, f"dimension {rep.total_paths}, loop at {loop_vertex}"


def _gentle_verdict(t) -> tuple[bool, str]:
    lam = cached_endomorphism_algebra(t)
    try:
        rep = gorenstein_bound(lam)
    except NotGentleError as exc:
        return False, f"not gentle: {exc.witness}"
    expected = 0 if t.rank == 2 else 1
    if rep.dimension != expected:
        return False, f"dimension {rep.dimension}, expected {expected}"
    return True, f"gentle, dimension {rep.dimension} (n_g={rep.n_g})"


def _strings_verdict(t) -> tuple[bool, str]:
    n = t.rank
    expected = (3 * n * n - 5 * n + 2) // 2
    enum = st.enumerate_strings(cached_endomorphism_algebra(t))
    if enum.band is not None:
        return False, f"band detected: {enum.band}"
    if len(enum.strings) != expected:
        return False, f"{len(enum.strings)} strings, expected {expected}"
    return True, f"count={len(enum.strings)}, no bands"


def _hom_functor_verdict(t, ql_cap: int | None) -> tuple[bool, str]:
    rep = verify_hom_functor(t, ql_cap)
    if not rep.ok:
        issues = []
        if rep.dimension_failures:
            issues.append(f"{len(rep.dimension_failures)} dimension mismatches")
        if not rep.bijection_ok:
            issues.append("string bijection fails")
        if not rep.domain_size_ok:
            issues.append("domain count off")
        if rep.locus_failures:
            issues.append(f"vanishing locus: {rep.locus_failures[0]}")
        return False, "; ".join(issues)
    return True, f"bijection onto {rep.expected_count} strings, dimensions match"


def _per_orbit(check: str, n: int, verdict) -> list[Outcome]:
    """One outcome per object, in enumeration order, with `verdict` run once
    per translate orbit when the orbit's representative passes.

    Representatives come first in enumeration order. Any other member t
    takes the outcome of its representative, at the earlier position that
    `representative_position` names; an object with no representative
    before it runs `verdict` itself, and so does t if its representative
    failed, so every failure keeps its own concrete witness. An enumeration
    that raises gives one failing outcome with no subject, as in rigid and
    converse.
    """
    objects = None

    def listing():
        nonlocal objects
        objects = maximal_rigid_objects(n)
        return True, ""

    listed = _timed(check, n, listing)
    if not listed.ok:
        return [listed]
    out: list[Outcome] = []
    for i, t in enumerate(objects):

        def one(t=t, i=i):
            r = representative_position(n, len(objects), i)
            if r >= i or not out[r].ok:
                return verdict(t)
            return True, out[r].detail

        out.append(_timed(check, n, one, subject=str(t)))
    return out


def check_endo(n: int) -> list[Outcome]:
    return _per_orbit("endo", n, _endo_verdict)


def check_gentle(n: int) -> list[Outcome]:
    return _per_orbit("gentle", n, _gentle_verdict)


def check_strings(n: int) -> list[Outcome]:
    return _per_orbit("strings", n, _strings_verdict)


def check_hom_functor(n: int, ql_cap: int | None = None) -> list[Outcome]:
    check_ql_cap(n, ql_cap)
    return _per_orbit("hom-functor", n, lambda t: _hom_functor_verdict(t, ql_cap))


def check_converse(n: int) -> list[Outcome]:
    """Group objects by the isomorphism class of (loopless quiver, loop
    vertex); every class must contain exactly n objects, and every
    connecting vertex of every class quiver must be realized by some class.

    Only representatives (top at orbit 1), the first block, have their
    quivers built and compared; each counts for the n objects of its
    translate orbit. `check_rigid` proves that each member is the translate
    of the representative that `representative_position` names, one per
    top orbit, so a class of n objects is exactly one translate orbit. This
    is exact because canonical order is relative to the top: tau^k T has
    the same labelled endomorphism algebra as T, hence the same (quiver,
    loop vertex).

    Each representative's quiver is keyed once, by `connecting_keys`; a
    loop vertex that is not connecting fails the check, naming the object.
    A class is keyed at its loop vertex, and its other connecting vertices
    look up the classes that realize them (the loop vertex would hit its
    own class). Every hit, a membership or a realization, is certified by
    `find_isomorphism` from the two stored walk orders, on the two quivers'
    own vertices and arrows; a hit it refutes fails the check, naming the
    object or the vertex. The certificate reads no block, walk or key, so a
    fault in them that merges classes is refuted at the hit, and one that
    splits a class leaves it short.
    """

    def run():
        objects = maximal_rigid_objects(n)
        classes: dict[tuple, tuple] = {}  # key -> (quiver, loop vertex's order, other forms)
        sizes: Counter = Counter()  # key -> objects
        for i, t in enumerate(objects):
            if representative_position(n, len(objects), i) != i:
                break  # the representatives come first
            bare, lv = loopless_quiver(cached_endomorphism_algebra(t))
            forms = connecting_keys(bare)
            if lv not in forms:
                return False, f"loop of {t} at non-connecting vertex {lv}"
            key, order = forms.pop(lv)
            first, loop, _ = classes.setdefault(key, (bare, order, forms))
            pin = (lv, loop[0])  # the walk order starts at the class's loop vertex
            if first is not bare and find_isomorphism(bare, first, pin, (order, loop)) is None:
                return False, f"key of {t} hits a class that the certificate refutes"
            sizes[key] += n  # the representative's translate orbit

        for key, (_, order, _) in classes.items():
            if sizes[key] != n:
                return False, f"class at vertex {order[0]} has {sizes[key]} objects"

        # every other connecting vertex of every arising quiver is realized
        for quiver, _, forms in classes.values():
            for c, (key, order) in forms.items():
                if key not in classes:
                    return False, f"connecting vertex {c} of a class quiver unrealized"
                target, loop, _ = classes[key]
                if find_isomorphism(quiver, target, (c, loop[0]), (order, loop)) is None:
                    return False, f"connecting vertex {c} hits a class that the certificate refutes"
        return True, f"{len(classes)} classes, each a full translate orbit"

    return [_timed("converse", n, run)]


_CHECK_FUNCTIONS = {
    "oracle": lambda n, cap, seed: check_oracle(n, cap, seed),
    "rigid": lambda n, cap, seed: check_rigid(n),
    "endo": lambda n, cap, seed: check_endo(n),
    "gentle": lambda n, cap, seed: check_gentle(n),
    "strings": lambda n, cap, seed: check_strings(n),
    "hom-functor": lambda n, cap, seed: check_hom_functor(n, cap),
    "converse": lambda n, cap, seed: check_converse(n),
}


def run_suite(
    ranks,
    only: str | None = None,
    ql_cap: int | None = None,
    seed: int = 0,
) -> SuiteReport:
    names = [only] if only else list(CHECK_NAMES)
    for name in names:
        if name not in _CHECK_FUNCTIONS:
            raise ValueError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    ranks = list(ranks)
    if ranks:
        check_ql_cap(max(ranks), ql_cap)
    report = SuiteReport()
    for n in ranks:
        for name in names:
            report.extend(_CHECK_FUNCTIONS[name](n, ql_cap, seed))
    return report
