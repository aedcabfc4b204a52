"""A suite-level mutant gate: each check is shown to catch its faults.

Each row plants one fault in a copy of the `tubecat` sources, by replacing
one piece of source text that must occur exactly once, and runs
`run_suite(range(2, 6))` on the copy in a fresh process, so that no
module-level cache carries the fault over to other tests. The checks that
the row names, and no other, must fail, each with a failing outcome whose
detail matches the row's witness pattern, and no exception may escape the
suite. When verdict code moves between checks or layers, the table shows
that every mutant is still caught, and by which check.

A row that names no check is a mutant that survives: a gap in the checks,
kept so that the gate fails once something starts to catch it and the row
can name the check.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import tubecat

SOURCES = Path(tubecat.__file__).resolve().parent


class Mutant(NamedTuple):
    name: str
    module: str  # file of the package the fault is planted in
    old: str  # source text replaced, found exactly once
    new: str
    catches: dict[str, str]  # check -> pattern that a failing detail of it matches


INCOMPATIBLE = r"^error: summands \(\d+,\d+\) and \(\d+,\d+\) are incompatible$"

MUTANTS = (
    Mutant(
        "shifted-side-painted-with-tau3", "homfunctor.py",
        "k = (c - 2 - a) % n", "k = (c - 3 - a) % n",
        {"hom-functor": r"^\d+ dimension mismatches"},
    ),
    Mutant(
        "ray-with-r-le-d", "homfunctor.py",
        "if r < d:", "if r <= d:",
        {"hom-functor": r"^error: summand \(\d+,\d+\) paints cell -\d+ outside the \d+ swept cells$"},
    ),
    Mutant(
        "composable-ignores-inverse-relations", "strings.py",
        "if x[1] < 0 and y[1] < 0 and p.is_relation(x[0], y[0]):", "if False:",
        {"strings": r"^band detected: ", "hom-functor": r"string bijection fails"},
    ),
    Mutant(
        "sigma-junction-inverted", "homfunctor.py",
        "or head and letter not in successors.get(head[-1], ())",
        "or head and letter in successors.get(head[-1], ())",
        {"hom-functor": r"^error: \S+ does not join \S+ to \S+ for \(\d+,\d+\)$"},
    ),
    # Survives: the sweep builds modules only of enumerated strings, which
    # pass the successor test by construction, so no check can reach it
    # with a word that fails it.
    Mutant(
        "string-module-skips-successors", "strings.py",
        "here, allowed = there, table.successors[x]", "here, allowed = there, table.ends",
        {},
    ),
    Mutant(
        "oracle-parts-off-by-one", "homfunctor.py",
        "tube._oracle_dim(n, d, b, (a - c) % n)", "tube._oracle_dim(n, d, b, (a - c + 1) % n)",
        {"hom-functor": r"^\d+ dimension mismatches"},
    ),
    # The walk from a pin no longer follows a 3-cycle's orientation at one
    # of its vertices: a connecting vertex's key misses the class that
    # realizes it, or a certificate refutes the hit.
    Mutant(
        "cycle-block-against-its-orientation", "quiver.py",
        'blocks[u].append(("cycle", w, x))', 'blocks[u].append(("cycle", x, w))',
        {"converse": r"^connecting vertex \d+ (of a class quiver unrealized|hits a class that the certificate refutes)$"},
    ),
    # The key forgets each arrow's direction and merges classes; the
    # certificate checks the arrows themselves and refutes the merge at
    # the hit.
    Mutant(
        "key-of-unordered-position-pairs", "quiver.py",
        "(at[a.src], at[a.tgt])", "tuple(sorted((at[a.src], at[a.tgt])))",
        {"converse": r"^key of \(\d+,\d+\)(\+\(\d+,\d+\))* hits a class that the certificate refutes$"},
    ),
    # The certificate compares a's arrows unmapped with b's: it refutes the
    # realization hits whose two quivers are labelled apart.
    Mutant(
        "certificate-compares-arrows-unmapped", "quiver.py",
        "Counter((iso[x.src], iso[x.tgt]) for x in a.arrows)",
        "Counter((x.src, x.tgt) for x in a.arrows)",
        {"converse": r"^connecting vertex \d+ hits a class that the certificate refutes$"},
    ),
    # Block k built as the translates by tau^-k: every member is still the
    # translate of its representative, so only rigid's block check sees it.
    Mutant(
        "block-translated-one-step-too-far", "rigid.py",
        "tau_rigid(r, 1 - k)", "tau_rigid(r, -k)",
        {"rigid": r"^\(\d+,\d+\)(\+\(\d+,\d+\))* has top orbit \d+ in block \d+$"},
    ),
    # Object i's representative read one place on: every check that reads
    # the layout takes a wrong representative for its members, and rigid,
    # which proves the layout through the same function, fails.
    Mutant(
        "layout-names-the-next-representative", "rigid.py",
        "i % (count // n)", "(i + 1) % (count // n)",
        {"rigid": r"^tau\^\d+ of .+ is not its representative .+$"},
    ),
    Mutant(
        "hom-count-lower-bound-off-by-one", "kernel.py",
        "lo = b - d", "lo = b - d + 1",
        {
            "oracle": r"^\d+/\d+ disagreements, first at ",
            "rigid": r"^brute route lacks ",
            "endo": r"^path/Hom mismatch at ",
        },
    ),
    Mutant(
        "gorenstein-n-g-off-by-one", "quiver.py",
        "n_g = len(best)", "n_g = len(best) + 1",
        {"gentle": r"^dimension 1, expected 0$"},
    ),
    Mutant(
        "union-find-skips-zero-rows", "tube.py",
        "if not grounded[u]:", "if False:",
        {"oracle": r"^\d+/\d+ disagreements, first at ", "hom-functor": r"^\d+ dimension mismatches"},
    ),
    # The previous column's ids read with the current column's lowest
    # index: rows equate the wrong unknowns, or ground one through the
    # solver's absent-unknown mark.
    Mutant(
        "column-id-reads-current-lowest", "tube.py",
        "previous + (i - below) // n", "previous + (i - lowest) // n",
        {
            "oracle": r"^\d+/\d+ disagreements, first at ",
            "hom-functor": r"^\d+ dimension mismatches; vanishing locus: ",
        },
    ),
    # The shifted part read at tau x instead of tau^2 x: rigid objects
    # enumerate with incompatible summands, and the oracle's sample sees
    # an asymmetric extension space.
    Mutant(
        "cluster-dims-shifted-at-tau", "kernel.py",
        "hom_tube_dim(n, c, d, a - 2, b)", "hom_tube_dim(n, c, d, a - 1, b)",
        {
            "oracle": r"^asymmetric extension space at ",
            **dict.fromkeys(("rigid", "gentle", "strings", "hom-functor", "converse"), INCOMPATIBLE),
            "endo": rf"{INCOMPATIBLE}|^path/Hom mismatch at ",
        },
    ),
    Mutant(
        "chain-letter-up-read-inverse", "homfunctor.py",
        "letters.append((up.id, 1))", "letters.append((up.id, -1))",
        {"hom-functor": r"^error: (constructed chain word is not a string|no connecting arrow \d+ -> \d+ exists for)"},
    ),
    # A string's end read as its last letter's source: the sweep's
    # connecting arrows are looked up between the wrong vertices.
    Mutant(
        "letter-end-read-as-start", "strings.py",
        "        return ends[1]\n", "        return ends[0]\n",
        {"hom-functor": r"^error: no connecting arrow \d+ -> \d+ exists for \(\d+,\d+\)$"},
    ),
)

SUITE = "\n".join([
    "import json",
    "from tubecat.verify import run_suite",
    "report = run_suite(range(2, 6))",
    "print(json.dumps([[o.check, o.rank, o.detail] for o in report.outcomes if not o.ok]))",
])


def _failures(mutant: Mutant, root: Path) -> list[list]:
    """The failing outcomes of the suite on a copy of the sources with the
    mutant planted, as [check, rank, detail]."""
    package = root / "tubecat"
    shutil.copytree(SOURCES, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / mutant.module
    source = path.read_text()
    assert source.count(mutant.old) == 1, f"{mutant.name}: its source text is not found once"
    path.write_text(source.replace(mutant.old, mutant.new))
    done = subprocess.run(
        [sys.executable, "-c", SUITE],
        capture_output=True, text=True, timeout=120, cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_fails_its_checks(mutant, tmp_path):
    failed = _failures(mutant, tmp_path)
    assert {check for check, _, _ in failed} == set(mutant.catches), failed[:3]
    for check, pattern in mutant.catches.items():
        details = [detail for c, _, detail in failed if c == check]
        assert any(re.search(pattern, detail) for detail in details), (check, details[:3])


def test_dropped_representative_fails_rigid(tmp_path):
    """One representative left out of the builder takes its translate
    orbit with it; at every rank rigid names a brute mask that no
    representative rotates to. Other checks may fail too."""
    dropped = Mutant(
        "first-representative-dropped", "rigid.py",
        "for f in _wing_fillings(n, 1, n - 1)", "for f in _wing_fillings(n, 1, n - 1)[1:]",
        {},
    )
    failed = _failures(dropped, tmp_path)
    details = {rank: detail for check, rank, detail in failed if check == "rigid"}
    assert sorted(details) == [2, 3, 4, 5], failed[:3]
    for detail in details.values():
        assert re.fullmatch(r"structured route lacks brute mask \(\d+,\d+\)(\+\(\d+,\d+\))*", detail)
