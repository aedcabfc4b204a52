"""Command-line front end: exit codes, JSON schema, and a full verify run."""

import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from tubecat import cli, endo, homfunctor
from tubecat.endo import bundle, bundle_dot, bundle_json
from tubecat.quiver import Presentation
from tubecat.rigid import RigidObject, enumerate_maximal_rigid, from_summands, tilting_intervals
from tubecat.tube import Indec

OUTCOME_KEYS = {"check", "rank", "ok", "detail", "subject", "seconds"}


def run_cli(argv, capsys):
    """(exit code, stdout, stderr) of one in-process invocation."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestVerify:
    def test_ranks_two_to_five_all_ok(self, capsys):
        code, out, _ = run_cli(["verify", "--rank", "2..5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("all checks passed")
        assert not [line for line in lines if line.startswith("FAIL")]
        ranks = {int(line.split()[1].removeprefix("n=")) for line in lines[:-1]}
        assert ranks == {2, 3, 4, 5}

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(["verify", "--rank", "2..3", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"ok", "checks"}
        assert data["ok"] is True
        assert data["checks"]
        for outcome in data["checks"]:
            assert set(outcome) == OUTCOME_KEYS
            assert outcome["ok"] is True
        assert {o["check"] for o in data["checks"]} == set(cli.CHECK_NAMES)

    def test_ql_cap_covering_the_domain(self, capsys):
        # The rank-3 fundamental domain reaches quasilength 4.
        code, out, _ = run_cli(["verify", "--rank", "3", "--ql-cap", "4"], capsys)
        assert code == 0
        assert out.splitlines()[-1].startswith("all checks passed")
        assert "FAIL" not in out

    def test_failure_exits_one(self, capsys, monkeypatch):
        honest = homfunctor.oracle_dims

        def inflated(t, x):
            dims = honest(t, x)
            dims[1] = dims.get(1, 0) + 1
            return dims

        monkeypatch.setattr(homfunctor, "oracle_dims", inflated)
        code, out, _ = run_cli(["verify", "--rank", "2", "--only", "hom-functor"], capsys)
        assert code == 1
        assert "FAIL" in out and out.splitlines()[-1].startswith("FAILURES present")

    def test_failure_in_json_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(homfunctor, "oracle_dims", lambda t, x: {1: 99})
        code, out, _ = run_cli(
            ["verify", "--rank", "2", "--only", "hom-functor", "--json"], capsys
        )
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert all(not o["ok"] for o in data["checks"])


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--rank", "4..3"], "empty rank range"),
            (["verify", "--rank", "1"], "rank must be >= 2"),
            (["verify", "--rank", "two"], "argument --rank: expected N or LO..HI, got 'two'"),
            (["verify", "--rank", "2", "--only", "nothing"], "invalid choice"),
            (["rigid", "--rank", "1"], "rank must be >= 2"),
            (["endo", "--rank", "3", "--top", "1", "--tilting", "1-2,9"], "bad interval"),
            ([], "required"),
            (["verify", "--rank", "2..x"], "argument --rank: expected N or LO..HI, got '2..x'"),
            (["verify", "--rank", "2..3..4"], "argument --rank: expected N or LO..HI"),
            (
                ["endo", "--rank", "3", "--top", "1", "--tilting", "1-x"],
                "argument --tilting: bad interval '1-x'; expected like 1-3,1-1",
            ),
            (
                ["endo", "--rank", "3", "--top", "1", "--tilting", "1-3,1-1"],
                "tubecat endo: error: argument --tilting: interval 1-3 out of range 1..2",
            ),
            (
                ["endo", "--rank", "3", "--top", "1", "--tilting", "1-1,2-2"],
                "tubecat endo: error: argument --tilting: top summand",
            ),
            (
                ["endo", "--rank", "1", "--top", "1", "--tilting", "1-1"],
                "tubecat endo: error: argument --rank: rank must be >= 2, got 1",
            ),
            (["rigid", "--rank", "1"], "tubecat rigid: error: argument --rank: rank must be >= 2"),
            (["verify", "--rank", "4..3"], "tubecat verify: error: argument --rank: empty rank"),
            (["verify", "--rank", "1..3"], "tubecat verify: error: argument --rank: rank must be"),
            (["verify", "--rank", "2..99"], "tubecat verify: error: argument --rank: rank 99 exceeds"),
            (
                ["endo", "--rank", "3", "--top", "1", "--tilting", "1-1"],
                "tubecat endo: error: argument --tilting: expected 2 distinct summands, got (1,1)",
            ),
        ],
    )
    def test_exit_two(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert message in err
        assert out == ""
        # A subcommand's errors come with that subcommand's usage line.
        assert err.startswith(f"usage: tubecat {argv[0]} " if argv else "usage: tubecat [-h]")

    @pytest.mark.parametrize("top", ["9", "5", "0", "-3"])
    def test_top_outside_the_orbits(self, top, capsys):
        code, out, err = run_cli(
            ["endo", "--rank", "4", "--top", top, "--tilting", "1-3,1-1,3-3"], capsys
        )
        assert code == 2
        assert err.startswith("usage: tubecat endo ")
        assert f"tubecat endo: error: argument --top: orbit must be in 1..4, got {top}" in err
        assert out == ""

    @pytest.mark.parametrize("target", ["plain", "plain/sub"])
    def test_out_at_or_under_a_regular_file(self, target, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        out_dir = tmp_path / target
        code, out, err = run_cli(
            ["endo", "--rank", "3", "--top", "1", "--tilting", "1-2,1-1", "--out", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert err.startswith("usage: tubecat endo ")
        assert f"tubecat endo: error: argument --out: cannot write to {out_dir}" in err
        assert out == ""

    @pytest.mark.parametrize("cap", ["3", "0", "-3"])
    def test_ql_cap_below_the_domain(self, cap, capsys):
        code, out, err = run_cli(
            ["verify", "--rank", "3", "--only", "hom-functor", "--ql-cap", cap], capsys
        )
        assert code == 2
        assert err.endswith(
            f"tubecat verify: error: argument --ql-cap: ql_cap {cap} is below 4, "
            "the largest quasilength of the fundamental domain at rank 3\n"
        )
        assert out == ""

    def test_rank_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TUBECAT_MAX_RANK", "3")
        code, _, err = run_cli(["verify", "--rank", "2..4"], capsys)
        assert code == 2
        assert "exceeds the cap 3" in err

    @pytest.mark.parametrize("command", [["verify", "--rank", "2"], ["rigid", "--rank", "2"]])
    def test_rank_cap_variable_is_named(self, command, capsys, monkeypatch):
        monkeypatch.setenv("TUBECAT_MAX_RANK", "abc")
        code, out, err = run_cli(command, capsys)
        assert code == 2
        assert "TUBECAT_MAX_RANK must be an integer N, got 'abc'" in err
        assert out == ""


# a rank-4 object whose top is not at orbit 1, named as on the command line
ENDO_OBJECT = from_summands(4, [Indec(4, 4, 3), Indec(4, 4, 2), Indec(4, 4, 1)])
ENDO_TILTING = ",".join(f"{lo}-{hi}" for lo, hi in tilting_intervals(ENDO_OBJECT))
ENDO_ARGV = [
    "endo", "--rank", "4", "--top", str(ENDO_OBJECT.top.orbit), "--tilting", ENDO_TILTING,
]
BUNDLE_NAMES = ("tilted", "cluster_tilted", "endomorphism")


class TestSuccessPaths:
    def test_endo_table(self, capsys):
        code, out, err = run_cli(ENDO_ARGV, capsys)
        assert code == 0 and err == ""
        head, *rows = out.splitlines()
        assert head == (
            f"object {ENDO_OBJECT} (intervals {ENDO_TILTING}, "
            f"top orbit {ENDO_OBJECT.top.orbit})"
        )
        data = bundle_json(ENDO_OBJECT, bundle(ENDO_OBJECT))
        assert [row.split(":")[0].strip() for row in rows] == list(BUNDLE_NAMES)
        for row, name in zip(rows, BUNDLE_NAMES):
            assert f"{len(data[name]['arrows'])} arrows" in row

    def test_endo_json(self, capsys):
        code, out, _ = run_cli(ENDO_ARGV + ["--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data == bundle_json(ENDO_OBJECT, bundle(ENDO_OBJECT))
        assert RigidObject.from_json(data) == ENDO_OBJECT
        assert data["tilting_intervals"] == ENDO_TILTING.split(",")
        for name in BUNDLE_NAMES:
            Presentation.from_json(data[name])

    def test_endo_dot(self, capsys):
        code, out, _ = run_cli(ENDO_ARGV + ["--format", "dot"], capsys)
        assert code == 0
        for name, text in bundle_dot(bundle(ENDO_OBJECT)).items():
            assert f"// {name}\n{text}" in out

    def test_endo_out_writes_three_dot_files(self, tmp_path, capsys):
        out_dir = tmp_path / "new" / "dots"
        code, out, _ = run_cli(ENDO_ARGV + ["--out", str(out_dir)], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"wrote 3 dot files to {out_dir}"
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            f"{name}.dot" for name in BUNDLE_NAMES
        )
        for name, text in bundle_dot(bundle(ENDO_OBJECT)).items():
            assert (out_dir / f"{name}.dot").read_text() == text

    def test_endo_out_and_dot_print_the_files_written(self, tmp_path, capsys, monkeypatch):
        """One bundle is built, and its DOT text once, for both outputs."""
        built, drawn = [], []

        def counting_bundle(t):
            built.append(t)
            return bundle(t)

        def counting_dot(presentations):
            drawn.append(presentations)
            return bundle_dot(presentations)

        monkeypatch.setattr(cli, "bundle", counting_bundle)
        monkeypatch.setattr(cli, "bundle_dot", counting_dot)
        code, out, _ = run_cli(ENDO_ARGV + ["--out", str(tmp_path), "--format", "dot"], capsys)
        assert code == 0
        assert built == [ENDO_OBJECT] and len(drawn) == 1
        head, printed = out.split("\n", 1)
        assert head == f"wrote 3 dot files to {tmp_path}"
        assert printed == "".join(
            f"// {name}\n{(tmp_path / f'{name}.dot').read_text()}\n" for name in BUNDLE_NAMES
        )

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "ff59d0e638beb4bad8230e8e2280d0b96bc27b767fbdd5c4b15715e28bacce69"),
        ("dot", "336c831d3ac346b259914431a7adb847957cc6c8aeff78228967a4d940cb0fd1"),
        ("table", "1fb1b049d68c1f1495b9182b7741e8424a9245bca5bec7b5418a7558889d3682"),
    ])
    def test_endo_builds_each_presentation_once(self, fmt, digest, capsys, monkeypatch):
        # SHA-256 of the output when each of the json and dot emitters built
        # its own bundle, and each bundle its own tilted algebra twice.
        counts = {"tilted_algebra": 0, "cluster_tilted_completion": 0}
        for name in counts:
            real = getattr(endo, name)

            def counting(arg, name=name, real=real):
                counts[name] += 1
                return real(arg)

            monkeypatch.setattr(endo, name, counting)
        code, out, _ = run_cli(ENDO_ARGV + ["--format", fmt], capsys)
        assert code == 0
        assert counts == {"tilted_algebra": 1, "cluster_tilted_completion": 1}
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_endo_above_the_rank_cap(self, capsys, monkeypatch):
        # `endo` builds one object, so the cap of `rigid` and `verify`
        # does not apply to it.
        monkeypatch.delenv("TUBECAT_MAX_RANK", raising=False)
        tilting = ",".join(f"1-{hi}" for hi in range(10, 0, -1))
        argv = ["endo", "--rank", "11", "--top", "1", "--tilting", tilting]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert out.startswith("object ") and f"(intervals {tilting}, top orbit 1)" in out
        code, _, err = run_cli(["rigid", "--rank", "11", "--count"], capsys)
        assert code == 2 and "rank 11 exceeds the cap 10" in err

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rigid_count(self, n, capsys):
        code, out, _ = run_cli(["rigid", "--rank", str(n), "--count"], capsys)
        assert code == 0
        assert out == f"{comb(2 * n - 2, n - 1)}\n"

    def test_rigid_json_round_trips(self, capsys):
        code, out, _ = run_cli(["rigid", "--rank", "4", "--format", "json"], capsys)
        assert code == 0
        records = json.loads(out)
        objects = [RigidObject.from_json(record) for record in records]
        assert objects == list(enumerate_maximal_rigid(4))
        for record, t in zip(records, objects):
            assert record["tilting_intervals"] == [f"{lo}-{hi}" for lo, hi in tilting_intervals(t)]


def child_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    ))


def test_module_entry_point_exit_codes():
    env = child_env()
    command = [sys.executable, "-m", "tubecat.cli", "verify"]
    ok = subprocess.run(command + ["--rank", "2"], capture_output=True, text=True, env=env, timeout=120)
    assert ok.returncode == 0, ok.stderr
    empty = subprocess.run(command + ["--rank", "3..2"], capture_output=True, text=True, env=env, timeout=120)
    assert empty.returncode == 2
    assert "empty rank range" in empty.stderr


def test_runs_without_numpy():
    """The package needs only the standard library: with numpy made
    unimportable, it imports and verifies rank 3."""
    script = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None",
        "import tubecat, tubecat.cli, tubecat.verify",
        "report = tubecat.verify.run_suite([3])",
        "assert report.ok, [o.line() for o in report.outcomes if not o.ok]",
        "assert 'numpy' not in {m.split('.')[0] for m in sys.modules if sys.modules[m]}",
        "print(len(report.outcomes))",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["30"]


def test_a_raising_enumeration_fails_each_check_at_its_rank():
    """With `kernel.cluster_dims` reading the shifted part through tau in
    place of tau^2, the enumeration of maximal rigid objects raises from
    rank 3 on. Every check that walks the objects fails at that rank with
    the error, nothing escapes `run_suite`, and `verify` exits 1, not 2.
    A fresh process keeps the mutant out of this one's caches."""
    mutant = [
        "import json, sys",
        "from tubecat import cli, kernel, verify",
        "hom = kernel.hom_tube_dim",
        "kernel.cluster_dims = lambda n, a, b, c, d: (hom(n, a, b, c, d), hom(n, c, d, a - 1, b))",
    ]
    suite = subprocess.run(
        [sys.executable, "-c", "\n".join(mutant + [
            "report = verify.run_suite(range(2, 6))",
            "print(json.dumps([(o.check, o.ok, o.detail) for o in report.outcomes if o.rank == 3]))",
        ])],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert suite.returncode == 0, suite.stderr
    at_three = json.loads(suite.stdout)
    error = "error: summands (1,2) and (2,1) are incompatible"
    for check in ("rigid", "endo", "gentle", "strings", "hom-functor", "converse"):
        assert [row[1:] for row in at_three if row[0] == check] == [[False, error]], check
    command = subprocess.run(
        [sys.executable, "-c", "\n".join(mutant + ["sys.exit(cli.main(['verify', '--rank', '2..5']))"])],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert command.returncode == 1, command.stderr
    assert f"FAIL n=3 endo: {error}" in command.stdout.splitlines()
