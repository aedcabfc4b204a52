"""The verification suite itself: outcome records, error capture, check
selection, and a fault injected into the oracle."""

import pytest

from tubecat import verify
from tubecat.tube import Indec

OUTCOME_KEYS = {"check", "rank", "ok", "detail", "subject", "seconds"}


class TestTimed:
    def test_exception_becomes_failing_outcome(self):
        def boom():
            raise ZeroDivisionError("division by zero")

        out = verify._timed("oracle", 3, "fine", boom, subject="T")
        assert not out.ok
        assert out.detail.startswith("error:")
        assert out.detail == "error: division by zero"
        assert (out.check, out.rank, out.subject) == ("oracle", 3, "T")
        assert out.seconds >= 0

    def test_ok_without_detail_takes_default(self):
        out = verify._timed("rigid", 2, "fine", lambda: (True, None))
        assert out.ok and out.detail == "fine"

    def test_failure_keeps_its_detail(self):
        out = verify._timed("rigid", 2, "fine", lambda: (False, "witness"))
        assert not out.ok and out.detail == "witness"
        assert out.line() == "FAIL n=2 rigid: witness"


class TestOutcome:
    def test_to_json_keys(self):
        out = verify.Outcome("endo", 4, True, "dimension 9", "T", 0.123456)
        data = out.to_json()
        assert set(data) == OUTCOME_KEYS
        assert data["seconds"] == 0.1235
        assert data["subject"] == "T"

    def test_report_json(self):
        report = verify.SuiteReport()
        report.extend([
            verify.Outcome("rigid", 2, True, "x"),
            verify.Outcome("rigid", 3, False, "y"),
        ])
        data = report.to_json()
        assert data["ok"] is False
        assert [c["rank"] for c in data["checks"]] == [2, 3]


class TestRunSuite:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check 'nope'"):
            verify.run_suite([2], only="nope")

    def test_only_runs_one_check(self):
        report = verify.run_suite([2, 3], only="rigid")
        assert [(o.check, o.rank) for o in report.outcomes] == [
            ("rigid", 2),
            ("rigid", 3),
        ]
        assert report.ok

    def test_rank_three_outcome_counts(self):
        report = verify.run_suite([3])
        assert report.ok
        counts = {}
        for o in report.outcomes:
            counts[o.check] = counts.get(o.check, 0) + 1
        # 6 maximal rigid objects at rank 3, one outcome each for the
        # per-object checks.
        assert counts == {
            "oracle": 4,
            "rigid": 1,
            "endo": 6,
            "gentle": 6,
            "strings": 6,
            "hom-functor": 6,
            "converse": 1,
        }


class TestOracleFault:
    def test_off_by_one_at_one_pair_is_reported(self, monkeypatch):
        # (1,9) -> (2,9) lies above quasilength 3, so the calibration
        # contracts, which only start at quasilength <= n, never ask for it.
        x, y = Indec(3, 1, 9), Indec(3, 2, 9)
        real = verify.hom_tube_oracle

        def faulty(a, b):
            return real(a, b) + (1 if (a, b) == (x, y) else 0)

        monkeypatch.setattr(verify, "hom_tube_oracle", faulty)
        agreement, calibration, boundary, symmetry = verify.check_oracle(3)
        assert not agreement.ok
        assert agreement.detail == "1/729 disagreements, first at (1,9)->(2,9)"
        assert calibration.ok and boundary.ok and symmetry.ok

    def test_unfaulted_oracle_agrees(self):
        agreement = verify.check_oracle(3)[0]
        assert agreement.ok
        assert agreement.detail == "729 pairs agree exactly"
