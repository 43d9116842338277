"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest hostbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import pytest  # noqa: E402

from measure import (  # noqa: E402
    Coalloc,
    call_count,
    ended_before,
    fold_self_time,
    is_failed,
    nearest_rank,
    package_of,
    tail_percentile,
)


class TestTailPercentile:
    def test_needs_ten_samples_beyond_the_median(self):
        assert tail_percentile(list(range(19))) is None
        assert tail_percentile(list(range(20))) == (50.0, 9)

    def test_picks_highest_ladder_percentile_with_ten_beyond(self):
        # 40 samples: p75 leaves 10 beyond, p90 only 4.
        assert tail_percentile(list(range(1, 41))) == (75.0, 30)
        # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert tail_percentile(list(range(1, 101))) == (90.0, 90)
        # 200 samples: p95 leaves exactly 10 beyond.
        assert tail_percentile(list(range(1, 201))) == (95.0, 190)

    def test_every_chosen_tail_has_ten_samples_beyond(self):
        for n in range(20, 400, 7):
            samples = [float(i) for i in range(n)]
            p, value = tail_percentile(samples)
            assert sum(1 for s in samples if s > value) >= 10

    def test_unsorted_input(self):
        samples = [5.0, 1.0, 3.0] * 10
        assert tail_percentile(samples) == (50.0, 3.0)

    def test_nearest_rank(self):
        assert nearest_rank([1.0, 2.0], 50.0) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0], 50.0) == 2.0
        assert nearest_rank([4.0], 0.0) == 4.0
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)


class TestFailureClassification:
    def test_clean_commit_is_not_failed(self):
        assert not is_failed(Coalloc("committed", latency=5.6))

    @pytest.mark.parametrize("outcome", ["aborted", "raised", "unfinished"])
    def test_anything_but_a_commit_fails(self, outcome):
        assert is_failed(Coalloc(outcome))

    def test_monitor_finding_fails_a_commit(self):
        assert is_failed(Coalloc("committed", latency=5.6, findings=1))

    def test_released_slot_whose_gram_job_ended_fails_a_commit(self):
        assert is_failed(Coalloc("committed", latency=371.0, ended_released=1))

    def test_output_check_failure_fails_a_commit(self):
        assert is_failed(Coalloc("committed", latency=5.6, check_failures=1))

    def test_ended_before_release(self):
        # A process that abandoned the barrier at t=123.9 ended its GRAM
        # job before the t=202.4 release.
        assert ended_before(True, 123.9, 202.4)
        assert ended_before(True, 202.4, 202.4)
        # Still running, or ending only after the release.
        assert not ended_before(False, None, 202.4)
        assert not ended_before(True, 262.4, 202.4)


class TestSelfTimeFold:
    def test_package_of(self):
        assert package_of("/x/src/repro/simcore/environment.py") == "simcore"
        assert package_of("/x/src/repro/net/network.py") == "net"
        assert package_of("/x/src/repro/gridenv.py") == "gridenv"
        assert package_of("~") == "builtin"
        assert package_of("/usr/lib/python3.11/heapq.py") == "other"
        assert package_of("/x/hostbench/workloads.py") == "other"

    def test_fold_sums_by_package(self):
        rows = [
            ("/x/src/repro/simcore/environment.py", 1.0),
            ("/x/src/repro/simcore/events.py", 0.5),
            ("/x/src/repro/obs/metrics.py", 0.25),
            ("/x/src/repro/obs/flightrec.py", 0.25),
            ("~", 0.125),
            ("/usr/lib/python3.11/heapq.py", 0.125),
        ]
        assert fold_self_time(rows) == {
            "simcore": 1.5, "obs": 0.5, "builtin": 0.125, "other": 0.125,
        }

    def test_fold_keeps_the_total(self):
        rows = [(f"/x/src/repro/p{i % 3}/m.py", 0.1 * i) for i in range(10)]
        assert sum(fold_self_time(rows).values()) == pytest.approx(4.5)

    def test_call_count_matches_file_and_name(self):
        stats = {
            ("/x/src/repro/rsl/parser.py", 146, "parse"): (3, 4, 0.0, 0.0, {}),
            ("/x/src/repro/rsl/parser.py", 71, "parse_spec"): (9, 9, 0.0, 0.0, {}),
            ("/x/src/repro/rsl/parser.py", 153, "parse_multirequest"): (2, 2, 0.0, 0.0, {}),
            ("/x/src/repro/other.py", 1, "parse"): (7, 7, 0.0, 0.0, {}),
        }
        assert call_count(stats, "repro/rsl/parser.py", ("parse", "parse_multirequest")) == 6
