"""Tests for the seeded benchmark suite (repro.prof.bench)."""

import json

import pytest

from repro.errors import ReproError
from repro.prof.bench import (
    DEFAULT_SEED,
    SCENARIOS,
    run_bench,
    run_microbench,
    select_scenarios,
    snapshot,
    update_baselines,
    write_snapshot,
)


class TestFig3Acceptance:
    def test_fig3_gram_matches_the_paper_breakdown(self):
        # The acceptance numbers from results/fig3_gram_breakdown.txt:
        # the profile's exclusive attribution must reproduce Fig. 3.
        profile = SCENARIOS["fig3_gram"].run(DEFAULT_SEED)
        assert profile.exclusive_by_name("gram.initgroups") == pytest.approx(0.700)
        assert profile.exclusive_by_name("gram.auth") == pytest.approx(0.504)
        assert profile.exclusive_by_name("gram.misc") == pytest.approx(0.010)
        assert profile.exclusive_by_name("gram.fork") == pytest.approx(0.001)

    def test_fig3_paths_are_rooted_at_gram_submit(self):
        profile = SCENARIOS["fig3_gram"].run(DEFAULT_SEED)
        assert "gram.submit;gram.auth" in profile.paths
        assert profile.paths["gram.submit;gram.auth"].count == 1


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_profiles_byte_identical_across_runs(self, name):
        scenario = SCENARIOS[name]
        assert scenario.run(DEFAULT_SEED).dumps() == scenario.run(DEFAULT_SEED).dumps()

    def test_different_seed_still_builds(self):
        profile = SCENARIOS["fig3_gram"].run(7)
        assert profile.meta["seed"] == 7
        assert profile.paths


class TestScenarios:
    def test_figure1_profile_shape(self):
        profile = SCENARIOS["figure1"].run(DEFAULT_SEED)
        assert "duroc.request" in profile.paths
        assert "duroc.request;duroc.submit;gram.submit;gram.auth" in profile.paths
        assert profile.count_by_name("gram.submit") == 3
        assert profile.counters["sim.events_processed"] > 0

    def test_duroc_scaling_fans_out_six_sites(self):
        profile = SCENARIOS["duroc_scaling"].run(DEFAULT_SEED)
        assert profile.count_by_name("duroc.submit") == 6

    def test_campaign_baseline_carries_provenance(self):
        profile = SCENARIOS["campaign_baseline"].run(DEFAULT_SEED)
        assert profile.meta["scenario"] == "campaign_baseline"
        assert profile.meta["campaign"] == "baseline"
        assert profile.paths

    def test_select_scenarios_default_is_sorted_all(self):
        names = [s.name for s in select_scenarios()]
        assert names == sorted(SCENARIOS)

    def test_select_scenarios_unknown_raises(self):
        with pytest.raises(ReproError, match="nonesuch"):
            select_scenarios(["nonesuch"])


class TestHarness:
    def test_update_then_run_bench_is_clean(self, tmp_path):
        update_baselines(names=["fig3_gram"], baseline_dir=tmp_path)
        (result,) = run_bench(names=["fig3_gram"], baseline_dir=tmp_path)
        assert not result.missing_baseline
        assert not result.regressed

    def test_run_bench_without_baseline(self, tmp_path):
        (result,) = run_bench(names=["fig3_gram"], baseline_dir=tmp_path / "x")
        assert result.missing_baseline
        assert result.diff is None

    def test_snapshot_digest_shape(self, tmp_path):
        results = run_bench(names=["fig3_gram"], baseline_dir=tmp_path / "x")
        digest = snapshot(results, DEFAULT_SEED)
        assert digest["format"] == "repro.prof.bench/1"
        assert digest["pr"] == 5
        entry = digest["scenarios"]["fig3_gram"]
        assert entry["span_count"] > 0
        assert len(entry["top_exclusive"]) <= 5
        assert "sim.events_processed" in entry["counters"]

    def test_write_snapshot_deterministic(self, tmp_path):
        results = run_bench(names=["fig3_gram"], baseline_dir=tmp_path / "x")
        a = write_snapshot(results, DEFAULT_SEED, tmp_path / "a.json")
        b = write_snapshot(results, DEFAULT_SEED, tmp_path / "b.json")
        assert a.read_text() == b.read_text()
        json.loads(a.read_text())


class TestMicrobench:
    def test_microbench_reports_positive_rates(self):
        out = run_microbench(ops=200)
        assert set(out) == {"event_heap", "network_delivery"}
        for entry in out.values():
            assert entry["ops"] == 200.0
            assert entry["seconds"] >= 0.0
            assert entry["ops_per_sec"] > 0


class TestQueueTraceIdentity:
    """The kernel's event traces are pinned, and kernel_scale pins
    slotted delivery's win over the per-message reference."""

    # Any change to dispatch order or message order moves these
    # digests; an intended change updates them with the baselines.
    STRESS_DIGEST = (
        "df8e09cbb54bb8473d400c940c945621a416d2204abcf75d00b63284f15562bf"
    )
    SCALE_SLOTTED_DIGEST = (
        "94e3935375dc92d2730a6c071097610c85d0e0a0eb98c1799bc0602f4cd89683"
    )

    def test_kernel_stress_trace_identical_under_every_queue(self):
        from repro.prof.bench import _kernel_stress_run, _TraceSignature

        for compact_cancelled in (True, False):
            signature = _TraceSignature()
            _kernel_stress_run(
                DEFAULT_SEED,
                compact_cancelled=compact_cancelled,
                probes=(signature,),
            )
            assert signature.hexdigest() == self.STRESS_DIGEST, compact_cancelled

    def test_kernel_scale_slotted_trace_is_pinned(self):
        from repro.prof.bench import _kernel_scale_run, _TraceSignature

        signature = _TraceSignature()
        _kernel_scale_run(DEFAULT_SEED, slotted=True, probes=(signature,))
        assert signature.hexdigest() == self.SCALE_SLOTTED_DIGEST

    def test_kernel_scale_counters_prove_the_win(self):
        profile = SCENARIOS["kernel_scale"].run(DEFAULT_SEED)
        counters = profile.counters
        # The slotted configuration processes fewer kernel events and
        # holds a lower high-water mark than the per-message reference
        # (the scenario itself raises otherwise; the assertions here pin
        # the counters' presence and direction).
        assert counters["sim.heap_high_water"] < counters["ref.sim.heap_high_water"]
        assert counters["sim.events_scheduled"] < counters["ref.sim.events_scheduled"]
        assert counters["net.delivery_slots"] > 0
