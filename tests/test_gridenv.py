"""Unit tests for the grid builder/composition layer."""

import pytest

from repro.errors import ReproError
from repro.gridenv import DEFAULT_EXECUTABLE, GridBuilder


class TestGridBuilder:
    def test_empty_grid_rejected(self):
        with pytest.raises(ReproError):
            GridBuilder().build()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ReproError, match="unknown scheduler"):
            GridBuilder().add_machine("m", nodes=4, scheduler="magic")

    def test_add_machines_prefix(self):
        grid = GridBuilder().add_machines("node", 3, nodes=8).build()
        assert set(grid.sites) == {"node1", "node2", "node3"}

    def test_default_program_registered(self):
        grid = GridBuilder().add_machine("m", nodes=4).build()
        assert DEFAULT_EXECUTABLE in grid.programs

    def test_custom_program_shared_across_sites(self):
        def prog(ctx):
            yield ctx.env.timeout(1)

        grid = (
            GridBuilder()
            .add_machine("a", nodes=4)
            .add_machine("b", nodes=4)
            .program("custom", prog)
            .build()
        )
        assert grid.site("a").gatekeeper.programs is grid.site(
            "b"
        ).gatekeeper.programs
        assert "custom" in grid.programs

    def test_user_authorized_everywhere(self):
        grid = GridBuilder(user="bob").add_machines("m", 2, nodes=4).build()
        for site in grid.sites.values():
            assert site.gridmap.authorized("bob")
        assert grid.credential.subject == "bob"

    def test_per_machine_cost_override(self):
        from repro.gram import FREE_COSTS

        grid = (
            GridBuilder()
            .add_machine("cheap", nodes=4, costs=FREE_COSTS)
            .add_machine("normal", nodes=4)
            .build()
        )
        assert grid.site("cheap").costs.initgroups == 0.0
        assert grid.site("normal").costs.initgroups == 0.7

    def test_unknown_site_lookup(self):
        grid = GridBuilder().add_machine("m", nodes=4).build()
        with pytest.raises(ReproError):
            grid.site("nowhere")

    def test_contacts_list(self):
        grid = GridBuilder().add_machines("m", 2, nodes=4).build()
        assert grid.contacts() == ["m1:gatekeeper", "m2:gatekeeper"]

    def test_client_host_registered(self):
        grid = GridBuilder(client_host="workstation").add_machine(
            "m", nodes=4
        ).build()
        assert grid.network.has_host("workstation")
        assert grid.client_host == "workstation"

    def test_latency_applied(self):
        grid = GridBuilder(latency=0.05).add_machine("m", nodes=4).build()
        assert grid.network.latency_model.latency("client", "m") == 0.05

    def test_run_until(self):
        grid = GridBuilder().add_machine("m", nodes=4).build()
        grid.env.timeout(10)
        grid.run(until=5)
        assert grid.now == 5.0


class TestObserverSeam:
    """`with_probe` is the one composition point for grid observers."""

    def test_single_probe_attaches_directly(self):
        from repro.verify.recorder import Recorder

        recorder = Recorder()
        grid = (
            GridBuilder().add_machine("m", nodes=4).with_probe(recorder).build()
        )
        assert grid.env.probe is recorder
        assert grid.recorder is recorder

    def test_multiple_probes_fan_out(self):
        from repro.prof.counters import OpCounters
        from repro.simcore import FanoutProbe
        from repro.verify.recorder import Recorder

        recorder, counters = Recorder(), OpCounters()
        grid = (
            GridBuilder()
            .add_machine("m", nodes=4)
            .with_probe(recorder, counters)
            .build()
        )
        assert isinstance(grid.env.probe, FanoutProbe)
        assert grid.recorder is recorder
        assert grid.counters is counters

    def test_legacy_methods_delegate(self):
        grid = (
            GridBuilder()
            .add_machine("m", nodes=4)
            .with_monitors()
            .with_profiling()
            .build()
        )
        assert grid.recorder is not None
        assert grid.counters is not None
        grid.run(until=1.0)
        assert grid.counters.snapshot()["sim.events_processed"] > 0

    def test_span_sink_routes_to_tracer(self):
        from repro.simcore import SpanSink

        sink = SpanSink()
        builder = GridBuilder().add_machine("m", nodes=4).with_probe(sink)
        grid = builder.build()
        assert grid.tracer.sink is sink
        # Re-adding the same sink is idempotent; a second, different
        # sink is a composition error.
        builder.with_probe(sink)
        with pytest.raises(ReproError, match="one span sink"):
            builder.with_probe(SpanSink())

    def test_duplicate_probe_is_idempotent(self):
        from repro.prof.counters import OpCounters

        counters = OpCounters()
        grid = (
            GridBuilder()
            .add_machine("m", nodes=4)
            .with_probe(counters)
            .with_probe(counters)
            .build()
        )
        assert grid.env.probe is counters

    def test_non_observer_rejected(self):
        with pytest.raises(ReproError, match="Probe or SpanSink"):
            GridBuilder().add_machine("m", nodes=4).with_probe(object())


class TestKernelKnobs:
    """The builder uses the one heap kernel and per-message delivery."""

    def test_default_queue_is_the_heap(self):
        grid = GridBuilder().add_machine("m", nodes=4).build()
        assert isinstance(grid.env._heap, list)
        assert grid.network.slotted is False
