"""Tests for the discrete-event engine, resources, nodes, network, offloading."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import (
    AdaptiveOffloadingPolicy,
    ComputeResource,
    EdgeCluster,
    EdgeServer,
    LinkSpec,
    MobileDevice,
    NetworkTopology,
    OffloadingContext,
    StorageResource,
    build_linear_topology,
    compare_policies,
    decode_flops,
    encode_flops,
    train_step_flops,
)
from repro.exceptions import SchedulingError, SimulationError
from repro.sim.engine import Simulation


class TestSimulation:
    def test_events_run_in_time_order(self):
        simulation = Simulation()
        order = []
        simulation.schedule(2.0, lambda s: order.append("late"), label="late")
        simulation.schedule(1.0, lambda s: order.append("early"), label="early")
        simulation.run()
        assert order == ["early", "late"]
        assert simulation.now == pytest.approx(2.0)

    def test_events_can_schedule_more_events(self):
        simulation = Simulation()
        seen = []

        def first(sim):
            seen.append(sim.now)
            sim.schedule(0.5, lambda s: seen.append(s.now))

        simulation.schedule(1.0, first)
        simulation.run()
        assert seen == [1.0, 1.5]

    def test_run_until_limit(self):
        simulation = Simulation()
        simulation.schedule(1.0, lambda s: None)
        simulation.schedule(5.0, lambda s: None)
        processed = simulation.run(until=2.0)
        assert processed == 1
        assert simulation.now == pytest.approx(2.0)
        assert simulation.pending() == 1

    def test_cancelled_events_are_skipped(self):
        simulation = Simulation()
        fired = []
        event = simulation.schedule(1.0, lambda s: fired.append(1))
        Simulation.cancel(event)
        simulation.run()
        assert not fired

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().schedule(-1.0, lambda s: None)

    def test_schedule_at_past_rejected(self):
        simulation = Simulation()
        simulation.now = 5.0
        with pytest.raises(SimulationError):
            simulation.schedule_at(1.0, lambda s: None)

    def test_max_events_limit(self):
        simulation = Simulation()
        for _ in range(10):
            simulation.schedule(1.0, lambda s: None)
        assert simulation.run(max_events=4) == 4


class TestResources:
    def test_service_time(self):
        resource = ComputeResource("cpu", flops_per_second=1e9)
        assert resource.service_time(2e9) == pytest.approx(2.0)

    def test_fifo_queueing(self):
        resource = ComputeResource("cpu", flops_per_second=1e9)
        start1, finish1 = resource.enqueue(0.0, 1e9)
        start2, finish2 = resource.enqueue(0.0, 1e9)
        assert (start1, finish1) == (0.0, 1.0)
        assert (start2, finish2) == (1.0, 2.0)
        assert resource.utilization(2.0) == pytest.approx(1.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ComputeResource("cpu", flops_per_second=0.0)

    def test_storage_allocation_lifecycle(self):
        storage = StorageResource("disk", capacity_bytes=100)
        storage.allocate("model-a", 60)
        assert storage.used_bytes == 60 and storage.free_bytes == 40
        assert storage.holds("model-a")
        with pytest.raises(SchedulingError):
            storage.allocate("model-b", 50)
        assert storage.release("model-a") == 60
        with pytest.raises(SchedulingError):
            storage.release("model-a")

    def test_duplicate_allocation_rejected(self):
        storage = StorageResource("disk", capacity_bytes=100)
        storage.allocate("x", 10)
        with pytest.raises(SchedulingError):
            storage.allocate("x", 10)

    def test_flop_estimates_scale_with_tokens(self):
        assert encode_flops(1000, 10) == 10 * encode_flops(1000, 1)
        assert decode_flops(1000, 4) == encode_flops(1000, 4)
        assert train_step_flops(1000, 4) > encode_flops(1000, 4)


class TestNodes:
    def test_edge_server_executes_and_tracks_latency(self):
        server = EdgeServer("edge_0", flops_per_second=1e9)
        result = server.execute(0.0, 5e8)
        assert result.service_time == pytest.approx(0.5)
        assert server.mean_latency() == pytest.approx(0.5)

    def test_queueing_delay_accumulates(self):
        server = EdgeServer("edge_0", flops_per_second=1e9)
        server.execute(0.0, 1e9)
        second = server.execute(0.0, 1e9)
        assert second.queueing_delay == pytest.approx(1.0)
        server.reset_statistics()
        assert server.mean_latency() == 0.0

    def test_model_load_and_evict(self):
        server = EdgeServer("edge_0", storage_bytes=1000)
        server.load_model("kb-it", 400)
        assert server.has_model("kb-it")
        assert server.evict_model("kb-it") == 400
        with pytest.raises(SchedulingError):
            server.evict_model("kb-it")

    def test_device_is_slower_than_edge(self):
        device = MobileDevice("device_0_0")
        edge = EdgeServer("edge_0")
        assert device.compute.flops_per_second < edge.compute.flops_per_second

    def test_cluster_lookup_and_attachment(self):
        cluster = EdgeCluster()
        edge = EdgeServer("edge_0")
        cluster.add_server(edge)
        cluster.add_device(MobileDevice("device_0_0", serving_edge="edge_0"))
        assert cluster.node("edge_0") is edge
        assert "device_0_0" in edge.attached_devices
        with pytest.raises(SchedulingError):
            cluster.node("missing")


class TestNetwork:
    def test_link_transfer_time(self):
        link = LinkSpec(bandwidth_bps=8e6, propagation_delay_s=0.01)
        assert link.transfer_time(1e6) == pytest.approx(0.01 + 1.0)

    def test_invalid_link(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_bps=0)

    def test_topology_routing_multi_hop(self):
        topology = build_linear_topology(num_edge_servers=3, devices_per_server=1)
        path = topology.path("device_0_0", "edge_2")
        assert path[0] == "device_0_0" and path[-1] == "edge_2"
        assert len(path) == 4

    def test_transfer_accounting(self):
        topology = build_linear_topology(num_edge_servers=2, devices_per_server=0)
        time_taken = topology.transfer_time("edge_0", "edge_1", 1000)
        assert time_taken > 0
        assert topology.total_bytes_transferred == 1000
        topology.reset_accounting()
        assert topology.total_bytes_transferred == 0

    def test_same_node_transfer_is_free(self):
        topology = build_linear_topology()
        assert topology.transfer_time("edge_0", "edge_0", 1e9) == 0.0

    def test_unknown_node_raises(self):
        topology = build_linear_topology()
        with pytest.raises(SimulationError):
            topology.path("edge_0", "mars")

    def test_self_link_rejected(self):
        topology = NetworkTopology()
        with pytest.raises(SimulationError):
            topology.add_link("a", "a", LinkSpec(1e6))

    def test_node_kinds(self):
        topology = build_linear_topology(num_edge_servers=2, devices_per_server=2)
        assert len(topology.nodes(kind="edge")) == 2
        assert len(topology.nodes(kind="device")) == 4

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_transfer_time_monotone_in_bytes(self, num_bytes):
        link = LinkSpec(bandwidth_bps=1e6, propagation_delay_s=0.001)
        assert link.transfer_time(num_bytes * 2) > link.transfer_time(num_bytes)


class TestOffloading:
    def _context(self, device_flops=1e9, edge_flops=200e9):
        topology = build_linear_topology(num_edge_servers=1, devices_per_server=1)
        return OffloadingContext(
            device=MobileDevice("device_0_0", flops_per_second=device_flops, serving_edge="edge_0"),
            edge=EdgeServer("edge_0", flops_per_second=edge_flops),
            topology=topology,
            message_bytes=60,
            feature_bytes=48,
            num_tokens=8,
            encoder_parameters=2_000_000,
        )

    def test_weak_device_offloads_to_edge(self):
        decision = AdaptiveOffloadingPolicy().decide(self._context(device_flops=5e8))
        assert decision.location == "edge"

    def test_strong_device_stays_local(self):
        decision = AdaptiveOffloadingPolicy().decide(self._context(device_flops=500e9))
        assert decision.location == "device"

    def test_adaptive_never_worse_than_static(self):
        context = self._context(device_flops=5e9)
        decisions = compare_policies(context)
        adaptive = decisions["adaptive"].predicted_latency_s
        assert adaptive <= decisions["always-device"].predicted_latency_s + 1e-9
        assert adaptive <= decisions["always-edge"].predicted_latency_s + 1e-9

    def test_invalid_edge_bias(self):
        with pytest.raises(ValueError):
            AdaptiveOffloadingPolicy(edge_bias=1.5)
