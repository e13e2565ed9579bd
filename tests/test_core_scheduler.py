"""Unit tests for scheduling policies and virtual-topology planning."""

import random

import pytest

from repro.apps.spec import (
    ApplicationSpec,
    NodeGroupRequest,
    ResourceRequirements,
    VirtualTopologyRequest,
)
from repro.core.gupa import Gupa
from repro.core.scheduler import (
    FastestFirstPolicy,
    FirstFitPolicy,
    PatternAwarePolicy,
    POLICIES,
    RandomPolicy,
    ScheduleContext,
    plan_virtual_topology,
)
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.network import NetworkTopology, two_groups


def offer(node, mips=1000.0, cpu_free=1.0, **extra):
    props = {
        "node": node, "mips": mips, "ram_mb": 256.0, "disk_mb": 10_000.0,
        "os": "linux", "arch": "x86", "cpu_free": cpu_free,
        "mem_free_mb": 200.0, "disk_free_mb": 10_000.0,
        "owner_active": False, "sharing": True, "grid_tasks": 0,
    }
    props.update(extra)
    return props


def make_ctx(work=1e6, gupa=None, now=0.0):
    return ScheduleContext(
        spec=ApplicationSpec(name="x", work_mips=work),
        remaining_mips=work,
        now=now,
        gupa=gupa,
    )


class TestBasicPolicies:
    def test_first_fit_preserves_order(self):
        offers = [offer("a"), offer("b"), offer("c")]
        assert [o["node"] for o in FirstFitPolicy().order(offers, make_ctx())] \
            == ["a", "b", "c"]

    def test_random_is_deterministic_per_seed(self):
        offers = [offer(f"n{i}") for i in range(10)]
        p1 = RandomPolicy(random.Random(5))
        p2 = RandomPolicy(random.Random(5))
        assert [o["node"] for o in p1.order(offers, make_ctx())] == \
               [o["node"] for o in p2.order(offers, make_ctx())]

    def test_fastest_first(self):
        offers = [
            offer("slow", mips=300), offer("fast", mips=2000),
            offer("busy", mips=3000, cpu_free=0.1),
        ]
        ordered = FastestFirstPolicy().order(offers, make_ctx())
        assert ordered[0]["node"] == "fast"   # 2000 beats 3000*0.1

    def test_fastest_first_orders_by_speed_ties_in_input_order(self):
        offers = [
            offer("a", mips=1000, cpu_free=0.5),    # 500
            offer("b", mips=2000, cpu_free=0.5),    # 1000
            offer("c", mips=500, cpu_free=1.0),     # 500, ties with a
            offer("d", mips=4000, cpu_free=0.25),   # 1000, ties with b
            offer("e", mips=100, cpu_free=1.0),     # 100
        ]
        ordered = FastestFirstPolicy().order(offers, make_ctx())
        assert [o["node"] for o in ordered] == ["b", "d", "a", "c", "e"]
        assert FastestFirstPolicy().order([], make_ctx()) == []

    def test_registry(self):
        assert set(POLICIES) == {
            "first_fit", "random", "fastest_first", "pattern_aware",
        }


class TestPatternAwarePolicy:
    def pattern(self, busy):
        return {
            "bins_per_day": 24,
            "weekly": [[busy] * 24 for _ in range(7)],
        }

    def test_prefers_idle_predicted_nodes(self):
        gupa = Gupa()
        gupa.upload_pattern("stable", self.pattern(0.0))
        gupa.upload_pattern("volatile", self.pattern(0.9))
        ctx = make_ctx(work=3.6e6, gupa=gupa)   # ~1h on 1000 MIPS
        ordered = PatternAwarePolicy().order(
            [offer("volatile"), offer("stable")], ctx
        )
        assert ordered[0]["node"] == "stable"

    def test_unknown_nodes_get_neutral_probability(self):
        gupa = Gupa()
        gupa.upload_pattern("bad", self.pattern(0.95))
        ctx = make_ctx(work=3.6e6, gupa=gupa)
        ordered = PatternAwarePolicy().order(
            [offer("bad"), offer("unknown")], ctx
        )
        assert ordered[0]["node"] == "unknown"   # 0.5 neutral beats 0.05

    def test_speed_still_matters(self):
        gupa = Gupa()
        gupa.upload_pattern("a", self.pattern(0.0))
        gupa.upload_pattern("b", self.pattern(0.0))
        ctx = make_ctx(gupa=gupa)
        ordered = PatternAwarePolicy().order(
            [offer("a", mips=500), offer("b", mips=2000)], ctx
        )
        assert ordered[0]["node"] == "b"

    def test_degrades_without_gupa(self):
        ordered = PatternAwarePolicy().order(
            [offer("a", mips=500), offer("b", mips=2000)], make_ctx()
        )
        assert ordered[0]["node"] == "b"


class TestScheduleContext:
    def test_estimated_duration(self):
        ctx = make_ctx(work=3.6e6)
        assert ctx.estimated_duration(offer("a", mips=1000.0)) \
            == pytest.approx(3600.0)

    def test_estimated_duration_zero_capacity(self):
        ctx = make_ctx()
        assert ctx.estimated_duration(offer("a", cpu_free=0.0)) == float("inf")


class TestTopologyPlanning:
    def paper_request(self, per_group=3):
        reqs = ResourceRequirements(min_mips=500, min_ram_mb=16)
        return VirtualTopologyRequest(
            groups=(
                NodeGroupRequest(per_group, 100.0, reqs),
                NodeGroupRequest(per_group, 100.0, reqs),
            ),
            inter_bandwidth_mbps=10.0,
        )

    def test_paper_example_satisfiable(self):
        group_a = [f"a{i}" for i in range(4)]
        group_b = [f"b{i}" for i in range(4)]
        network = two_groups(group_a, group_b, intra_mbps=100.0, inter_mbps=10.0)
        offers = [offer(n) for n in group_a + group_b]
        plan = plan_virtual_topology(offers, self.paper_request(3), network)
        assert plan is not None
        assert len(plan) == 2
        segments = {
            network.segment_of(o["node"]) for group in plan for o in group
        }
        assert len(segments) == 2
        for group in plan:
            group_segments = {network.segment_of(o["node"]) for o in group}
            assert len(group_segments) == 1   # each group on one segment

    def test_insufficient_nodes(self):
        network = two_groups(["a0", "a1"], ["b0", "b1"])
        offers = [offer(n) for n in ("a0", "a1", "b0", "b1")]
        assert plan_virtual_topology(offers, self.paper_request(3), network) is None

    def test_intra_bandwidth_filter(self):
        network = two_groups(
            [f"a{i}" for i in range(3)], [f"b{i}" for i in range(3)],
            intra_mbps=50.0,   # below the requested 100 Mbps
        )
        offers = [offer(f"a{i}") for i in range(3)]
        offers += [offer(f"b{i}") for i in range(3)]
        assert plan_virtual_topology(offers, self.paper_request(3), network) is None

    def test_inter_bandwidth_filter(self):
        network = two_groups(
            [f"a{i}" for i in range(3)], [f"b{i}" for i in range(3)],
            inter_mbps=1.0,   # below the requested 10 Mbps
        )
        offers = [offer(f"a{i}") for i in range(3)]
        offers += [offer(f"b{i}") for i in range(3)]
        assert plan_virtual_topology(offers, self.paper_request(3), network) is None

    def test_requirements_filter_within_group(self):
        network = two_groups(
            [f"a{i}" for i in range(3)], [f"b{i}" for i in range(3)],
        )
        offers = [offer(f"a{i}", mips=200.0) for i in range(3)]   # too slow
        offers += [offer(f"b{i}") for i in range(3)]
        assert plan_virtual_topology(offers, self.paper_request(3), network) is None

    def test_single_group(self):
        network = two_groups(["a0", "a1"], ["b0"])
        request = VirtualTopologyRequest(
            groups=(NodeGroupRequest(2, 100.0),), inter_bandwidth_mbps=1.0,
        )
        plan = plan_virtual_topology(
            [offer("a0"), offer("a1"), offer("b0")], request, network
        )
        assert plan is not None
        assert {o["node"] for o in plan[0]} == {"a0", "a1"}

    def test_unplaced_offers_skipped(self):
        network = two_groups(["a0"], ["b0"])
        request = VirtualTopologyRequest(
            groups=(NodeGroupRequest(1, 100.0),), inter_bandwidth_mbps=1.0,
        )
        offers = [offer("ghost"), offer("a0")]
        plan = plan_virtual_topology(offers, request, network)
        assert plan is not None
        assert plan[0][0]["node"] == "a0"
