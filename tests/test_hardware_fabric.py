"""Tests for fabric topology, presets, and functional units."""

import pytest

from repro.hardware import (
    CoherenceDomain,
    Device,
    FreeList,
    HierarchicalBlockStore,
    Link,
    LRUCache,
    NoRouteError,
    OpKind,
    build_fabric,
    chase_near_memory,
    chase_on_cpu,
    conventional_spec,
    dataflow_spec,
    gc_near_memory,
    gc_on_cpu,
)
from repro.hardware import functional_units
from repro.hardware.presets import FabricSpec
from repro.hardware.topology import Fabric
from repro.sim import Simulator, Trace


# ---------------------------------------------------------------------------
# Fabric routing
# ---------------------------------------------------------------------------

def simple_fabric():
    fabric = Fabric()
    trace, sim = fabric.trace, fabric.sim
    fabric.add_location("a")
    fabric.add_location("b")
    fabric.add_location("c")
    fabric.connect("a", "b", Link(sim, trace, "ab", bandwidth=100.0,
                                  latency=1.0))
    fabric.connect("b", "c", Link(sim, trace, "bc", bandwidth=50.0,
                                  latency=2.0))
    return fabric


def test_route_shortest_path():
    fabric = simple_fabric()
    links = fabric.route("a", "c")
    assert [link.name for link in links] == ["ab", "bc"]


def test_route_same_location_empty():
    fabric = simple_fabric()
    assert fabric.route("a", "a") == []


def test_route_missing_raises():
    fabric = simple_fabric()
    fabric.add_location("island")
    with pytest.raises(NoRouteError):
        fabric.route("a", "island")


def test_transfer_crosses_all_links():
    fabric = simple_fabric()

    def proc():
        yield from fabric.transfer("a", "c", 100.0, flow="q")

    fabric.sim.process(proc())
    fabric.run()
    assert fabric.trace.link_report() == {
        "ab": {"bytes": 100.0, "chunks": 1.0},
        "bc": {"bytes": 100.0, "chunks": 1.0}}
    # (1 + 100/100) + (2 + 100/50) = 2 + 4 = 6
    assert fabric.sim.now == pytest.approx(6.0)


def test_device_location_registration():
    fabric = simple_fabric()
    dev = Device(fabric.sim, fabric.trace, "dev",
                 rates={OpKind.FILTER: 10.0})
    fabric.add_device(dev, at="b")
    assert fabric.route("dev", "c")[0].name == "bc"


def test_duplicate_device_rejected():
    fabric = simple_fabric()
    dev = Device(fabric.sim, fabric.trace, "dev", rates={})
    fabric.add_device(dev, at="a")
    dev2 = Device(fabric.sim, fabric.trace, "dev", rates={})
    with pytest.raises(ValueError):
        fabric.add_device(dev2, at="b")


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def test_dataflow_fabric_has_all_sites():
    fabric = build_fabric(dataflow_spec())
    for site in ("storage.cu", "storage.nic", "compute0.nic",
                 "compute0.nearmem", "compute0.cpu"):
        assert fabric.has_site(site), site


def test_conventional_fabric_has_only_cpu():
    fabric = build_fabric(conventional_spec())
    assert fabric.has_site("compute0.cpu")
    for site in ("storage.cu", "storage.nic", "compute0.nic",
                 "compute0.nearmem"):
        assert not fabric.has_site(site), site


def test_conventional_storage_is_local():
    fabric = build_fabric(conventional_spec())
    links = fabric.route("storage.node", "compute0.cpu")
    segments = [link.segment for link in links]
    assert "network" not in segments
    assert segments[0] in ("pcie", "cxl")


def test_dataflow_storage_is_remote():
    fabric = build_fabric(dataflow_spec())
    segments = [link.segment for link in
                fabric.route("storage.node", "compute0.cpu")]
    assert segments.count("network") == 2  # storage->switch->compute


def test_multi_compute_nodes():
    fabric = build_fabric(dataflow_spec(compute_nodes=3))
    assert len(fabric.compute) == 3
    for i in range(3):
        assert fabric.has_site(f"compute{i}.cpu")
    # Nodes reach each other through the switch.
    links = fabric.route("compute0.node", "compute2.node")
    assert len(links) == 2


def test_local_storage_with_multiple_nodes_rejected():
    with pytest.raises(ValueError):
        build_fabric(FabricSpec(storage_attachment="local",
                                compute_nodes=2))


def test_disagg_memory_node():
    fabric = build_fabric(dataflow_spec(disagg_memory=True))
    assert fabric.disagg is not None
    assert fabric.has_site("memnode.accel")
    assert fabric.route("memnode.node", "compute0.node")


def test_cxl_spec_lowers_latency():
    pcie_fab = build_fabric(dataflow_spec(use_cxl=False))
    cxl_fab = build_fabric(dataflow_spec(use_cxl=True))
    pcie_host = pcie_fab.route("compute0.node", "compute0.dram")[0]
    cxl_host = cxl_fab.route("compute0.node", "compute0.dram")[0]
    assert cxl_host.latency < pcie_host.latency
    assert cxl_host.segment == "cxl"


# ---------------------------------------------------------------------------
# Functional units (§5.4)
# ---------------------------------------------------------------------------

def _shape(monkeypatch, fanout, leaf_capacity):
    """Build block stores with this fanout and leaf size."""
    monkeypatch.setattr(functional_units, "FANOUT", fanout)
    monkeypatch.setattr(functional_units, "LEAF_CAPACITY", leaf_capacity)


def test_block_store_lookup_correct(monkeypatch):
    _shape(monkeypatch, 4, 8)
    keys = list(range(0, 1000, 3))
    store = HierarchicalBlockStore(keys)
    assert store.lookup(999) == 999 * 2 + 1
    assert store.lookup(0) == 1
    assert store.lookup(1) is None  # not a multiple of 3


def test_block_store_height_grows_with_keys(monkeypatch):
    _shape(monkeypatch, 4, 4)
    small = HierarchicalBlockStore(list(range(10)))
    large = HierarchicalBlockStore(list(range(10000)))
    assert large.height > small.height


def test_block_store_requires_sorted_keys():
    with pytest.raises(ValueError):
        HierarchicalBlockStore([3, 1, 2])


def test_block_store_traverse_ends_at_leaf(monkeypatch):
    _shape(monkeypatch, 4, 4)
    store = HierarchicalBlockStore(list(range(100)))
    path = store.traverse(42)
    assert path[-1].is_leaf
    assert all(not b.is_leaf for b in path[:-1])


def chase_env():
    fabric = build_fabric(dataflow_spec())
    return fabric, fabric.compute[0]


def test_chase_cpu_and_nearmem_agree(monkeypatch):
    _shape(monkeypatch, 8, 16)
    fabric, node = chase_env()
    store = HierarchicalBlockStore(list(range(0, 4096, 2)))

    def run():
        cpu_result = yield from chase_on_cpu(store, 100, fabric, node)
        nm_result = yield from chase_near_memory(store, 100, fabric, node)
        return cpu_result, nm_result

    cpu_result, nm_result = fabric.sim.run_process(run())
    assert cpu_result == nm_result == 201


def test_chase_near_memory_moves_fewer_bytes(monkeypatch):
    _shape(monkeypatch, 8, 16)
    store = HierarchicalBlockStore(list(range(0, 65536, 2)))

    fabric1, node1 = chase_env()
    fabric1.sim.run_process(chase_on_cpu(store, 1234, fabric1, node1))
    cpu_moved = fabric1.trace.counter("movement.membus.bytes")

    fabric2, node2 = chase_env()
    fabric2.sim.run_process(chase_near_memory(store, 1234, fabric2, node2))
    nm_moved = fabric2.trace.counter("movement.membus.bytes")

    assert nm_moved < cpu_moved
    # Only the leaf crosses.
    assert nm_moved == functional_units.BLOCK_BYTES


def test_chase_on_cpu_with_warm_cache_skips_memory(monkeypatch):
    _shape(monkeypatch, 8, 16)
    store = HierarchicalBlockStore(list(range(0, 4096, 2)))
    fabric, node = chase_env()
    cache = LRUCache(1024 * functional_units.BLOCK_BYTES)

    def run():
        yield from chase_on_cpu(store, 100, fabric, node, cache=cache)
        before = fabric.trace.counter("movement.membus.bytes")
        yield from chase_on_cpu(store, 100, fabric, node, cache=cache)
        after = fabric.trace.counter("movement.membus.bytes")
        return before, after

    before, after = fabric.sim.run_process(run())
    assert after == before  # second traversal fully cached


def test_gc_agreement_and_movement():
    fabric, node = chase_env()
    free_list = FreeList(list(range(1000)))
    dead = set(range(0, 1000, 10))

    def run():
        removed_cpu = yield from gc_on_cpu(
            FreeList(list(range(1000))) and free_list, dead, fabric, node)
        return removed_cpu

    removed = fabric.sim.run_process(run())
    assert removed == 100
    assert fabric.trace.counter("movement.membus.bytes") > 0

    fabric2, node2 = chase_env()
    fl2 = FreeList(list(range(1000)))

    def run2():
        return (yield from gc_near_memory(fl2, dead, node2.accelerator))

    removed2 = fabric2.sim.run_process(run2())
    assert removed2 == 100
    assert fabric2.trace.counter("movement.membus.bytes") == 0


# ---------------------------------------------------------------------------
# Coherence (§6.2)
# ---------------------------------------------------------------------------

def coherence_env(mode):
    sim = Simulator()
    trace = Trace()
    link = Link(sim, trace, "lk", bandwidth=1e9, latency=1e-6)
    cpu = Device(sim, trace, "cpu", rates={OpKind.GENERIC: 1e9})
    domain = CoherenceDomain(sim, trace, "dom", link=link, mode=mode,
                             cpu=cpu)
    domain.add_sharer("host")
    domain.add_sharer("accel")
    return sim, trace, domain


def test_hardware_coherence_cheaper_than_software():
    region = 1 << 20

    sim_hw, trace_hw, dom_hw = coherence_env("hardware")
    sim_hw.run_process(dom_hw.write(region, writer="host"))
    hw_bytes = trace_hw.link_report()["lk"]["bytes"]
    hw_time = sim_hw.now

    sim_sw, trace_sw, dom_sw = coherence_env("software")
    sim_sw.run_process(dom_sw.write(region, writer="host"))
    sw_bytes = trace_sw.link_report()["lk"]["bytes"]
    sw_time = sim_sw.now

    assert hw_bytes < sw_bytes  # no region re-fetch with HW coherence
    assert hw_time < sw_time


def test_software_coherence_requires_cpu():
    sim = Simulator()
    trace = Trace()
    link = Link(sim, trace, "lk", bandwidth=1e9, latency=1e-6)
    with pytest.raises(ValueError):
        CoherenceDomain(sim, trace, "dom", link=link, mode="software")


def test_unknown_coherence_mode_rejected():
    sim = Simulator()
    trace = Trace()
    link = Link(sim, trace, "lk", bandwidth=1e9, latency=1e-6)
    with pytest.raises(ValueError):
        CoherenceDomain(sim, trace, "dom", link=link, mode="magic")


# ---------------------------------------------------------------------------
# GPU attachment (§4.2)
# ---------------------------------------------------------------------------

def test_gpu_absent_by_default():
    fabric = build_fabric(dataflow_spec())
    assert not fabric.has_site("compute0.gpu")
    assert fabric.compute[0].gpu is None


def test_gpu_host_attachment_routes_through_dram():
    fabric = build_fabric(dataflow_spec(gpu="host"))
    assert fabric.has_site("compute0.gpu")
    route = [link.name for link in fabric.route("compute0.node",
                                            "compute0.gpu")]
    assert route == ["compute0.host", "compute0.gpu_host"]


def test_gpu_direct_attachment_bypasses_dram():
    fabric = build_fabric(dataflow_spec(gpu="direct"))
    route = [link.name for link in fabric.route("compute0.node",
                                            "compute0.gpu")]
    assert route == ["compute0.gpudirect"]


def test_gpu_supports_parallel_kinds_not_statefulness_constraint():
    from repro.hardware import GPU, OpKind
    from repro.sim import Simulator, Trace
    gpu = GPU(Simulator(), Trace(), "g")
    for kind in (OpKind.FILTER, OpKind.JOIN_PROBE, OpKind.SORT,
                 OpKind.AGGREGATE):
        assert gpu.supports(kind)
    # Regex is supported but disproportionately slow (divergence).
    assert gpu.rate_for(OpKind.REGEX) < 0.1 * gpu.rate_for(
        OpKind.FILTER)
    assert gpu.programmable


def test_unknown_gpu_mode_rejected():
    with pytest.raises(ValueError):
        build_fabric(dataflow_spec(gpu="quantum"))
