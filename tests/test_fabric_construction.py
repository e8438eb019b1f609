"""What one ``build_fabric`` constructs, and how often routing searches.

A fresh fabric builds only what a run can reach: the sites on the data
path, the NICs, DRAM, the storage medium and the links, and it binds no
trace counter handle until a charge adds to it.  Routing runs one
breadth-first search per destination, whatever order the pairs are
asked in.  Neither may change what a run reports.
"""

import random

import pytest

from repro.analysis.scenarios import run_scenario
from repro.hardware import build_fabric, conventional_spec, dataflow_spec
from repro.hardware.device import Device
from repro.sim import Resource, Trace


@pytest.fixture
def built(monkeypatch):
    """Tally of ``Device``s, ``Resource``s and ``counter_handle`` calls."""
    counts = dict.fromkeys(("devices", "resources", "handles"), 0)

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Device, "__post_init__", "devices")
    count(Resource, "__init__", "resources")
    count(Trace, "counter_handle", "handles")
    return counts


@pytest.mark.parametrize("spec, devices, resources", [
    # storage.cu, storage.nic, compute0.{nic,nearmem,cpu}; their slots,
    # the medium's channel and five links' ports.
    (dataflow_spec, 5, 11),
    # The storage CU (no site here: storage is dumb) and the CPU; their
    # slots, the medium's channel and four links' ports.
    (conventional_spec, 2, 7),
    # Three devices and four links more per compute node, one more
    # network link.
    (lambda: dataflow_spec(compute_nodes=2), 8, 18),
])
def test_build_fabric_constructs_only_what_a_run_reaches(built, spec,
                                                         devices, resources):
    fabric = build_fabric(spec())
    assert built == {"devices": devices, "resources": resources,
                     "handles": 0}
    assert not fabric.trace.counters


class Neighbours(dict):
    """One location's adjacency, counting how often a search lists it."""

    def __init__(self, node, links, tally):
        super().__init__(links)
        self.node, self.tally = node, tally

    def listed(self):
        self.tally[self.node] = self.tally.get(self.node, 0) + 1

    def __iter__(self):
        self.listed()
        return super().__iter__()

    def items(self):
        self.listed()
        return super().items()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("spec", [
    dataflow_spec, conventional_spec,
    lambda: dataflow_spec(compute_nodes=2)])
def test_one_search_per_destination_in_any_order(spec, seed):
    fabric = build_fabric(spec())
    tally = {}
    fabric._adjacent = {node: Neighbours(node, links, tally)
                        for node, links in fabric._adjacent.items()}
    locations = list(fabric._adjacent)
    rng = random.Random(seed)
    asked = set()
    pairs = [(src, dst) for src in locations for dst in locations]
    rng.shuffle(pairs)
    for src, dst in pairs[:len(pairs) // 2] + pairs:
        fabric.route(src, dst)
        asked.add(dst)
        # A breadth-first search expands every location once.
        assert tally == dict.fromkeys(locations, len(asked))


def test_lazy_handles_leave_the_reported_counters_unchanged():
    # The F2 counter set as it was when every device and link bound
    # its handles at construction.
    keys = {
        "device.storage.cu.busy_s", "device.storage.cu.bytes.filter",
        "device.storage.cu.bytes.project",
        "device.storage.cu.kernel_install_time",
        "device.storage.cu.kernel_installs", "device.storage.cu.ops",
        "engine.dataflow.queries", "engine.dataflow.rows_out",
        "engine.dataflow.stages", "flow.control.total_bytes",
        "flow.df1.filter2->gather3.bytes",
        "flow.df1.filter2->gather3.control_bytes",
        "flow.df1.filter2->gather3.messages",
        "flow.df1.scan1->filter2.control_bytes",
        "flow.df1.scan1->filter2.messages",
        "graph.df1.channels", "graph.df1.stages",
        "link.compute0.cachebus.bytes", "link.compute0.cachebus.chunks",
        "link.compute0.host.bytes", "link.compute0.host.chunks",
        "link.compute0.membus.bytes", "link.compute0.membus.chunks",
        "link.net.compute0.bytes", "link.net.compute0.chunks",
        "link.net.storage.bytes", "link.net.storage.chunks",
        "movement.cache.bytes", "movement.cxl.bytes",
        "movement.membus.bytes", "movement.network.bytes",
        "movement.storage.bytes",
        "stage.df1.filter2.chunks_in", "stage.df1.filter2.chunks_out",
        "stage.df1.filter2.rows_in", "stage.df1.filter2.rows_out",
        "stage.df1.gather3.chunks_in", "stage.df1.gather3.chunks_out",
        "stage.df1.gather3.rows_in", "stage.df1.gather3.rows_out",
        "stage.df1.scan1.chunks_in", "stage.df1.scan1.chunks_out",
        "stage.df1.scan1.rows_in", "stage.df1.scan1.rows_out",
        "storage.storage.media.bytes.read", "storage.storage.media.reads",
    }
    assert set(run_scenario("f2").fabric.trace.counters) == keys
