"""Fabric routing without networkx: same hops, one dependency fewer.

``Fabric.route`` is a breadth-first search over a plain adjacency
dict.  Its tie-break between equally short paths is unspecified, so
what keeps every simulated byte where it was is a property of the
preset fabrics — between any two locations there is exactly *one*
shortest path — asserted here directly, next to the routes themselves:
each must equal the hop list of an independent reference (and of
``networkx.shortest_path`` where that happens to be installed).
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.hardware import (Link, NoRouteError, build_fabric,
                            conventional_spec, dataflow_spec, rack_spec)
from repro.hardware.topology import Fabric

#: Every preset spec built anywhere in src/ (the experiments too),
#: tests/, perfbench/ and examples/; ``extra`` is the number of links beyond a
#: spanning tree (GPUDirect closes the one cycle: nic - dram - gpu).
PRESETS = {
    "conventional": (conventional_spec, 0),
    "dataflow": (dataflow_spec, 0),
    "dataflow-2-nodes": (lambda: dataflow_spec(compute_nodes=2), 0),
    "dataflow-3-nodes": (lambda: dataflow_spec(compute_nodes=3), 0),
    "dataflow-4-nodes": (lambda: dataflow_spec(compute_nodes=4), 0),
    "disaggregated-memory": (lambda: dataflow_spec(disagg_memory=True), 0),
    "gpu-host": (lambda: dataflow_spec(gpu="host"), 0),
    "gpu-host-25gbit": (
        lambda: dataflow_spec(gpu="host", network_gbits=25.0), 0),
    "gpu-direct": (lambda: dataflow_spec(gpu="direct"), 1),
    "no-rdma-10gbit": (
        lambda: dataflow_spec(network_gbits=10, rdma=False), 0),
    "slow-storage-cu": (lambda: dataflow_spec(storage_cu_scale=0.3), 0),
    "scheduling": (lambda: dataflow_spec(storage_cu_scale=0.3,
                                         ssd_gib_per_s=16,
                                         network_gbits=400), 0),
    "pcie": (lambda: dataflow_spec(use_cxl=False), 0),
    "rack-4": (lambda: rack_spec(4), 0),
    "rack-8": (lambda: rack_spec(8), 0),
}


def hops_to(adjacent, dst):
    """``{location: (hops to dst, number of shortest paths to dst)}``."""
    found = {dst: (0, 1)}
    layer = [dst]
    while layer:
        reached = []
        for node in layer:
            hops, ways = found[node]
            for other in adjacent[node]:
                if other not in found:
                    found[other] = (hops + 1, 0)
                    reached.append(other)
                if found[other][0] == hops + 1:
                    found[other] = (hops + 1, found[other][1] + ways)
        layer = reached
    return found


def reference_route(adjacent, src, dst):
    """Step to the neighbour one hop nearer ``dst`` until there."""
    found = hops_to(adjacent, dst)
    links = []
    while src != dst:
        nearer = [other for other in adjacent[src]
                  if found[other][0] == found[src][0] - 1]
        links.append(adjacent[src][nearer[0]])
        src = nearer[0]
    return links


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_routes_are_the_only_shortest_paths(preset):
    spec, extra = PRESETS[preset]
    fabric = build_fabric(spec())
    adjacent = fabric._adjacent
    links = list(fabric.links())
    assert len({id(link) for link in links}) == len(links)
    assert len(links) == len(adjacent) - 1 + extra       # a tree, or +1
    for dst in adjacent:
        found = hops_to(adjacent, dst)
        assert set(found) == set(adjacent)                # connected
        assert {ways for _hops, ways in found.values()} == {1}
        for src in adjacent:
            route = fabric.route(src, dst)
            assert len(route) == found[src][0]
            want = reference_route(adjacent, src, dst)
            assert [id(link) for link in route] == [id(link) for link in want]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_routes_in_any_order_equal_the_reference(preset):
    # One search per destination builds the routes from every source,
    # so the order the pairs are asked in must not matter.
    fabric = build_fabric(PRESETS[preset][0]())
    adjacent = fabric._adjacent
    pairs = list(itertools.product(adjacent, repeat=2))
    random.Random(preset).shuffle(pairs)
    for src, dst in pairs:
        assert ([id(link) for link in fabric.route(src, dst)]
                == [id(link) for link in reference_route(adjacent, src, dst)])


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_routes_equal_networkx(preset):
    nx = pytest.importorskip("networkx")
    fabric = build_fabric(PRESETS[preset][0]())
    graph = nx.Graph()
    graph.add_nodes_from(fabric._adjacent)
    for node, neighbours in fabric._adjacent.items():
        for other, link in neighbours.items():
            graph.add_edge(node, other, link=link)
    # The walk order the three former ``graph.edges(data=True)`` call
    # sites had: the observatory's bandwidth dict is built in it.
    assert ([id(link) for link in fabric.links()]
            == [id(data["link"]) for _a, _b, data in graph.edges(data=True)])
    for src, dst in itertools.permutations(fabric._adjacent, 2):
        nodes = nx.shortest_path(graph, src, dst)
        want = [graph.edges[a, b]["link"] for a, b in zip(nodes, nodes[1:])]
        assert ([id(link) for link in fabric.route(src, dst)]
                == [id(link) for link in want])


def ring(size):
    fabric = Fabric()
    names = [chr(ord("a") + i) for i in range(size)]
    for a, b in zip(names, names[1:] + names[:1]):
        fabric.connect(a, b, Link(fabric.sim, fabric.trace, a + b,
                                  bandwidth=1.0, latency=1.0))
    return fabric


def test_cyclic_fabric_routes_a_shortest_path():
    square = ring(4)                  # a-b-c-d-a: two ways from a to c
    names = [link.name for link in square.route("a", "c")]
    assert names in (["ab", "bc"], ["da", "cd"])
    assert square.route("a", "c") is square.route("a", "c")    # cached
    assert [link.name for link in square.route("c", "a")] in (
        ["bc", "ab"], ["cd", "da"])
    pentagon = ring(5)                # the short way round, not the long
    assert [link.name for link in pentagon.route("a", "c")] == ["ab", "bc"]
    assert [link.name for link in pentagon.route("a", "d")] == ["ea", "de"]
    assert [link.name for link in pentagon.links()] == [
        "ab", "ea", "bc", "cd", "de"]


def test_unknown_and_disconnected_locations_have_no_route():
    fabric = ring(3)
    fabric.add_location("island")
    for src, dst in (("a", "island"), ("island", "a"), ("a", "nowhere"),
                     ("nowhere", "a")):
        with pytest.raises(NoRouteError, match=f"{src!r} -> {dst!r}"):
            fabric.route(src, dst)
    assert fabric.route("island", "island") == []


def test_an_unknown_location_is_named_even_routed_to_itself():
    fabric = ring(3)
    for src, dst in (("nowhere", "a"), ("a", "nowhere"),
                     ("nowhere", "nowhere")):
        with pytest.raises(NoRouteError,
                           match="unknown location 'nowhere'"):
            fabric.route(src, dst)


def test_a_link_connected_after_routing_is_seen_by_the_next_route():
    fabric = Fabric()                 # a-b-c-d-e, then a-e closes it
    names = "abcde"

    def link(a, b):
        return fabric.connect(a, b, Link(fabric.sim, fabric.trace, a + b,
                                         bandwidth=1.0, latency=1.0))
    for a, b in zip(names, names[1:]):
        link(a, b)
    assert [hop.name for hop in fabric.route("a", "e")] == [
        "ab", "bc", "cd", "de"]
    assert [hop.name for hop in fabric.route("b", "e")] == ["bc", "cd", "de"]
    link("a", "e")
    assert [hop.name for hop in fabric.route("a", "e")] == ["ae"]
    assert [hop.name for hop in fabric.route("b", "e")] == ["ab", "ae"]
    link("e", "island")
    assert [hop.name for hop in fabric.route("island", "b")] == [
        "eisland", "ae", "ab"]


def test_importing_repro_leaves_networkx_out():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.serve, repro.cli\n"
         "print(sorted(m for m in sys.modules if 'networkx' in m))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
