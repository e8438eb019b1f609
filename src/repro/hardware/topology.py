"""The fabric: devices and links arranged in a topology graph.

A :class:`Fabric` owns the simulator, the trace, a set of named
devices, and an undirected graph whose nodes are *locations* (strings)
and whose edges carry :class:`~repro.hardware.interconnect.Link`
objects — a plain ``{location: {neighbour: link}}`` adjacency routed
by breadth-first search (in every preset fabric the fewest-hop path
between two locations is unique).  Devices sit at locations; data moves
between locations along shortest paths, store-and-forward per chunk.

The fabric is the substrate every experiment shares: the CPU-centric
baseline and the data-flow engine run on the *same* fabric, so their
byte counters are directly comparable.
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional

from ..sim import Simulator, Trace
from .device import Device
from .interconnect import Link

__all__ = ["Fabric", "NoRouteError"]


class NoRouteError(Exception):
    """No path exists between two fabric locations."""


class Fabric:
    """A named collection of devices and links with routing."""

    def __init__(self, sim: Optional[Simulator] = None,
                 trace: Optional[Trace] = None):
        self.sim = sim if sim is not None else Simulator()
        self.trace = trace if trace is not None else Trace()
        self._adjacent: dict[str, dict[str, Link]] = {}
        self.devices: dict[str, Device] = {}
        self._locations: dict[str, str] = {}  # device name -> node
        # dst -> {src: links}, built by one search per destination.
        self._routes: dict[str, dict[str, list[Link]]] = {}

    # -- construction ------------------------------------------------------

    def add_location(self, node: str) -> str:
        """Declare a passive location (e.g. ``dram0``, ``ssd0``)."""
        self._adjacent.setdefault(node, {})
        self._routes.clear()
        return node

    def add_device(self, device: Device, at: str) -> Device:
        """Register ``device`` at location ``at`` (created if needed)."""
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r}")
        self.add_location(at)
        self.devices[device.name] = device
        self._locations[device.name] = at
        return device

    def connect(self, a: str, b: str, link: Link) -> Link:
        """Join locations ``a`` and ``b`` with ``link``."""
        self.add_location(a)
        self.add_location(b)
        self._adjacent[a][b] = self._adjacent[b][a] = link
        return link

    # -- lookup ------------------------------------------------------------

    def links(self) -> Iterator[Link]:
        """Every link once: locations in the order they were declared,
        each one's links in the order they were connected."""
        done: set[str] = set()
        for node, neighbours in self._adjacent.items():
            yield from (link for other, link in neighbours.items()
                        if other not in done)
            done.add(node)

    def device_slots(self) -> dict[str, int]:
        """Parallel slot count per device (for utilization math)."""
        return {name: device.slots
                for name, device in self.devices.items()}

    # -- routing -----------------------------------------------------------

    def route(self, src: str, dst: str) -> list[Link]:
        """Links along the shortest path from ``src`` to ``dst``.

        Locations may be given either as node names or device names.
        An empty list means src and dst share a location.
        """
        src = self._locations.get(src, src)
        dst = self._locations.get(dst, dst)
        routes = self._routes.get(dst)
        if routes is None and dst in self._adjacent:
            # Breadth-first from dst: a location reached extends the
            # route of the one it was reached from by one hop, so one
            # search builds every route into dst, in travel order.
            routes = self._routes[dst] = {dst: []}
            for node in (reached := [dst]):
                for other, link in self._adjacent[node].items():
                    if other not in routes:
                        routes[other] = [link, *routes[node]]
                        reached.append(other)
        links = routes.get(src) if routes else None
        if links is None:
            unknown = [loc for loc in (src, dst) if loc not in self._adjacent]
            why = f": unknown location {unknown[0]!r}" if unknown else ""
            raise NoRouteError(f"no route {src!r} -> {dst!r}{why}")
        return links

    # -- movement ------------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float,
                 flow: str = "") -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst`` (simulation process).

        The transfer crosses each link on the route in sequence
        (store-and-forward at the granularity the caller chunks at).
        """
        direction = f"{src}->{dst}"
        for link in self.route(src, dst):
            yield from link.transfer(nbytes, flow=flow,
                                     direction=direction)

    # -- reporting -----------------------------------------------------------

    def movement_report(self) -> dict[str, float]:
        """Bytes moved per segment class (network, pcie, membus, ...)."""
        prefix = "movement."
        return {key[len(prefix):]: value
                for key, value in sorted(self.trace.counters.items())
                if key.startswith(prefix)}

    def utilization_report(self, elapsed: Optional[float] = None
                           ) -> dict[str, float]:
        """Busy fraction of every device and link (0..1).

        The quantity §7.3's scheduler reasons about: which resources a
        workload actually saturated.
        """
        report: dict[str, float] = {}
        for name, device in sorted(self.devices.items()):
            report[f"device:{name}"] = device.utilization(elapsed)
        for link in self.links():
            report.setdefault(f"link:{link.name}",
                              link.utilization(elapsed))
        return report

    def run(self, until: Optional[float] = None) -> None:
        """Run the underlying simulator."""
        self.sim.run(until=until)
