"""The data-movement-first cost model (§1, §7.1).

The paper's core optimizer requirement: "consider data movement cost
in a disaggregated setting as a first-class concern when ranking query
plans."  The model therefore predicts, for a (plan, placement) pair:

* the bytes crossing every fabric segment (network, pcie/cxl, membus,
  cache) — from per-node cardinality estimates and the routes between
  consecutive placement sites;
* the busy time of every device — from the same byte counts and the
  devices' per-kind rates (the *same* ``service_time`` the simulator
  charges, so model and simulator cannot drift);
* a bottleneck makespan estimate — pipeline execution is limited by
  its most loaded resource, plus end-to-end latency.

Cardinalities come from catalog statistics by default; exact
cardinalities can be injected (the optimizer's tests do this to check
the model against simulated counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine.logical import (
    Aggregate,
    Join,
    PlanNode,
    Scan,
)
from ..engine.operators import partial_state_schema
from ..engine.placement import Placement, _node_kind
from ..hardware.device import OpKind
from ..hardware.presets import HeterogeneousFabric
from ..relational.catalog import Catalog

__all__ = ["CostModel", "PlanCost"]


@dataclass
class PlanCost:
    """Predicted costs of one placed plan."""

    placement: Placement
    segment_bytes: dict[str, float] = field(default_factory=dict)
    device_time: dict[str, float] = field(default_factory=dict)
    link_time: dict[str, float] = field(default_factory=dict)
    latency: float = 0.0

    @property
    def total_bytes(self) -> float:
        return sum(self.segment_bytes.values())

    @property
    def network_bytes(self) -> float:
        return self.segment_bytes.get("network", 0.0)

    @property
    def bottleneck_time(self) -> float:
        """Pipeline makespan estimate: the most loaded resource."""
        busiest = 0.0
        if self.device_time:
            busiest = max(self.device_time.values())
        if self.link_time:
            busiest = max(busiest, max(self.link_time.values()))
        return busiest + self.latency


class CostModel:
    """Predicts movement and time for (plan, placement) pairs."""

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 cardinalities: Optional[dict[int, float]] = None):
        self.fabric = fabric
        self.catalog = catalog
        self.cardinalities = cardinalities or {}

    # -- cardinalities ---------------------------------------------------

    def rows_out(self, node: PlanNode) -> float:
        """Estimated (or injected exact) output rows of a node."""
        if node.node_id in self.cardinalities:
            return self.cardinalities[node.node_id]
        return node.estimate_rows(self.catalog)

    # -- the model ---------------------------------------------------

    def for_plan(self, plan: PlanNode) -> "_PlanCoster":
        """Estimate ``plan`` once; the coster prices its placements."""
        return _PlanCoster(self, plan)

    def cost(self, plan: PlanNode, placement: Placement) -> PlanCost:
        """Predict segment bytes, device time, and makespan."""
        return self.for_plan(plan).cost(placement)


class _PlanCoster:
    """Everything about one plan that no placement changes.

    Rows, bytes and partial-state row sizes per node are derived in one
    pass; routes and device rates are resolved on first use.  A coster
    lives for one ``rank()`` (or one ``CostModel.cost``), so the next
    call sees catalog and fabric changes.
    """

    def __init__(self, model: CostModel, plan: PlanNode):
        self.fabric = model.fabric
        self.plan = plan
        self.rows: dict[int, float] = {}
        self.nbytes: dict[int, float] = {}
        self.state_row: dict[int, int] = {}     # aggregates only
        self.kind: dict[int, str] = {}          # streaming operators only
        self._links: dict[tuple[str, str], list] = {}
        self._rates: dict[tuple[str, str], float] = {}
        # Walk order is children-first, the order costs are charged in.
        self._steps = []
        schemas = {}
        for node in plan.walk():
            nid = node.node_id
            schemas[nid] = schema = node.output_schema(model.catalog)
            self.rows[nid] = model.rows_out(node)
            self.nbytes[nid] = self.rows[nid] * schema.row_nbytes
            if isinstance(node, Scan):
                visit = self._visit_scan
            elif isinstance(node, Aggregate):
                self.state_row[nid] = partial_state_schema(
                    schemas[node.child.node_id], node.group_by,
                    node.aggs).row_nbytes
                visit = self._visit_aggregate
            elif isinstance(node, Join):
                visit = self._visit_join
            else:
                self.kind[nid] = _node_kind(node)
                visit = self._visit_streaming
            self._steps.append((visit, node))

    def cost(self, placement: Placement) -> PlanCost:
        out = PlanCost(placement=placement)
        for visit, node in self._steps:
            visit(node, placement, out)
        # Final hop: root output to the result site.
        self._charge_move(out, self._output_site(self.plan, placement),
                          placement.result_site,
                          self.nbytes[self.plan.node_id])
        return out

    def _visit_scan(self, node: Scan, placement: Placement,
                    out: PlanCost) -> None:
        # Storage read: the medium's time is a device-like cost.
        nbytes = self.nbytes[node.node_id]
        out.device_time["storage.media"] = (
            out.device_time.get("storage.media", 0.0)
            + nbytes / self.fabric.storage.medium.read_bandwidth)
        out.segment_bytes["storage"] = (
            out.segment_bytes.get("storage", 0.0) + nbytes)

    def _visit_streaming(self, node: PlanNode, placement: Placement,
                         out: PlanCost) -> None:
        # Streaming unary operators: move input to the site, do work.
        child = node.children[0]
        site = placement.site(node)
        in_bytes = self.nbytes[child.node_id]
        self._charge_move(out, self._output_site(child, placement),
                          site, in_bytes)
        self._charge_work(out, site, self.kind[node.node_id], in_bytes)

    def _visit_aggregate(self, node: Aggregate, placement: Placement,
                         out: PlanCost) -> None:
        child = node.children[0]
        chain = placement.chain(node)
        in_bytes = self.nbytes[child.node_id]
        in_rows = self.rows[child.node_id]
        groups = self.rows[node.node_id]
        state_row = self.state_row[node.node_id]
        # Chunked partials: each chunk emits at most `groups` states.
        chunk_rows = 65536.0
        n_chunks = max(1.0, in_rows / chunk_rows)
        partial_rows = min(in_rows, groups * n_chunks)
        stream = in_bytes
        prev_site = self._output_site(child, placement)
        for index, site in enumerate(chain):
            self._charge_move(out, prev_site, site, stream)
            self._charge_work(out, site, OpKind.AGGREGATE, stream)
            if index == 0:
                stream = partial_rows * state_row
            elif index < len(chain) - 1:
                # Merges collapse duplicate groups chunk by chunk.
                partial_rows = min(partial_rows, groups * n_chunks)
                stream = partial_rows * state_row
            else:
                stream = groups * state_row
            prev_site = site

    def _visit_join(self, node: Join, placement: Placement,
                    out: PlanCost) -> None:
        site = placement.site(node)
        build_bytes = self.nbytes[node.right.node_id]
        probe_bytes = self.nbytes[node.left.node_id]
        if placement.partitions > 1:
            self._visit_partitioned_join(node, placement, out,
                                         build_bytes, probe_bytes)
            return
        self._charge_move(out, self._output_site(node.right, placement),
                          site, build_bytes)
        self._charge_move(out, self._output_site(node.left, placement),
                          site, probe_bytes)
        self._charge_work(out, site, OpKind.JOIN_BUILD, build_bytes)
        self._charge_work(out, site, OpKind.JOIN_PROBE, probe_bytes)

    def _visit_partitioned_join(self, node: Join, placement: Placement,
                                out: PlanCost, build_bytes: float,
                                probe_bytes: float) -> None:
        """Figure 4's scattering pipeline: NIC partition + n-way join.

        Both relations cross the scatter site once (partition work),
        then split 1/n to each node; per-node build/probe devices see
        1/n of the bytes, so the join's device time shrinks with n —
        the win the paper promises — while the scatter site and the
        shared network absorb the exchange.
        """
        n = placement.partitions
        scatter = ("storage.nic" if self.fabric.has_site("storage.nic")
                   else placement.site(node))
        for child, nbytes, kind in (
                (node.right, build_bytes, OpKind.JOIN_BUILD),
                (node.left, probe_bytes, OpKind.JOIN_PROBE)):
            self._charge_move(out, self._output_site(child, placement),
                              scatter, nbytes)
            self._charge_work(out, scatter, OpKind.PARTITION, nbytes)
            for i in range(n):
                node_site = placement.site(node).replace(
                    "compute0", f"compute{i}")
                self._charge_move(out, scatter, node_site, nbytes / n)
                self._charge_work(out, node_site, kind, nbytes / n)
        # Gather: remote nodes' shares of the output converge on the
        # join's nominal site (node 0), where the parent continues.
        out_bytes = self.nbytes[node.node_id]
        for i in range(1, n):
            node_site = placement.site(node).replace(
                "compute0", f"compute{i}")
            self._charge_move(out, node_site, placement.site(node),
                              out_bytes / n)

    # -- charging helpers ---------------------------------------------------

    def _output_site(self, node: PlanNode,
                     placement: Placement) -> str:
        """The site at which a node's output materializes."""
        if isinstance(node, Scan):
            return "__storage__"
        return placement.chain(node)[-1]

    def _site_location(self, site: str) -> str:
        if site == "__storage__":
            return self.fabric.storage_location
        return self.fabric.site_location(site)

    def _charge_move(self, out: PlanCost, src_site: str, dst_site: str,
                     nbytes: float) -> None:
        if nbytes <= 0:
            return
        links = self._links.get((src_site, dst_site))
        if links is None:
            links = self._links[src_site, dst_site] = self.fabric.route(
                self._site_location(src_site),
                self._site_location(dst_site))
        for link in links:
            out.segment_bytes[link.segment] = (
                out.segment_bytes.get(link.segment, 0.0) + nbytes)
            out.link_time[link.name] = (
                out.link_time.get(link.name, 0.0)
                + nbytes / link.bandwidth)
            out.latency += link.latency

    def _charge_work(self, out: PlanCost, site: str, kind: str,
                     nbytes: float) -> None:
        if nbytes <= 0:
            return
        rate = self._rates.get((site, kind))
        if rate is None:
            rate = self._rates[site, kind] = self.fabric.site_device(
                site).rate_for(kind)
        # Same formula the simulator charges (Device.service_time),
        # minus per-op startup, which depends on chunking.
        out.device_time[site] = (
            out.device_time.get(site, 0.0) + nbytes / rate)
