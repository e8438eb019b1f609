"""Calibrated fabric presets.

:func:`build_fabric` assembles the architecture of Figure 6 — a
storage node, a network switch, and one or more compute nodes, each
with a NIC, DRAM, an optional near-memory accelerator, a cache level,
and a CPU — with every knob of the paper exposed on
:class:`FabricSpec`: smart vs dumb storage and NICs, PCIe generation
vs CXL, network speed, core/controller counts.

Setting ``storage_attachment='local'`` collapses the topology to the
conventional von Neumann node of Figure 1 (local disk on PCIe), which
is the baseline fabric for experiment F1.

Site names are the vocabulary the placement layer uses:

========================  =============================================
site                      device
========================  =============================================
``storage.cu``            computational-storage unit (§3)
``storage.nic``           processor on the storage-side SmartNIC (§4)
``compute<i>.nic``        processor on a compute-side SmartNIC (§4)
``compute<i>.nearmem``    near-memory accelerator (§5)
``compute<i>.cpu``        host CPU (one slot per core)
========================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cpu import default_core_rates
from .device import GIB, Device
from .interconnect import (
    cache_bus,
    cxl_link,
    ethernet_link,
    memory_bus,
    pcie_link,
    rdma_link,
)
from .gpu import GPU
from .memory import DRAM, DisaggregatedMemoryNode, NearMemoryAccelerator
from .nic import NIC, SmartNIC
from .storage import ComputationalStorage, StorageMedium
from .topology import Fabric

__all__ = ["FabricSpec", "ComputeNode", "HeterogeneousFabric",
           "build_fabric", "conventional_spec", "dataflow_spec",
           "rack_spec"]


@dataclass
class FabricSpec:
    """Configuration knobs for :func:`build_fabric`.

    Each knob shapes a device or link a run can reach.  The §5.1
    socket model is the standalone :class:`~repro.hardware.cpu.CPUSocket`,
    not part of a fabric.
    """

    # Network.
    network_gbits: float = 100.0
    rdma: bool = True

    # Host interconnect (§6): PCIe generation, or CXL on PCIe 5/6.
    pcie_generation: int = 5
    use_cxl: bool = False

    # Storage layer (§3).
    storage_attachment: str = "network"       # "network" or "local"
    ssd_gib_per_s: float = 3.0
    smart_storage: bool = True
    storage_cu_scale: float = 1.0
    storage_nic: str = "smart"                # "smart" or "dumb"

    # Compute nodes (§4, §5).
    compute_nodes: int = 1
    compute_nic: str = "smart"                # "smart" or "dumb"
    near_memory: bool = True
    nearmem_gib_per_s: float = 40.0
    dram_capacity: int = 64 << 30

    # Optional GPU per compute node (§2.3, §4.2):
    # "none", "host" (reachable only through DRAM), or
    # "direct" (additionally NIC->GPU, i.e. GPUDirect).
    gpu: str = "none"
    gpu_hbm_gib_per_s: float = 100.0

    # CPU (§5.1): ``cores`` slots on the CPU site, ``controllers``
    # memory-bus ports of ``controller_gib`` GiB/s each.
    cores: int = 8
    controllers: int = 2
    core_ghz: float = 3.0
    controller_gib: float = 20.0

    # Optional disaggregated memory node (§5.3).
    disagg_memory: bool = False
    disagg_capacity: int = 256 << 30


def conventional_spec(**overrides) -> FabricSpec:
    """The Figure 1 node: local storage, no smarts anywhere."""
    base = dict(
        storage_attachment="local",
        smart_storage=False,
        storage_nic="dumb",
        compute_nic="dumb",
        near_memory=False,
        use_cxl=False,
    )
    base.update(overrides)
    return FabricSpec(**base)


def dataflow_spec(**overrides) -> FabricSpec:
    """The Figure 6 fabric: every data-path processing site enabled."""
    base = dict(
        storage_attachment="network",
        smart_storage=True,
        storage_nic="smart",
        compute_nic="smart",
        near_memory=True,
        use_cxl=True,
    )
    base.update(overrides)
    return FabricSpec(**base)


def rack_spec(compute_nodes: int = 4, **overrides) -> FabricSpec:
    """A fully disaggregated rack (§6.4).

    "A much more flexible way is to think of computers in terms of
    racks and populate the rack with more carefully apportioned
    resources": several thin compute nodes, pooled disaggregated
    memory, shared smart storage, CXL host interconnects, and a fast
    fabric between them.
    """
    base = dict(
        storage_attachment="network",
        smart_storage=True,
        storage_nic="smart",
        compute_nic="smart",
        near_memory=True,
        use_cxl=True,
        compute_nodes=compute_nodes,
        disagg_memory=True,
        network_gbits=400.0,
        # Thin compute: the rack's memory lives in the pool.
        dram_capacity=8 << 30,
        disagg_capacity=512 << 30,
    )
    base.update(overrides)
    return FabricSpec(**base)


@dataclass
class ComputeNode:
    """Handles to one compute node's devices: its sites, NIC and DRAM."""

    name: str
    nic: NIC
    dram: DRAM
    accelerator: Optional[NearMemoryAccelerator]
    cpu: Device
    gpu: Optional[GPU] = None


def _make_nic(kind: str, sim, trace, name: str, gbits: float) -> NIC:
    if kind == "smart":
        return SmartNIC(sim, trace, name, gbits=gbits)
    if kind == "dumb":
        return NIC(sim, trace, name, gbits=gbits)
    raise ValueError(f"unknown NIC kind {kind!r}")


class HeterogeneousFabric(Fabric):
    """A fabric with named handles to the paper's processing sites."""

    def __init__(self, spec: FabricSpec):
        super().__init__()
        self.spec = spec
        self.storage: ComputationalStorage
        self.storage_nic: Optional[NIC] = None
        self.compute: list[ComputeNode] = []
        self.disagg: Optional[DisaggregatedMemoryNode] = None
        self._sites: dict[str, Device] = {}
        self._site_locations: dict[str, str] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _host_link(self, name: str):
        if self.spec.use_cxl:
            return cxl_link(self.sim, self.trace, name,
                            generation=max(self.spec.pcie_generation, 5))
        return pcie_link(self.sim, self.trace, name,
                         generation=self.spec.pcie_generation)

    def _net_link(self, name: str):
        factory = rdma_link if self.spec.rdma else ethernet_link
        return factory(self.sim, self.trace, name,
                       gbits=self.spec.network_gbits)

    def _register_site(self, site: str, device: Device, location: str):
        self._sites[site] = device
        self._site_locations[site] = location
        self.add_device(device, at=location)

    def _build(self) -> None:
        spec = self.spec
        sim, trace = self.sim, self.trace

        # Storage node.
        self.add_location("storage.node")
        medium = StorageMedium.nvme_ssd(sim, trace, "storage.media",
                                        gib_per_s=spec.ssd_gib_per_s)
        self.storage = ComputationalStorage(
            sim, trace, "storage", medium=medium,
            cu_scale=spec.storage_cu_scale)
        if spec.smart_storage:
            self._register_site("storage.cu", self.storage.cu,
                                "storage.node")

        # Compute nodes.
        for i in range(spec.compute_nodes):
            node = self._build_compute_node(f"compute{i}")
            self.compute.append(node)

        # Wire storage to compute.
        if spec.storage_attachment == "local":
            if spec.compute_nodes != 1:
                raise ValueError("local storage implies one compute node")
            link = self._host_link("storage.pcie")
            self.connect("storage.node", "compute0.dram", link)
        elif spec.storage_attachment == "network":
            self.storage_nic = _make_nic(
                spec.storage_nic, sim, trace, "storage.nic",
                spec.network_gbits)
            if self.storage_nic.processor is not None:
                self._register_site("storage.nic", self.storage_nic.processor,
                                    "storage.node")
            self.add_location("switch")
            self.connect("storage.node", "switch",
                         self._net_link("net.storage"))
            for i in range(spec.compute_nodes):
                self.connect("switch", f"compute{i}.node",
                             self._net_link(f"net.compute{i}"))
        else:
            raise ValueError(
                f"unknown storage_attachment {spec.storage_attachment!r}")

        # Optional disaggregated memory node (§5.3).
        if spec.disagg_memory:
            self.disagg = DisaggregatedMemoryNode(
                sim, trace, "memnode", capacity=spec.disagg_capacity,
                nic_gbits=spec.network_gbits,
                smart_nic=spec.compute_nic == "smart",
                accelerator=spec.near_memory)
            self.add_location("memnode.node")
            self.connect("memnode.node", "switch",
                         self._net_link("net.memnode"))
            if self.disagg.accelerator is not None:
                self._register_site("memnode.accel", self.disagg.accelerator,
                                    "memnode.node")

    def _build_compute_node(self, name: str) -> ComputeNode:
        spec = self.spec
        sim, trace = self.sim, self.trace
        loc_node = f"{name}.node"
        loc_dram = f"{name}.dram"
        loc_llc = f"{name}.llc"
        loc_cpu = f"{name}.cpu"
        for loc in (loc_node, loc_dram, loc_llc, loc_cpu):
            self.add_location(loc)

        nic = _make_nic(spec.compute_nic, sim, trace, f"{name}.nic",
                        spec.network_gbits)
        if nic.processor is not None:
            self._register_site(f"{name}.nic", nic.processor, loc_node)

        dram = DRAM(sim, trace, f"{name}.dram",
                    capacity=spec.dram_capacity)
        accel = None
        if spec.near_memory:
            accel = NearMemoryAccelerator(
                sim, trace, f"{name}.nearmem",
                memory_bandwidth=spec.nearmem_gib_per_s * GIB)
            self._register_site(f"{name}.nearmem", accel, loc_dram)

        cpu = Device(sim, trace, f"{name}.cpu",
                     rates=default_core_rates(spec.core_ghz),
                     startup=0.0, slots=spec.cores)
        self._register_site(f"{name}.cpu", cpu, loc_cpu)

        # Host links: NIC -> DRAM (PCIe/CXL), DRAM -> LLC (memory bus,
        # one port per controller), LLC -> cores (on-chip).
        self.connect(loc_node, loc_dram, self._host_link(f"{name}.host"))
        self.connect(loc_dram, loc_llc, memory_bus(
            sim, trace, f"{name}.membus", gib_per_s=spec.controller_gib,
            ports=spec.controllers))
        self.connect(loc_llc, loc_cpu,
                     cache_bus(sim, trace, f"{name}.cachebus"))

        gpu = None
        if spec.gpu != "none":
            if spec.gpu not in ("host", "direct"):
                raise ValueError(f"unknown gpu mode {spec.gpu!r}")
            loc_gpu = f"{name}.gpu"
            self.add_location(loc_gpu)
            gpu = GPU(sim, trace, f"{name}.gpu",
                      hbm_bandwidth=spec.gpu_hbm_gib_per_s * GIB)
            self._register_site(f"{name}.gpu", gpu, loc_gpu)
            # Conventional attachment: behind host DRAM.
            self.connect(loc_dram, loc_gpu,
                         self._host_link(f"{name}.gpu_host"))
            if spec.gpu == "direct":
                # GPUDirect (§4.2): the NIC reaches the GPU without
                # crossing host memory.
                self.connect(loc_node, loc_gpu,
                             self._host_link(f"{name}.gpudirect"))

        return ComputeNode(name=name, nic=nic, dram=dram, accelerator=accel,
                           cpu=cpu, gpu=gpu)

    # -- what-if perturbation registry ---------------------------------------

    #: Canonical spellings for resource knobs (``repro whatif --vary``).
    RESOURCE_ALIASES = {
        "nic.bw": "net.bw",
        "nic.lat": "net.lat",
        "disk.bw": "ssd.bw",
        "disk.lat": "ssd.lat",
    }

    @classmethod
    def canonical_resource(cls, resource: str) -> str:
        """Resolve aliases (``nic.bw`` -> ``net.bw``)."""
        return cls.RESOURCE_ALIASES.get(resource, resource)

    #: Link segment -> the knob prefix that scales it (``net.bw``).
    SEGMENT_KNOBS = {"network": "net", "pcie": "pcie", "cxl": "cxl",
                     "membus": "membus", "cache": "cache"}

    def _links_by_segment(self, segment: str) -> list:
        return [link for link in self.links() if link.segment == segment]

    def _all_nics(self) -> list[NIC]:
        nics = [node.nic for node in self.compute]
        if self.storage_nic is not None:
            nics.append(self.storage_nic)
        if self.disagg is not None:
            nics.append(self.disagg.nic)
        return nics

    def perturbable_resources(self) -> dict[str, str]:
        """Resource knobs present on *this* fabric, with descriptions.

        Keys are the vocabulary of the causal what-if engine: each one
        names a class of hardware the simulation can be re-run with
        scaled up or down.  Only knobs whose hardware actually exists
        on the fabric are listed (e.g. ``gpu.speed`` only appears when
        the spec attaches a GPU).
        """
        out: dict[str, str] = {}
        for segment, prefix in self.SEGMENT_KNOBS.items():
            links = self._links_by_segment(segment)
            if not links:
                continue
            names = ", ".join(sorted(link.name for link in links))
            out[f"{prefix}.bw"] = f"bandwidth of {names}"
            out[f"{prefix}.lat"] = f"latency of {names}"
        out["ssd.bw"] = f"bandwidth of medium {self.storage.medium.name}"
        out["ssd.lat"] = f"access latency of {self.storage.medium.name}"
        cpus = [node.cpu.name for node in self.compute]
        out["cpu.speed"] = "compute rates of " + ", ".join(cpus)
        nic_procs = [nic.processor.name for nic in self._all_nics()
                     if nic.processor is not None]
        if nic_procs:
            out["nic.speed"] = "compute rates of " + ", ".join(nic_procs)
        if self.has_site("storage.cu"):
            out["storage_cu.speed"] = (
                f"compute rates of {self.storage.cu.name}")
        nearmems = [node.accelerator.name for node in self.compute
                    if node.accelerator is not None]
        if self.disagg is not None and self.disagg.accelerator is not None:
            nearmems.append(self.disagg.accelerator.name)
        if nearmems:
            out["nearmem.speed"] = "compute rates of " + ", ".join(nearmems)
        gpus = [node.gpu.name for node in self.compute
                if node.gpu is not None]
        if gpus:
            out["gpu.speed"] = "compute rates of " + ", ".join(gpus)
        return out

    def apply_perturbation(self, resource: str, factor: float) -> None:
        """Multiply the named resource's quantity by ``factor``.

        ``factor`` is a *raw* multiplier on the underlying quantity:
        ``("net.bw", 2.0)`` doubles network bandwidth, and
        ``("net.lat", 0.5)`` halves network latency — both
        improvements.  ``factor=1.0`` is an exact no-op on every hook,
        which the what-if engine relies on to verify bit-identical
        baselines.  Raises ``ValueError`` for knobs absent from this
        fabric (see :meth:`perturbable_resources`).
        """
        resource = self.canonical_resource(resource)
        available = self.perturbable_resources()
        if resource not in available:
            raise ValueError(
                f"unknown or absent resource {resource!r} "
                f"(this fabric has: {sorted(available)})")
        prefix, _, knob = resource.rpartition(".")
        segments = {p: segment for segment, p in self.SEGMENT_KNOBS.items()}
        if prefix in segments:
            for link in self._links_by_segment(segments[prefix]):
                if knob == "bw":
                    link.scale_bandwidth(factor)
                else:
                    link.scale_latency(factor)
            if resource == "net.bw":
                # The NICs' DMA engines run at the wire's line rate.
                for nic in self._all_nics():
                    nic.scale_line_rate(factor)
        elif prefix == "ssd":
            if knob == "bw":
                self.storage.medium.scale_bandwidth(factor)
            else:
                self.storage.medium.scale_latency(factor)
        elif resource == "cpu.speed":
            for node in self.compute:
                node.cpu.scale_speed(factor)
        elif resource == "nic.speed":
            for nic in self._all_nics():
                if nic.processor is not None:
                    nic.processor.scale_speed(factor)
        elif resource == "storage_cu.speed":
            self.storage.cu.scale_speed(factor)
        elif resource == "nearmem.speed":
            for node in self.compute:
                if node.accelerator is not None:
                    node.accelerator.scale_speed(factor)
            if self.disagg is not None and self.disagg.accelerator is not None:
                self.disagg.accelerator.scale_speed(factor)
        elif resource == "gpu.speed":
            for node in self.compute:
                if node.gpu is not None:
                    node.gpu.scale_speed(factor)
        else:  # pragma: no cover - guarded by the availability check
            raise ValueError(f"unhandled resource {resource!r}")

    # -- site API ------------------------------------------------------------

    @property
    def sites(self) -> dict[str, Device]:
        """Mapping of site name to the device that hosts work there."""
        return dict(self._sites)

    def site_device(self, site: str) -> Device:
        if site not in self._sites:
            raise KeyError(
                f"site {site!r} not present on this fabric "
                f"(have: {sorted(self._sites)})")
        return self._sites[site]

    def site_location(self, site: str) -> str:
        return self._site_locations[site]

    def has_site(self, site: str) -> bool:
        return site in self._sites

    @property
    def storage_location(self) -> str:
        """Where table data originates."""
        return "storage.node"

    def cpu_site(self, node: int = 0) -> str:
        return f"compute{node}.cpu"


def build_fabric(spec: Optional[FabricSpec] = None) -> HeterogeneousFabric:
    """Build a fabric from ``spec`` (default: the full Figure 6 setup)."""
    return HeterogeneousFabric(spec if spec is not None else dataflow_spec())
