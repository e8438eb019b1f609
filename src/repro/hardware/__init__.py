"""Simulated hardware: devices, links, and fabric topologies.

Device models follow the paper's taxonomy — computational storage
(§3), SmartNICs (§4), near-memory accelerators and disaggregated
memory (§5), PCIe/CXL interconnects with coherence (§6) — plus the
conventional CPU socket (§2.1, §5.1) they are compared against.
"""

from .cpu import (
    CacheHierarchy,
    CPUSocket,
    LRUCache,
    MemoryController,
    Server,
    default_core_rates,
)
from .device import GIB, Device, OpKind, UnsupportedOperation
from .gpu import GPU, gpu_rates
from .functional_units import (
    FreeList,
    HierarchicalBlockStore,
    chase_near_memory,
    chase_on_cpu,
    gc_near_memory,
    gc_on_cpu,
)
from .interconnect import (
    CoherenceDomain,
    Link,
    cache_bus,
    cxl_link,
    ethernet_link,
    memory_bus,
    pcie_link,
    rdma_link,
)
from .memory import DRAM, DisaggregatedMemoryNode, NearMemoryAccelerator
from .nic import NIC, SmartNIC
from .presets import (
    ComputeNode,
    FabricSpec,
    HeterogeneousFabric,
    build_fabric,
    conventional_spec,
    dataflow_spec,
    rack_spec,
)
from .storage import ComputationalStorage, StorageMedium
from .topology import Fabric, NoRouteError

__all__ = [
    "GIB",
    "CacheHierarchy",
    "CoherenceDomain",
    "ComputationalStorage",
    "ComputeNode",
    "CPUSocket",
    "Device",
    "DisaggregatedMemoryNode",
    "DRAM",
    "Fabric",
    "FabricSpec",
    "GPU",
    "FreeList",
    "HeterogeneousFabric",
    "HierarchicalBlockStore",
    "Link",
    "LRUCache",
    "MemoryController",
    "NearMemoryAccelerator",
    "NIC",
    "NoRouteError",
    "OpKind",
    "Server",
    "SmartNIC",
    "StorageMedium",
    "UnsupportedOperation",
    "build_fabric",
    "cache_bus",
    "chase_near_memory",
    "chase_on_cpu",
    "conventional_spec",
    "cxl_link",
    "dataflow_spec",
    "default_core_rates",
    "ethernet_link",
    "gc_near_memory",
    "gc_on_cpu",
    "gpu_rates",
    "memory_bus",
    "pcie_link",
    "rack_spec",
    "rdma_link",
]
