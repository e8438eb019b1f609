"""Simulated hardware: devices, links, and fabric topologies.

Device models follow the paper's taxonomy — computational storage
(§3), SmartNICs (§4), near-memory accelerators and disaggregated
memory (§5), PCIe/CXL interconnects with coherence (§6) — plus the
conventional CPU (§2.1) and memory bus (§5.1) they are compared
against.
"""

from .. import _lazy_exports

_EXPORTS = {
    "GIB": "device",
    "CoherenceDomain": "interconnect",
    "ComputationalStorage": "storage",
    "ComputeNode": "presets",
    "Device": "device",
    "DisaggregatedMemoryNode": "memory",
    "DRAM": "memory",
    "Fabric": "topology",
    "FabricSpec": "presets",
    "GPU": "gpu",
    "FreeList": "functional_units",
    "HeterogeneousFabric": "presets",
    "HierarchicalBlockStore": "functional_units",
    "Link": "interconnect",
    "LRUCache": "memory",
    "NearMemoryAccelerator": "memory",
    "NIC": "nic",
    "NoRouteError": "topology",
    "OpKind": "device",
    "SmartNIC": "nic",
    "StorageMedium": "storage",
    "UnsupportedOperation": "device",
    "build_fabric": "presets",
    "cache_bus": "interconnect",
    "chase_near_memory": "functional_units",
    "chase_on_cpu": "functional_units",
    "conventional_spec": "presets",
    "cxl_link": "interconnect",
    "dataflow_spec": "presets",
    "default_core_rates": "device",
    "ethernet_link": "interconnect",
    "gc_near_memory": "functional_units",
    "gc_on_cpu": "functional_units",
    "gpu_rates": "gpu",
    "memory_bus": "interconnect",
    "memory_read": "memory",
    "pcie_link": "interconnect",
    "rack_spec": "presets",
    "rdma_link": "interconnect",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
