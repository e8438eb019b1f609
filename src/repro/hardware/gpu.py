"""GPUs as data-path processing elements (§2.3, §4.2).

The paper: "when moving data from the storage layer to the GPU,
conventional network stacks require to go through the CPU with copies
of the data being made along the way and blocking CPU resources.
This has led to ways to bypass the CPU [GPUDirect] and also to smart
NICs that can not only communicate directly with the GPU but also
perform processing on the network data stream on the fly ... Their
use in database engines is yet to be explored."

A :class:`GPU` is a device with very high streaming throughput for
the massively parallel kinds (filter, hash, join probe, aggregate)
but a meaningful per-kernel launch latency, sitting behind a host
interconnect.  The fabric can attach it two ways (see
``FabricSpec.gpu``): reachable only through host DRAM (the
conventional path) or *also* directly from the NIC (GPUDirect) —
bench E6 compares the two.
"""

from __future__ import annotations

from ..sim import Simulator, Trace
from .device import GIB, Device, OpKind

__all__ = ["GPU", "gpu_rates"]

HBM_BANDWIDTH = 100.0 * GIB
"""A data-center GPU's memory bandwidth in bytes/second."""


def gpu_rates() -> dict[str, float]:
    """Throughput of database kernels on a data-center GPU.

    Massively parallel streaming kinds run near HBM bandwidth; regex
    and pointer-heavy work do comparatively poorly (divergence), and
    there is no stateless constraint — a GPU has real memory.
    """
    return {
        OpKind.FILTER: HBM_BANDWIDTH,
        OpKind.PROJECT: HBM_BANDWIDTH,
        OpKind.HASH: 0.8 * HBM_BANDWIDTH,
        OpKind.PARTITION: 0.6 * HBM_BANDWIDTH,
        OpKind.AGGREGATE: 0.6 * HBM_BANDWIDTH,
        OpKind.JOIN_BUILD: 0.3 * HBM_BANDWIDTH,
        OpKind.JOIN_PROBE: 0.5 * HBM_BANDWIDTH,
        OpKind.COUNT: HBM_BANDWIDTH,
        OpKind.SORT: 0.25 * HBM_BANDWIDTH,
        OpKind.REGEX: 0.05 * HBM_BANDWIDTH,   # divergence-bound
        OpKind.COMPRESS: 0.3 * HBM_BANDWIDTH,
        OpKind.DECOMPRESS: 0.5 * HBM_BANDWIDTH,
        OpKind.GENERIC: 0.2 * HBM_BANDWIDTH,
    }


class GPU(Device):
    """A GPU: huge streaming throughput, real kernel-launch latency.

    GPUs are programmed through explicit kernels (CUDA), so they are
    ``programmable`` in this model's sense too — stages pay a launch/
    install cost, which is larger than for fixed-function NIC units.
    """

    def __init__(self, sim: Simulator, trace: Trace, name: str):
        # Four concurrent kernels, 5 us to launch one.
        super().__init__(sim, trace, name,
                         rates=gpu_rates(),
                         startup=5e-6, slots=4, programmable=True)
