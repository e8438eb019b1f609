"""E6 (extension) — GPUs on the data path and the CPU bypass (§4.2).

The paper: moving data from storage to the GPU through "conventional
network stacks require[s] to go through the CPU with copies of the
data being made along the way and blocking CPU resources", which led
to CPU-bypass (GPUDirect) and to SmartNICs that talk to the GPU
directly.  "Their use in database engines is yet to be explored."

Exploration: a filter + hash-partition workload executed on the GPU
with the stream arriving from remote storage, three ways:

* **host-staged + CPU copies**: NIC -> DRAM -> GPU, the host CPU
  touching every byte (the conventional stack);
* **host-staged DMA**: same route, DMA engines moving the data;
* **GPUDirect**: NIC -> GPU, host memory and CPU untouched.
"""

from .. import build_fabric, col, dataflow_spec, make_uniform_table
from ..engine.operators import FilterOp, PartitionOp
from ..flow import StageGraph
from . import above, exactly

ROWS = 200_000
CHUNK = 16_384


def run_case(mode: str) -> dict:
    gpu_attach = "direct" if mode == "gpudirect" else "host"
    fabric = build_fabric(dataflow_spec(gpu=gpu_attach))
    table = make_uniform_table(ROWS, columns=4, distinct=1000,
                               chunk_rows=CHUNK)
    graph = StageGraph(fabric, name=f"e6_{mode}")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    gpu_stage = graph.sink("gpu", "compute0.gpu",
                           [FilterOp(col("k0") < 500),
                            PartitionOp("k1", 4)])
    cpu_mediator = (fabric.site_device("compute0.cpu")
                    if mode == "host+cpu-copies" else None)
    graph.connect(src, gpu_stage, cpu_mediator=cpu_mediator)
    result = graph.run()
    rows_out = sum(c.num_rows for c in gpu_stage.collected)
    return {
        "mode": mode,
        "rows_out": rows_out,
        "elapsed": result.elapsed,
        "host_dram_bytes": fabric.trace.link_report().get(
            "compute0.host", {"bytes": 0.0})["bytes"],
        "cpu_busy": fabric.trace.busy_time("device.compute0.cpu"),
        "gpu_busy": fabric.trace.busy_time("device.compute0.gpu"),
    }


def run() -> list[dict]:
    return [run_case("host+cpu-copies"), run_case("host+dma"),
            run_case("gpudirect")]


CHECKS = {
    "every_path_computes_the_same_rows":
        lambda rows: exactly(len({r["rows_out"] for r in rows}), 1),
    # The conventional stack blocks CPU resources; DMA does not.
    "cpu_copies_block_the_cpu": lambda rows: above(rows[0]["cpu_busy"], 0),
    "dma_and_gpudirect_leave_the_cpu_idle": lambda rows: exactly(
        max(rows[1]["cpu_busy"], rows[2]["cpu_busy"]), 0),
    # Host DRAM is crossed unless GPUDirect is used.
    "cpu_copies_stage_in_host_dram":
        lambda rows: above(rows[0]["host_dram_bytes"], 0),
    "dma_stages_in_host_dram":
        lambda rows: above(rows[1]["host_dram_bytes"], 0),
    "gpudirect_bypasses_host_dram":
        lambda rows: exactly(rows[2]["host_dram_bytes"], 0),
    # Each step of bypass is faster.
    "each_bypass_step_is_faster": lambda rows: (
        rows[2]["elapsed"] <= rows[1]["elapsed"] <= rows[0]["elapsed"],
        rows[0]["elapsed"] / rows[2]["elapsed"]),
}
