"""repro — data-flow query processing on simulated modern hardware.

A full reproduction of Lerner & Alonso, *Data Flow Architectures for
Data Processing on Modern Hardware* (ICDE 2024): a discrete-event
simulated fabric of heterogeneous devices (computational storage,
SmartNICs, near-memory accelerators, CXL interconnects), a real
columnar relational engine with two execution models — the pull-based
CPU-centric Volcano baseline and the push-based data-flow architecture
the paper proposes — plus a movement-aware optimizer, an
interference-aware scheduler, and the cloud substrate (object store,
data-center tax, buffer pool, caches) the argument is set in.

Quickstart::

    from repro import (Catalog, DataflowEngine, Query, VolcanoEngine,
                       build_fabric, col, dataflow_spec, make_lineitem)

    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(100_000))
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 45)
             .project(["l_orderkey", "l_extendedprice"]))
    result = DataflowEngine(fabric, catalog).execute(query)
    print(result.rows, result.bytes_on("network"))
"""

from .cloud import (
    BufferPool,
    DataCache,
    EgressOp,
    IngressOp,
    ObjectStore,
    ResultCache,
    TaxConfig,
)
from .engine import (
    AggSpec,
    DataflowEngine,
    Placement,
    PlacementError,
    Query,
    QueryResult,
    VolcanoEngine,
    cpu_only,
    data_path_sites,
    pushdown,
)
from .flow import CreditChannel, StageGraph
from .hardware import (
    FabricSpec,
    HeterogeneousFabric,
    OpKind,
    build_fabric,
    conventional_spec,
    dataflow_spec,
    rack_spec,
)
from .optimizer import CostModel, Optimizer, PlanCost
from .relational import (
    Catalog,
    Chunk,
    DataType,
    Field,
    Schema,
    Table,
    col,
    lit,
    make_lineitem,
    make_orders,
    make_sensor_readings,
    make_uniform_table,
)
from .relational.sql import SqlError, parse_sql
from .scheduler import ScheduledQuery, Scheduler
from .sim import Simulator, Trace

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "BufferPool",
    "Catalog",
    "Chunk",
    "CostModel",
    "CreditChannel",
    "DataCache",
    "DataType",
    "DataflowEngine",
    "EgressOp",
    "FabricSpec",
    "Field",
    "HeterogeneousFabric",
    "IngressOp",
    "ObjectStore",
    "OpKind",
    "Optimizer",
    "Placement",
    "PlacementError",
    "PlanCost",
    "Query",
    "QueryResult",
    "ResultCache",
    "ScheduledQuery",
    "Scheduler",
    "Schema",
    "Simulator",
    "StageGraph",
    "Table",
    "TaxConfig",
    "Trace",
    "VolcanoEngine",
    "build_fabric",
    "col",
    "conventional_spec",
    "cpu_only",
    "data_path_sites",
    "dataflow_spec",
    "lit",
    "make_lineitem",
    "make_orders",
    "make_sensor_readings",
    "make_uniform_table",
    "parse_sql",
    "pushdown",
    "rack_spec",
    "SqlError",
]
