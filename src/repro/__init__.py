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

import importlib

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, table: dict[str, str]):
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``, exporting each name of ``table`` from its submodule
    (PEP 562).

    Every package of ``repro`` lists its exports this way, so importing
    a package runs none of its submodules: a name imports its submodule
    the first time it is read, and stays in the package's namespace.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{module}"),
                        name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "AggSpec": "engine",
    "BufferPool": "cloud",
    "Catalog": "relational",
    "Chunk": "relational",
    "CostModel": "optimizer",
    "CreditChannel": "flow",
    "DataType": "relational",
    "DataflowEngine": "engine",
    "EgressOp": "cloud",
    "FabricSpec": "hardware",
    "Field": "relational",
    "HeterogeneousFabric": "hardware",
    "IngressOp": "cloud",
    "LRUCache": "hardware",
    "ObjectStore": "cloud",
    "OpKind": "hardware",
    "Optimizer": "optimizer",
    "Placement": "engine",
    "PlacementError": "engine",
    "PlanCost": "optimizer",
    "Query": "engine",
    "QueryResult": "engine",
    "ScheduledQuery": "scheduler",
    "Scheduler": "scheduler",
    "Schema": "relational",
    "Simulator": "sim",
    "StageGraph": "flow",
    "Table": "relational",
    "TaxConfig": "cloud",
    "Trace": "sim",
    "VolcanoEngine": "engine",
    "build_fabric": "hardware",
    "col": "relational",
    "conventional_spec": "hardware",
    "cpu_only": "engine",
    "data_path_sites": "engine",
    "dataflow_spec": "hardware",
    "lit": "relational",
    "make_lineitem": "relational",
    "make_orders": "relational",
    "make_sensor_readings": "relational",
    "make_uniform_table": "relational",
    "parse_sql": "relational",
    "pushdown": "engine",
    "rack_spec": "hardware",
    "SqlError": "relational",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
