"""Query engines: logical plans, operators, Volcano and data-flow."""

from .. import _lazy_exports

_EXPORTS = {
    "AggSpec": "logical",
    "Aggregate": "logical",
    "DataflowEngine": "dataflow",
    "Emit": "operators",
    "Filter": "logical",
    "FilterOp": "operators",
    "HashJoinBuild": "operators",
    "HashJoinProbe": "operators",
    "Join": "logical",
    "JoinState": "operators",
    "Limit": "logical",
    "LimitOp": "operators",
    "Map": "logical",
    "MapOp": "operators",
    "MergeAggregate": "operators",
    "POLICIES": "placement",
    "PartialAggregate": "operators",
    "PartitionOp": "operators",
    "PhysicalOp": "operators",
    "Placement": "placement",
    "PlacementError": "placement",
    "PlanNode": "logical",
    "Project": "logical",
    "ProjectOp": "operators",
    "Query": "logical",
    "QueryResult": "results",
    "Scan": "logical",
    "Sort": "logical",
    "SortOp": "operators",
    "TraceSnapshot": "results",
    "VolcanoEngine": "volcano",
    "cpu_only": "placement",
    "data_path_sites": "placement",
    "place": "placement",
    "plan_fingerprint": "logical",
    "pushdown": "placement",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
