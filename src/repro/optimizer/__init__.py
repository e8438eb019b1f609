"""Movement-aware query optimization: cost model, enumeration, ranking."""

from .. import _lazy_exports

_EXPORTS = {
    "CostModel": "cost",
    "Optimizer": "optimizer",
    "PlanCost": "cost",
    "RankedPlacement": "optimizer",
    "enumerate_placements": "enumeration",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
