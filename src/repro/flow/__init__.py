"""Push-based data-flow runtime: channels, credits, stages."""

from .. import _lazy_exports

_EXPORTS = {
    "CreditChannel": "credits",
    "END": "credits",
    "FlowResult": "stages",
    "Stage": "stages",
    "StageGraph": "stages",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
