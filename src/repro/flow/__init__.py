"""Push-based data-flow runtime: channels, credits, stages."""

from .credits import END, CreditChannel
from .stages import FlowResult, Stage, StageGraph

__all__ = [
    "CreditChannel",
    "END",
    "FlowResult",
    "Stage",
    "StageGraph",
]
