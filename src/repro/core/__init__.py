"""Game core: states, costs, optima, moves, and the concept ladder."""

from repro.core.state import GameState
from repro.core.costmodel import (
    ConcaveCost,
    ConvexCost,
    CostModel,
    LinearCost,
    MaxCost,
    TableCost,
    costmodel_from_spec,
)
from repro.core.costs import (
    agent_cost,
    agent_cost_after,
    cost_strictly_less,
    social_cost,
)
from repro.core.optimum import (
    optimum_cost,
    optimum_graph,
    social_cost_ratio,
)
from repro.core.moves import (
    AddEdge,
    CoalitionMove,
    Move,
    NeighborhoodMove,
    RemoveEdge,
    Swap,
)
from repro.core.concepts import Concept
from repro.core.speculative import MoveEvaluation, SpeculativeEvaluator
from repro.core.traffic import TrafficMatrix, traffic_from_spec

__all__ = [
    "AddEdge",
    "CoalitionMove",
    "ConcaveCost",
    "Concept",
    "ConvexCost",
    "CostModel",
    "GameState",
    "LinearCost",
    "MaxCost",
    "Move",
    "MoveEvaluation",
    "NeighborhoodMove",
    "RemoveEdge",
    "SpeculativeEvaluator",
    "Swap",
    "TableCost",
    "TrafficMatrix",
    "agent_cost",
    "agent_cost_after",
    "cost_strictly_less",
    "costmodel_from_spec",
    "optimum_cost",
    "optimum_graph",
    "social_cost",
    "social_cost_ratio",
    "traffic_from_spec",
]
