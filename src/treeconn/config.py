"""Run configuration: budgets and search mode."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real


@dataclass(frozen=True)
class Budget:
    """Hard limits for enumeration and search.

    Exceeding any limit is a distinct outcome (a ``BudgetExceededError`` from
    enumerations, an ``unknown`` certificate from searches).
    """

    max_tree_size: int = 8          # enumerate_trees bound
    max_vertices: int = 24          # largest tree accepted by Hom enumeration
    max_hom: int = 200_000          # most rows held: a Hom-set, or any embedding-search level
    max_nodes: int = 20_000_000     # coloring-search assignment budget
    time_cap: float | None = None   # seconds from the start of a check

    def __post_init__(self):
        for name in ("max_tree_size", "max_vertices", "max_hom", "max_nodes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.time_cap is not None:
            if isinstance(self.time_cap, bool) or not isinstance(self.time_cap, Real):
                raise ValueError("time_cap must be a number")
            if not self.time_cap > 0:
                raise ValueError("time_cap must be positive")


DEFAULT_BUDGET = Budget()

# In canonical mode (the default) searches return the lexicographically least
# witness coloring; fast mode may return any verified witness.
MODES = ("canonical", "fast")

