"""dichroma: exact and experimental tools for dichromatic numbers."""

__version__ = "0.1.0"

from .core import (
    Coloring,
    Deadline,
    Digraph,
    Graph,
    ListAssignment,
    Orientation,
    apply_orientation,
    bidirect,
    enumerate_orientations,
    induced_subdigraph,
    induced_subgraph,
    is_acyclic,
    is_proper_coloring,
    is_proper_dicoloring,
    maximal_acyclic_sets,
)
from .errors import (
    BudgetExceededError,
    CertificationError,
    DichromaError,
    GraphFormatError,
    LimitExceededError,
)

__all__ = [
    "__version__",
    "Deadline",
    "Graph",
    "Digraph",
    "Orientation",
    "Coloring",
    "ListAssignment",
    "is_acyclic",
    "bidirect",
    "apply_orientation",
    "enumerate_orientations",
    "is_proper_coloring",
    "is_proper_dicoloring",
    "maximal_acyclic_sets",
    "induced_subdigraph",
    "induced_subgraph",
    "DichromaError",
    "LimitExceededError",
    "BudgetExceededError",
    "CertificationError",
    "GraphFormatError",
]
