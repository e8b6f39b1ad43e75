"""Finite-domain constraint solving with decomposing search.

A propagation-based solver for exact solution counting and enumeration.
Besides plain depth-first search it offers a decomposing engine that
splits a problem into independent partial problems whenever the reflected
constraint graph falls apart, multiplying the partial counts instead of
re-solving them under every branch.
"""

from .engine import ProblemState, StateStatus, new_problem
from .graph import DecompositionAnalysis, decompose_analysis
from .model_io import (ModelDocument, ModelError, VariableDecl,
                       coloring_document, parse_model, saw_document,
                       serialize_model)
from .models import (ColoringSpec, UGraph, WalkSpec, chromatic_oracle,
                     erdos_renyi, lattice_point, maximal_cliques,
                     saw_walk_count)
from .propagators import (EQ, LEQ, AllDifferent, Dfa, Linear, Neq, Regular,
                          Slide, Table)
from .search import (And, CountResult, Heuristic, Or, SearchStats,
                     SearchTrace, SolutionTree, TreeResult, dds_count,
                     dds_tree, dfs_count, dfs_enumerate, trace_dot, tree_count,
                     tree_expand)

__version__ = "0.1.0"

__all__ = [
    "AllDifferent", "And", "ColoringSpec", "CountResult",
    "DecompositionAnalysis", "Dfa", "EQ", "Heuristic", "LEQ", "Linear",
    "ModelDocument", "ModelError", "Neq", "Or", "ProblemState", "Regular",
    "SearchStats", "SearchTrace", "Slide", "SolutionTree", "StateStatus",
    "Table", "TreeResult", "UGraph", "VariableDecl", "WalkSpec",
    "chromatic_oracle", "coloring_document", "dds_count", "dds_tree",
    "decompose_analysis", "dfs_count", "dfs_enumerate", "erdos_renyi",
    "lattice_point", "maximal_cliques", "new_problem", "parse_model",
    "saw_document", "saw_walk_count", "serialize_model", "trace_dot",
    "tree_count", "tree_expand",
]
