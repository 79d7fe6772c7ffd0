"""Tensor graph IR.

Public surface:

- :class:`DType`, :class:`Value`, :class:`Node`, :class:`Graph`,
  :class:`GraphBuilder` — the SSA model representation,
- :mod:`repro.ir.ops` — the op registry (shape inference, validation,
  FLOP counting) plus the ``is_lconv``/``is_fconv`` structural
  predicates used by TeMCO's passes,
- :mod:`repro.ir.rewrite` — the splice driver every pass that swaps a
  subgraph runs on (imported from there, like :mod:`repro.ir.emit`),
- :func:`format_graph` — readable dumps,
- :func:`save_graph` / :func:`load_graph` — persistence.
"""

from . import ops
from .dot import save_dot, to_dot
from .dtype import DType
from .graph import Graph, GraphBuilder
from .node import Node
from .printer import format_graph, format_node, summarize_graph
from .serialize import (graph_fingerprint, graph_from_dict,
                        graph_to_dict, load_graph, save_graph)
from .value import Value, ValueNamer

__all__ = [
    "DType",
    "Graph",
    "GraphBuilder",
    "Node",
    "Value",
    "ValueNamer",
    "ops",
    "format_graph",
    "format_node",
    "summarize_graph",
    "to_dot",
    "save_dot",
    "graph_to_dict",
    "graph_fingerprint",
    "graph_from_dict",
    "save_graph",
    "load_graph",
]
