"""Graph (de)serialization and stable fingerprinting.

Round-trips a :class:`~repro.ir.graph.Graph` through a JSON-safe dict
(structure) plus a dict of NumPy arrays (weights).  ``save_graph`` /
``load_graph`` persist both in a single ``.npz`` with the structure
stored as a JSON string — handy for shipping optimized models to the
parallel inference workers without re-running the compiler.

:func:`graph_fingerprint` hashes the *canonical* form of a graph:
values and nodes are renumbered by definition order and attribute
dicts are key-sorted, so two graphs that differ only in node/value
names or in attr insertion order fingerprint identically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from .dtype import DType
from .graph import Graph
from .node import Node
from .value import Value

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph",
           "graph_fingerprint"]


def graph_to_dict(graph: Graph) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Split a graph into (JSON-safe structure, weight arrays)."""
    weights: dict[str, np.ndarray] = {}
    structure: dict[str, Any] = {
        "name": graph.name,
        "inputs": [_value_to_dict(v) for v in graph.inputs],
        "outputs": [v.name for v in graph.outputs],
        "nodes": [],
    }
    for node in graph.nodes:
        param_keys = {}
        for pname, arr in node.params.items():
            key = f"{node.name}::{pname}"
            weights[key] = arr
            param_keys[pname] = key
        structure["nodes"].append({
            "name": node.name,
            "op": node.op,
            "inputs": [v.name for v in node.inputs],
            "output": _value_to_dict(node.output),
            "attrs": node.attrs,
            "params": param_keys,
        })
    return structure, weights


def graph_from_dict(structure: dict[str, Any], weights: dict[str, np.ndarray]) -> Graph:
    """Inverse of :func:`graph_to_dict`; validates the rebuilt graph."""
    values: dict[str, Value] = {}
    inputs = []
    for vd in structure["inputs"]:
        v = _value_from_dict(vd)
        values[v.name] = v
        inputs.append(v)
    graph = Graph(structure["name"], inputs)
    for nd in structure["nodes"]:
        out = _value_from_dict(nd["output"])
        values[out.name] = out
        node = Node(
            name=nd["name"], op=nd["op"],
            inputs=[values[name] for name in nd["inputs"]],
            output=out, attrs=nd["attrs"],
            params={pname: weights[key] for pname, key in nd["params"].items()},
        )
        graph.add_node(node)
    graph.outputs = [values[name] for name in structure["outputs"]]
    graph.validate()
    return graph


def save_graph(graph: Graph, path: str | Path) -> None:
    structure, weights = graph_to_dict(graph)
    np.savez_compressed(path, __structure__=np.frombuffer(
        json.dumps(structure).encode("utf-8"), dtype=np.uint8), **weights)


def load_graph(path: str | Path) -> Graph:
    with np.load(path) as data:
        structure = json.loads(bytes(data["__structure__"]).decode("utf-8"))
        weights = {k: data[k] for k in data.files if k != "__structure__"}
    return graph_from_dict(structure, weights)


def graph_fingerprint(graph: Graph, *, include_param_values: bool = True) -> str:
    """A stable hex digest of a graph's canonical form.

    Invariant to node/value *names* (values are renumbered by
    definition order, so renaming or ``.copyN`` suffixes do not matter)
    and to attribute-dict insertion order (keys are sorted).  Sensitive
    to everything that changes what the graph computes: ops, topology,
    schedule order, shapes, dtypes, attrs, parameter shapes — and, by
    default, parameter *contents*, so editing a weight invalidates any
    cache keyed on the digest.

    Parameters
    ----------
    include_param_values:
        Hash the raw weight bytes into the digest (default).  Pass
        ``False`` for a purely structural fingerprint — e.g. when two
        differently-initialized instances of the same architecture
        should share a tuning result.
    """
    canon_id: dict[int, str] = {}
    for i, v in enumerate(graph.inputs):
        canon_id[id(v)] = f"in{i}"
    for i, node in enumerate(graph.nodes):
        canon_id[id(node.output)] = f"v{i}"

    hasher = hashlib.sha256()

    def _canon_value(v: Value) -> list[Any]:
        return [canon_id[id(v)], list(v.shape), v.dtype.value]

    entries: list[Any] = [
        "repro-graph-v1",
        [_canon_value(v) for v in graph.inputs],
        [canon_id[id(v)] for v in graph.outputs],
    ]
    for node in graph.nodes:
        param_spec = []
        for pname in sorted(node.params):
            arr = node.params[pname]
            param_spec.append([pname, list(arr.shape), str(arr.dtype)])
            if include_param_values:
                hasher.update(pname.encode("utf-8"))
                hasher.update(np.ascontiguousarray(arr).tobytes())
        entries.append([
            node.op,
            [canon_id[id(v)] for v in node.inputs],
            _canon_value(node.output),
            json.dumps(_canon_attrs(node.attrs), sort_keys=True),
            param_spec,
        ])
    hasher.update(json.dumps(entries, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()


def _canon_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe copy of ``attrs`` with name-valued bookkeeping dropped.

    ``fused_from`` records the *names* of the layers a fused kernel
    collapsed — pure provenance, so it must not defeat the rename
    invariance the fingerprint promises.
    """
    return {k: v for k, v in attrs.items() if k != "fused_from"}


def _value_to_dict(v: Value) -> dict[str, Any]:
    return {"name": v.name, "shape": list(v.shape), "dtype": v.dtype.value}


def _value_from_dict(d: dict[str, Any]) -> Value:
    return Value(d["name"], tuple(d["shape"]), DType(d["dtype"]))
