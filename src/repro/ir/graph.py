"""The model graph: an ordered SSA node list plus rewrite helpers.

The graph is the unit every TeMCO pass operates on.  Design choices
mirror the paper:

- **Ordered node list** — Algorithm 1 takes "an ordered tensor node
  list L in SSA form"; execution order matters because the allocator's
  peak depends on it.  ``Graph.nodes`` *is* the execution schedule.
- **Program dependence graph** — ``predecessors``/``successors`` expose
  the PDG view (``PRED``/``SUCC`` in the algorithms) over the same nodes.
- **SSA** — each value has exactly one defining node; rewrites create
  fresh values via :class:`~repro.ir.value.ValueNamer`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import ops as _ops
from .dtype import DType
from .node import Node
from .value import Value, ValueNamer

__all__ = ["Graph", "GraphBuilder"]


class Graph:
    """A static single-assignment model graph with an explicit schedule."""

    def __init__(self, name: str, inputs: Sequence[Value]) -> None:
        self.name = name
        self.inputs: list[Value] = list(inputs)
        self.outputs: list[Value] = []
        self.nodes: list[Node] = []
        self.namer = ValueNamer()
        for v in self.inputs:
            self.namer.reserve(v.name)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node, index: int | None = None) -> Node:
        """Append (or insert at ``index``) a node; reserves its names."""
        self.namer.reserve(node.name)
        self.namer.reserve(node.output.name)
        if index is None:
            self.nodes.append(node)
        else:
            self.nodes.insert(index, node)
        return node

    def insert_before(self, anchor: Node, new_nodes: Sequence[Node]) -> None:
        """Insert ``new_nodes`` immediately before ``anchor`` in the schedule."""
        idx = self.index_of(anchor)
        for offset, node in enumerate(new_nodes):
            self.add_node(node, index=idx + offset)

    def remove_node(self, node: Node) -> None:
        self.nodes.remove(node)

    def index_of(self, node: Node) -> int:
        for i, n in enumerate(self.nodes):
            if n is node:
                return i
        raise ValueError(f"node {node.name!r} not in graph {self.name!r}")

    # ------------------------------------------------------------------
    # PDG queries
    # ------------------------------------------------------------------
    def producer_of(self, value: Value) -> Node | None:
        """Defining node of ``value`` (``None`` for graph inputs)."""
        if value.producer is None:
            return None
        for node in self.nodes:
            if node.output is value:
                return node
        return None

    def consumer_map(self) -> dict[Value, list[Node]]:
        """Map each value to the schedule-ordered list of consuming nodes."""
        consumers: dict[Value, list[Node]] = {}
        for node in self.nodes:
            for v in node.inputs:
                consumers.setdefault(v, []).append(node)
        return consumers

    def consumers_of(self, value: Value) -> list[Node]:
        return [node for node in self.nodes if any(v is value for v in node.inputs)]

    def predecessors(self, node: Node) -> list[Node]:
        """``PRED(v, G)``: defining nodes of ``node``'s inputs, input order."""
        preds = []
        for v in node.inputs:
            p = self.producer_of(v)
            if p is not None:
                preds.append(p)
        return preds

    def successors(self, node: Node) -> list[Node]:
        """``SUCC(v, G)``: consumers of ``node``'s output, schedule order."""
        return self.consumers_of(node.output)

    # ------------------------------------------------------------------
    # values & accounting
    # ------------------------------------------------------------------
    def values(self) -> list[Value]:
        """All SSA values: graph inputs then node outputs, schedule order."""
        return list(self.inputs) + [node.output for node in self.nodes]

    def find_value(self, name: str) -> Value:
        for v in self.values():
            if v.name == name:
                return v
        raise KeyError(f"no value named {name!r} in graph {self.name!r}")

    def find_node(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in graph {self.name!r}")

    def weight_bytes(self) -> int:
        """Total weight-tensor memory (paper Eq. 1–2, generalized)."""
        return sum(node.param_bytes() for node in self.nodes)

    def num_params(self) -> int:
        return sum(node.param_elements() for node in self.nodes)

    # ------------------------------------------------------------------
    # rewriting utilities
    # ------------------------------------------------------------------
    def replace_uses(self, old: Value, new: Value,
                     where: Callable[[Node], bool] | None = None) -> int:
        """Rewire consumers of ``old`` to ``new``; returns replacement count.

        ``where`` restricts the rewrite to selected consumer nodes —
        skip-connection optimization only replaces the *distant* uses.
        """
        count = 0
        for node in self.nodes:
            if where is not None and not where(node):
                continue
            count += node.replace_input(old, new)
        if old in self.outputs and (where is None):
            self.outputs = [new if v is old else v for v in self.outputs]
        return count

    def dead_code_eliminate(self) -> int:
        """Drop nodes whose outputs are never consumed; returns #removed."""
        removed_total = 0
        while True:
            consumers = self.consumer_map()
            live_out = set(id(v) for v in self.outputs)
            dead = [n for n in self.nodes
                    if id(n.output) not in live_out and not consumers.get(n.output)]
            if not dead:
                return removed_total
            for node in dead:
                self.nodes.remove(node)
            removed_total += len(dead)

    def clone(self, name: str | None = None) -> "Graph":
        """Structural copy sharing weight arrays (passes mutate copies)."""
        mapping: dict[Value, Value] = {}
        new_inputs = []
        for v in self.inputs:
            nv = Value(v.name, v.shape, v.dtype)
            mapping[v] = nv
            new_inputs.append(nv)
        g = Graph(name or self.name, new_inputs)
        for node in self.nodes:
            out = Value(node.output.name, node.output.shape, node.output.dtype)
            new_node = Node(name=node.name, op=node.op,
                            inputs=[mapping[v] for v in node.inputs],
                            output=out, attrs=_deep_copy_attrs(node.attrs),
                            params=dict(node.params))
            mapping[node.output] = out
            g.add_node(new_node)
        g.outputs = [mapping[v] for v in self.outputs]
        return g

    def with_batch(self, n: int, name: str | None = None) -> "Graph":
        """The same graph at batch size ``n``: a :meth:`clone` (weight
        arrays shared) whose inputs lead with ``n`` and whose node
        shapes are re-inferred in schedule order.  Nodes, attrs and
        schedule order are this graph's, so whatever was decided on it
        (decomposition, fusion sites, tiles) carries over unchanged.
        FLOPs scale with the batch, so a factor's ``orig_flops`` (its
        original convolution's, which skip-opt's compute guard weighs
        the restore copies against) is rescaled to ``n`` too."""
        if n < 1:
            raise ValueError(f"batch must be >= 1, got {n}")
        g = self.clone(name)
        built = g.inputs[0].shape[0] if g.inputs else n
        for v in g.inputs:
            v.shape = (n,) + v.shape[1:]
        for node in g.nodes:
            shape, node.output.dtype = _ops.infer_output(node)
            node.output.shape = tuple(shape)
            if "orig_flops" in node.attrs:
                node.attrs["orig_flops"] = node.attrs["orig_flops"] * n // built
        g.validate()
        return g

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check SSA form, def-before-use scheduling and per-op contracts."""
        defined: set[int] = {id(v) for v in self.inputs}
        names: set[str] = {v.name for v in self.inputs}
        if len(names) != len(self.inputs):
            raise ValueError(f"graph {self.name!r}: duplicate input names")
        node_names: set[str] = set()
        for node in self.nodes:
            if node.name in node_names:
                raise ValueError(f"graph {self.name!r}: duplicate node name {node.name!r}")
            node_names.add(node.name)
            for v in node.inputs:
                if id(v) not in defined:
                    raise ValueError(
                        f"graph {self.name!r}: node {node.name!r} uses value "
                        f"{v.name!r} before its definition (schedule broken)")
            if id(node.output) in defined:
                raise ValueError(
                    f"graph {self.name!r}: value {node.output.name!r} defined twice (SSA broken)")
            if node.output.name in names:
                raise ValueError(
                    f"graph {self.name!r}: duplicate value name {node.output.name!r}")
            names.add(node.output.name)
            defined.add(id(node.output))
            _ops.validate_node(node)
        for v in self.outputs:
            if id(v) not in defined:
                raise ValueError(f"graph {self.name!r}: output {v.name!r} is undefined")

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"<Graph {self.name!r}: {len(self.nodes)} nodes, {len(self.inputs)} inputs>"


def _deep_copy_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for k, v in attrs.items():
        out[k] = dict(v) if isinstance(v, dict) else (list(v) if isinstance(v, list) else v)
    return out


class GraphBuilder:
    """Fluent constructor used by the model zoo and by tests.

    Every method creates one node, runs shape inference and returns the
    output :class:`Value`.  Weights may be passed explicitly (NumPy
    arrays) or initialized from the builder's RNG (He-normal for conv
    and linear weights), so model construction is deterministic given a
    seed.
    """

    def __init__(self, name: str, seed: int = 0, dtype: DType = DType.float32) -> None:
        self.graph = Graph(name, inputs=[])
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype
        self._counter = 0

    # ------------------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._counter += 1
        return f"{base}_{self._counter}"

    def _emit(self, op: str, inputs: list[Value], attrs: dict[str, Any] | None = None,
              params: dict[str, np.ndarray] | None = None, name: str | None = None) -> Value:
        node_name = name or self._fresh(op)
        placeholder = Value(self.graph.namer.fresh(node_name + ".out"), (), self.dtype)
        node = Node(name=node_name, op=op, inputs=inputs, output=placeholder,
                    attrs=attrs or {}, params=params or {})
        shape, dtype = _ops.infer_output(node)
        node.output.shape = tuple(shape)
        node.output.dtype = dtype
        self.graph.add_node(node)
        return node.output

    def _he_weight(self, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        std = float(np.sqrt(2.0 / max(fan_in, 1)))
        return self.rng.normal(0.0, std, size=shape).astype(self.dtype.np)

    # ------------------------------------------------------------------
    def input(self, name: str, shape: Sequence[int]) -> Value:
        v = Value(name, tuple(shape), self.dtype)
        self.graph.inputs.append(v)
        self.graph.namer.reserve(name)
        return v

    def output(self, *values: Value) -> None:
        self.graph.outputs.extend(values)

    def conv2d(self, x: Value, out_channels: int, kernel: int | tuple[int, int],
               stride: int | tuple[int, int] = 1, padding: int | tuple[int, int] = 0,
               groups: int = 1, dilation: int | tuple[int, int] = 1,
               bias: bool = True, weight: np.ndarray | None = None,
               bias_value: np.ndarray | None = None, role: str | None = None,
               name: str | None = None, **extra_attrs: Any) -> Value:
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        cin = x.shape[1]
        if weight is None:
            weight = self._he_weight((out_channels, cin // groups, kh, kw),
                                     fan_in=(cin // groups) * kh * kw)
        params = {"weight": np.asarray(weight, dtype=self.dtype.np)}
        if bias_value is not None:
            params["bias"] = np.asarray(bias_value, dtype=self.dtype.np)
        elif bias:
            params["bias"] = np.zeros(out_channels, dtype=self.dtype.np)
        attrs: dict[str, Any] = {"stride": _as_pair(stride), "padding": _as_pair(padding),
                                 "groups": groups}
        if _as_pair(dilation) != [1, 1]:
            attrs["dilation"] = _as_pair(dilation)
        if role is not None:
            attrs["role"] = role
        attrs.update(extra_attrs)
        return self._emit("conv2d", [x], attrs, params, name)

    def conv_transpose2d(self, x: Value, out_channels: int, kernel: int | tuple[int, int],
                         stride: int | tuple[int, int] = 1,
                         padding: int | tuple[int, int] = 0,
                         output_padding: int | tuple[int, int] = 0,
                         bias: bool = True, weight: np.ndarray | None = None,
                         name: str | None = None) -> Value:
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        cin = x.shape[1]
        if weight is None:
            weight = self._he_weight((cin, out_channels, kh, kw), fan_in=cin * kh * kw)
        params = {"weight": np.asarray(weight, dtype=self.dtype.np)}
        if bias:
            params["bias"] = np.zeros(out_channels, dtype=self.dtype.np)
        attrs = {"stride": _as_pair(stride), "padding": _as_pair(padding),
                 "output_padding": _as_pair(output_padding), "groups": 1}
        return self._emit("conv_transpose2d", [x], attrs, params, name)

    def linear(self, x: Value, out_features: int, bias: bool = True,
               weight: np.ndarray | None = None, name: str | None = None) -> Value:
        in_features = x.shape[1]
        if weight is None:
            weight = self._he_weight((out_features, in_features), fan_in=in_features)
        params = {"weight": np.asarray(weight, dtype=self.dtype.np)}
        if bias:
            params["bias"] = np.zeros(out_features, dtype=self.dtype.np)
        return self._emit("linear", [x], {}, params, name)

    def relu(self, x: Value, name: str | None = None) -> Value:
        return self._emit("relu", [x], name=name)

    def silu(self, x: Value, name: str | None = None) -> Value:
        return self._emit("silu", [x], name=name)

    def sigmoid(self, x: Value, name: str | None = None) -> Value:
        return self._emit("sigmoid", [x], name=name)

    def tanh(self, x: Value, name: str | None = None) -> Value:
        return self._emit("tanh", [x], name=name)

    def leaky_relu(self, x: Value, negative_slope: float = 0.01,
                   name: str | None = None) -> Value:
        return self._emit("leaky_relu", [x], {"negative_slope": negative_slope},
                          name=name)

    def elu(self, x: Value, alpha: float = 1.0, name: str | None = None) -> Value:
        return self._emit("elu", [x], {"alpha": alpha}, name=name)

    def hardswish(self, x: Value, name: str | None = None) -> Value:
        return self._emit("hardswish", [x], name=name)

    def gelu(self, x: Value, name: str | None = None) -> Value:
        return self._emit("gelu", [x], name=name)

    def identity(self, x: Value, name: str | None = None) -> Value:
        return self._emit("identity", [x], name=name)

    def softmax(self, x: Value, axis: int = 1, name: str | None = None) -> Value:
        return self._emit("softmax", [x], {"axis": axis}, name=name)

    def maxpool2d(self, x: Value, kernel: int | tuple[int, int],
                  stride: int | tuple[int, int] | None = None,
                  padding: int | tuple[int, int] = 0, name: str | None = None) -> Value:
        attrs = {"kernel": _as_pair(kernel),
                 "stride": _as_pair(stride if stride is not None else kernel),
                 "padding": _as_pair(padding)}
        return self._emit("maxpool2d", [x], attrs, name=name)

    def avgpool2d(self, x: Value, kernel: int | tuple[int, int],
                  stride: int | tuple[int, int] | None = None,
                  padding: int | tuple[int, int] = 0, name: str | None = None) -> Value:
        attrs = {"kernel": _as_pair(kernel),
                 "stride": _as_pair(stride if stride is not None else kernel),
                 "padding": _as_pair(padding)}
        return self._emit("avgpool2d", [x], attrs, name=name)

    def global_avgpool(self, x: Value, name: str | None = None) -> Value:
        return self._emit("global_avgpool", [x], name=name)

    def upsample_nearest(self, x: Value, scale: int = 2, name: str | None = None) -> Value:
        return self._emit("upsample_nearest", [x], {"scale": scale}, name=name)

    def flatten(self, x: Value, start_dim: int = 1, name: str | None = None) -> Value:
        return self._emit("flatten", [x], {"start_dim": start_dim}, name=name)

    def add(self, *xs: Value, name: str | None = None) -> Value:
        return self._emit("add", list(xs), name=name)

    def concat(self, *xs: Value, axis: int = 1, name: str | None = None) -> Value:
        return self._emit("concat", list(xs), {"axis": axis}, name=name)

    def batchnorm2d(self, x: Value, gamma=None, beta=None, mean=None, var=None,
                    eps: float = 1e-5, name: str | None = None) -> Value:
        c = x.shape[1]
        params = {
            "gamma": np.asarray(gamma if gamma is not None else np.ones(c), dtype=self.dtype.np),
            "beta": np.asarray(beta if beta is not None else np.zeros(c), dtype=self.dtype.np),
            "mean": np.asarray(mean if mean is not None else np.zeros(c), dtype=self.dtype.np),
            "var": np.asarray(var if var is not None else np.ones(c), dtype=self.dtype.np),
        }
        return self._emit("batchnorm2d", [x], {"eps": eps}, params, name)

    def finish(self, *outputs: Value) -> Graph:
        """Declare outputs, validate and return the built graph."""
        if outputs:
            self.graph.outputs = list(outputs)
        self.graph.validate()
        return self.graph


def _as_pair(v) -> list[int]:
    if isinstance(v, (tuple, list)):
        return [int(v[0]), int(v[1])]
    return [int(v), int(v)]
