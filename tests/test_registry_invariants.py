"""Cross-registry invariants: ops ↔ kernels ↔ gradients ↔ printer.

These pin the contracts that keep the system extensible: every op the
IR accepts must be executable; every executable op must infer shapes;
trainable coverage is explicit; public modules export what they claim.
"""

import importlib

import numpy as np
import pytest

from repro.ir import ops
from repro.kernels import BINDERS
from repro.train.gradients import BACKWARD


class TestOpKernelParity:
    """The binder table covers exactly the registered ops."""

    def test_every_registered_op_has_a_kernel(self):
        missing = set(ops.REGISTRY) - set(BINDERS)
        assert not missing, f"ops without kernel binders: {sorted(missing)}"

    def test_every_kernel_has_a_registered_op(self):
        missing = set(BINDERS) - set(ops.REGISTRY)
        assert not missing, f"kernel binders without op specs: {sorted(missing)}"

    def test_every_op_has_backward_or_explicit_exclusion(self):
        # ops must either be trainable or raise UntrainableOpError via
        # an explicit BACKWARD entry — silent omission is a bug
        missing = set(ops.REGISTRY) - set(BACKWARD)
        assert not missing, f"ops without a backward policy: {sorted(missing)}"

    def test_activation_ops_all_registered_and_fusable(self):
        from repro.kernels import get_activation
        for name in ops.ACTIVATION_OPS:
            assert name in ops.REGISTRY
            assert name in BINDERS
            get_activation(name)  # must exist in the kernel activation table

    def test_inplace_capable_ops_are_unary(self):
        # the in-place rule (core.liveness.reuses_input_buffer) releases
        # ``inputs[0]`` of these ops, so each must take exactly one input
        from repro.ir import Node, Value
        x = Value("x", (1, 2, 4, 4))
        for name in ops.UNARY_ELEMENTWISE_OPS:
            assert name in ops.REGISTRY and name in BINDERS
            with pytest.raises(ValueError):
                ops.validate_node(Node("n", name, [x, x], x.with_shape(x.shape, "y")))

    def test_flops_nonnegative_defaults(self):
        # every spec's flops hook must be callable on a minimal node
        from repro.ir import GraphBuilder
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (1, 4, 8, 8))
        h = b.relu(x)
        g = b.finish(h)
        assert ops.node_flops(g.nodes[0]) >= 0


class TestPublicAPI:
    @pytest.mark.parametrize("module", [
        "repro", "repro.ir", "repro.kernels", "repro.runtime",
        "repro.decompose", "repro.core", "repro.models", "repro.data",
        "repro.train", "repro.bench",
    ])
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("module", [
        "repro.ir.graph", "repro.ir.ops", "repro.kernels.fused",
        "repro.runtime.executor",
        "repro.decompose.tucker", "repro.core.skip_opt", "repro.core.fusion",
        "repro.core.transform", "repro.core.pipeline", "repro.core.scheduling",
        "repro.train.autodiff", "repro.bench.figures",
    ])
    def test_modules_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 80, \
            f"{module} is missing a real module docstring"

    def test_public_functions_documented(self):
        import repro
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, undocumented

    def test_version_defined(self):
        import repro
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)
