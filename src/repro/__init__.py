"""TeMCO reproduction: tensor memory compiler optimization across tensor
decompositions in deep-learning inference (Song et al., ICPP 2024).

A from-scratch NumPy stack:

- :mod:`repro.ir` — SSA tensor-graph IR with shape inference,
- :mod:`repro.kernels` — vectorized kernels incl. the tiled fused kernel,
- :mod:`repro.runtime` — executor with framework-faithful memory accounting,
- :mod:`repro.decompose` — Tucker-2 / CP / TT convolution decomposition,
- :mod:`repro.core` — the TeMCO compiler (skip-connection optimization,
  activation layer fusion, concat/add layer transformations),
- :mod:`repro.models` — the 10-model benchmark zoo,
- :mod:`repro.data` — synthetic datasets + metrics,
- :mod:`repro.bench` — drivers regenerating the paper's figures,
- :mod:`repro.tune` — fused-kernel tile autotuning with a persistent
  compiled-plan cache,
- :mod:`repro.cli` — the ``python -m repro`` commands, one module per
  subsystem (``compile`` / ``observe`` / ``serving``).

Quickstart::

    import numpy as np
    from repro import build_model, decompose_graph, optimize, InferenceSession

    model = build_model("vgg16", batch=4)
    decomposed = decompose_graph(model)      # Tucker, ratio 0.1 (the paper's setup)
    optimized, report = optimize(decomposed) # TeMCO
    print(report.summary())

    x = np.random.default_rng(0).normal(size=(4, 3, 64, 64)).astype(np.float32)
    result = InferenceSession(optimized).run(x)
    print(result.memory.summary())
"""

from .core import (TeMCOConfig, assert_equivalent, compare_graphs,
                   estimate_peak_internal, optimize)
from .decompose import DecompositionConfig, decompose_graph
from .ir import DType, Graph, GraphBuilder, Node, Value, format_graph
from .models import MODEL_ZOO, build_model, model_names
from .obs import (NoopTracer, Tracer, configure_logging, get_tracer,
                  use_tracer, write_chrome_trace)
from .runtime import InferenceSession, MemoryProfile, execute
from .tune import TuneCache, TuneConfig, cached_overrides, tune_model

from ._version import __version__

__all__ = [
    "__version__",
    "DType",
    "Graph",
    "GraphBuilder",
    "Node",
    "Value",
    "format_graph",
    "DecompositionConfig",
    "decompose_graph",
    "TeMCOConfig",
    "optimize",
    "assert_equivalent",
    "compare_graphs",
    "estimate_peak_internal",
    "MODEL_ZOO",
    "build_model",
    "model_names",
    "InferenceSession",
    "MemoryProfile",
    "execute",
    "Tracer",
    "NoopTracer",
    "get_tracer",
    "use_tracer",
    "configure_logging",
    "write_chrome_trace",
    "TuneCache",
    "TuneConfig",
    "tune_model",
    "cached_overrides",
]
