"""The compiler's fixed point: 25 zoo compiles pinned by digest.

``tests/golden/compile_zoo.json`` holds, per compile, the structural
fingerprints of the decomposed and the optimized graph and sha256
digests of the optimized graph's node names in schedule order, of the
``decompose`` decision log (without its ``ms`` timing and fit error), of the
``optimize()`` decision log and of ``OptimizationReport.summary()``.
A pass refactor that is meant to change nothing must leave every digest
where it was.  The fingerprints leave weight values out so the file
holds under any BLAS; what the weights compute is the equivalence
tests' job.

The compiles: the 12 zoo and 3 extra models with Tucker, the five
perfbench models also with CP and TT, at batch 1, hw 32, decomposed
the cheap way ``_zoo_compiles`` describes.  Regenerate after a
*deliberate* compiler change with::

    PYTHONPATH=src python tests/test_compile_golden.py > tests/golden/compile_zoo.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import optimize
from repro.decompose import decompose_graph
from repro.ir import graph_fingerprint
from repro.models import EXTRA_MODELS, model_names
from repro.obs import Tracer, use_tracer

from _zoo_compiles import (cheap, decision_log, memoise_factor_solves,
                           zoo_model)

GOLDEN = Path(__file__).parent / "golden" / "compile_zoo.json"
PERFBENCH_MODELS = ("alexnet", "densenet", "unet_small", "wavenet2d",
                    "fractalnet")
SITES = ([(m, "tucker") for m in (*model_names(), *sorted(EXTRA_MODELS))]
         + [(m, method) for m in PERFBENCH_MODELS for method in ("cp", "tt")])


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True,
                      default=lambda o: o.item() if isinstance(o, np.generic)
                      else str(o))
    return hashlib.sha256(text.encode()).hexdigest()


def compile_records(model: str, method: str,
                    include_param_values: bool = False) -> dict[str, dict]:
    """``{"model/method": record}`` for one decomposition."""
    original = zoo_model(model)  # outside the tracer: no fold decisions
    tracer = Tracer()
    with use_tracer(tracer):
        decomposed = decompose_graph(original, cheap(method))
    decomposed_fp = graph_fingerprint(
        decomposed, include_param_values=include_param_values)
    # the fit error is a factor value, like the weights
    decompose_log = _digest(decision_log(tracer, drop=(
        ("ms",) if include_param_values else ("ms", "fit_error"))))
    tracer = Tracer()
    with use_tracer(tracer):
        optimized, report = optimize(decomposed)
    return {f"{model}/{method}": {
        "decomposed": decomposed_fp,
        "decompose_log": decompose_log,
        "optimized": graph_fingerprint(
            optimized, include_param_values=include_param_values),
        "names": _digest([n.name for n in optimized.nodes]),
        "optimize_log": _digest(decision_log(tracer)),
        "summary": _digest(report.summary()),
    }}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_golden_covers_25_compiles(golden):
    assert len(SITES) == len(golden) == 25


@pytest.mark.parametrize(("model", "method"), SITES,
                         ids=[f"{m}-{method}" for m, method in SITES])
def test_compile_matches_the_golden(golden, model, method, monkeypatch):
    memoise_factor_solves(monkeypatch)
    for key, record in compile_records(model, method).items():
        assert record == golden[key], key


if __name__ == "__main__":
    doc = {}
    for model, method in SITES:
        doc.update(compile_records(model, method))
    print(json.dumps(doc, indent=1, sort_keys=True))
