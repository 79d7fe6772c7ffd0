#!/usr/bin/env python
"""Deployment view: TeMCO's peak under both accounting policies.

The paper's Eq. 3/4 count each activation's input + output pair; the
frameworks a model is deployed on usually run activations in place
(PyTorch's ``inplace=True``), which collapses that pair.  This example
shows that TeMCO's live-set reduction is not an artifact of the
conservative policy: it survives in-place accounting too.

Run:  python examples/deployment_planning.py
"""

from repro import DecompositionConfig, build_model, decompose_graph, optimize
from repro.bench import format_table
from repro.core import estimate_peak_internal

MIB = 1024 * 1024


def main() -> None:
    rows = []
    for model_name in ("vgg16", "unet_small", "densenet"):
        original = build_model(model_name, batch=4)
        decomposed = decompose_graph(original, DecompositionConfig(ratio=0.1))
        optimized, _ = optimize(decomposed)
        for label, graph in (("original", original),
                             ("decomposed", decomposed),
                             ("TeMCO", optimized)):
            rows.append([
                model_name, label,
                estimate_peak_internal(graph) / MIB,
                estimate_peak_internal(graph, inplace_activations=True) / MIB,
            ])
    print(format_table(
        ["model", "variant", "live peak MiB", "live peak (inplace) MiB"],
        rows, title="deployment memory planning, batch 4"))

    print("\nReading guide: the in-place column is what a framework running "
          "activations in place\nwould hold; TeMCO's reduction survives "
          "both policies.")


if __name__ == "__main__":
    main()
