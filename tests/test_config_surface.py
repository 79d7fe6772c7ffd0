"""Every settable knob is a contract: the config classes' fields.

``tests/golden/config_surface.json`` records, for each of the eight config
classes and for ``optimize()``, every field (parameter) as
``name=repr(default)`` in declaration order, and the value of each module
constant that holds a value only tests change (through
``monkeypatch.setattr``).  Adding a knob, or moving a constant, is
therefore a deliberate golden diff.  Regenerate after a *deliberate* surface change with::

    PYTHONPATH=src python tests/test_config_surface.py > tests/golden/config_surface.json
"""

import dataclasses
import importlib
import inspect
import json
from pathlib import Path

from repro.core import FusionConfig, SkipOptConfig, TeMCOConfig, optimize
from repro.decompose import DecompositionConfig
from repro.fleet import PoolConfig
from repro.serve import LoadgenConfig, ServerConfig
from repro.train import SGDConfig

GOLDEN = Path(__file__).parent / "golden" / "config_surface.json"
CONFIGS = (TeMCOConfig, SkipOptConfig, FusionConfig, DecompositionConfig,
           ServerConfig, PoolConfig, LoadgenConfig, SGDConfig)
#: module -> its constants that only tests change
CONSTANTS = {
    "repro.core.skip_opt": ("MEMORY_SLACK", "MAX_CHAIN_NODES"),
    "repro.decompose.rewrite": ("MIN_IN_CHANNELS", "MIN_OUT_CHANNELS"),
    "repro.fleet.pool": ("EJECT_AFTER_FAILURES", "READMIT_BACKOFF_S",
                         "READMIT_BACKOFF_MAX_S", "HEALTH_INTERVAL_S"),
    "repro.fleet.router": ("MAX_ATTEMPTS", "RETRY_BACKOFF_S",
                           "HEDGE_DELAY_S", "ATTEMPT_TIMEOUT_S"),
    "repro.plan.planner": ("PREFETCH_LEAD",),
    "repro.serve.loadgen": ("RESULT_TIMEOUT_S",),
    "repro.train.sgd": ("MOMENTUM", "GRAD_CLIP"),
}


def _field(field: dataclasses.Field) -> str:
    default = (field.default_factory()
               if field.default_factory is not dataclasses.MISSING
               else field.default)
    return f"{field.name}={default!r}"


def config_surface() -> dict:
    fields = {cls.__name__: [_field(f) for f in dataclasses.fields(cls)]
              for cls in CONFIGS}
    fields["optimize()"] = [
        name if p.default is p.empty else f"{name}={p.default!r}"
        for name, p in inspect.signature(optimize).parameters.items()]
    constants = {
        module: {name: repr(getattr(importlib.import_module(module), name))
                 for name in names}
        for module, names in CONSTANTS.items()}
    return {"fields": fields, "constants": constants}


def test_surface_matches_the_golden():
    golden = json.loads(GOLDEN.read_text())
    surface = config_surface()
    assert sorted(surface["fields"]) == sorted(golden["fields"])
    for name, fields in golden["fields"].items():
        assert surface["fields"][name] == fields, name
    assert surface == golden


if __name__ == "__main__":
    print(json.dumps(config_surface(), indent=1, sort_keys=True))
