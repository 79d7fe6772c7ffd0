"""Zoo compiles shared by the tests that pin the compiler's fixed point
(``test_compile_golden`` and ``test_core_fusion.TestScanOrder``), and
the decision log they compare.

Factorising the convolutions is nearly all a zoo compile costs, and
which rewrites fire depends on shapes and ranks, never on factor
values.  So each model is built once, decomposed with no HOOI and one
ALS sweep, and — while :func:`memoise_factor_solves` is installed —
each weight array is factorised once per session, however many tests
and scan policies decompose it.
"""

import functools
import importlib

from repro.decompose import DecompositionConfig
from repro.models import EXTRA_MODELS, build_extra, build_model

_DECOMPOSE = importlib.import_module("repro.decompose.rewrite")
_SOLVES = ("tucker2_decompose", "cp_decompose", "tt_decompose")
#: (solve, id(weight), arguments) -> (weight, factors); holding the
#: weight keeps its id from being reused by another array
_FACTORS = {}


#: the args every decision event carries next to its quantities
_DECISION_FIELDS = ("pass_name", "subject", "verdict", "reason")


def decision_log(tracer, drop=()):
    """``[(pass_name, subject, verdict, reason, quantities)]`` of the
    tracer's decision events, without the quantities named in ``drop``."""
    return [(*(d["args"][k] for k in _DECISION_FIELDS),
             {k: v for k, v in d["args"].items()
              if k not in _DECISION_FIELDS and k not in drop})
            for d in tracer.decisions_for()]


@functools.lru_cache(maxsize=None)
def zoo_model(name):
    """A zoo or extra model at batch 1, hw 32, built once: do not mutate."""
    build = build_extra if name in EXTRA_MODELS else build_model
    return build(name, batch=1, hw=32)


def cheap(method):
    return DecompositionConfig(method=method, hooi_iters=0, cp_iters=1)


def _memoised(solve):
    def factors(weight, *args, **kwargs):
        key = (solve.__name__, id(weight), args, tuple(sorted(kwargs.items())))
        if key not in _FACTORS:
            _FACTORS[key] = (weight, solve(weight, *args, **kwargs))
        return _FACTORS[key][1]

    return factors


def memoise_factor_solves(monkeypatch):
    for name in _SOLVES:
        monkeypatch.setattr(_DECOMPOSE, name,
                            _memoised(getattr(_DECOMPOSE, name)))
