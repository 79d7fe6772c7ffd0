"""The reference scan for :func:`repro.ir.rewrite.rewrite`.

:func:`rewrite_restarting` splices the same rules the way the passes
did before they shared a driver: after every splice, back to node 0 on
a rebuilt consumer map, dead code swept from the whole graph.  It is
slow and plainly right; the driver must take exactly its decisions.
Patch either scan into :data:`REWRITING_MODULES` to run a whole compile
on it.
"""

import importlib

from repro.ir.rewrite import rewrite
from repro.obs import get_tracer

#: every module whose passes run on the driver (each imports ``rewrite``)
REWRITING_MODULES = tuple(importlib.import_module(name) for name in (
    "repro.core.transform", "repro.core.fusion", "repro.core.folding",
    "repro.decompose.rewrite"))


def rewrite_restarting(graph, anchor, rule):
    spliced = 0
    while True:
        consumers = graph.consumer_map()
        for node in list(graph.nodes):
            splice = rule(graph, node, consumers) if anchor(node) else None
            if splice is not None:
                break
        else:
            graph.validate()
            return spliced
        graph.insert_before(node, splice.insert)
        graph.replace_uses(splice.old, splice.new)
        graph.dead_code_eliminate()
        spliced += 1
        get_tracer().decision(splice.pass_name, splice.subject, splice.verdict,
                              splice.reason, **splice.quantities)


def rewrite_checked(graph, anchor, rule):
    """The driver, asserting after every splice that the consumer map it
    maintains is the one a rebuild gives, list order included."""
    state = {"spliced": False}

    def check():
        if state["spliced"]:
            assert state["consumers"] == graph.consumer_map()
            state["spliced"] = False

    def checked_anchor(node):
        check()
        return anchor(node)

    def checked_rule(g, node, consumers):
        state["consumers"] = consumers
        splice = rule(g, node, consumers)
        state["spliced"] = splice is not None
        return splice

    spliced = rewrite(graph, checked_anchor, checked_rule)
    check()
    return spliced


def use_scan(monkeypatch, scan):
    """Run every pass that splices on ``scan`` until the test ends."""
    for module in REWRITING_MODULES:
        monkeypatch.setattr(module, "rewrite", scan)
