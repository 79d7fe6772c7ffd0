"""Report emitters: memory profiles and metrics as CSV / Markdown.

Turns :class:`~repro.runtime.memory_profile.MemoryProfile` objects into
artifacts people actually attach to issues and papers: per-layer CSV
timelines and the Markdown breakdown of what the peak is made of.
"""

from __future__ import annotations

import io

from ..obs.metrics import MetricsRegistry
from .memory_profile import MemoryProfile

__all__ = ["timeline_csv", "profile_markdown", "metrics_markdown"]

MIB = 1024 * 1024


def timeline_csv(profile: MemoryProfile) -> str:
    """Per-layer timeline as CSV: index, node, op, live bytes, scratch."""
    out = io.StringIO()
    out.write("index,node,op,live_bytes,scratch_bytes\n")
    for e in profile.events:
        out.write(f"{e.index},{e.node_name},{e.op},{e.live_bytes},"
                  f"{e.scratch_bytes}\n")
    return out.getvalue()


def profile_markdown(profile: MemoryProfile, title: str = "Memory profile") -> str:
    """One profile as a Markdown section with the peak's composition."""
    lines = [f"## {title}", "",
             f"- peak internal: **{profile.peak_internal_bytes / MIB:.2f} MiB**",
             f"- weights: {profile.weight_bytes / MIB:.2f} MiB",
             f"- fused-kernel scratch: {profile.peak_scratch_bytes / MIB:.2f} MiB",
             f"- allocations: {profile.num_allocations} "
             f"({profile.total_allocated_bytes / MIB:.2f} MiB traffic)", ""]
    if profile.events:
        peak = profile.peak_event()
        lines.append(f"Peak while executing `{peak.node_name}` ({peak.op}); "
                     f"live set:")
        lines.append("")
        lines.append("| tensor | MiB |")
        lines.append("|---|---|")
        for name, nbytes in sorted(profile.peak_live_set.items(),
                                   key=lambda kv: -kv[1]):
            lines.append(f"| `{name}` | {nbytes / MIB:.3f} |")
    return "\n".join(lines) + "\n"


def metrics_markdown(registry: MetricsRegistry,
                     title: str = "Session metrics") -> str:
    """A :class:`~repro.obs.MetricsRegistry` as one Markdown table.

    Counters and gauges share the table; ``*_bytes`` entries get a MiB
    companion column for readability.
    """
    lines = [f"## {title}", "", "| metric | value | MiB |", "|---|---|---|"]
    for name, value in registry.snapshot().items():
        mib = f"{value / MIB:.3f}" if name.endswith("_bytes") else ""
        shown = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"| `{name}` | {shown} | {mib} |")
    return "\n".join(lines) + "\n"
