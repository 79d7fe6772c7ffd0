"""Persistent, content-addressed cache of tuning results + compiled plans.

Layout (one pair of files per entry, under ``~/.cache/repro-tune`` or
the directory given by ``--cache-dir`` / ``$REPRO_TUNE_CACHE``)::

    <key>.json      tuning record: chosen tiles, trial log summary,
                    hardware fingerprint, wall-clock evidence
    <key>.plan.npz  the compiled (decomposed + TeMCO-optimized + tuned)
                    graph, ready to execute without re-running either
                    the tuner or the compiler

The key is a SHA-256 over the *content* of everything that determines
the result: the source graph's canonical fingerprint (weights
included, so editing a layer invalidates the entry), the
decomposition/compiler settings, the candidate grid, the cache schema
version, and the hardware digest.  Corrupt or truncated entries
are ignored with a warning — a broken cache can slow you down, never
crash you.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..ir.graph import Graph
from ..ir.serialize import graph_fingerprint, load_graph, save_graph
from .fingerprint import hardware_digest, hardware_fingerprint

logger = logging.getLogger(__name__)

__all__ = ["TuneCache", "TuneRecord", "SiteRecord", "default_cache_dir",
           "CACHE_VERSION"]

#: Bump to invalidate every existing entry: on a schema change, and when
#: the fused kernels change enough that measured winners go stale
#: (2: streaming batched-GEMM kernel; v1 picks were timed on the einsum one.
#: 3: exhaustive sweep — records lose ``mode`` / ``budget``, the key loses the
#: tuning mode and two ``FusionConfig`` fields.
#: 4: the as-compiled baseline tile is slack-widened and the kernel lost its
#: bias and scalar-relu passes, so v3 baselines and winners are both stale.
#: 5: pooled sites stream a channels-last tile and run 2.5–4.6x faster, so
#: v4 winners at those sites were timed on a different kernel.
#: 6: fused kernels run the batch in sample groups whose tile fits in L2,
#: so at batch 32 a wide tile no longer pays for L3 traffic and v5 winners
#: at those sites were timed on a different kernel.
#: 7: a merged lconv keeps its pass-through branches as runs of input
#: channels, not identity blocks, so cached plans hold dense merged weights
#: the compiler no longer builds and v6 winners at the merged sites were
#: timed on the identity GEMM.
#: 8: a 1×1 conv reading a sum of activated restores becomes one fused
#: block over a block-diagonal merged lconv, and the key is the source
#: graph's fingerprint, so a cached fractalnet plan would still serve the
#: graph of restores, adds and unfused 1×1 convs).
CACHE_VERSION = 8


def default_cache_dir() -> Path:
    """``$REPRO_TUNE_CACHE`` if set, else ``~/.cache/repro-tune``."""
    import os
    env = os.environ.get("REPRO_TUNE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tune"


@dataclass
class SiteRecord:
    """Chosen configuration for one fusion site."""

    site_key: str            #: anchoring lconv name (FusionConfig override key)
    node: str                #: fused node name at tuning time
    block_size: int
    spatial_tile: int
    seconds: float           #: best measured per-site kernel time
    baseline_seconds: float  #: per-site kernel time at the compiled tile
    scratch_bytes: int
    baseline_scratch_bytes: int
    trials: int


@dataclass
class TuneRecord:
    """Everything ``repro tune`` learned about one (graph, machine) pair."""

    key: str
    model: str
    created: str
    version: int = CACHE_VERSION
    hardware: dict[str, str] = field(default_factory=dict)
    sites: list[SiteRecord] = field(default_factory=list)
    total_trials: int = 0
    tuned_seconds: float | None = None    #: whole-graph, tuned tiles
    default_seconds: float | None = None  #: whole-graph, tiles as compiled
    peak_internal_bytes: int | None = None
    fell_back_to_default: bool = False

    @property
    def overrides(self) -> dict[str, tuple[int, int]]:
        """``FusionConfig.site_overrides`` mapping."""
        return {s.site_key: (s.block_size, s.spatial_tile)
                for s in self.sites}

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "TuneRecord":
        sites = [SiteRecord(**s) for s in doc.pop("sites", [])]
        return cls(sites=sites, **doc)


class TuneCache:
    """Filesystem-backed tuning cache (records + compiled plans)."""

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()

    # -- keys ---------------------------------------------------------------

    def key_for(self, graph: Graph, *, extra: dict[str, Any] | None = None,
                hardware: dict[str, str] | None = None) -> str:
        """Content-addressed key for ``graph`` tuned on this machine."""
        import hashlib
        payload = {
            "graph": graph_fingerprint(graph),
            "hardware": hardware_digest(hardware),
            "version": CACHE_VERSION,
            "extra": extra or {},
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:32]

    # -- paths --------------------------------------------------------------

    def record_path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def plan_path(self, key: str) -> Path:
        return self.dir / f"{key}.plan.npz"

    def entries(self) -> list[str]:
        """Keys of all readable records in the cache directory."""
        if not self.dir.is_dir():
            return []
        return sorted(p.stem for p in self.dir.glob("*.json"))

    # -- read ---------------------------------------------------------------

    def load(self, key: str) -> TuneRecord | None:
        """The record for ``key``, or ``None`` (missing / corrupt / stale)."""
        path = self.record_path(key)
        if not path.is_file():
            return None
        try:
            doc = json.loads(path.read_text())
            # before the fields are read: another version's are not ours
            if doc["version"] != CACHE_VERSION:
                logger.warning("tune cache: ignoring %s (schema v%s, want "
                               "v%s)", path, doc["version"], CACHE_VERSION)
                return None
            return TuneRecord.from_doc(doc)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                OSError) as exc:
            logger.warning("tune cache: ignoring corrupt record %s (%s)",
                           path, exc)
            return None

    def load_plan(self, key: str) -> Graph | None:
        """The compiled plan for ``key``, or ``None`` (missing / corrupt)."""
        path = self.plan_path(key)
        if not path.is_file():
            return None
        try:
            return load_graph(path)
        except Exception as exc:  # np.load raises a zoo of types on corruption
            logger.warning("tune cache: ignoring corrupt plan %s (%s)",
                           path, exc)
            return None

    # -- write --------------------------------------------------------------

    def store(self, record: TuneRecord, plan: Graph | None = None) -> Path:
        """Persist ``record`` (and optionally its compiled plan)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.record_path(record.key)
        path.write_text(record.to_json())
        if plan is not None:
            save_graph(plan, self.plan_path(record.key))
        logger.info("tune cache: stored %s (%d sites)", path,
                    len(record.sites))
        return path


def new_record(key: str, model: str) -> TuneRecord:
    """A fresh record stamped with now + this machine's fingerprint."""
    return TuneRecord(
        key=key, model=model,
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        hardware=hardware_fingerprint())
