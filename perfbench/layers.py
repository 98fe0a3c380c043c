"""Per-layer counters read from the program's own statistics."""

from __future__ import annotations

from typing import Dict

from repro.perf.workspace import pool_stats


def cache_and_pool_layers(cache_stats: Dict[str, float]) -> Dict[str, float]:
    """Operator-cache hit rates and workspace-pool counters.

    ``cache_stats`` is ``PROBLEM_CACHE.stats()``; the pool counters are
    process totals from :func:`repro.perf.workspace.pool_stats`.
    """
    pool = pool_stats()
    return {
        "recovery.opcache.hit_rate": cache_stats["hit_rate"],
        "recovery.opcache.operator_hit_rate": cache_stats["operator_hit_rate"],
        "perf.workspace.bytes_allocated": pool["bytes_allocated"],
        "perf.workspace.reuse_fraction": pool["reuse_fraction"],
    }
