"""Multi-core campaign plumbing: job resolution and shard sizing.

The sharded campaign engine splits a fault universe into contiguous
shards and fans (workload group x shard) units out over worker
processes.  This module holds the policy arithmetic — how many workers
a host can sustain, how large a shard can grow before its value matrix
(``n_nets x n_words x 8`` bytes) falls out of cache, and how many
workload spans one packed pass may carry — kept free of any FI
vocabulary so other fan-out stages (feature extraction, training
sweeps) can reuse it.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Tuple

from repro.utils.errors import CampaignError

#: Cache budget for one shard's value matrix.  Sized for a typical
#: desktop L2 (per-core) so the gather/scatter inner loop stays
#: cache-resident; the golden machine costs one extra bit per word.
DEFAULT_SHARD_BUDGET_BYTES = 4 * 1024 * 1024

#: Budget for the value matrix of one lane-packed pass that carries
#: several workloads side by side (one span of ``faults + 1`` lanes
#: each).  Wider passes cut per-cycle dispatch further but leave the
#: cache; at 1 MiB a 16-workload or1200_if suite packs as two passes.
DEFAULT_PACK_BUDGET_BYTES = 1024 * 1024


def resolve_jobs(jobs: int) -> int:
    """Worker-process count for a requested ``jobs`` value.

    ``0`` means "all cores the scheduler grants us" (cgroup/affinity
    aware where the platform exposes it); explicit values pass through.
    """
    if jobs < 0:
        raise CampaignError(f"jobs {jobs} must be >= 0")
    if jobs > 0:
        return jobs
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def auto_shard_size(
    n_nets: int,
    budget_bytes: int = DEFAULT_SHARD_BUDGET_BYTES,
) -> int:
    """Largest shard whose value matrix fits the cache budget.

    A shard of ``f`` faults simulates ``f + 1`` machines (the golden
    machine rides along in bit 0), so choosing ``f = 64*w - 1`` packs
    exactly ``w`` words per net with no wasted lanes.
    """
    if n_nets <= 0:
        raise CampaignError(f"n_nets {n_nets} must be positive")
    words = max(1, budget_bytes // (n_nets * 8))
    return words * 64 - 1


def auto_pack_size(
    n_nets: int,
    span: int,
    budget_bytes: int = DEFAULT_PACK_BUDGET_BYTES,
) -> int:
    """Most spans of ``span`` lanes one packed pass may carry.

    ``g`` spans fill ``ceil(g * span / 64)`` words per net; at least
    one span always fits, however wide.
    """
    if n_nets <= 0 or span <= 0:
        raise CampaignError(
            f"n_nets {n_nets} and span {span} must be positive"
        )
    words = max(1, budget_bytes // (n_nets * 8))
    return max(1, words * 64 // span)


def shard_bounds(n_items: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` shard bounds covering ``n_items``.

    ``shard_size <= 0`` means one shard spanning everything (the
    unsharded fast path for small universes).
    """
    if n_items <= 0:
        raise CampaignError(f"cannot shard {n_items} items")
    if shard_size <= 0 or shard_size >= n_items:
        return [(0, n_items)]
    return [
        (start, min(start + shard_size, n_items))
        for start in range(0, n_items, shard_size)
    ]


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where missing.

    Fault campaigns fan out with *fork* workers: netlists carry cell
    lambdas that cannot pickle, so workers must inherit the campaign
    context through copy-on-write memory instead of the spawn pipe.
    Callers fall back to in-process execution when this returns None
    (e.g. Windows).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None
