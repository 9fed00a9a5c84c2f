"""Shared utilities: seeded RNG helpers, retry/backoff, and error
types."""

from repro.utils.rng import SeedSequence, derive_rng, rng_from_seed
from repro.utils.retry import BackoffPolicy, RetryOutcome, retry_call
from repro.utils.parallel import (
    auto_shard_size,
    fork_context,
    resolve_jobs,
    shard_bounds,
)
from repro.utils.errors import (
    CampaignError,
    ModelError,
    NetlistError,
    ReproError,
    SerializationError,
    SimulationError,
)

__all__ = [
    "SeedSequence",
    "derive_rng",
    "rng_from_seed",
    "BackoffPolicy",
    "RetryOutcome",
    "retry_call",
    "auto_shard_size",
    "fork_context",
    "resolve_jobs",
    "shard_bounds",
    "ReproError",
    "NetlistError",
    "SimulationError",
    "ModelError",
    "CampaignError",
    "SerializationError",
]
