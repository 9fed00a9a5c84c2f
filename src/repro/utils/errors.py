"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers embedding the framework can catch one base type.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NetlistError(ReproError):
    """Raised for malformed netlists: unknown cells, dangling nets,
    multiple drivers, combinational loops, or bad port arity."""


class SimulationError(ReproError):
    """Raised for invalid simulation requests: stimulus/port mismatches,
    unknown probe names, or empty workloads."""


class ModelError(ReproError):
    """Raised for model misuse: predicting before fitting, shape
    mismatches between features and weights, or invalid hyperparameters."""


class CampaignError(SimulationError):
    """Raised for campaign-harness failures: corrupt or mismatched
    checkpoints, resume against a different campaign configuration, or
    invalid runner policies.  Distinct from faults *injected into* the
    DUT — this is the harness itself misbehaving."""


class EcoError(CampaignError):
    """Raised when incremental (ECO) re-analysis cannot soundly reuse
    the cached baseline: incompatible primary-input interfaces,
    fingerprint/universe mismatches against the base campaign, an
    incomplete or failed base, or divergent observation policies.
    Callers should fall back to a full campaign on the edited design —
    silently merging across any of these boundaries would corrupt the
    ground truth."""


class SerializationError(ReproError):
    """Raised when a persisted artifact (campaign archive, dataset,
    checkpoint) is corrupt, truncated, or internally inconsistent."""


class CorruptArtifactError(SerializationError):
    """The artifact's *bytes* are damaged: unreadable archive, missing
    arrays/metadata, or inconsistent shapes — the torn-write signature
    of a killed writer.  Distinct from a well-formed artifact that
    belongs to a different configuration (fingerprint/version
    mismatch), which stays a plain :class:`SerializationError`: torn
    units can safely be re-simulated, mismatched ones must be refused."""
