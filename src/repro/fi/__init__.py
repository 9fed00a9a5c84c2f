"""Fault injection: stuck-at fault models, the bit-parallel campaign
runner (the Xcelium stand-in), per-workload reports, and Algorithm 1
dataset generation."""

from repro.fi.campaign import (
    CampaignResult,
    WorkloadFailure,
    run_campaign,
)
from repro.fi.runner import CampaignRunner, PassTimeout, RunnerPolicy
from repro.utils.fingerprint import campaign_fingerprint
from repro.fi.dataset import (
    DEFAULT_THRESHOLD,
    CriticalityDataset,
    dataset_from_campaign,
    generate_dataset,
)
from repro.fi.collapse import (
    CollapsedUniverse,
    collapse_faults,
    expand_results,
    expand_shard,
)
from repro.fi.analysis import (
    always_latent_faults,
    campaign_summary,
    coverage_by_workload,
    criticality_by_cell_type,
    detection_latency_histogram,
    undetected_faults,
)
from repro.fi.diagnosis import DiagnosisCandidate, FaultDictionary
from repro.fi.eco import (
    DirtyRegion,
    EcoResult,
    compute_dirty_region,
    extract_dirty_cone,
    run_eco_campaign,
    run_eco_transient_campaign,
)
from repro.fi.faults import (
    Fault,
    faults_for_nodes,
    full_fault_universe,
    sample_faults,
)
from repro.fi.transient import (
    TransientFault,
    run_transient_campaign,
    transient_fault_universe,
)
from repro.fi.testgen import CompactionResult, generate_compact_workloads
from repro.fi.report import (
    FaultClass,
    FaultRecord,
    WorkloadReport,
    format_report,
)

__all__ = [
    "CampaignResult",
    "WorkloadFailure",
    "run_campaign",
    "CampaignRunner",
    "RunnerPolicy",
    "PassTimeout",
    "campaign_fingerprint",
    "DEFAULT_THRESHOLD",
    "CriticalityDataset",
    "dataset_from_campaign",
    "generate_dataset",
    "always_latent_faults",
    "campaign_summary",
    "coverage_by_workload",
    "criticality_by_cell_type",
    "detection_latency_histogram",
    "undetected_faults",
    "DiagnosisCandidate",
    "FaultDictionary",
    "DirtyRegion",
    "EcoResult",
    "compute_dirty_region",
    "extract_dirty_cone",
    "run_eco_campaign",
    "run_eco_transient_campaign",
    "CollapsedUniverse",
    "collapse_faults",
    "expand_results",
    "expand_shard",
    "Fault",
    "faults_for_nodes",
    "full_fault_universe",
    "sample_faults",
    "TransientFault",
    "run_transient_campaign",
    "transient_fault_universe",
    "CompactionResult",
    "generate_compact_workloads",
    "FaultClass",
    "FaultRecord",
    "WorkloadReport",
    "format_report",
]
