"""repro — Graph learning-based fault-criticality analysis for E/E
functional safety.

A complete reproduction of the DAC 2024 paper "Graph Learning-based
Fault Criticality Analysis for Enhancing Functional Safety of E/E
Systems": gate-level netlist substrate, the three evaluation designs,
a bit-parallel stuck-at fault-injection engine, the paper's node
features, the Table 1 GCN classifier and regressor with five
baselines, and GNNExplainer-based interpretability — in pure Python on
numpy/scipy.

Quickstart::

    from repro import FaultCriticalityAnalyzer, build_design

    analyzer = FaultCriticalityAnalyzer(build_design("sdram"))
    print(analyzer.summary())

BLAS thread policy: importing this package loads numpy's OpenBLAS with
one thread.  OpenBLAS reads its thread count once, when the library is
loaded, and by default starts a helper thread per CPU that keeps a
second core busy around every small GEMM of training, the baselines
and the explainer without shortening the run.  So, if numpy is not
yet imported and none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, numpy is imported
here with ``OPENBLAS_NUM_THREADS=1`` and ``os.environ`` is then
restored exactly as found, so processes spawned later inherit the
caller's environment.  Forked workers inherit the loaded library and
its single thread.  Setting any of those variables overrides the
policy; a program that imports numpy before this package keeps its
own BLAS configuration.
"""

#: The variables OpenBLAS reads for its thread count at load time.
_BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
)


def _load_numpy_single_threaded() -> None:
    import os
    import sys

    if "numpy" in sys.modules or any(
        name in os.environ for name in _BLAS_THREAD_VARIABLES
    ):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_single_threaded()

# The package's own imports load numpy, so they follow the policy.
from repro.circuits import (
    build_design,
    build_or1200_icfsm,
    build_or1200_if,
    build_sdram_controller,
)
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer, NodeReport
from repro.explain import Explanation, GlobalImportance, GNNExplainer
from repro.features import FEATURE_NAMES, NodeFeatures, extract_features
from repro.fi import (
    CriticalityDataset,
    dataset_from_campaign,
    generate_dataset,
    run_campaign,
)
from repro.graph import GraphData, build_graph_data, stratified_split
from repro.models import (
    BASELINE_NAMES,
    GCNClassifier,
    GCNRegressor,
    make_classifier,
)
from repro.netlist import Netlist, read_verilog, write_verilog
from repro.sim import Simulator, Workload, design_workloads
from repro.store import ArtifactStore

__version__ = "1.0.0"

__all__ = [
    "build_design",
    "build_or1200_icfsm",
    "build_or1200_if",
    "build_sdram_controller",
    "AnalyzerConfig",
    "FaultCriticalityAnalyzer",
    "NodeReport",
    "Explanation",
    "GlobalImportance",
    "GNNExplainer",
    "FEATURE_NAMES",
    "NodeFeatures",
    "extract_features",
    "CriticalityDataset",
    "dataset_from_campaign",
    "generate_dataset",
    "run_campaign",
    "GraphData",
    "build_graph_data",
    "stratified_split",
    "BASELINE_NAMES",
    "GCNClassifier",
    "GCNRegressor",
    "make_classifier",
    "ArtifactStore",
    "Netlist",
    "read_verilog",
    "write_verilog",
    "Simulator",
    "Workload",
    "design_workloads",
    "__version__",
]
