"""Helper processes of the pipeline benchmark (see ``run.py``).

    python perfbench/child.py host
    python perfbench/child.py eco-setup --seed S --store DIR --verilog OUT.v --jobs N
    python perfbench/child.py trace --spans OUT.json --stdout OUT.txt -- ARGV...

``host`` prints the host block.  ``eco-setup`` derives the seed's ECO
edit, writes it as structural Verilog and checks, once, that the
incremental campaign ``repro analyze --eco`` runs equals a from-scratch
campaign on the edited netlist.  ``trace`` runs the CLI in-process with
a span around every call into a pipeline layer and writes the spans.

Every command is run with ``src`` on ``PYTHONPATH`` from the root of a
checkout; each prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT))  # ``benchmarks.hostinfo``

from spans import Tracer  # noqa: E402  (stdlib only; see spans.py)

#: The analysis every or1200_if workload runs: the largest built-in
#: design at the paper's default FI budget (16 workloads x 200 cycles)
#: and the default analysis seed, whose quality figures the README
#: quotes (GCN 1.0 vs MLP 0.94, conformity 0.86).
DESIGN = "or1200_if"
ANALYSIS_SEED = 0
WORKLOADS = 16
CYCLES = 200

#: Cell re-types that keep a gate's pins, so the edited design keeps
#: its interface and the baseline campaign stays reusable.
RETYPES = {"AN2": "ND2", "OR2": "NR2", "XOR2": "XNR2", "ND2": "AN2",
           "NR2": "OR2"}
#: ~1% of or1200_if's 504 gates, as in ``benchmarks/bench_eco.py``.
N_EDITS = 5


def host_block() -> dict:
    """``benchmarks.hostinfo.host_metadata`` plus the BLAS build, the
    numpy version and every ``*_NUM_THREADS`` variable as found."""
    import numpy

    from benchmarks.hostinfo import host_metadata

    host = host_metadata(best_of=1)
    host["measurement"] = "median of the operations in one run"
    host["nproc"] = os.cpu_count()
    host["numpy"] = numpy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    host["blas"] = {key: blas.get(key) for key in
                    ("name", "version", "openblas configuration")}
    host["num_threads_env"] = {
        key: value for key, value in sorted(os.environ.items())
        if key.endswith("_NUM_THREADS")
    }
    return host


def campaign_digest(result) -> str:
    """Digest of a campaign's fault list and result arrays."""
    from repro.utils.fingerprint import canonical_hash

    return canonical_hash(
        {"netlist": result.netlist_name,
         "workloads": list(result.workload_names),
         "faults": [[f.node_name, f.stuck_at] for f in result.faults],
         "failures": len(result.failures)},
        [result.workload_cycles, result.error_cycles,
         result.detection_cycle, result.latent],
    )


def eco_edit(netlist, seed: int):
    """The seed's edit: ``N_EDITS`` gates re-typed per ``RETYPES``."""
    from repro.netlist.cells import get_cell

    candidates = [gate.instance for gate in netlist.gates
                  if gate.cell.name in RETYPES]
    chosen = set(random.Random(f"perfbench-eco:{seed}").sample(
        sorted(candidates), N_EDITS))
    edited = copy.deepcopy(netlist)
    for gate in edited.gates:
        if gate.instance in chosen:
            gate.cell = get_cell(RETYPES[gate.cell.name])
    edited.invalidate_structure()
    return edited, sorted(chosen)


def eco_setup(args) -> dict:
    from repro import AnalyzerConfig, FaultCriticalityAnalyzer, build_design
    from repro.fi import run_campaign, run_eco_campaign
    from repro.netlist import read_verilog, to_verilog
    from repro.store import ArtifactStore

    base = build_design(DESIGN)
    edited, chosen = eco_edit(base, args.seed)
    Path(args.verilog).write_text(to_verilog(edited), encoding="utf-8")
    # The baseline and the netlist the CLI op gets: the warm store's
    # campaign and the Verilog just written.
    analyzer = FaultCriticalityAnalyzer(
        base, AnalyzerConfig(seed=ANALYSIS_SEED, n_workloads=WORKLOADS,
                             workload_cycles=CYCLES),
        store=ArtifactStore(args.store))
    edited = read_verilog(args.verilog)
    eco = run_eco_campaign(base, edited, analyzer.workloads,
                           base=analyzer.campaign,
                           severity=analyzer.config.severity,
                           jobs=args.jobs)
    full = run_campaign(edited, analyzer.workloads,
                        severity=analyzer.config.severity)
    merged, scratch = campaign_digest(eco.result), campaign_digest(full)
    return {"edits": chosen, "dirty_faults": eco.n_dirty,
            "merged_digest": merged, "scratch_digest": scratch,
            "ok": merged == scratch}


def install_spans(tracer: Tracer) -> None:
    """Wrap the layer entry points the CLI's analyze path calls.

    The analyzer calls the layer functions it imported into its own
    namespace, so those names are wrapped there; methods are wrapped
    on their classes.  An ``after`` hook reads the counters off the
    layer's result while its span is still open.
    """
    from repro import netlist
    from repro.core import analyzer
    from repro.explain import GNNExplainer
    from repro.models import GCNClassifier, GCNRegressor
    from repro.store import ArtifactStore

    def campaign(span, result):
        cycles = int(result.workload_cycles.sum())
        tracer.count("fi.fault_cycles", len(result.faults) * cycles)
        tracer.count("fi.failures", len(result.failures))

    def eco_campaign(span, eco):
        cycles = int(eco.result.workload_cycles.sum())
        tracer.count("fi.fault_cycles", eco.n_dirty * cycles)
        tracer.count("fi.failures", len(eco.result.failures))
        tracer.count("fi.eco_dirty_faults", eco.n_dirty)
        tracer.count("fi.eco_faults", eco.n_faults)

    def training(span, model):
        tracer.count("nn.epochs_run", len(model.history.train_loss))

    def explained(span, explanations):
        tracer.count("explain.nodes", len(explanations))

    def lookup(span, hit):
        span["name"] = "store.miss" if hit is None else "store.replay"

    entry_points = [
        (analyzer, "design_workloads", "sim.workloads", None),
        (analyzer, "run_campaign", "fi.campaign", campaign),
        (analyzer, "run_eco_campaign", "fi.eco_campaign", eco_campaign),
        (analyzer, "extract_features", "features.extract", None),
        (analyzer, "patch_features", "features.patch", None),
        (analyzer, "build_graph_data", "graph.build", None),
        (netlist, "read_verilog", "netlist.read_verilog", None),
        (GCNClassifier, "fit", "nn.classifier_train", training),
        (GCNRegressor, "fit", "nn.regressor_train", training),
        (GCNClassifier, "transfer_to", "models.transfer", None),
        (GCNRegressor, "transfer_to", "models.transfer", None),
        (analyzer.FaultCriticalityAnalyzer, "baseline_accuracies",
         "models.baselines", None),
        (GNNExplainer, "explain_many", "explain.explain", explained),
        (ArtifactStore, "get", "store.get", lookup),
        (ArtifactStore, "put", "store.put", None),
    ]
    for owner, attr, name, after in entry_points:
        setattr(owner, attr, _traced(tracer, getattr(owner, attr), name,
                                     after))


def _traced(tracer: Tracer, function, name: str, after):
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = function(*args, **kwargs)
            if after is not None:
                after(span, result)
        return result

    return traced


def trace(args) -> dict:
    tracer = Tracer()
    with tracer.span("repro.import"):
        import repro.__main__  # noqa: F401
        from repro.store import ArtifactStore
    install_spans(tracer)
    store = args.argv[args.argv.index("--store") + 1]
    before = ArtifactStore(store).stats()
    with open(args.stdout, "w", encoding="utf-8") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            with tracer.span("cli.main"):
                code = repro.__main__.main(args.argv)
        finally:
            sys.stdout = saved
    after = ArtifactStore(store).stats()
    for key in ("hits", "misses"):
        tracer.count(f"store.{key}", after[key] - before[key])
    tracer.count("store.bytes_written", after["bytes"] - before["bytes"])
    tracer.dump(args.spans)
    return {"exit_code": code}


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("host")
    eco = commands.add_parser("eco-setup")
    eco.add_argument("--seed", type=int, required=True)
    eco.add_argument("--store", required=True)
    eco.add_argument("--verilog", required=True)
    eco.add_argument("--jobs", type=int, required=True)
    traced = commands.add_parser("trace")
    traced.add_argument("--spans", required=True)
    traced.add_argument("--stdout", required=True)
    traced.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.command == "trace" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    handler = {"host": lambda _: host_block(), "eco-setup": eco_setup,
               "trace": trace}[args.command]
    result = handler(args)
    print(json.dumps(result))
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
