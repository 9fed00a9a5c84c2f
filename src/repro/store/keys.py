"""Stage keys: the artifact store's content-addressing scheme.

Every cached artifact is addressed by a sha256 of its *full input
closure* — the stage name, every parameter that shapes the stage's
output bytes, and the keys of the upstream artifacts it was derived
from.  The scheme composes :func:`repro.utils.fingerprint.canonical_hash`
(the primitive behind every fingerprint in that module), so the
whole repo has exactly one artifact-identity story: equal keys mean
"produced from identical inputs by the same pipeline version", and any
input change — a netlist edit, a different seed, a new stimulus suite,
a schema bump — moves the key instead of silently aliasing stale bytes.

The key graph mirrors the pipeline DAG::

    netlist ─┬────────────────────────────► features ─┐
             ├─ workloads ─► campaign ─► dataset ─────┼─► graph
             │                 └─► unit               │     │
             └────────────(vectors)───────────────────┘     ├─► classifier ─► explanations
                                                            ├─► regressor
                                                            ├─► gridsearch
                                                            └─► baselines

A generated stimulus suite is *stored* under its generation recipe
(:func:`workload_suite_key`), so a warm run skips generating it, but
everything downstream of it is keyed by its *content*
(:func:`workloads_key`): a campaign has one key whichever command ran
it over whichever spelling of the same vectors.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.utils.fingerprint import (
    canonical_hash,
    netlist_fingerprint,
    workloads_fingerprint,
)

#: Bump to invalidate every existing store entry (layout or semantics
#: of any cached stage changed).
STORE_SCHEMA = 1


def stage_key(stage: str, params: dict,
              parents: Sequence[str] = ()) -> str:
    """The uniform key shape: schema + stage + params + parent keys."""
    return canonical_hash({
        "schema": STORE_SCHEMA,
        "stage": stage,
        "params": params,
        "parents": list(parents),
    })


def netlist_key(netlist) -> str:
    """Identity of a parsed design (structural, name-level)."""
    return stage_key("netlist",
                     {"fingerprint": netlist_fingerprint(netlist)})


def workloads_key(workloads) -> str:
    """Identity of a stimulus suite (names, shapes, vector bytes)."""
    return stage_key("workloads",
                     {"fingerprint": workloads_fingerprint(workloads)})


def workload_suite_key(netlist: str, *, design: str, count: int,
                       cycles: int, seed: int) -> str:
    """Identity of a *generated* suite by its generation recipe.

    ``design_workloads`` is deterministic in (design, netlist, count,
    cycles, seed), so the recipe identifies the vectors without paying
    for their generation — which for closed-loop suites means running
    the driver simulation.  This is what lets a warm run skip stimulus
    generation entirely.
    """
    return stage_key(
        "workload-suite",
        {"design": design, "count": int(count), "cycles": int(cycles),
         "seed": int(seed)},
        parents=(netlist,),
    )


def campaign_key(netlist: str, workloads: str, *, severity: float,
                 collapse: bool, observation: str) -> str:
    """Identity of a full-universe stuck-at FI campaign result.

    ``severity`` and ``observation`` must be the *resolved* policy
    (``"auto"`` settled against the design's registry), so the key is
    independent of how the caller spelled the default.
    """
    return stage_key(
        "campaign",
        {"severity": float(severity), "collapse": bool(collapse),
         "observation": observation},
        parents=[netlist, workloads],
    )


def campaign_identity(netlist, workloads, *, severity: float,
                      collapse: bool, observation: str) -> dict:
    """A campaign's identity by content: its design's and stimulus
    suite's keys plus the resolved policy (see :func:`campaign_key`).

    This is the meta a stored campaign carries, and
    ``campaign_key(**identity)`` the key the campaign, its units and
    an ECO baseline lookup all use, whichever command ran it.
    """
    return {
        "netlist": netlist_key(netlist),
        "workloads": workloads_key(workloads),
        "severity": float(severity),
        "collapse": bool(collapse),
        "observation": observation,
    }


def unit_key(campaign: str, *, faults: str, bounds, row: int) -> str:
    """Identity of one completed ``(row, shard)`` of a campaign.

    ``faults`` is the simulated fault list's fingerprint and
    ``bounds`` the shard's ``(start, stop)`` span of it, so a
    different fault list or shard layout never reuses a unit.
    """
    return stage_key(
        "unit",
        {"faults": faults, "bounds": [int(b) for b in bounds],
         "row": int(row)},
        parents=[campaign],
    )


def features_key(netlist: str, workloads: Optional[str], *,
                 probability_source: str, extended: bool) -> str:
    """Identity of the §3.1 node feature matrix.

    ``workloads`` participates only for simulation-derived signal
    probabilities; COP features depend on the structure alone.
    """
    parents = [netlist]
    if probability_source == "simulation" and workloads is not None:
        parents.append(workloads)
    return stage_key(
        "features",
        {"probability_source": probability_source,
         "extended": bool(extended)},
        parents=parents,
    )


def dataset_key(campaign: str, *, threshold: float) -> str:
    """Identity of the Algorithm 1 score/label dataset."""
    return stage_key("dataset", {"threshold": float(threshold)},
                     parents=[campaign])


def graph_key(netlist: str, features: str, dataset: str) -> str:
    """Identity of the model-ready graph (edges + x + labels)."""
    return stage_key("graph", {}, parents=[netlist, features, dataset])


def _split_params(val_fraction: float, seed: int) -> dict:
    # The 80/20 split is cheap to recompute but shapes every trained
    # artifact, so its parameters ride inside each model's key.
    return {"val_fraction": float(val_fraction), "seed": int(seed)}


def classifier_key(graph: str, *, hidden_dims, dropout: float,
                   adjacency_mode: str, self_loops: bool, seed: int,
                   val_fraction: float, training: dict) -> str:
    """Identity of the trained Table 1 GCN classifier weights."""
    return stage_key(
        "classifier",
        {"hidden_dims": [int(d) for d in hidden_dims],
         "dropout": float(dropout), "adjacency_mode": adjacency_mode,
         "self_loops": bool(self_loops), "seed": int(seed),
         "split": _split_params(val_fraction, seed),
         "training": training},
        parents=[graph],
    )


def regressor_key(graph: str, *, hidden_dims, dropout: float,
                  adjacency_mode: str, self_loops: bool, seed: int,
                  val_fraction: float, training: dict) -> str:
    """Identity of the trained criticality-score regressor weights."""
    return stage_key(
        "regressor",
        {"hidden_dims": [int(d) for d in hidden_dims],
         "dropout": float(dropout), "adjacency_mode": adjacency_mode,
         "self_loops": bool(self_loops), "seed": int(seed),
         "split": _split_params(val_fraction, seed),
         "training": training},
        parents=[graph],
    )


def explanations_key(classifier: str, graph: str, *,
                     nodes: Sequence[int], seed: int,
                     explainer: dict) -> str:
    """Identity of a GNNExplainer report batch (order-sensitive)."""
    return stage_key(
        "explanations",
        {"nodes": [int(n) for n in nodes], "seed": int(seed),
         "explainer": explainer},
        parents=[classifier, graph],
    )


def gridsearch_key(graph: str, *, hidden_dim_options, dropout_options,
                   lr_options, epochs: int, seed: int,
                   val_fraction: float, fast_math: bool) -> str:
    """Identity of a §3.3.2 hyperparameter sweep ranking.

    ``jobs`` is deliberately absent (the ranking is bitwise identical
    for any fan-out); ``fast_math`` is present (it is not).
    """
    return stage_key(
        "gridsearch",
        {"hidden_dim_options": [
            [int(d) for d in dims] for dims in hidden_dim_options
         ],
         "dropout_options": [float(d) for d in dropout_options],
         "lr_options": [float(lr) for lr in lr_options],
         "epochs": int(epochs), "seed": int(seed),
         "split": _split_params(val_fraction, seed),
         "fast_math": bool(fast_math)},
        parents=[graph],
    )


def baselines_key(graph: str, *, names: Sequence[str], seed: int,
                  val_fraction: float) -> str:
    """Identity of the baseline-classifier accuracy table."""
    return stage_key(
        "baselines",
        {"names": list(names),
         "split": _split_params(val_fraction, seed)},
        parents=[graph],
    )
