"""Resilience tax — campaign unit-store overhead.

A campaign run with an artifact store publishes one ``unit`` entry per
completed ``(row, shard)`` so a killed campaign resumes instead of
restarting; the units stay until the whole campaign is stored.
Durability is only free to adopt if that write path costs a small
fraction of the simulation it protects; this benchmark measures, per
design, the wall-clock of a plain campaign vs a stored one vs a resume
from a store holding every unit (which skips all simulation), and the
bytes those units occupy.  Each design runs as one shard (one unit per
workload, the CLI default); one extra row splits sdram_controller into
64-fault shards, 88 units, so the per-unit store cost dominates.
"""

import time

import numpy as np

from benchmarks.conftest import DESIGNS
from repro.fi import run_campaign
from repro.reporting import render_table
from repro.sim import design_workloads
from repro.store import ArtifactStore

WORKLOADS = 8
CYCLES = 150

#: (design, shard size): every design as one shard, plus a many-unit
#: layout.
LAYOUTS = [(design, 0) for design in DESIGNS] + [("sdram_controller", 64)]


def test_checkpoint_overhead(benchmark, artifact, tmp_path_factory):
    from repro import build_design

    short = {"sdram_controller": "sdram", "or1200_if": "or1200_if",
             "or1200_icfsm": "or1200_icfsm"}
    rows = []

    def run():
        for design_name, shard_size in LAYOUTS:
            design = build_design(short[design_name])
            workloads = design_workloads(design.name, design,
                                         count=WORKLOADS,
                                         cycles=CYCLES, seed=0)
            directory = tmp_path_factory.mktemp(f"units_{design_name}")

            started = time.perf_counter()
            plain = run_campaign(design, workloads, shard_size=shard_size)
            plain_seconds = time.perf_counter() - started

            # A direct run stores no whole campaign, so it leaves every
            # unit: the state a kill right after the last unit leaves.
            started = time.perf_counter()
            stored = run_campaign(design, workloads, shard_size=shard_size,
                                  store=ArtifactStore(directory))
            stored_seconds = time.perf_counter() - started
            assert np.array_equal(plain.error_cycles,
                                  stored.error_cycles)
            units = list(directory.rglob("*.unit.npz"))
            store_bytes = sum(path.stat().st_size for path in units)

            started = time.perf_counter()
            resumed = run_campaign(design, workloads,
                                   shard_size=shard_size,
                                   store=ArtifactStore(directory))
            resume_seconds = time.perf_counter() - started

            assert np.array_equal(plain.error_cycles,
                                  resumed.error_cycles)
            overhead = stored_seconds / plain_seconds - 1.0
            rows.append({
                "design": design_name,
                "shard": shard_size or "all",
                "units": len(units),
                "plain s": round(plain_seconds, 2),
                "stored s": round(stored_seconds, 2),
                "overhead": f"{overhead:+.1%}",
                "resume s": round(resume_seconds, 3),
                "resume speedup": (
                    f"{plain_seconds / resume_seconds:,.0f}x"
                ),
                "store KiB": round(store_bytes / 1024, 1),
            })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = render_table(
        rows,
        title="Campaign unit-store overhead "
              f"({WORKLOADS} workloads x {CYCLES} cycles, "
              "full fault universe)",
    )
    artifact("checkpoint_overhead.txt", table)

    # Shape: durability costs a small fraction of the simulation it
    # protects, and resuming a fully stored campaign is pure I/O.
    for row in rows:
        assert row["stored s"] < row["plain s"] * 1.5
        assert row["resume s"] < row["plain s"]
