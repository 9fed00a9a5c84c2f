"""Sharded + multi-core campaign equivalence.

The contract the sharded engine must keep: for EVERY ``(shard_size,
jobs)`` configuration — including fault collapsing and functional
observation specs — the merged campaign result is bitwise identical to
the classic serial, unsharded run.  Machines are independent (per-bit
fault masks) and shards are contiguous slices of the simulated
universe, so any divergence is a merge bug, not numerical noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import run_campaign
from repro.fi.collapse import collapse_faults, expand_shard
from repro.fi.faults import full_fault_universe
from repro.fi.runner import CampaignRunner, RunnerPolicy
from repro.sim import design_workloads
from repro.sim.bitparallel import BitParallelSimulator
from repro.store import ArtifactStore
from repro.utils.errors import CampaignError
from repro.utils.parallel import (
    auto_shard_size,
    resolve_jobs,
    shard_bounds,
)


@pytest.fixture(scope="module")
def suite(icfsm):
    return design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                            seed=3)


@pytest.fixture(scope="module")
def baseline(icfsm, suite):
    """The reference: serial, unsharded (``--jobs 1 --shard-size 0``)."""
    return run_campaign(icfsm, suite)


def assert_identical(left, right):
    assert left.workload_names == right.workload_names
    assert [f.name for f in left.faults] == [f.name for f in right.faults]
    assert np.array_equal(left.error_cycles, right.error_cycles)
    assert np.array_equal(left.detection_cycle, right.detection_cycle)
    assert np.array_equal(left.latent, right.latent)
    assert not left.failures and not right.failures


class TestShardPlanning:
    def test_bounds_partition_the_universe(self):
        bounds = shard_bounds(10, 4)
        assert bounds == [(0, 4), (4, 8), (8, 10)]
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(10))

    def test_zero_means_one_shard(self):
        assert shard_bounds(526, 0) == [(0, 526)]
        assert shard_bounds(526, 526) == [(0, 526)]
        assert shard_bounds(526, 10_000) == [(0, 526)]

    def test_empty_universe_rejected(self):
        with pytest.raises(CampaignError):
            shard_bounds(0, 4)

    def test_auto_size_packs_whole_words(self):
        # f = 64w - 1 faults plus the golden machine fills w words.
        size = auto_shard_size(302)
        assert (size + 1) % 64 == 0
        words = (size + 1) // 64
        assert 302 * words * 8 <= 4 * 1024 * 1024

    def test_auto_size_never_starves(self):
        # A giant netlist still gets one word (63 faults + golden).
        assert auto_shard_size(10**9) == 63
        with pytest.raises(CampaignError):
            auto_shard_size(0)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        with pytest.raises(CampaignError):
            resolve_jobs(-1)


class TestPolicyValidation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(CampaignError):
            RunnerPolicy(jobs=-2)

    def test_bad_shard_size_rejected(self):
        with pytest.raises(CampaignError):
            RunnerPolicy(shard_size=-1)
        with pytest.raises(CampaignError):
            RunnerPolicy(shard_size="huge")

    def test_auto_spellings_accepted(self):
        assert RunnerPolicy(shard_size="auto").shard_size == "auto"
        assert RunnerPolicy(shard_size=None).shard_size is None


class TestShardedEquivalence:
    """Word-boundary shard sizes x job counts vs the serial baseline.

    63/64/65 straddle the 64-machine word boundary (the packing edge
    cases: exactly one word with golden, golden forced into a second
    word, and a ragged final shard).
    """

    @pytest.mark.parametrize("shard_size", [63, 64, 65, None])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bitwise_identical(self, icfsm, suite, baseline,
                               shard_size, jobs):
        result = run_campaign(icfsm, suite, shard_size=shard_size,
                              jobs=jobs)
        assert_identical(baseline, result)

    def test_four_jobs(self, icfsm, suite, baseline):
        result = run_campaign(icfsm, suite, shard_size=64, jobs=4)
        assert_identical(baseline, result)

    def test_all_cores(self, icfsm, suite, baseline):
        result = run_campaign(icfsm, suite, shard_size="auto", jobs=0)
        assert_identical(baseline, result)

    def test_single_fault_shards(self, icfsm, suite):
        # shard_size=1 on the full universe is slow; a subset keeps the
        # degenerate one-fault-per-unit case cheap but real.
        faults = full_fault_universe(icfsm)[:48]
        serial = run_campaign(icfsm, suite, faults=faults)
        for jobs in (1, 2):
            sharded = run_campaign(icfsm, suite, faults=faults,
                                   shard_size=1, jobs=jobs)
            assert_identical(serial, sharded)

    def test_collapsed_universe(self, icfsm, suite):
        serial = run_campaign(icfsm, suite, collapse=True)
        sharded = run_campaign(icfsm, suite, collapse=True,
                               shard_size=63, jobs=2)
        assert_identical(serial, sharded)

    def test_every_output_observation(self, icfsm, suite):
        # icfsm registers a strobed observation spec, so the default
        # baseline already covers the spec path; observation=None
        # covers the compare-everything path.
        serial = run_campaign(icfsm, suite, observation=None)
        sharded = run_campaign(icfsm, suite, observation=None,
                               shard_size=64, jobs=2)
        assert_identical(serial, sharded)

    def test_unit_plan(self, icfsm, suite):
        runner = CampaignRunner(
            icfsm, suite, policy=RunnerPolicy(shard_size=100),
        )
        n_faults = len(runner.faults)
        assert runner.n_shards == -(-n_faults // 100)


class TestShardedProperty:
    @settings(max_examples=8, deadline=None)
    @given(shard_size=st.integers(min_value=1, max_value=40),
           jobs=st.sampled_from([1, 2]))
    def test_any_shard_size_is_equivalent(self, small_random_netlist,
                                          shard_size, jobs):
        netlist = small_random_netlist
        suite = design_workloads(netlist.name, netlist, count=2,
                                 cycles=30, seed=5)
        faults = full_fault_universe(netlist)[:30]
        serial = run_campaign(netlist, suite, faults=faults)
        sharded = run_campaign(netlist, suite, faults=faults,
                               shard_size=shard_size, jobs=jobs)
        assert_identical(serial, sharded)


class TestExpandShard:
    def test_shards_cover_original_universe_once(self, icfsm):
        universe = collapse_faults(icfsm, full_fault_universe(icfsm))
        n_reps = len(universe.representatives)
        n_original = len(universe.original)
        seen = np.zeros(n_original, dtype=int)
        for bounds in shard_bounds(n_reps, 37):
            lo, hi = bounds
            columns = np.arange(lo, hi)[None, :]  # fake unit result
            original, expanded = expand_shard(universe, bounds, columns)
            seen[original] += 1
            # every expanded column carries its representative's index
            assert np.array_equal(expanded[0],
                                  universe.class_of[original])
        assert np.all(seen == 1)


def _interrupt_after(monkeypatch, passes_allowed):
    """Make the campaign kernel raise KeyboardInterrupt (a simulated
    kill) after ``passes_allowed`` passes; returns the real kernel."""
    real = BitParallelSimulator.run_fault_passes
    done = {"n": 0}

    def dying(self, workloads, *args, **kwargs):
        if done["n"] == passes_allowed:
            raise KeyboardInterrupt
        done["n"] += 1
        return real(self, workloads, *args, **kwargs)

    monkeypatch.setattr(BitParallelSimulator, "run_fault_passes", dying)
    return real


def _unit_metas(store):
    return [entry["meta"] for entry in store.entries()
            if entry["kind"] == "unit"]


class TestShardedCheckpointing:
    def test_unit_files_and_manifest(self, icfsm, suite, baseline,
                                     tmp_path, monkeypatch,
                                     stored_campaign):
        """A killed sharded run leaves one unit entry per row per
        completed shard; storing the complete rerun drops them all."""
        real = _interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            real)
        store = ArtifactStore(tmp_path)
        metas = _unit_metas(store)
        assert len(metas) == 2 * len(suite)
        assert {meta["design"] for meta in metas} == {icfsm.name}
        assert len(list(tmp_path.rglob("*.unit.npz"))) == 2 * len(suite)

        result = stored_campaign(store, icfsm, suite, shard_size=200)
        assert_identical(baseline, result)
        assert _unit_metas(store) == []

    def test_resume_skips_all_completed_units(self, icfsm, suite,
                                              baseline, tmp_path,
                                              monkeypatch):
        """A pooled run whose one unit fails keeps every completed
        unit; the rerun simulates that unit alone."""
        real = BitParallelSimulator.run_fault_passes
        victim = suite[0].name

        def flaky_pass(self, workloads, nets, values, **kwargs):
            if len(nets) < 200 and any(w.name == victim
                                       for w in workloads):
                raise RuntimeError("injected harness fault")
            return real(self, workloads, nets, values, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            flaky_pass)
        store = ArtifactStore(tmp_path)
        partial = run_campaign(icfsm, suite, shard_size=200, jobs=2,
                               store=store)
        assert [f.workload for f in partial.failures] == [victim]
        assert len(_unit_metas(store)) == 3 * len(suite) - 1

        simulated = []

        def only_the_failed_unit(self, workloads, nets, values,
                                 **kwargs):
            assert [w.name for w in workloads] == [victim], (
                "rerun re-simulated a finished unit"
            )
            simulated.append(len(nets))
            return real(self, workloads, nets, values, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            only_the_failed_unit)
        resumed = run_campaign(icfsm, suite, shard_size=200,
                               store=store)
        assert simulated == [len(baseline.faults) - 400]
        assert_identical(baseline, resumed)

    def test_resume_rejects_different_shard_layout(self, icfsm, suite,
                                                   baseline, tmp_path,
                                                   monkeypatch,
                                                   stored_campaign):
        """Units stored under one shard layout are not reused under
        another: the rerun re-simulates, matches, and storing it drops
        the other layout's units too."""
        real = _interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        simulated = []

        def counted(self, workloads, *args, **kwargs):
            simulated.extend(w.name for w in workloads)
            return real(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            counted)
        store = ArtifactStore(tmp_path)
        result = stored_campaign(store, icfsm, suite, shard_size=100)
        n_shards = len(shard_bounds(len(baseline.faults), 100))
        assert len(simulated) == n_shards * len(suite)
        assert_identical(baseline, result)
        assert _unit_metas(store) == []


class TestParallelFailures:
    def test_failed_unit_names_its_shard(self, icfsm, suite,
                                         monkeypatch):
        real = BitParallelSimulator.run_fault_passes
        victim = suite[0].name

        def flaky_pass(self, workloads, nets, values, **kwargs):
            # Row 0 of the second shard (faults 300:526) always fails:
            # its packed group is split and only its own unit lands in
            # the ledger.
            if len(nets) < 300 and any(w.name == victim
                                       for w in workloads):
                raise RuntimeError("injected harness fault")
            return real(self, workloads, nets, values, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            flaky_pass)
        result = run_campaign(icfsm, suite, shard_size=300)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.status == "error"
        assert failure.error.startswith("shard ")
        assert failure.error.startswith("shard 1 (faults 300:526)")
        assert failure.workload == victim
        assert "injected harness fault" in failure.error

    def test_parallel_failure_lands_in_ledger(self, icfsm, suite,
                                              baseline, monkeypatch):
        real = BitParallelSimulator.run_fault_passes
        victim = suite[0].name

        def doomed_pass(self, workloads, *args, **kwargs):
            if any(w.name == victim for w in workloads):
                raise RuntimeError("worker-side crash")
            return real(self, workloads, *args, **kwargs)

        # fork workers inherit the monkeypatched class
        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            doomed_pass)
        result = run_campaign(icfsm, suite, jobs=2)
        assert [f.workload for f in result.failures] == [victim]
        assert "worker-side crash" in result.failures[0].error
        # the surviving workloads still match the baseline bit for bit
        mask = result.completed_mask
        assert np.array_equal(result.error_cycles[mask],
                              baseline.error_cycles[mask])
        assert np.array_equal(result.detection_cycle[mask],
                              baseline.detection_cycle[mask])
