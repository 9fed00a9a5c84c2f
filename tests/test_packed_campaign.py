"""Lane-packed fault campaigns.

The campaign runner packs a group of equal-length workloads into one
bit-parallel pass, one lane span per workload.  The contract: results
are bitwise identical to one pass per workload for every runner
setting, and a broken workload inside a packed group costs only its
own row.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_design
from repro.fi import run_campaign
from repro.fi import runner as runner_module
from repro.fi.collapse import collapse_faults
from repro.fi.faults import full_fault_universe
from repro.fi.observation import ObservationSpec, observation_for
from repro.fi.runner import CampaignRunner, RunnerPolicy
from repro.sim import Workload, design_workloads
from repro.sim.bitparallel import (
    MISMATCH_CHUNK_BYTES,
    BitParallelSimulator,
    MismatchAccumulator,
)
from repro.utils.errors import SimulationError
from repro.utils.parallel import auto_pack_size, fork_context
from repro.utils.retry import BackoffPolicy

NO_WAIT = BackoffPolicy(base=0.0, jitter=0.0)


def campaign_digest(result) -> str:
    digest = hashlib.sha256()
    for array in (result.error_cycles, result.detection_cycle,
                  result.latent):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def single_passes(netlist, workloads, faults, observation):
    """The reference: one W=1 pass per workload over ``faults``."""
    engine = BitParallelSimulator(netlist)
    nets = np.array([fault.net_index for fault in faults], dtype=np.intp)
    values = np.array([fault.stuck_at for fault in faults],
                      dtype=np.uint8)
    compiled = (observation.compile(netlist)
                if observation is not None else None)
    rows = [engine.run_fault_pass(workload, nets, values,
                                  observation=compiled)
            for workload in workloads]
    return tuple(np.stack([row[k] for row in rows]) for k in range(3))


#: sha256 over (error_cycles, detection_cycle, latent) of
#: ``run_campaign(design, design_workloads(..., count=4, cycles=60,
#: seed=0))``, recorded with one fault pass per workload.
FROZEN_DIGESTS = {
    "or1200_icfsm": "6f10e32d092602a6417ad359e51e3eab"
                    "6d65a36039da84fb50b402cd0d33e2de",
    "or1200_if": "3cf432451118b58fd44ea99fa74a6f0e"
                 "84ba4ae0b5111dfd17337f645b145150",
    "sdram": "d03f2308137771266f75e5c7f245e713"
             "be7f27b074217201e121cd6e4ae50bd2",
    "uart": "2d0b96b44e95b6c02e74ec00628d7dce"
            "efb8958760df2b55c54dab96e7565c02",
}


@pytest.mark.parametrize("design", sorted(FROZEN_DIGESTS))
def test_campaign_matches_frozen_digest(design):
    netlist = build_design(design)
    suite = design_workloads(netlist.name, netlist, count=4, cycles=60,
                             seed=0)
    result = run_campaign(netlist, suite)
    assert result.complete
    assert campaign_digest(result) == FROZEN_DIGESTS[design]


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design", ["or1200_icfsm", "sdram"])
def test_packed_rows_equal_single_passes(design):
    netlist = build_design(design)
    suite = design_workloads(netlist.name, netlist, count=3, cycles=40,
                             seed=1)
    faults = full_fault_universe(netlist)
    observation = observation_for(netlist)
    expected = single_passes(netlist, suite, faults, observation)
    engine = BitParallelSimulator(netlist)
    packed = engine.run_fault_passes(
        suite,
        np.array([fault.net_index for fault in faults], dtype=np.intp),
        np.array([fault.stuck_at for fault in faults], dtype=np.uint8),
        observation=observation.compile(netlist),
    )
    for got, want in zip(packed, expected):
        assert got.shape == (len(suite), len(faults))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_packed_pass_rejects_unequal_cycles(icfsm):
    short, long = (
        design_workloads(icfsm.name, icfsm, count=1, cycles=cycles,
                         seed=0)[0]
        for cycles in (20, 30)
    )
    long = Workload("long", long.input_names, long.vectors)
    engine = BitParallelSimulator(icfsm)
    with pytest.raises(SimulationError, match="equal workload cycle"):
        engine.run_fault_passes([short, long], np.array([0]),
                                np.array([1], dtype=np.uint8))


def test_mismatch_chunk_is_sized_in_bytes():
    # 256 rows at 16 words, fewer rows for wider passes, never zero.
    assert MismatchAccumulator(1024, 16)._chunk.shape == (256, 16)
    for n_words in (1, 126, 251, 5000):
        rows = len(MismatchAccumulator(n_words * 64, n_words)._chunk)
        assert rows >= 1
        assert rows == 1 or rows * n_words * 64 <= MISMATCH_CHUNK_BYTES


# ----------------------------------------------------------------------
# unit planning
# ----------------------------------------------------------------------
class TestUnitPlan:
    def test_or1200_if_suite_packs_as_two_passes(self, or1200_if):
        suite = design_workloads(or1200_if.name, or1200_if, count=16,
                                 cycles=20, seed=0)
        runner = CampaignRunner(or1200_if, suite)
        assert auto_pack_size(or1200_if.n_nets, 1009) == 14
        units = runner._plan_units([(row, 0) for row in range(16)], 1)
        assert units == [(tuple(range(8)), 0), (tuple(range(8, 16)), 0)]

    def test_pooled_plan_has_a_unit_per_job(self, icfsm):
        suite = design_workloads(icfsm.name, icfsm, count=5, cycles=20,
                                 seed=0)
        runner = CampaignRunner(icfsm, suite)
        pending = [(row, 0) for row in range(5)]
        assert runner._plan_units(pending, 1) == [(tuple(range(5)), 0)]
        assert runner._plan_units(pending, 2) == [
            ((0, 1, 2), 0), ((3, 4), 0),
        ]
        # never more units than rows
        assert len(runner._plan_units(pending, 16)) == 5

    def test_rows_group_by_cycle_count_in_suite_order(self, icfsm):
        suite = [
            design_workloads(icfsm.name, icfsm, count=1, cycles=cycles,
                             seed=row)[0]
            for row, cycles in enumerate((30, 20, 30, 20, 30))
        ]
        suite = [Workload(f"w{row}", w.input_names, w.vectors)
                 for row, w in enumerate(suite)]
        runner = CampaignRunner(icfsm, suite,
                                policy=RunnerPolicy(shard_size=300))
        pending = [(row, shard) for row in range(5) for shard in (0, 1)]
        assert runner._plan_units(pending, 1) == [
            ((0, 2, 4), 0), ((0, 2, 4), 1), ((1, 3), 0), ((1, 3), 1),
        ]


# ----------------------------------------------------------------------
# property: packed == a loop of single passes, for every setting
# ----------------------------------------------------------------------
@st.composite
def mixed_suites(draw, netlist):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lengths = draw(st.lists(st.sampled_from([6, 9, 14]), min_size=1,
                            max_size=6))
    return [
        Workload(f"w{row}", netlist.input_names(),
                 rng.integers(0, 2, size=(cycles, netlist.n_inputs),
                              dtype=np.uint8))
        for row, cycles in enumerate(lengths)
    ]


class TestPackedProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(),
           shard_size=st.integers(min_value=0, max_value=90),
           collapse=st.booleans(),
           observation=st.sampled_from([None, "auto", "strobed"]),
           jobs=st.sampled_from([1, 2]),
           budget=st.integers(min_value=1, max_value=4096))
    def test_packed_campaign_equals_single_passes(
        self, small_random_netlist, data, shard_size, collapse,
        observation, jobs, budget,
    ):
        netlist = small_random_netlist
        suite = data.draw(mixed_suites(netlist))
        if observation == "strobed":
            outputs = netlist.output_names()
            observation = ObservationSpec(strobes={
                name: (outputs[0], 1) for name in outputs[1:]
            })
        spec = (observation_for(netlist) if observation == "auto"
                else observation)
        faults = full_fault_universe(netlist)
        simulated = (collapse_faults(netlist, faults).representatives
                     if collapse else faults)
        expected = single_passes(netlist, suite, simulated, spec)

        # A tiny pack budget forces several groups per class.
        def small_packs(n_nets, span):
            return auto_pack_size(n_nets, span, budget_bytes=budget)

        with mock.patch.object(runner_module, "auto_pack_size",
                               small_packs):
            runner = CampaignRunner(
                netlist, suite, observation=observation,
                collapse=collapse,
                policy=RunnerPolicy(shard_size=shard_size, jobs=jobs),
            )
            result = runner.run()
        assert result.complete
        if collapse:
            universe = collapse_faults(netlist, faults)
            expected = tuple(values[:, universe.class_of]
                             for values in expected)
        assert np.array_equal(result.error_cycles, expected[0])
        assert np.array_equal(result.detection_cycle, expected[1])
        assert np.array_equal(result.latent, expected[2])


# ----------------------------------------------------------------------
# failure isolation inside a packed group
# ----------------------------------------------------------------------
class TestGroupFailure:
    @pytest.fixture(scope="class")
    def suite(self, icfsm):
        return design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                                seed=3)

    @pytest.fixture(scope="class")
    def baseline(self, icfsm, suite):
        return run_campaign(icfsm, suite)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_broken_workload_fails_only_its_row(
        self, icfsm, suite, baseline, monkeypatch, jobs,
    ):
        if jobs > 1 and fork_context() is None:
            pytest.skip("pooled runs require the fork start method")
        victim = 1
        runner = CampaignRunner(icfsm, suite,
                                policy=RunnerPolicy(jobs=jobs))
        plan = runner._plan_units([(row, 0) for row in range(4)], jobs)
        assert any(victim in rows and len(rows) > 1
                   for rows, _ in plan)  # the victim really is packed

        real = BitParallelSimulator.run_fault_passes

        def broken(self, workloads, *args, **kwargs):
            if any(w.name == suite[victim].name for w in workloads):
                raise RuntimeError("broken workload")
            return real(self, workloads, *args, **kwargs)

        # fork workers inherit the monkeypatched class
        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            broken)
        retries = 2
        result = run_campaign(icfsm, suite, jobs=jobs, retries=retries,
                              backoff=NO_WAIT)
        assert [f.workload for f in result.failures] == [
            suite[victim].name
        ]
        failure = result.failures[0]
        assert failure.status == "error"
        assert failure.attempts == retries + 1
        assert "broken workload" in failure.error
        healthy = [row for row in range(4) if row != victim]
        assert list(result.completed_mask) == [
            row != victim for row in range(4)
        ]
        for name in ("error_cycles", "detection_cycle", "latent"):
            assert np.array_equal(getattr(result, name)[healthy],
                                  getattr(baseline, name)[healthy])

    def test_group_deadline_scales_with_its_rows(
        self, icfsm, suite, baseline, monkeypatch,
    ):
        """A packed group may run ``timeout`` seconds per workload it
        carries: a pass that is slow per workload but within that
        budget completes as one unit instead of being split."""
        import time

        real = BitParallelSimulator.run_fault_passes
        calls = []

        def slow(self, workloads, *args, **kwargs):
            calls.append(len(workloads))
            time.sleep(0.25 * len(workloads))
            return real(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            slow)
        result = run_campaign(icfsm, suite, timeout=1.0)
        assert result.complete
        assert calls == [len(suite)]  # one packed pass, never split
        assert campaign_digest(result) == campaign_digest(baseline)

    def test_checkpoints_split_group_time_per_row(self, icfsm, suite,
                                                  tmp_path, monkeypatch):
        """The one packed group stores a unit per row, each carrying an
        even share of the group's elapsed time."""
        from repro.store import ArtifactStore

        real = CampaignRunner._publish_unit
        shares = []

        def spy(self, key, identity, value, elapsed):
            shares.append(elapsed)
            return real(self, key, identity, value, elapsed)

        monkeypatch.setattr(CampaignRunner, "_publish_unit", spy)
        result = run_campaign(icfsm, suite,
                              store=ArtifactStore(tmp_path))
        assert len(shares) == len(suite)
        assert len(set(shares)) == 1  # one group, split evenly
        assert sum(shares) == pytest.approx(result.simulation_seconds)
