"""Tests for the resilient campaign runner: backoff/retry policies,
resume from an artifact store, timeout supervision, and graceful
degradation."""

import errno
import logging
import os

import numpy as np
import pytest

from repro.fi import run_campaign
from repro.fi.runner import CampaignRunner, PassTimeout, RunnerPolicy
from repro.sim import Workload, design_workloads
from repro.sim.bitparallel import BitParallelSimulator
from repro.store import ArtifactStore
from repro.utils.errors import CampaignError, SimulationError
from repro.utils.retry import BackoffPolicy, retry_call

NO_WAIT = BackoffPolicy(base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def suite(icfsm):
    return design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                            seed=0)


@pytest.fixture(scope="module")
def baseline(icfsm, suite):
    return run_campaign(icfsm, suite)


def assert_campaigns_identical(left, right):
    assert left.netlist_name == right.netlist_name
    assert left.workload_names == right.workload_names
    assert np.array_equal(left.workload_cycles, right.workload_cycles)
    assert np.array_equal(left.error_cycles, right.error_cycles)
    assert np.array_equal(left.detection_cycle, right.detection_cycle)
    assert np.array_equal(left.latent, right.latent)
    assert left.severity == right.severity


class TestBackoffPolicy:
    def test_exponential_growth_and_cap(self):
        policy = BackoffPolicy(base=1.0, multiplier=2.0, max_delay=5.0,
                               jitter=0.0)
        assert policy.delays(4) == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_bounds_and_determinism(self):
        policy = BackoffPolicy(base=1.0, multiplier=1.0, max_delay=10.0,
                               jitter=0.25, seed=7)
        delays = policy.delays(50)
        assert all(0.75 <= delay <= 1.25 for delay in delays)
        assert delays == policy.delays(50)  # seeded => reproducible
        assert delays != BackoffPolicy(
            base=1.0, multiplier=1.0, max_delay=10.0, jitter=0.25,
            seed=8,
        ).delays(50)

    def test_validation(self):
        with pytest.raises(SimulationError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(SimulationError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(max_elapsed=0.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(max_elapsed=-5.0)
        assert BackoffPolicy(max_elapsed=10.0).max_elapsed == 10.0
        assert BackoffPolicy().max_elapsed is None  # unbounded default


class TestRetryCall:
    def _fake_clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        def sleep(seconds):
            state["now"] += seconds

        return clock, sleep, state

    def test_success_first_try(self):
        clock, sleep, _ = self._fake_clock()
        value, outcome = retry_call(lambda: 42, retries=3,
                                    sleep=sleep, clock=clock)
        assert value == 42
        assert outcome.succeeded and outcome.attempts == 1

    def test_succeeds_after_failures_with_backoff_schedule(self):
        clock, sleep, state = self._fake_clock()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        policy = BackoffPolicy(base=1.0, multiplier=2.0,
                               max_delay=100.0, jitter=0.0)
        value, outcome = retry_call(flaky, retries=5, backoff=policy,
                                    sleep=sleep, clock=clock)
        assert value == "ok"
        assert outcome.attempts == 3
        assert state["now"] == 3.0  # slept 1s then 2s on the fake clock

    def test_exhaustion_returns_last_error(self):
        clock, sleep, _ = self._fake_clock()

        def always_broken():
            raise ValueError("permanent")

        value, outcome = retry_call(always_broken, retries=2,
                                    backoff=NO_WAIT, sleep=sleep,
                                    clock=clock)
        assert value is None
        assert not outcome.succeeded
        assert outcome.attempts == 3
        assert isinstance(outcome.error, ValueError)

    def test_kill_propagates(self):
        def killed():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            retry_call(killed, retries=5, backoff=NO_WAIT,
                       sleep=lambda _s: None)

    def test_negative_retries_rejected(self):
        with pytest.raises(SimulationError):
            retry_call(lambda: 1, retries=-1)

    def test_max_elapsed_stops_retrying_early(self):
        """The wall-clock deadline wins over remaining retries: a
        sleep that would overrun the budget is never taken."""
        clock, sleep, state = self._fake_clock()

        def always_broken():
            raise ValueError("permanent")

        policy = BackoffPolicy(base=1.0, multiplier=1.0,
                               max_delay=10.0, jitter=0.0,
                               max_elapsed=2.5)
        value, outcome = retry_call(always_broken, retries=10,
                                    backoff=policy, sleep=sleep,
                                    clock=clock)
        assert value is None
        assert not outcome.succeeded
        # Slept 1s twice (to t=2.0); the third 1s sleep would land at
        # t=3.0 >= 2.5, so the call gives up after 3 of 11 attempts.
        assert outcome.attempts == 3
        assert state["now"] == 2.0
        assert isinstance(outcome.error, ValueError)

    def test_max_elapsed_never_blocks_first_attempt(self):
        """A tiny budget still allows exactly one attempt — the
        deadline bounds *retrying*, not calling."""
        clock, sleep, _ = self._fake_clock()
        policy = BackoffPolicy(base=1.0, jitter=0.0, max_elapsed=0.5)
        value, outcome = retry_call(lambda: "ok", retries=5,
                                    backoff=policy, sleep=sleep,
                                    clock=clock)
        assert value == "ok"
        assert outcome.attempts == 1

        def broken():
            raise RuntimeError("nope")

        value, outcome = retry_call(broken, retries=5, backoff=policy,
                                    sleep=sleep, clock=clock)
        assert value is None
        assert outcome.attempts == 1  # no sleep fits inside 0.5s

    def test_runner_rejects_deadline_below_timeout(self, icfsm, suite):
        with pytest.raises(CampaignError, match="max_elapsed"):
            RunnerPolicy(
                timeout=10.0, retries=2,
                backoff=BackoffPolicy(max_elapsed=5.0),
            )

    def test_campaign_honours_retry_deadline(
        self, icfsm, suite, monkeypatch,
    ):
        """With a deadline that only covers one backoff sleep, a
        permanently broken workload stops retrying early and lands in
        the ledger with fewer attempts than the retry budget allows."""
        original = BitParallelSimulator.run_fault_passes
        broken = suite[1].name

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == broken for w in workloads):
                raise RuntimeError("injected permanent fault")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            flaky)
        policy = BackoffPolicy(base=30.0, multiplier=1.0, jitter=0.0,
                               max_elapsed=1.0)
        result = run_campaign(icfsm, suite, retries=5, backoff=policy)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.workload == broken
        assert failure.status == "error"
        # 6 attempts allowed, but the first 30s sleep would overrun
        # the 1s budget — exactly one attempt happened.
        assert failure.attempts == 1


class TestPreflight:
    def test_zero_cycle_workload_rejected(self, icfsm):
        empty = Workload(
            "empty", icfsm.input_names(),
            np.zeros((0, icfsm.n_inputs), dtype=np.uint8),
        )
        with pytest.raises(SimulationError, match="zero-cycle"):
            run_campaign(icfsm, [empty])

    def test_duplicate_workload_names_rejected(self, icfsm, suite):
        with pytest.raises(SimulationError, match="duplicate"):
            run_campaign(icfsm, [suite[0], suite[0]])

    def test_workload_input_order_rejected(self, icfsm, suite):
        """A workload whose inputs do not match the netlist is a
        configuration error: it fails construction, before any pass,
        retry sleep or ledger entry."""
        ok = suite[0]
        reversed_inputs = Workload(
            "reversed", list(reversed(ok.input_names)),
            ok.vectors[:, ::-1].copy(),
        )
        slept = []
        with pytest.raises(SimulationError, match="input order"):
            CampaignRunner(icfsm, [ok, reversed_inputs],
                           policy=RunnerPolicy(retries=2),
                           sleep=slept.append)
        with pytest.raises(SimulationError, match="input order"):
            run_campaign(icfsm, [ok, reversed_inputs], retries=2)
        assert not slept

    def test_policy_validation(self):
        with pytest.raises(CampaignError):
            RunnerPolicy(timeout=0.0)
        with pytest.raises(CampaignError):
            RunnerPolicy(retries=-1)


def _unit_entries(store):
    return [entry for entry in store.entries() if entry["kind"] == "unit"]


def _interrupted(monkeypatch, after_passes):
    """Patch the campaign kernel to raise KeyboardInterrupt (a
    simulated kill) once ``after_passes`` passes have completed; the
    returned callable restores the real kernel."""
    original = BitParallelSimulator.run_fault_passes
    passes = {"n": 0}

    def dying(self, workloads, *args, **kwargs):
        if passes["n"] == after_passes:
            raise KeyboardInterrupt
        passes["n"] += 1
        return original(self, workloads, *args, **kwargs)

    monkeypatch.setattr(BitParallelSimulator, "run_fault_passes", dying)
    return lambda: monkeypatch.setattr(
        BitParallelSimulator, "run_fault_passes", original
    )


def _counting_passes(monkeypatch):
    """Count the workloads the campaign kernel simulates."""
    original = BitParallelSimulator.run_fault_passes
    simulated = []

    def counted(self, workloads, *args, **kwargs):
        simulated.extend(w.name for w in workloads)
        return original(self, workloads, *args, **kwargs)

    monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                        counted)
    return simulated


class TestCheckpointResume:
    """Resume is a rerun on the same artifact store: completed
    ``(row, shard)`` units are stored as they land and scattered back
    in instead of re-simulated."""

    def test_uninterrupted_checkpointed_run_matches_plain(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
        stored_campaign,
    ):
        store = ArtifactStore(tmp_path)
        stored = run_campaign(icfsm, suite, store=store)
        assert_campaigns_identical(baseline, stored)
        # The units stay until the whole campaign is stored; storing it
        # replays them without simulating and drops them.
        assert len(_unit_entries(store)) == len(suite)
        simulated = _counting_passes(monkeypatch)
        cached = stored_campaign(store, icfsm, suite)
        assert simulated == []
        assert_campaigns_identical(baseline, cached)
        assert _unit_entries(store) == []
        assert not list(tmp_path.rglob("*.unit.npz"))

    @pytest.mark.parametrize("failure", ["no-space", "interrupt"])
    def test_units_outlive_a_failed_campaign_write(
        self, icfsm, suite, baseline, tmp_path, monkeypatch, caplog,
        stored_campaign, failure,
    ):
        """Units are dropped only once the whole campaign is stored: a
        campaign write that fails (full disk) or is interrupted leaves
        every unit, and the rerun resumes from them all."""
        original_put = ArtifactStore.put

        def failing_put(self, key, kind, *args, **kwargs):
            if kind == "campaign":
                if failure == "interrupt":
                    raise KeyboardInterrupt
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return original_put(self, key, kind, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "put", failing_put)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            if failure == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    stored_campaign(ArtifactStore(tmp_path), icfsm,
                                    suite)
            else:
                stored_campaign(ArtifactStore(tmp_path), icfsm, suite)
                assert "continuing uncached" in caplog.text
        monkeypatch.undo()
        assert len(_unit_entries(ArtifactStore(tmp_path))) == len(suite)

        simulated = _counting_passes(monkeypatch)
        rerun = stored_campaign(ArtifactStore(tmp_path), icfsm, suite)
        assert simulated == []
        assert_campaigns_identical(baseline, rerun)
        store = ArtifactStore(tmp_path)
        assert _unit_entries(store) == []
        assert store.stats()["by_kind"]["campaign"] == 1

    def test_killed_campaign_resumes_identically(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
        stored_campaign,
    ):
        """Simulated SIGKILL after 2 completed units: the interrupt
        propagates (kills stay kills), stored units survive, and the
        rerun on the same store is identical to an uninterrupted one.
        The whole suite packs into one pass per shard, so three shards
        give the run three units of four rows each."""
        restore = _interrupted(monkeypatch, after_passes=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, store=ArtifactStore(tmp_path),
                         retries=3, backoff=NO_WAIT, shard_size=200)
        # durable progress survived the kill: one entry per row per unit
        store = ArtifactStore(tmp_path)
        assert len(_unit_entries(store)) == 2 * len(suite)

        restore()
        simulated = _counting_passes(monkeypatch)
        resumed = stored_campaign(store, icfsm, suite, shard_size=200)
        assert_campaigns_identical(baseline, resumed)
        assert resumed.complete
        assert simulated == [w.name for w in suite]  # the last shard
        assert _unit_entries(store) == []

    def test_resume_with_collapse(self, icfsm, suite, tmp_path,
                                  monkeypatch):
        plain = run_campaign(icfsm, suite, collapse=True)
        restore = _interrupted(monkeypatch, after_passes=1)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, collapse=True, shard_size=100,
                         store=ArtifactStore(tmp_path))
        restore()
        resumed = run_campaign(icfsm, suite, collapse=True,
                               shard_size=100,
                               store=ArtifactStore(tmp_path))
        assert_campaigns_identical(plain, resumed)

    def test_resume_different_campaign_rejected(
        self, icfsm, suite, tmp_path, monkeypatch,
    ):
        """Same workload *names*, different stimulus bytes: the store
        key must tell them apart, so none of the first campaign's
        units is reused for the second."""
        restore = _interrupted(monkeypatch, after_passes=1)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        restore()
        other = design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                                 seed=99)
        assert [w.name for w in other] == [w.name for w in suite]
        simulated = _counting_passes(monkeypatch)
        result = run_campaign(icfsm, other, shard_size=200,
                              store=ArtifactStore(tmp_path))
        assert len(simulated) == 3 * len(other)  # every unit, 3 shards
        monkeypatch.undo()
        assert_campaigns_identical(run_campaign(icfsm, other), result)

    def test_torn_workload_checkpoint_resimulated(
        self, icfsm, suite, baseline, tmp_path, monkeypatch, caplog,
    ):
        """A stored unit truncated mid-write (the kill-during-save
        signature) is a logged miss and is re-simulated — resuming
        after a crash must never require manual file surgery."""
        restore = _interrupted(monkeypatch, after_passes=1)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        restore()
        victim = sorted(tmp_path.rglob("*.unit.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])  # torn bytes
        simulated = _counting_passes(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            resumed = run_campaign(icfsm, suite, shard_size=200,
                                   store=ArtifactStore(tmp_path))
        assert_campaigns_identical(baseline, resumed)
        assert resumed.complete
        assert "failed validation" in caplog.text
        # the torn row, plus the two shards never stored
        assert len(simulated) == 1 + 2 * len(suite)

    def test_mismatched_workload_checkpoint_still_rejected(
        self, icfsm, suite, baseline, tmp_path, monkeypatch, caplog,
    ):
        """A *well-formed* unit entry whose arrays do not fit this
        campaign's shard is rejected by validation (a logged miss) and
        re-simulated, never scattered into the result."""
        restore = _interrupted(monkeypatch, after_passes=1)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        restore()
        store = ArtifactStore(tmp_path)
        victim = _unit_entries(store)[0]["key"]
        store.discard("unit", [victim])
        wrong = np.zeros(7, dtype=np.int64)
        store.put(victim, "unit", lambda path: np.savez(
            path, error_cycles=wrong, detection_cycle=wrong,
            latent=wrong > 0, elapsed_seconds=np.float64(0.0),
        ))
        simulated = _counting_passes(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            resumed = run_campaign(icfsm, suite, shard_size=200,
                                   store=ArtifactStore(tmp_path))
        assert "failed validation" in caplog.text
        assert len(simulated) == 1 + 2 * len(suite)
        assert_campaigns_identical(baseline, resumed)

    def test_interrupt_mid_checkpoint_write_is_deferred(
        self, tmp_path, monkeypatch,
    ):
        """A SIGINT that lands while numpy writes a unit entry is held
        until the entry is published, then surfaces as
        KeyboardInterrupt (numpy's zip cleanup would otherwise replace
        it with a ValueError and leave no entry)."""
        import signal

        original = np.savez

        def interrupted(*args, **kwargs):
            signal.raise_signal(signal.SIGINT)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "savez", interrupted)
        handler = signal.getsignal(signal.SIGINT)
        values = np.arange(5, dtype=np.int64)
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            store.put("f" * 64, "unit", lambda path: np.savez(
                path, error_cycles=values, detection_cycle=values,
                latent=values > 2, elapsed_seconds=np.float64(0.5),
            ))
        monkeypatch.undo()

        def reader(path):
            with np.load(path) as archive:
                return archive["error_cycles"]

        loaded = ArtifactStore(tmp_path).get("f" * 64, "unit", reader)
        assert np.array_equal(loaded, values)
        assert signal.getsignal(signal.SIGINT) is handler

    def test_evicted_unit_resimulated(self, icfsm, suite, baseline,
                                      tmp_path, monkeypatch):
        """A unit evicted by ``gc`` between the kill and the rerun is
        simulated again; the result is unchanged."""
        restore = _interrupted(monkeypatch, after_passes=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        restore()
        store = ArtifactStore(tmp_path)
        units = _unit_entries(store)
        size = sum(int(entry["size"]) for entry in units)
        evicted, _ = store.gc(byte_budget=size - 1)  # the LRU unit
        assert evicted == 1
        simulated = _counting_passes(monkeypatch)
        resumed = run_campaign(icfsm, suite, shard_size=200,
                               store=ArtifactStore(tmp_path))
        assert_campaigns_identical(baseline, resumed)
        assert len(simulated) == 1 + len(suite)


    def test_corrupt_manifest_rejected(self, icfsm, suite, baseline,
                                       tmp_path, monkeypatch, caplog,
                                       stored_campaign):
        """The store index stands in for the old manifest: a corrupt
        one is rejected and rebuilt from the objects on disk, so the
        rerun still resumes from every stored unit.  The rebuilt
        entries have lost their meta (what a kill between publishing
        and indexing a unit leaves too); the rerun re-files the units
        it reads, so storing the campaign still drops them all."""
        restore = _interrupted(monkeypatch, after_passes=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        restore()
        (tmp_path / "index.json").write_text("{not json",
                                             encoding="utf-8")
        simulated = _counting_passes(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            resumed = stored_campaign(ArtifactStore(tmp_path), icfsm,
                                      suite, shard_size=200)
        assert "corrupt" in caplog.text
        assert len(simulated) == len(suite)  # only the unstored shard
        assert_campaigns_identical(baseline, resumed)
        assert _unit_entries(ArtifactStore(tmp_path)) == []


class TestGracefulDegradation:
    def test_retry_exhaustion_yields_failure_ledger(
        self, icfsm, suite, baseline, monkeypatch,
    ):
        original = BitParallelSimulator.run_fault_passes
        broken = suite[1].name

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == broken for w in workloads):
                raise RuntimeError("injected harness fault")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            flaky)
        result = run_campaign(icfsm, suite, retries=2,
                              backoff=NO_WAIT)
        assert not result.complete
        assert [f.workload for f in result.failures] == [broken]
        failure = result.failures[0]
        assert failure.status == "error"
        assert failure.attempts == 3  # 1 try + 2 retries
        assert "injected harness fault" in failure.error
        assert list(result.completed_mask) == [True, False, True, True]
        # failed row stays at the no-error initial state...
        assert result.error_cycles[1].sum() == 0
        assert (result.detection_cycle[1] == -1).all()
        assert not result.latent[1].any()
        # ...and the other rows are the real results.
        for row in (0, 2, 3):
            assert np.array_equal(result.error_cycles[row],
                                  baseline.error_cycles[row])

    def test_transient_failure_recovered_by_retry(
        self, icfsm, suite, baseline, monkeypatch,
    ):
        """The victim's packed group fails and is split; the victim's
        singleton fails once and its retry merges bit for bit."""
        original = BitParallelSimulator.run_fault_passes
        victim = suite[1].name
        singleton_calls = {"n": 0}

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == victim for w in workloads):
                if len(workloads) > 1:
                    raise RuntimeError("group fails")
                singleton_calls["n"] += 1
                if singleton_calls["n"] == 1:
                    raise RuntimeError("transient")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            flaky)
        result = run_campaign(icfsm, suite, retries=1, backoff=NO_WAIT)
        assert result.complete
        assert singleton_calls["n"] == 2
        assert_campaigns_identical(baseline, result)

        # Without a retry the same flake lands in the ledger.
        singleton_calls["n"] = 0
        result = run_campaign(icfsm, suite, retries=0, backoff=NO_WAIT)
        assert [f.workload for f in result.failures] == [victim]
        assert result.failures[0].attempts == 1
        assert singleton_calls["n"] == 1

    def test_hung_pass_times_out(self, icfsm, suite, monkeypatch):
        import time as time_module

        original = BitParallelSimulator.run_fault_passes
        hung = suite[0].name

        def hang(self, workloads, *args, **kwargs):
            if any(w.name == hung for w in workloads):
                time_module.sleep(5.0)
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            hang)
        result = run_campaign(icfsm, suite[:2], timeout=0.2)
        assert [f.status for f in result.failures] == ["timeout"]
        assert result.failures[0].workload == hung
        assert result.completed_mask[1]

    def test_failure_ledger_survives_save_load(
        self, icfsm, suite, monkeypatch, tmp_path,
    ):
        from repro.io import load_campaign, save_campaign

        original = BitParallelSimulator.run_fault_passes

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == suite[0].name for w in workloads):
                raise RuntimeError("dead workload")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            flaky)
        result = run_campaign(icfsm, suite, backoff=NO_WAIT)
        target = tmp_path / "partial.npz"
        save_campaign(result, target)
        loaded = load_campaign(target)
        assert loaded.failures == result.failures
        assert list(loaded.completed_mask) == list(
            result.completed_mask
        )

    def test_timeout_failures_checkpoint_resume(
        self, icfsm, suite, baseline, monkeypatch, tmp_path,
        stored_campaign,
    ):
        """A timed-out workload is NOT stored: the rerun on the same
        store re-simulates only it, reuses every completed row, and
        recovers the full campaign."""
        import time as time_module

        original = BitParallelSimulator.run_fault_passes
        broken = suite[2].name

        def hang(self, workloads, *args, **kwargs):
            if any(w.name == broken for w in workloads):
                time_module.sleep(1.0)
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            hang)
        store = ArtifactStore(tmp_path)
        partial = run_campaign(icfsm, suite, store=store, timeout=0.2)
        assert [f.workload for f in partial.failures] == [broken]
        assert partial.failures[0].status == "timeout"
        assert len(_unit_entries(store)) == len(suite) - 1

        monkeypatch.undo()
        simulated = _counting_passes(monkeypatch)
        recovered = stored_campaign(store, icfsm, suite)
        assert recovered.complete
        assert simulated == [broken]
        assert_campaigns_identical(baseline, recovered)
        assert _unit_entries(store) == []


class TestRunnerDirect:
    def test_runner_preflight_happens_at_construction(self, icfsm):
        with pytest.raises(SimulationError):
            CampaignRunner(icfsm, [])

    def test_pass_timeout_is_campaign_error(self):
        assert issubclass(PassTimeout, CampaignError)

    def test_manifest_contents(self, icfsm, suite, tmp_path,
                               monkeypatch):
        """Each stored unit's index entry names its design and carries
        the campaign identity the rerun looks units up by."""
        restore = _interrupted(monkeypatch, after_passes=1)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, shard_size=200,
                         store=ArtifactStore(tmp_path))
        restore()
        units = _unit_entries(ArtifactStore(tmp_path))
        assert len(units) == len(suite)
        assert {entry["meta"]["design"] for entry in units} == {
            icfsm.name
        }
        identity = CampaignRunner(
            icfsm, suite, policy=RunnerPolicy(shard_size=200),
        )._unit_identity()
        for entry in units:
            assert {name: entry["meta"][name] for name in identity} == (
                identity
            )
