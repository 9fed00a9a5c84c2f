"""Tests for the resilient campaign runner: backoff/retry policies,
checkpoint/resume, timeout supervision, and graceful degradation."""

import json

import numpy as np
import pytest

from repro.fi import run_campaign
from repro.fi.checkpoint import MANIFEST_NAME
from repro.fi.runner import CampaignRunner, PassTimeout, RunnerPolicy
from repro.sim import Workload, design_workloads
from repro.sim.bitparallel import BitParallelSimulator
from repro.utils.errors import (
    CampaignError,
    SerializationError,
    SimulationError,
)
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
        with pytest.raises(CampaignError):
            RunnerPolicy(resume=True)  # no checkpoint_dir


class TestCheckpointResume:
    def test_uninterrupted_checkpointed_run_matches_plain(
        self, icfsm, suite, baseline, tmp_path,
    ):
        checkpointed = run_campaign(icfsm, suite,
                                    checkpoint_dir=tmp_path)
        assert_campaigns_identical(baseline, checkpointed)
        files = sorted(path.name for path in tmp_path.iterdir())
        assert MANIFEST_NAME in files
        assert sum(name.startswith("workload_") for name in files) == 4

    def test_killed_campaign_resumes_identically(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
    ):
        """Simulated SIGKILL after 2 completed units: the interrupt
        propagates (kills stay kills), checkpoints survive, and the
        resumed campaign is identical to an uninterrupted one.  The
        whole suite packs into one pass per shard, so three shards
        give the run three units of four rows each."""
        original = BitParallelSimulator.run_fault_passes
        passes = {"n": 0}

        def dying(self, workloads, *args, **kwargs):
            if passes["n"] == 2:
                raise KeyboardInterrupt
            passes["n"] += 1
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            dying)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         retries=3, backoff=NO_WAIT, shard_size=200)
        completed = [path for path in tmp_path.iterdir()
                     if path.name.startswith("workload_")]
        # durable progress survived the kill: one file per row per unit
        assert len(completed) == 2 * len(suite)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            original)
        resumed = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                               resume=True, shard_size=200)
        assert_campaigns_identical(baseline, resumed)
        assert resumed.complete

    def test_resume_with_collapse(self, icfsm, suite, tmp_path):
        plain = run_campaign(icfsm, suite, collapse=True)
        run_campaign(icfsm, suite, collapse=True,
                     checkpoint_dir=tmp_path)
        resumed = run_campaign(icfsm, suite, collapse=True,
                               checkpoint_dir=tmp_path, resume=True)
        assert_campaigns_identical(plain, resumed)

    def test_fresh_run_refuses_populated_directory(
        self, icfsm, suite, tmp_path,
    ):
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        with pytest.raises(CampaignError, match="resume it"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path)

    def test_resume_without_manifest_rejected(
        self, icfsm, suite, tmp_path,
    ):
        with pytest.raises(CampaignError, match="nothing to resume"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         resume=True)

    def test_resume_different_campaign_rejected(
        self, icfsm, suite, tmp_path,
    ):
        """Same workload *names*, different stimulus bytes: the
        fingerprint must catch it."""
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        other = design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                                 seed=99)
        assert [w.name for w in other] == [w.name for w in suite]
        with pytest.raises(CampaignError, match="different campaign"):
            run_campaign(icfsm, other, checkpoint_dir=tmp_path,
                         resume=True)

    def test_torn_workload_checkpoint_resimulated(
        self, icfsm, suite, baseline, tmp_path,
    ):
        """A unit file truncated mid-write (the kill-during-save
        signature) is skipped and re-simulated on resume — resuming
        after a crash must never require manual file surgery."""
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        victim = tmp_path / "workload_0001.npz"
        victim.write_bytes(victim.read_bytes()[:40])  # torn bytes
        resumed = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                               resume=True)
        assert_campaigns_identical(baseline, resumed)
        assert resumed.complete
        # The re-simulated unit was durably re-checkpointed intact.
        third = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                             resume=True)
        assert_campaigns_identical(baseline, third)

    def test_mismatched_workload_checkpoint_still_rejected(
        self, icfsm, suite, tmp_path,
    ):
        """A *well-formed* unit file that belongs to a different
        campaign configuration is an operator error, not a torn
        write — it must refuse loudly, never silently re-simulate."""
        from repro.io import save_workload_checkpoint

        campaign = run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        save_workload_checkpoint(
            tmp_path / "workload_0001.npz",
            fingerprint="0" * 64,  # some other campaign's digest
            workload_index=1,
            error_cycles=campaign.error_cycles[1],
            detection_cycle=campaign.detection_cycle[1],
            latent=campaign.latent[1],
            elapsed_seconds=0.0,
        )
        with pytest.raises(CampaignError, match="failed validation"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         resume=True)

    def test_interrupt_mid_checkpoint_write_is_deferred(
        self, tmp_path, monkeypatch,
    ):
        """A SIGINT that lands while numpy writes a unit file is held
        until the file is whole, then surfaces as KeyboardInterrupt
        (numpy's zip cleanup would otherwise replace it with a
        ValueError and leave no file)."""
        import signal

        from repro.io import (
            load_workload_checkpoint,
            save_workload_checkpoint,
        )

        original = np.savez_compressed

        def interrupted(*args, **kwargs):
            signal.raise_signal(signal.SIGINT)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "savez_compressed", interrupted)
        handler = signal.getsignal(signal.SIGINT)
        values = np.arange(5, dtype=np.int64)
        with pytest.raises(KeyboardInterrupt):
            save_workload_checkpoint(
                tmp_path / "workload_0000.npz", fingerprint="f" * 64,
                workload_index=0, error_cycles=values,
                detection_cycle=values, latent=values > 2,
                elapsed_seconds=0.5,
            )
        loaded = load_workload_checkpoint(
            tmp_path / "workload_0000.npz", fingerprint="f" * 64,
            workload_index=0, n_faults=5,
        )
        assert np.array_equal(loaded["error_cycles"], values)
        assert signal.getsignal(signal.SIGINT) is handler

    def test_corrupt_manifest_rejected(self, icfsm, suite, tmp_path):
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json",
                                              encoding="utf-8")
        with pytest.raises(CampaignError, match="corrupt"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         resume=True)


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
    ):
        """A failed workload is NOT checkpointed: a later resume
        re-simulates it and recovers the full campaign."""
        original = BitParallelSimulator.run_fault_passes
        broken = suite[2].name

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == broken for w in workloads):
                raise RuntimeError("flaky box")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            flaky)
        partial = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                               backoff=NO_WAIT)
        assert [f.workload for f in partial.failures] == [broken]

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            original)
        recovered = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                                 resume=True)
        assert recovered.complete
        assert_campaigns_identical(baseline, recovered)


class TestRunnerDirect:
    def test_runner_preflight_happens_at_construction(self, icfsm):
        with pytest.raises(SimulationError):
            CampaignRunner(icfsm, [])

    def test_pass_timeout_is_campaign_error(self):
        assert issubclass(PassTimeout, CampaignError)

    def test_manifest_contents(self, icfsm, suite, tmp_path):
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["netlist_name"] == icfsm.name
        assert manifest["workload_names"] == [w.name for w in suite]
        assert manifest["n_faults"] == 2 * icfsm.n_gates
