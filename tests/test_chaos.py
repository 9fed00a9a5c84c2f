"""Chaos harness: worker kills, poison units, and SIGINT resumability.

The supervised pool's contract is that violence against its workers
never changes results — a SIGKILLed worker's unit is re-run (per-unit
determinism makes the re-run bitwise identical), a unit that keeps
killing hosts is quarantined into the failure ledger, and a SIGINTed
campaign exits 130 with every completed unit durable in its artifact
store, from which a rerun resumes.  These
tests commit the violence and check the contract end to end on the
real campaign runner and GNNExplainer.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fi import run_campaign
from repro.fi.runner import CampaignRunner, RunnerPolicy
from repro.graph import GraphData, stratified_split
from repro.models import GCNClassifier
from repro.nn import TrainingConfig
from repro.sim import design_workloads
from repro.store import ArtifactStore
from repro.utils.parallel import fork_context

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="chaos tests require the fork start method",
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def suite(icfsm):
    return design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                            seed=3)


@pytest.fixture(scope="module")
def baseline(icfsm, suite):
    return run_campaign(icfsm, suite)


def assert_campaigns_identical(left, right):
    assert left.workload_names == right.workload_names
    assert np.array_equal(left.error_cycles, right.error_cycles)
    assert np.array_equal(left.detection_cycle, right.detection_cycle)
    assert np.array_equal(left.latent, right.latent)


class TestCampaignChaos:
    def test_worker_kills_mid_campaign_identical_results(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
    ):
        """SIGKILL the host worker on the first execution of two
        different units: the pool requeues each onto a fresh worker
        and the campaign result stays bitwise identical to serial."""
        original = CampaignRunner._run_unit

        def chaotic(self, rows, shard):
            flag = tmp_path / f"killed_{'_'.join(map(str, rows))}_{shard}"
            if {0, 2} & set(rows) and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, rows, shard)

        # The pool forks after the patch, so workers inherit it.
        monkeypatch.setattr(CampaignRunner, "_run_unit", chaotic)
        survived = run_campaign(icfsm, suite, jobs=2,
                                heartbeat_interval=0.1)
        assert survived.complete
        assert_campaigns_identical(baseline, survived)

    def test_worker_kills_mid_sharded_campaign(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
        stored_campaign,
    ):
        """Same chaos under the sharded engine with a store: the
        killed units re-run, each row's unit is stored once, results
        match."""
        original = CampaignRunner._run_unit
        original_put = ArtifactStore.put
        stored = []

        def counted_put(self, key, kind, *args, **kwargs):
            if kind == "unit":
                stored.append(key)
            return original_put(self, key, kind, *args, **kwargs)

        def chaotic(self, rows, shard):
            flag = tmp_path / f"killed_{'_'.join(map(str, rows))}_{shard}"
            if 1 in rows and shard == 0 and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, rows, shard)

        monkeypatch.setattr(CampaignRunner, "_run_unit", chaotic)
        monkeypatch.setattr(ArtifactStore, "put", counted_put)
        store = ArtifactStore(tmp_path / "store")
        survived = stored_campaign(
            store, icfsm, suite, jobs=2, shard_size=None,
            heartbeat_interval=0.1,
        )
        assert survived.complete
        assert_campaigns_identical(baseline, survived)
        # Every (row, shard) unit was stored exactly once, despite the
        # kill, and storing the complete campaign dropped them all.
        n_shards = CampaignRunner(
            icfsm, suite, policy=RunnerPolicy(shard_size=None),
        ).n_shards
        assert len(stored) == len(set(stored)) == len(suite) * n_shards
        assert store.stats()["by_kind"] == {"campaign": 1, "netlist": 1}

    def test_poison_unit_quarantined_into_ledger(
        self, icfsm, suite, baseline, monkeypatch,
    ):
        """A unit that SIGKILLs every host it is given lands in the
        failure ledger as ``worker_crash`` naming the signal; the
        other workloads complete with bitwise-correct rows."""
        original = CampaignRunner._run_unit

        def poison(self, rows, shard):
            if 1 in rows:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, rows, shard)

        monkeypatch.setattr(CampaignRunner, "_run_unit", poison)
        result = run_campaign(icfsm, suite, jobs=2,
                              heartbeat_interval=0.1)
        assert not result.complete
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.workload == suite[1].name
        assert failure.status == "worker_crash"
        assert "SIGKILL" in failure.error
        assert failure.attempts >= 2  # poison_threshold hosts died
        assert list(result.completed_mask) == [True, False, True, True]
        # The poisoned row degrades to the documented no-error state...
        assert not result.error_cycles[1].any()
        # ...and every healthy row is untouched by the chaos.
        healthy = [0, 2, 3]
        assert np.array_equal(baseline.error_cycles[healthy],
                              result.error_cycles[healthy])
        assert np.array_equal(baseline.latent[healthy],
                              result.latent[healthy])


    def test_restart_budget_spans_split_rounds(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
    ):
        """A poison row's group is split into singletons after it is
        quarantined; that second round reuses the campaign's pool, so
        with no restart budget no worker is ever forked past ``jobs``."""
        from repro.utils.workerpool import WorkerPool

        original = CampaignRunner._run_unit
        original_spawn = WorkerPool._spawn
        spawns = {"n": 0}

        def poison(self, rows, shard):
            if 1 in rows:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, rows, shard)

        def counted_spawn(self):
            spawns["n"] += 1
            return original_spawn(self)

        monkeypatch.setattr(CampaignRunner, "_run_unit", poison)
        monkeypatch.setattr(WorkerPool, "_spawn", counted_spawn)
        store = ArtifactStore(tmp_path)
        result = run_campaign(icfsm, suite, jobs=2,
                              max_worker_restarts=0,
                              heartbeat_interval=0.1, store=store)
        assert spawns["n"] == 2
        assert not result.complete
        assert suite[1].name in [f.workload for f in result.failures]
        assert {f.status for f in result.failures} == {"worker_crash"}
        done = np.flatnonzero(result.completed_mask)
        assert 1 not in done
        assert np.array_equal(baseline.error_cycles[done],
                              result.error_cycles[done])
        assert np.array_equal(baseline.latent[done],
                              result.latent[done])
        # The partial run keeps exactly its completed rows' units.
        assert store.stats()["by_kind"] == {"unit": len(done)}


class TestExplainerChaos:
    @pytest.fixture(scope="class")
    def trained(self):
        """Small irregular graph (cheap to explain many nodes on)."""
        rng = np.random.default_rng(9)
        n = 40
        x = rng.normal(size=(n, 4))
        y = (x[:, 0] > 0).astype(np.int64)
        sources = list(range(n - 1)) + [0, 3, 7, 11, 20, 28]
        targets = list(range(1, n)) + [5, 14, 22, 30, 38, 35]
        data = GraphData(
            design="chaos-graph",
            node_names=[f"G_{i}" for i in range(n)],
            x=x, x_raw=x,
            edge_index=np.array([sources, targets]),
            y_class=y,
            y_score=y.astype(float),
            feature_names=["signal", "noise1", "noise2", "noise3"],
        )
        split = stratified_split(y, 0.2, seed=0)
        model = GCNClassifier(
            hidden_dims=(8,), dropout=0.0, seed=1,
            config=TrainingConfig(epochs=120, patience=40),
        ).fit(data, split)
        return data, model

    def test_worker_kill_mid_explain_many_identical(
        self, trained, tmp_path, monkeypatch,
    ):
        """SIGKILL the worker holding the first explanation batch: the
        batch re-runs on a fresh worker and every explanation matches
        the serial reference exactly (per-node derived RNG)."""
        import repro.explain.gnn_explainer as ge

        data, model = trained
        nodes = list(range(data.n_nodes))
        serial = ge.GNNExplainer(model, data, seed=3).explain_many(
            nodes, jobs=1, batch_size=4
        )

        original = ge._worker_batch
        flag = tmp_path / "killed_once"

        def chaotic(unit):
            if not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(unit)

        monkeypatch.setattr(ge, "_worker_batch", chaotic)
        explainer = ge.GNNExplainer(model, data, seed=3)
        chaos = explainer.explain_many(
            nodes, jobs=2, batch_size=4, heartbeat_interval=0.1,
        )
        assert flag.exists()  # the kill actually happened
        assert len(chaos) == len(serial)
        for left, right in zip(serial, chaos):
            assert left.node_index == right.node_index
            assert left.predicted_class == right.predicted_class
            assert np.array_equal(left.feature_scores,
                                  right.feature_scores)
            assert left.edge_importance == right.edge_importance

    def test_poison_batch_raises_typed_error(
        self, trained, monkeypatch,
    ):
        """A batch that kills every host raises ModelError naming the
        nodes and the signal instead of a bare BrokenProcessPool."""
        import repro.explain.gnn_explainer as ge
        from repro.utils.errors import ModelError

        data, model = trained

        def poison(_unit):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(ge, "_worker_batch", poison)
        explainer = ge.GNNExplainer(model, data, seed=3)
        with pytest.raises(ModelError,
                           match="worker_crash.*SIGKILL"):
            explainer.explain_many(
                list(range(8)), jobs=2, batch_size=2,
                heartbeat_interval=0.1,
            )


class TestSignalShutdown:
    @pytest.fixture(scope="class")
    def reference(self, icfsm):
        """Uninterrupted serial campaign matching the CLI invocation."""
        return run_campaign(
            icfsm,
            design_workloads(icfsm.name, icfsm, count=8, cycles=400,
                             seed=0),
        )

    #: Nine 64-fault shards: the pooled run packs each shard's eight
    #: workloads into one unit, so nine units (72 unit entries) leave
    #: room to interrupt after the first without racing the last.
    SHARD_SIZE = 64
    UNIT_FILES = 8 * 9

    def _spawn_campaign(self, store, extra=(), jobs=2):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_STORE", None)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign",
             "or1200_icfsm", "--workloads", "8", "--cycles", "400",
             "--seed", "0", "--jobs", str(jobs),
             "--shard-size", str(self.SHARD_SIZE),
             "--store", str(store), *extra],
            cwd=str(REPO_ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def _interrupt_after_first_unit(self, store, signum, jobs=2):
        """Start a CLI campaign, send ``signum`` once its first unit is
        stored; returns ``(returncode, stdout, stderr)``."""
        process = self._spawn_campaign(store, jobs=jobs)
        deadline = time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                if list(store.glob("objects/*/*.unit.npz")):
                    break
                time.sleep(0.02)
            assert process.poll() is None, (
                "campaign finished before the signal could be sent: "
                + process.communicate()[0]
            )
            process.send_signal(signum)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate()
        completed = sorted(store.glob("objects/*/*.unit.npz"))
        assert completed  # durable progress survived the signal
        # ...but the run really was partial
        assert len(completed) < self.UNIT_FILES
        return process.returncode, stdout, stderr

    def _rerun_matches(self, store, tmp_path, reference, jobs=2):
        out = tmp_path / "resumed.npz"
        resumed = self._spawn_campaign(store, extra=("--out", str(out)),
                                       jobs=jobs)
        stdout, stderr = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, (stdout, stderr)

        from repro.io import load_campaign

        final = load_campaign(out)
        assert final.complete
        assert_campaigns_identical(reference, final)
        # Complete: the campaign is cached whole, its units dropped.
        kinds = ArtifactStore(store).stats()["by_kind"]
        assert "unit" not in kinds and kinds["campaign"] == 1

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_exits_130_and_resumes_identically(
        self, tmp_path, signum, reference,
    ):
        """Interrupt a live pooled CLI campaign after its first stored
        unit: it must exit 130 (resumable, not a crash), leave only
        whole unit entries behind, and a rerun on the same --store
        must finish with results identical to an uninterrupted serial
        campaign."""
        store = tmp_path / "store"
        returncode, stdout, stderr = self._interrupt_after_first_unit(
            store, signum,
        )
        assert returncode == 130, (stdout, stderr)
        assert "rerun with the same --store" in stderr
        self._rerun_matches(store, tmp_path, reference)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sigkill_then_rerun_identical(self, tmp_path, jobs,
                                          reference):
        """SIGKILL gives the campaign no chance to clean up: the units
        stored before the kill are all a rerun on the same --store
        needs, serial or pooled."""
        store = tmp_path / "store"
        returncode, stdout, stderr = self._interrupt_after_first_unit(
            store, signal.SIGKILL, jobs=jobs,
        )
        assert returncode == -signal.SIGKILL, (stdout, stderr)
        self._rerun_matches(store, tmp_path, reference, jobs=jobs)
