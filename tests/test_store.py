"""Artifact store: content addressing, durability, eviction, races,
corruption handling, and warm-vs-cold bitwise identity."""

from __future__ import annotations

import errno
import json
import logging
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.fi import run_campaign
from repro.io import (
    load_campaign,
    load_explanations,
    load_features,
    load_graph_data,
    save_campaign,
    save_explanations,
    save_features,
    save_graph_data,
)
from repro.netlist import from_verilog, to_verilog
from repro.sim import design_workloads
from repro.store import (
    KIND_EXTENSIONS,
    AnalysisMemo,
    ArtifactStore,
    memoized_campaign,
)
from repro.store import keys as K
from repro.utils.fingerprint import (
    campaign_fingerprint,
    canonical_hash,
    netlist_fingerprint,
    workloads_fingerprint,
)

SMALL = dict(n_workloads=3, workload_cycles=40)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def sdram_analysis(sdram):
    """One cold sdram analysis shared by the equality tests."""
    analyzer = FaultCriticalityAnalyzer(
        sdram, AnalyzerConfig(**SMALL)
    )
    analyzer.summary()
    return analyzer


def _rewire_first_input(verilog: str, instance: str):
    """Parse ``verilog`` with gate ``instance``'s first input (pin
    ``A0``) moved to the design's first primary input: same name,
    same gates, different wiring."""
    import re

    source = from_verilog(verilog).input_names()[0]
    edited, count = re.subn(rf"\b{instance} \(\.A0\([^)]*\)",
                            f"{instance} (.A0({source})", verilog)
    assert count == 1
    return from_verilog(edited)


def _text_writer(text):
    def writer(path):
        Path(path).write_text(text, encoding="utf-8")

    return writer


# ----------------------------------------------------------------------
# identity scheme
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_canonical_hash_key_order_independent(self):
        assert canonical_hash({"a": 1, "b": 2}) == canonical_hash(
            {"b": 2, "a": 1}
        )

    def test_canonical_hash_arrays_participate(self):
        header = {"x": 1}
        a = np.arange(4)
        assert canonical_hash(header, (a,)) != canonical_hash(header)
        assert canonical_hash(header, (a,)) == canonical_hash(
            header, (np.asfortranarray(a.reshape(2, 2)).ravel(),)
        )

    def test_netlist_fingerprint_tracks_structure(self, sdram):
        # Deterministic for identical sources ...
        text = to_verilog(sdram)
        fingerprint = netlist_fingerprint(from_verilog(text))
        assert netlist_fingerprint(from_verilog(text)) == fingerprint
        # ... and moved by any structural edit.
        edited = from_verilog(text)
        extra = edited.add_gate("IV", [edited.gates[3].output])
        edited.add_output(extra, "probe_extra")
        assert netlist_fingerprint(edited) != fingerprint

    def test_workloads_fingerprint_hashes_vector_bytes(self, sdram):
        suite_a = design_workloads("sdram", sdram, count=2, cycles=30,
                                   seed=0)
        suite_b = design_workloads("sdram", sdram, count=2, cycles=30,
                                   seed=1)
        assert [w.name for w in suite_a] == [w.name for w in suite_b]
        assert workloads_fingerprint(suite_a) != workloads_fingerprint(
            suite_b
        )

    def test_campaign_fingerprint_tracks_structure(self, sdram,
                                                   tmp_path,
                                                   monkeypatch,
                                                   stored_campaign):
        """A rewired design keeps its name but not its ground truth:
        the campaign fingerprint, and the store keys behind resume and
        ECO, must tell the two apart.  The edited ``sdram`` reuses no
        unit of the original, finds no baseline for itself and equals
        its own fresh campaign."""
        from repro.fi import run_eco_campaign
        from repro.fi.faults import full_fault_universe
        from repro.sim.bitparallel import BitParallelSimulator
        from repro.utils.errors import EcoError

        text = to_verilog(sdram)
        edited = _rewire_first_input(text, "U12")
        assert edited.name == sdram.name
        workloads = design_workloads("sdram", sdram, count=2,
                                     cycles=30, seed=0)
        faults = full_fault_universe(sdram)
        assert sorted(f.name for f in full_fault_universe(edited)) == (
            sorted(f.name for f in faults)
        )
        args = (workloads, faults, 0.2, False, "all-outputs")
        assert campaign_fingerprint(sdram, *args) != (
            campaign_fingerprint(edited, *args)
        )

        # Leave the original's campaign and units (a killed run)
        # behind.
        store = ArtifactStore(tmp_path / "store")
        stored_campaign(store, sdram, workloads)
        real = BitParallelSimulator.run_fault_passes
        passes = {"n": 0}

        def dying(self, *args, **kwargs):
            if passes["n"] == 1:
                raise KeyboardInterrupt
            passes["n"] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            dying)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(sdram, workloads, shard_size=100, store=store)
        assert store.stats()["by_kind"]["unit"] == len(workloads)

        simulated = []

        def counted(self, batch, *args, **kwargs):
            simulated.extend(w.name for w in batch)
            return real(self, batch, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_fault_passes",
                            counted)
        resumed = run_campaign(edited, workloads, shard_size=100,
                               store=store)
        n_shards = -(-len(faults) // 100)
        assert len(simulated) == n_shards * len(workloads)
        monkeypatch.undo()
        fresh = run_campaign(edited, workloads)
        assert np.array_equal(resumed.error_cycles, fresh.error_cycles)
        assert np.array_equal(resumed.detection_cycle,
                              fresh.detection_cycle)
        assert np.array_equal(resumed.latent, fresh.latent)

        # ECO from the edited design finds no baseline in the store.
        with pytest.raises(EcoError, match="holds no complete campaign"):
            run_eco_campaign(edited, sdram, workloads, store=store)

    def test_stage_keys_chain_parents(self):
        a = K.stage_key("netlist", {"fingerprint": "x"})
        campaign_one = K.campaign_key(a, "w", severity=0.2,
                                      collapse=False,
                                      observation="all-outputs")
        campaign_two = K.campaign_key("other", "w", severity=0.2,
                                      collapse=False,
                                      observation="all-outputs")
        assert campaign_one != campaign_two
        assert K.dataset_key(campaign_one, threshold=0.5) != \
            K.dataset_key(campaign_two, threshold=0.5)

    def test_model_keys_stable_for_existing_stores(self):
        """Trained-model keys hash the training config; they must keep
        the digests stores were populated with (these values were
        produced when ``TrainingConfig`` still had an ``engine``
        field), so existing stores keep hitting."""
        from repro.nn import TrainingConfig
        from repro.store.memo import _training_params

        params = dict(hidden_dims=(16, 32, 64), dropout=0.3,
                      adjacency_mode="symmetric", self_loops=True,
                      seed=0, val_fraction=0.2)
        assert K.classifier_key(
            "0" * 64, training=_training_params(TrainingConfig()),
            **params,
        ) == ("14748fccc56a7fdbbe95003097a56ce2"
              "364dfa5e24d722bf599c8504ec223cd5")
        assert K.regressor_key(
            "0" * 64,
            training=_training_params(TrainingConfig(lr=0.005,
                                                     epochs=400)),
            **params,
        ) == ("9919c64dc88b924816e8999dd15c7301"
              "dc2b5eb7e007ba5a0252fa82de888d64")


# ----------------------------------------------------------------------
# store mechanics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_put_get_roundtrip(self, store):
        key = K.stage_key("netlist", {"fingerprint": "t"})
        store.put(key, "netlist", _text_writer("module m; endmodule"))
        assert store.contains(key, "netlist")
        text = store.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        )
        assert text == "module m; endmodule"

    def test_miss_returns_none_and_counts(self, store):
        assert store.get("0" * 64, "netlist",
                         lambda p: Path(p).read_text()) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_entry_is_logged_miss_then_rewritten(
        self, store, caplog, sdram
    ):
        workloads = design_workloads("sdram", sdram, count=2,
                                     cycles=30, seed=0)
        campaign = run_campaign(sdram, workloads)
        key = "c" * 64
        store.put(key, "campaign",
                  lambda p: save_campaign(campaign, p))
        path = store.object_path(key, "campaign")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get(key, "campaign", load_campaign) is None
        assert any("failed validation" in record.message
                   for record in caplog.records)
        assert not path.exists()
        # Transparent rewrite: the slot accepts the artifact again.
        store.put(key, "campaign",
                  lambda p: save_campaign(campaign, p))
        restored = store.get(key, "campaign", load_campaign)
        assert np.array_equal(restored.error_cycles,
                              campaign.error_cycles)

    def test_garbage_bytes_every_kind_is_a_miss(self, store):
        for kind in KIND_EXTENSIONS:
            key = canonical_hash({"kind": kind})
            store.put(key, kind, _text_writer("not a valid artifact"))
        readers = {
            "campaign": load_campaign,
            "features": load_features,
            "graph": load_graph_data,
            "explanations": load_explanations,
            "dataset": lambda p: json.loads(
                Path(p).read_text()
            )["nodes"],
            "gridsearch": lambda p: json.loads(
                Path(p).read_text()
            )["points"],
        }
        for kind, reader in readers.items():
            key = canonical_hash({"kind": kind})
            # Wipe the recorded hash so the reader sees the bytes.
            assert store.get(key, kind, reader) is None

    def test_sha256_drift_is_a_miss(self, store):
        key = "d" * 64
        store.put(key, "netlist", _text_writer("original"))
        # Flip bytes behind the store's back, keeping the size.
        store.object_path(key, "netlist").write_text("ORIGINAL")
        assert store.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        ) is None

    def test_lru_gc_under_byte_budget(self, store):
        keys = [canonical_hash({"i": i}) for i in range(6)]
        for key in keys:
            store.put(key, "netlist", _text_writer("x" * 1000))
        # Touch the two oldest so they become the most recent.
        for key in keys[:2]:
            store.get(key, "netlist", lambda p: Path(p).read_text())
        evicted, freed = store.gc(byte_budget=3000)
        assert evicted == 3 and freed == 3000
        survivors = {row["key"] for row in store.entries()}
        assert survivors == {keys[0], keys[1], keys[5]}
        assert store.stats()["bytes"] <= 3000
        # put() enforces the persisted budget from now on.
        store.put(canonical_hash({"i": 99}), "netlist",
                  _text_writer("y" * 1000))
        assert store.stats()["bytes"] <= 3000

    def test_clear_empties_store(self, store):
        store.put("e" * 64, "netlist", _text_writer("x"))
        assert store.clear() == 1
        assert store.stats()["entries"] == 0
        assert not store.contains("e" * 64, "netlist")

    def test_corrupt_index_rebuilt_from_scan(self, store):
        key = "f" * 64
        store.put(key, "netlist", _text_writer("survives"))
        store.index_path.write_text("{ not json !", encoding="utf-8")
        reopened = ArtifactStore(store.directory)
        assert reopened.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        ) == "survives"

    def test_ghost_index_entry_dropped(self, store):
        key = "a" * 64
        store.put(key, "netlist", _text_writer("x"))
        store.object_path(key, "netlist").unlink()
        assert store.get(key, "netlist",
                         lambda p: Path(p).read_text()) is None
        assert store.stats()["entries"] == 0

    def test_object_of_unknown_kind_deleted_on_open(self, store):
        """An object of a kind this version does not have (a retired
        kind left by an older version) would sit outside the index and
        the byte budget forever: opening the store deletes it, and
        leaves in-flight temp files alone."""
        kept = "c" * 64
        store.put(kept, "netlist", _text_writer("kept"))
        bogus_key = "ab" + "0" * 62
        bogus = store.objects_dir / "ab" / f"{bogus_key}.bogus.npz"
        bogus.parent.mkdir(parents=True, exist_ok=True)
        bogus.write_bytes(b"retired kind")
        temporary = store.objects_dir / "ab" / (
            f".tmp-1-{bogus_key}.campaign.npz"
        )
        temporary.write_bytes(b"in flight")
        # An older index that still lists the retired object.
        index = json.loads(store.index_path.read_text())
        index["entries"][bogus_key] = {
            "kind": "bogus", "size": 12, "sha256": "0" * 64,
            "tick": 0, "meta": {},
        }
        store.index_path.write_text(json.dumps(index))

        reopened = ArtifactStore(store.directory)
        assert not bogus.exists()
        assert temporary.exists()
        stats = reopened.stats()
        assert stats["by_kind"] == {"netlist": 1}
        assert stats["bytes"] == len("kept")
        assert reopened.gc(byte_budget=1) == (1, len("kept"))
        assert reopened.stats()["entries"] == 0

    def test_find_matches_meta_most_recent_first(self, store):
        store.put("1" * 64, "netlist", _text_writer("x"),
                  meta={"design": "a"})
        store.put("2" * 64, "netlist", _text_writer("y"),
                  meta={"design": "b"})
        store.put("3" * 64, "netlist", _text_writer("z"),
                  meta={"design": "a"})
        found = store.find("netlist", design="a")
        assert [key for key, _ in found] == ["3" * 64, "1" * 64]


# ----------------------------------------------------------------------
# durability + races
# ----------------------------------------------------------------------
def _writer_process(directory: str, key: str, tag: int) -> None:
    store = ArtifactStore(directory)
    payload = f"// writer {tag}\n" + ("x" * 5000)
    store.put(key, "netlist", _text_writer(payload))


class TestDurability:
    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        """The temp file must be durable before it is published."""
        import repro.io as io_module

        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            io_module.os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            io_module.os, "replace",
            lambda a, b: (events.append("replace"),
                          real_replace(a, b))[1],
        )
        io_module.atomic_write_text(tmp_path / "index.json", "{}")
        assert "fsync" in events and "replace" in events
        # file fsync strictly precedes the rename; the parent
        # directory is synced after it.
        assert events.index("fsync") < events.index("replace")
        assert events[events.index("replace") + 1:].count("fsync") >= 1

    def test_atomic_write_text_durable(self, tmp_path):
        from repro.io import atomic_write_text

        target = tmp_path / "manifest.json"
        atomic_write_text(target, '{"ok": true}')
        assert json.loads(target.read_text()) == {"ok": True}
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_concurrent_writers_leave_one_valid_artifact(
        self, tmp_path
    ):
        directory = str(tmp_path / "shared")
        key = "b" * 64
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_writer_process,
                            args=(directory, key, tag))
            for tag in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        store = ArtifactStore(directory)
        text = store.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        )
        assert text is not None and text.startswith("// writer ")
        objects = [
            path
            for path in (Path(directory) / "objects").glob("*/*")
            if not path.name.startswith(".tmp-")
        ]
        assert len(objects) == 1

    def test_same_key_put_between_publish_and_index_write(
        self, tmp_path, monkeypatch, caplog
    ):
        """The first publisher's object stands and every index entry
        describes it, however the two writers interleave."""
        directory = tmp_path / "shared"
        key = "c" * 64
        first, second = ArtifactStore(directory), ArtifactStore(directory)
        real_gc = first._gc_locked

        def gc_after_racing_put():
            # ``first`` has published its object but not yet written
            # its index: ``second`` publishes the same key right now.
            second.put(key, "netlist", _text_writer("// writer B\n"))
            return real_gc()

        monkeypatch.setattr(first, "_gc_locked", gc_after_racing_put)
        first.put(key, "netlist", _text_writer("// writer A\n"))
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            text = ArtifactStore(directory).get(
                key, "netlist",
                lambda p: Path(p).read_text(encoding="utf-8"),
            )
        assert "failed validation" not in caplog.text
        assert text == "// writer A\n"
        assert second.get(key, "netlist",
                          lambda p: Path(p).read_text()) == text


def _no_space(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStoreWriteFailures:
    @pytest.mark.parametrize("failure", ["object-fsync", "publish",
                                         "index"])
    def test_failed_store_write_never_fails_analysis(
        self, sdram, sdram_analysis, tmp_path, monkeypatch, caplog,
        failure
    ):
        import repro.io as io_module

        directory = tmp_path / "store"
        store = ArtifactStore(directory)
        if failure == "object-fsync":
            monkeypatch.setattr(os, "fsync", _no_space)
        elif failure == "publish":
            monkeypatch.setattr(os, "link", _no_space)
            monkeypatch.setattr(os, "replace", _no_space)
        else:
            monkeypatch.setattr(io_module, "durable_replace", _no_space)

        def rows(analyzer):
            summary = {key: value
                       for key, value in analyzer.summary().items()
                       if "seconds" not in key}
            return repr((summary, analyzer.baseline_accuracies(),
                         analyzer.regression_quality()))

        with caplog.at_level(logging.WARNING, logger="repro.store"):
            analyzer = FaultCriticalityAnalyzer(
                sdram, AnalyzerConfig(**SMALL), store=store
            )
            failed = rows(analyzer)
        monkeypatch.undo()
        assert failed == rows(sdram_analysis)
        assert not [path for path in directory.rglob("*")
                    if ".tmp" in path.name]
        assert "continuing uncached" in caplog.text


#: A directory that refuses writes, as ``chmod`` cannot show it to a
#: test running as root.
READ_ONLY_ERRORS = [
    PermissionError(errno.EACCES, os.strerror(errno.EACCES)),
    OSError(errno.EROFS, os.strerror(errno.EROFS)),
]


def _refuse(error):
    def refuse(*_args, **_kwargs):
        raise error

    return refuse


class TestStoreReadFailures:
    """Reads are best-effort on a store that refuses writes: the index
    update after a hit and the removal of a bad entry are logged and
    skipped, never raised."""

    def _read_only(self, monkeypatch, error):
        import repro.store.store as store_module

        monkeypatch.setattr(store_module, "atomic_write_text",
                            _refuse(error))
        monkeypatch.setattr(Path, "unlink", _refuse(error))
        monkeypatch.setattr(os, "link", _refuse(error))

    @pytest.mark.parametrize("error", READ_ONLY_ERRORS,
                             ids=["EACCES", "EROFS"])
    def test_hit_on_read_only_store_is_served(self, store, monkeypatch,
                                              caplog, error):
        key = K.stage_key("netlist", {"fingerprint": "ro"})
        store.put(key, "netlist", _text_writer("module m; endmodule"))
        reader = ArtifactStore(store.directory)
        self._read_only(monkeypatch, error)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            text = reader.get(key, "netlist",
                              lambda p: Path(p).read_text())
        assert text == "module m; endmodule"
        assert "not updated" in caplog.text

    @pytest.mark.parametrize("error", READ_ONLY_ERRORS,
                             ids=["EACCES", "EROFS"])
    def test_corrupt_entry_on_read_only_store_is_a_miss(
        self, store, monkeypatch, caplog, error,
    ):
        key = K.stage_key("netlist", {"fingerprint": "ro-bad"})
        store.put(key, "netlist", _text_writer("module m; endmodule"))
        path = store.object_path(key, "netlist")
        path.write_text("torn", encoding="utf-8")
        self._read_only(monkeypatch, error)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get(key, "netlist",
                             lambda p: Path(p).read_text()) is None
        assert "failed validation" in caplog.text
        assert "could not be removed" in caplog.text
        monkeypatch.undo()
        assert path.exists()  # the refused unlink left it in place

    @pytest.mark.parametrize("error", READ_ONLY_ERRORS,
                             ids=["EACCES", "EROFS"])
    def test_read_only_store_never_fails_analysis(
        self, sdram, sdram_analysis, tmp_path, monkeypatch, error,
    ):
        directory = tmp_path / "store"
        FaultCriticalityAnalyzer(
            sdram, AnalyzerConfig(**SMALL),
            store=ArtifactStore(directory),
        ).summary()
        # a torn entry too, so the read path also tries an unlink
        (victim,) = directory.rglob("*.dataset.json")
        victim.write_text("{", encoding="utf-8")
        self._read_only(monkeypatch, error)
        warm = FaultCriticalityAnalyzer(
            sdram, AnalyzerConfig(**SMALL),
            store=ArtifactStore(directory),
        )
        assert warm.validation_accuracy() == (
            sdram_analysis.validation_accuracy()
        )
        assert np.array_equal(warm.campaign.error_cycles,
                              sdram_analysis.campaign.error_cycles)

    def test_gc_between_exists_and_read_is_a_miss(self, store, caplog):
        """Another process's ``gc`` evicts the entry after ``get`` saw
        it on disk and before the reader opens it: a logged miss."""
        key = K.stage_key("netlist", {"fingerprint": "gc-race"})
        store.put(key, "netlist", _text_writer("module m; endmodule"))
        reader_store = ArtifactStore(store.directory)

        def racing_reader(path):
            ArtifactStore(store.directory).gc(byte_budget=0)
            return Path(path).read_text()

        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert reader_store.get(key, "netlist", racing_reader) is None
        assert "failed validation" in caplog.text
        assert not store.object_path(key, "netlist").exists()
        # the slot is writable again
        reader_store.put(key, "netlist", _text_writer("again"))
        assert reader_store.get(key, "netlist",
                                lambda p: Path(p).read_text()) == "again"


# ----------------------------------------------------------------------
# memoized pipeline: warm == cold, bitwise
# ----------------------------------------------------------------------
class TestMemoizedAnalysis:
    def test_warm_rerun_is_bitwise_identical_without_recompute(
        self, sdram, sdram_analysis, tmp_path, monkeypatch
    ):
        config = AnalyzerConfig(**SMALL)
        directory = tmp_path / "store"
        cold = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        cold_rows = (cold.summary(), cold.baseline_accuracies(),
                     cold.regression_quality())
        # The store-less reference run must agree with the cold
        # store-backed run (the store changes nothing on a miss) —
        # modulo wall-clock fields, which vary run to run.
        def steady(summary):
            return {key: value for key, value in summary.items()
                    if "seconds" not in key}

        assert repr(steady(cold.summary())) == \
            repr(steady(sdram_analysis.summary()))

        # Poison every expensive stage: a warm run must touch none.
        import repro.core.analyzer as analyzer_module

        def forbidden(*_args, **_kwargs):
            raise AssertionError("warm run recomputed a cached stage")

        monkeypatch.setattr(analyzer_module, "run_campaign", forbidden)
        monkeypatch.setattr(analyzer_module, "extract_features",
                            forbidden)
        monkeypatch.setattr(analyzer_module.GCNClassifier, "fit",
                            forbidden)
        monkeypatch.setattr(analyzer_module.GCNRegressor, "fit",
                            forbidden)
        warm = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        warm_rows = (warm.summary(), warm.baseline_accuracies(),
                     warm.regression_quality())
        assert repr(warm_rows) == repr(cold_rows)
        assert np.array_equal(warm.data.x, cold.data.x)
        assert np.array_equal(warm.data.y_score, cold.data.y_score)
        assert np.array_equal(warm.classifier.predict(),
                              cold.classifier.predict())
        assert np.array_equal(warm.regressor.predict(),
                              cold.regressor.predict())

    def test_explanations_memoized_identically(self, sdram, tmp_path):
        config = AnalyzerConfig(**SMALL)
        directory = tmp_path / "store"
        cold = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        nodes = cold.sample_explain_nodes(1)
        first = cold.explain_nodes(nodes)
        warm = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        second = warm.explain_nodes(nodes)
        assert len(first) == len(second) > 0
        for mine, theirs in zip(first, second):
            assert mine.node_name == theirs.node_name
            assert mine.predicted_class == theirs.predicted_class
            assert np.array_equal(mine.feature_scores,
                                  theirs.feature_scores)
            assert mine.subgraph_nodes == theirs.subgraph_nodes
            assert mine.edge_importance == theirs.edge_importance

    def test_partial_campaign_never_cached(self, sdram, tmp_path):
        from repro.fi.campaign import CampaignResult, WorkloadFailure

        store = ArtifactStore(tmp_path / "store")
        workloads = design_workloads("sdram", sdram, count=2,
                                     cycles=30, seed=0)
        real = run_campaign(sdram, workloads)
        partial = CampaignResult(
            netlist_name=real.netlist_name, faults=real.faults,
            workload_names=real.workload_names,
            workload_cycles=real.workload_cycles,
            error_cycles=real.error_cycles,
            detection_cycle=real.detection_cycle, latent=real.latent,
            severity=real.severity,
            simulation_seconds=real.simulation_seconds,
            failures=[WorkloadFailure(
                workload="w0", status="timeout", attempts=1,
                elapsed_seconds=1.0, error="boom",
            )],
        )
        result = memoized_campaign(
            store, sdram, workloads, compute=lambda store: partial
        )
        assert result is partial
        assert store.stats()["by_kind"].get("campaign") is None

    def test_near_miss_recovers_via_eco_bitwise(self, sdram, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        workloads = design_workloads("sdram", sdram, count=2,
                                     cycles=30, seed=0)
        memoized_campaign(
            store, sdram, workloads,
            compute=lambda store: run_campaign(sdram, workloads,
                                               store=store),
        )
        # Edit the design: re-drive one output through an extra
        # buffer pair (structure changes, fault universe grows).
        edited = from_verilog(to_verilog(sdram))
        tap = edited.gates[10].output
        first = edited.add_gate("IV", [tap])
        second = edited.add_gate("IV", [first])
        edited.add_output(second, "probe_tap")
        edited_workloads = design_workloads("sdram", edited, count=2,
                                            cycles=30, seed=0)

        calls = {"cold": 0}

        def cold_compute(store):
            calls["cold"] += 1
            return run_campaign(edited, edited_workloads, store=store)

        recovered = memoized_campaign(
            store, edited, edited_workloads, compute=cold_compute
        )
        assert calls["cold"] == 0, "near-miss path did not engage"
        reference = run_campaign(edited, edited_workloads)
        assert recovered.netlist_name == reference.netlist_name
        assert np.array_equal(recovered.error_cycles,
                              reference.error_cycles)
        assert np.array_equal(recovered.detection_cycle,
                              reference.detection_cycle)
        assert np.array_equal(recovered.latent, reference.latent)
        # The recovered result is now cached under its exact key:
        # a third run is a plain hit.
        hit = memoized_campaign(
            store, edited, edited_workloads, compute=cold_compute
        )
        assert calls["cold"] == 0
        assert np.array_equal(hit.error_cycles, reference.error_cycles)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestStoreCli:
    def test_analyze_warm_stdout_identical(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = ["analyze", "sdram", "--workloads", "3", "--cycles",
                "40", "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        cold_output = capsys.readouterr().out
        assert main(argv) == 0
        warm_output = capsys.readouterr().out
        assert warm_output == cold_output
        # A store-less run still works (fresh simulation timing means
        # its wall-clock column may differ, so no byte comparison).
        assert main(argv[:-2] + ["--no-store"]) == 0
        assert capsys.readouterr().out

    def test_store_subcommand_lifecycle(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = str(tmp_path / "store")
        argv = ["campaign", "sdram", "--workloads", "2", "--cycles",
                "30", "--store", directory]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", directory]) == 0
        assert "campaign" in capsys.readouterr().out
        assert main(["store", "ls", "--store", directory]) == 0
        assert "sdram" in capsys.readouterr().out
        assert main(["store", "gc", "--store", directory,
                     "--budget", "1"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert ArtifactStore(directory).stats()["bytes"] <= 1
        assert main(["store", "clear", "--store", directory]) == 0
        assert "removed" in capsys.readouterr().out

    def test_store_subcommand_requires_directory(self, capsys,
                                                 monkeypatch):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "stats"]) == 2


# ----------------------------------------------------------------------
# new io round-trips
# ----------------------------------------------------------------------
class TestNewIoRoundTrips:
    def test_features_roundtrip(self, sdram, tmp_path):
        from repro.features import extract_features

        features = extract_features(sdram, probability_source="cop")
        path = tmp_path / "features.npz"
        save_features(features, path)
        loaded = load_features(path)
        assert loaded.design == features.design
        assert loaded.node_names == features.node_names
        assert loaded.feature_names == features.feature_names
        assert np.array_equal(loaded.matrix, features.matrix)

    def test_graph_data_roundtrip(self, sdram, tmp_path):
        analyzer = FaultCriticalityAnalyzer(
            sdram, AnalyzerConfig(**SMALL)
        )
        data = analyzer.data
        path = tmp_path / "graph.npz"
        save_graph_data(data, path)
        loaded = load_graph_data(path)
        assert loaded.design == data.design
        assert loaded.node_names == data.node_names
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.x_raw, data.x_raw)
        assert np.array_equal(loaded.edge_index, data.edge_index)
        assert np.array_equal(loaded.y_class, data.y_class)
        assert np.array_equal(loaded.y_score, data.y_score)

    def test_explanations_roundtrip(self, sdram, tmp_path):
        analyzer = FaultCriticalityAnalyzer(
            sdram, AnalyzerConfig(**SMALL)
        )
        nodes = analyzer.sample_explain_nodes(1)
        explanations = analyzer.explain_nodes(nodes)
        path = tmp_path / "explanations.npz"
        save_explanations(explanations, path)
        loaded = load_explanations(path)
        assert len(loaded) == len(explanations)
        for mine, theirs in zip(explanations, loaded):
            assert mine.node_name == theirs.node_name
            assert mine.node_index == theirs.node_index
            assert mine.predicted_class == theirs.predicted_class
            assert mine.feature_names == theirs.feature_names
            assert np.array_equal(mine.feature_scores,
                                  theirs.feature_scores)
            assert mine.subgraph_nodes == theirs.subgraph_nodes
            assert mine.edge_importance == theirs.edge_importance
