"""Content-addressed, size-capped on-disk artifact store.

Layout::

    <directory>/
        index.json                      advisory metadata + LRU clock
        objects/<key[:2]>/<key>.<kind>.<ext>

Objects are immutable once published, and the first publisher of a
key wins: a writer produces a unique temp file, fsyncs it, hard-links
it into place only if no object exists under that name, fsyncs the
directory and unlinks the temp.  A reader therefore never observes a
partial artifact, and a writer that loses the race to a concurrent
writer of the same key (by content addressing, the same meaning)
keeps the published object and records *its* size and sha256, so the
index can never describe one writer's checksum over another's bytes.
A SIGINT/SIGTERM that lands while the writer runs is held until the
object is published and indexed.  Any write failure — full disk,
read-only directory, or a filesystem without hard links — is raised
from :meth:`ArtifactStore.put`; the memoization layer logs it and
carries on uncached.  Reads stay best-effort on a directory that refuses
writes: the index update after a hit and the removal of a corrupt
entry are logged and skipped.

The index is *advisory*: it carries per-entry size/sha256/LRU-tick
plus searchable ``meta`` (what the ECO near-miss probe matches on),
and it is rewritten atomically on every mutation.  A lost update from
a concurrent process, a crash between object link and index write,
or a deleted/corrupt index never loses artifacts — :meth:`_load_index`
reconciles against a directory scan, adopting orphaned objects,
dropping ghost entries and deleting objects of a kind this version
no longer has.  Validation failures on read (truncated zip,
bad JSON, sha256 mismatch, wrong shapes) are demoted to a logged miss:
the entry is deleted and the caller recomputes and rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zipfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.io import _interrupts_deferred, atomic_write_text, fsync_directory
from repro.utils.errors import ReproError, SerializationError

PathLike = Union[str, Path]

logger = logging.getLogger("repro.store")

INDEX_NAME = "index.json"
INDEX_VERSION = 1

#: Default size cap: generous for the built-in designs (a full 4-design
#: warm pipeline is a few MiB) while bounding unattended growth.
DEFAULT_BYTE_BUDGET = 512 * 1024 * 1024

#: File extension per artifact kind (doubles as the scan-rebuild type
#: tag, so kind survives index loss).
KIND_EXTENSIONS: Dict[str, str] = {
    "netlist": "v",
    "workloads": "npz",
    "campaign": "npz",
    "features": "npz",
    "dataset": "json",
    "graph": "npz",
    "classifier": "npz",
    "regressor": "npz",
    "explanations": "npz",
    "gridsearch": "json",
    "baselines": "json",
    # One completed (campaign, row, shard) of an in-progress campaign.
    "unit": "npz",
}

#: Exceptions that mean "this entry is unusable", never "crash".
_READ_FAILURES = (
    SerializationError,
    ReproError,
    json.JSONDecodeError,
    UnicodeDecodeError,
    zipfile.BadZipFile,
    KeyError,
    ValueError,
    EOFError,
    OSError,
)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactStore:
    """A directory of memoized pipeline-stage outputs, keyed by input
    closure and evicted LRU under a byte budget."""

    def __init__(self, directory: PathLike,
                 byte_budget: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.objects_dir = self.directory / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._index = self._load_index()
        if byte_budget is not None:
            self._index["byte_budget"] = int(byte_budget)
            self._write_index()

    # -- paths ---------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_NAME

    def object_path(self, key: str, kind: str) -> Path:
        extension = KIND_EXTENSIONS[kind]
        return self.objects_dir / key[:2] / f"{key}.{kind}.{extension}"

    @property
    def byte_budget(self) -> int:
        return int(self._index["byte_budget"])

    # -- core API ------------------------------------------------------
    def get(self, key: str, kind: str,
            reader: Callable[[Path], object], *,
            meta: Optional[dict] = None) -> Optional[object]:
        """Load the artifact under ``key``, or ``None`` on a miss.

        A hit must fully survive ``reader`` (which is expected to
        validate the payload); any read failure — truncation, garbage
        bytes, sha256 drift, schema mismatch — deletes the entry and
        reports a miss so the caller transparently recomputes.
        ``meta``, when given, becomes the entry's meta on a hit: a
        reader that knows the entry's identity re-files an object
        whose writer was killed before indexing it.
        """
        path = self.object_path(key, kind)
        entry = self._index["entries"].get(key)
        if not path.exists():
            if entry is not None:  # ghost entry: object lost
                self._drop_entry(key)
            self._count("misses")
            return None
        try:
            if entry is not None:
                size = path.stat().st_size
                if size != entry["size"]:
                    raise SerializationError(
                        f"size changed on disk ({size} vs recorded "
                        f"{entry['size']})"
                    )
                if _sha256_file(path) != entry["sha256"]:
                    raise SerializationError("sha256 mismatch")
            value = reader(path)
        except _READ_FAILURES as error:
            logger.warning(
                "store entry %s (%s) failed validation (%s: %s) — "
                "treating as miss and discarding",
                key[:12], kind, type(error).__name__, error,
            )
            self._evict(key, path)
            self._count("misses")
            return None
        if entry is None:
            # Another process published this object after our index
            # snapshot; adopt it so it participates in LRU accounting.
            self._adopt(key, kind, path, meta)
        else:
            entry["tick"] = self._next_tick()
            if meta is not None:
                entry["meta"] = dict(meta)
        self._count("hits")
        self._write_index_best_effort()
        return value

    def put(self, key: str, kind: str,
            writer: Callable[[Path], None], *,
            meta: Optional[dict] = None) -> Path:
        """Publish an artifact: ``writer(temp_path)`` produces the
        bytes, which are fsynced and hard-linked into place unless an
        object is already published under ``key`` (which then stands).

        Raises ``OSError`` when the object or the index cannot be
        written; no temp file is left behind.
        """
        if kind not in KIND_EXTENSIONS:
            raise ReproError(f"unknown artifact kind {kind!r}")
        path = self.object_path(key, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp name keeps the final extension (np.savez appends
        # ".npz" to anything else) and is unique per process, so
        # concurrent writers of one key never collide pre-link.
        temporary = path.parent / (
            f".tmp-{os.getpid()}-{path.name}"
        )
        try:
            with _interrupts_deferred():
                writer(temporary)
                descriptor = os.open(str(temporary), os.O_RDONLY)
                try:
                    os.fsync(descriptor)
                finally:
                    os.close(descriptor)
                try:
                    os.link(temporary, path)
                except FileExistsError:
                    pass  # first publisher wins; its object is indexed
                else:
                    fsync_directory(path.parent)
                # The temp name is now a second link to the published
                # object: drop it before anything can reopen it.
                temporary.unlink()
                self._index["entries"][key] = {
                    "kind": kind,
                    "size": path.stat().st_size,
                    "sha256": _sha256_file(path),
                    "tick": self._next_tick(),
                    "meta": dict(meta or {}),
                }
                self._gc_locked()
                self._write_index()
        finally:
            if temporary.exists():
                temporary.unlink()
        return path

    def contains(self, key: str, kind: str) -> bool:
        return self.object_path(key, kind).exists()

    def discard(self, kind: str, keys: Iterable[str]) -> int:
        """Delete the ``kind`` entries under ``keys`` (absent ones are
        skipped), best-effort; returns the number removed."""
        removed = 0
        for key in keys:
            path = self.object_path(key, kind)
            if key in self._index["entries"] or path.exists():
                self._evict(key, path)
                removed += 1
        if removed:
            self._write_index_best_effort()
        return removed

    def find(self, kind: str, **meta_filter) -> List[Tuple[str, dict]]:
        """Entries of ``kind`` whose meta matches every filter item,
        most recently used first (the near-miss probe's ordering)."""
        matches = [
            (key, entry) for key, entry in self._index["entries"].items()
            if entry["kind"] == kind and all(
                entry["meta"].get(name) == value
                for name, value in meta_filter.items()
            )
        ]
        matches.sort(key=lambda item: -item[1]["tick"])
        return [(key, dict(entry["meta"])) for key, entry in matches]

    # -- maintenance ---------------------------------------------------
    def gc(self, byte_budget: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used entries until under budget.

        Returns ``(entries_evicted, bytes_freed)``.  With an explicit
        ``byte_budget`` the store's persistent budget is updated first.
        """
        if byte_budget is not None:
            self._index["byte_budget"] = int(byte_budget)
        evicted, freed = self._gc_locked()
        self._write_index()
        return evicted, freed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        count = 0
        for key, entry in list(self._index["entries"].items()):
            self._evict(key, self.object_path(key, entry["kind"]))
            count += 1
        self._write_index()
        return count

    def stats(self) -> Dict[str, object]:
        entries = self._index["entries"]
        by_kind: Dict[str, int] = {}
        for entry in entries.values():
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(entry["size"] for entry in entries.values()),
            "byte_budget": self.byte_budget,
            "hits": int(self._index["hits"]),
            "misses": int(self._index["misses"]),
            "by_kind": dict(sorted(by_kind.items())),
        }

    def entries(self) -> List[Dict[str, object]]:
        """Index rows for ``repro store ls`` (most recent first)."""
        rows = [
            {"key": key, "kind": entry["kind"], "size": entry["size"],
             "tick": entry["tick"], "meta": dict(entry["meta"])}
            for key, entry in self._index["entries"].items()
        ]
        rows.sort(key=lambda row: -int(row["tick"]))
        return rows

    # -- internals -----------------------------------------------------
    def _next_tick(self) -> int:
        self._index["tick"] = int(self._index["tick"]) + 1
        return self._index["tick"]

    def _count(self, counter: str) -> None:
        self._index[counter] = int(self._index[counter]) + 1

    def _drop_entry(self, key: str) -> None:
        self._index["entries"].pop(key, None)

    def _evict(self, key: str, path: Path) -> None:
        self._drop_entry(key)
        self._remove_object(key, path)

    def _remove_object(self, key: str, path: Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        except OSError as error:
            logger.warning("store entry %s could not be removed (%s: "
                           "%s)", key[:12], type(error).__name__, error)

    def _adopt(self, key: str, kind: str, path: Path,
               meta: Optional[dict] = None) -> None:
        self._index["entries"][key] = {
            "kind": kind,
            "size": path.stat().st_size,
            "sha256": _sha256_file(path),
            "tick": self._next_tick(),
            "meta": dict(meta or {}),
        }

    def _gc_locked(self) -> Tuple[int, int]:
        entries = self._index["entries"]
        total = sum(entry["size"] for entry in entries.values())
        budget = self.byte_budget
        evicted = freed = 0
        for key in sorted(entries, key=lambda k: entries[k]["tick"]):
            if total <= budget:
                break
            size = entries[key]["size"]
            self._evict(key, self.object_path(key, entries[key]["kind"]))
            total -= size
            freed += size
            evicted += 1
        if evicted:
            logger.info("store gc: evicted %d entr%s (%d bytes) to "
                        "fit %d-byte budget", evicted,
                        "y" if evicted == 1 else "ies", freed, budget)
        return evicted, freed

    def _write_index(self) -> None:
        # Compact on purpose: ``indent`` forces json's pure-Python
        # encoder, about 10x slower than the C one, on every put.
        atomic_write_text(
            self.index_path,
            json.dumps(self._index, sort_keys=True),
        )

    def _write_index_best_effort(self) -> None:
        """Persist read-side bookkeeping (LRU ticks, counters, dropped
        entries); a store that refuses writes still serves reads."""
        try:
            self._write_index()
        except OSError as error:
            logger.warning("store index %s not updated (%s: %s)",
                           self.index_path, type(error).__name__, error)

    def _load_index(self) -> dict:
        index = self._fresh_index()
        try:
            loaded = json.loads(
                self.index_path.read_text(encoding="utf-8")
            )
            if (isinstance(loaded, dict)
                    and loaded.get("version") == INDEX_VERSION
                    and isinstance(loaded.get("entries"), dict)):
                index.update(loaded)
            else:
                logger.warning(
                    "store index %s is unusable — rebuilding from "
                    "directory scan", self.index_path,
                )
        except FileNotFoundError:
            pass
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            logger.warning(
                "store index %s is corrupt (%s) — rebuilding from "
                "directory scan", self.index_path, error,
            )
        self._index = index
        self._reconcile()
        return index

    def _reconcile(self) -> None:
        """Sync index entries with the objects actually on disk.

        Objects of a kind this version does not know (a retired kind
        left by an older version) are deleted: no index entry or byte
        budget would ever account for them.
        """
        on_disk: Dict[str, Tuple[str, Path]] = {}
        for path in self.objects_dir.glob("*/*"):
            if path.name.startswith(".tmp-"):
                continue
            parts = path.name.split(".")
            if len(parts) < 3:
                continue
            key, kind = parts[0], parts[1]
            if kind in KIND_EXTENSIONS:
                on_disk[key] = (kind, path)
            else:
                self._remove_object(key, path)
        entries = self._index["entries"]
        for key in [k for k in entries if k not in on_disk]:
            del entries[key]
        for key, (kind, path) in on_disk.items():
            if key not in entries:
                self._adopt(key, kind, path)

    def _fresh_index(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "byte_budget": DEFAULT_BYTE_BUDGET,
            "tick": 0,
            "hits": 0,
            "misses": 0,
            "entries": {},
        }
