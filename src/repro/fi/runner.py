"""Resilient campaign execution: sharding, multi-core fan-out,
supervision, retry, resume from an artifact store.

The FI campaign is the expensive, ground-truth-generating stage of the
whole pipeline, so its runner must survive faults in the *harness* as
well as inject them into the DUT — and it must use the whole host,
because fault-simulation throughput is what caps dataset size.
:class:`CampaignRunner` splits the (collapsed) fault universe into
bounded-memory shards and executes each ``(rows, shard)`` pair — a
group of workloads against one shard — as an independent, supervised
**unit** of work:

* **Sharding** — ``policy.shard_size`` bounds the faults per unit so
  each unit's ``(n_nets, n_words)`` value matrix stays cache-resident
  (``None``/``"auto"`` sizes it from the netlist; ``0`` disables
  sharding).  Shards are contiguous, so merged results are bitwise
  identical to an unsharded pass.
* **Lane packing** — per shard, pending workloads that share a cycle
  count are taken in suite order and split into the fewest equal-size
  groups whose packed value matrix fits
  :data:`~repro.utils.parallel.DEFAULT_PACK_BUDGET_BYTES` (at least
  ``jobs`` groups when pooled).  A group runs as one
  :meth:`~repro.sim.bitparallel.BitParallelSimulator.run_fault_passes`
  pass, one lane span per workload, so the per-cycle dispatch is paid
  once per group rather than once per workload.
* **Multi-core fan-out** — ``policy.jobs`` worker processes execute
  units concurrently through a persistent supervised pool
  (:class:`repro.utils.workerpool.WorkerPool`): workers fork once per
  campaign after the engine is built (fork-inherited context: netlists
  carry cell lambdas that cannot pickle, and the pre-built simulator
  rides along copy-on-write), pull units from a dynamic queue so
  stragglers never idle the pool, and acknowledge each result over a
  pipe so a worker death loses at most the unit it held.  ``jobs=1``
  runs everything in-process with behaviour identical to the classic
  serial runner.
* **Worker supervision** — the pool requeues the in-flight unit of a
  dead worker (segfault, OOM kill) and respawns workers under
  ``policy.max_worker_restarts``; liveness is watched via heartbeats
  every ``policy.heartbeat_interval`` seconds.  A *poison unit* — one
  that kills ``policy.poison_threshold`` consecutive host workers — is
  quarantined into the failure ledger (``status="worker_crash"``, with
  the fatal signal/exitcode) instead of aborting the campaign.
* **Timeout** — a unit that hangs past ``policy.timeout`` seconds per
  workload it carries is abandoned (the pass thread is orphaned; a
  fresh engine is built for the next attempt so a zombie pass can
  never corrupt a retry).
* **Split on failure** — a group unit gets one attempt.  If it errors,
  times out or is quarantined, it is requeued as its singleton
  ``(row, shard)`` units, so one broken workload never costs its
  group-mates their results.
* **Retry with backoff** — failed or hung singleton units are retried
  up to ``policy.retries`` times with jittered exponential backoff
  (:class:`~repro.utils.retry.BackoffPolicy`).
* **Resume** — with ``policy.store`` set (a
  :class:`~repro.store.ArtifactStore`), every completed ``(row,
  shard)`` pair is published as a ``unit`` entry (a group publishes
  one per row), keyed by the campaign's structural identity: netlist,
  stimulus bytes, resolved policy, simulated fault list, shard bounds
  and row.  A run first scatters in the units already stored and
  simulates only the rest, so rerunning a campaign killed with
  SIGKILL on the same store produces a result identical to an
  uninterrupted run.  A torn or corrupt unit is a logged miss and is
  re-simulated.  The units stay until the complete campaign is stored
  (:func:`repro.store.memo.publish_campaign` drops them then): only
  whole campaigns stay cached.
* **Graceful degradation** — a singleton unit that exhausts its
  retries is recorded in the result's failure ledger
  (:class:`~repro.fi.campaign.WorkloadFailure`); the campaign completes
  with partial results instead of discarding the other units.

Kills stay kills: ``KeyboardInterrupt``/``SystemExit`` always
propagate, leaving the stored units for a later rerun.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.fi.campaign import (
    DEFAULT_SEVERITY,
    CampaignResult,
    WorkloadFailure,
)
from repro.fi.faults import Fault, full_fault_universe
from repro.netlist.netlist import Netlist
from repro.sim.bitparallel import BitParallelSimulator
from repro.sim.waveform import (
    Workload,
    reject_input_order,
    reject_zero_cycle,
)
from repro.utils.errors import (
    CampaignError,
    SerializationError,
    SimulationError,
)
from repro.utils.fingerprint import faults_fingerprint, observation_key
from repro.utils.parallel import (
    auto_pack_size,
    auto_shard_size,
    fork_context,
    resolve_jobs,
    shard_bounds,
)
from repro.utils.retry import BackoffPolicy, retry_call
from repro.utils.workerpool import PoolPolicy, WorkerPool

if TYPE_CHECKING:
    from repro.store import ArtifactStore


class PassTimeout(CampaignError):
    """A unit's fault pass exceeded the runner's timeout."""


@dataclass(frozen=True)
class RunnerPolicy:
    """Resilience and throughput knobs for one campaign run.

    The default policy (no timeout, no retries, no store, one job, no
    sharding) gives exactly the results of a plain loop of one fault
    pass per workload.  ``store`` is the
    :class:`~repro.store.ArtifactStore` that holds the run's completed
    units (see the module docstring).

    ``jobs`` is the worker-process count (``0`` = all cores);
    ``shard_size`` bounds the faults simulated per unit (``0`` = the
    whole universe in one shard, ``None``/``"auto"`` = sized so each
    shard's value matrix fits in cache).

    The pool-supervision knobs only matter when ``jobs > 1``:
    ``max_worker_restarts`` bounds how many dead workers one campaign
    will respawn, ``heartbeat_interval`` paces worker liveness stamps,
    and ``poison_threshold`` is the consecutive-host-kill count that
    quarantines a unit into the failure ledger as ``worker_crash``.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff: Optional[BackoffPolicy] = None
    store: Optional["ArtifactStore"] = None
    jobs: int = 1
    shard_size: Optional[Union[int, str]] = 0
    max_worker_restarts: int = 8
    heartbeat_interval: float = 5.0
    poison_threshold: int = 2

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise CampaignError(
                f"timeout {self.timeout} must be positive"
            )
        if self.retries < 0:
            raise CampaignError(f"retries {self.retries} must be >= 0")
        if self.jobs < 0:
            raise CampaignError(f"jobs {self.jobs} must be >= 0")
        if (
            self.backoff is not None
            and self.backoff.max_elapsed is not None
            and self.timeout is not None
            and self.backoff.max_elapsed < self.timeout
        ):
            raise CampaignError(
                f"backoff max_elapsed {self.backoff.max_elapsed}s is "
                f"smaller than one attempt's timeout {self.timeout}s "
                "— the deadline budget could never cover a single try"
            )
        # Pool-supervision knobs: validated eagerly (pre-flight), even
        # though the PoolPolicy is only built when jobs > 1.
        PoolPolicy(
            jobs=self.jobs,
            max_worker_restarts=self.max_worker_restarts,
            heartbeat_interval=self.heartbeat_interval,
            poison_threshold=self.poison_threshold,
        )
        if isinstance(self.shard_size, str):
            if self.shard_size != "auto":
                raise CampaignError(
                    f"shard_size {self.shard_size!r} must be an "
                    "integer, 'auto', or None"
                )
        elif self.shard_size is not None and self.shard_size < 0:
            raise CampaignError(
                f"shard_size {self.shard_size} must be >= 0"
            )


#: One unit of work: suite rows packed into one pass, and a shard.
Unit = Tuple[Tuple[int, ...], int]

#: A stored unit's arrays, in result order, with their dtypes.
_UNIT_ARRAYS = (("error_cycles", np.int64), ("detection_cycle", np.int64),
                ("latent", np.bool_))


@dataclass
class _UnitOutcome:
    """What one supervised (rows, shard) unit actually did."""

    rows: Tuple[int, ...]
    shard: int
    # (error_cycles, detection, latent), each (len(rows), shard faults)
    value: Optional[tuple]
    status: str            # "ok" | "error" | "timeout" | "worker_crash"
    attempts: int
    elapsed_seconds: float
    error: str = ""


#: Campaign context inherited by fork workers (netlists are not
#: picklable, so the pool must fork after this is set).
_WORKER_RUNNER: Optional["CampaignRunner"] = None


def _worker_unit(unit: Unit) -> _UnitOutcome:
    """Pool entry point: run one supervised unit in a fork worker."""
    runner = _WORKER_RUNNER
    if runner is None:
        raise CampaignError(
            "campaign worker has no inherited context (requires the "
            "fork start method)"
        )
    return runner._run_unit(*unit)


class CampaignRunner:
    """Supervised executor for one fault-injection campaign.

    Construction performs every pre-flight check (workload and fault
    universe validation, policy resolution, observation compilation,
    fault collapsing, shard planning) so misconfiguration fails before
    any simulation or store I/O happens.  :meth:`run` then packs
    the pending (workload x shard) pairs into ``(rows, shard)`` units,
    executes them under the resilience policy and assembles the
    :class:`~repro.fi.campaign.CampaignResult`.
    """

    def __init__(
        self,
        netlist: Netlist,
        workloads: Sequence[Workload],
        faults: Optional[Sequence[Fault]] = None,
        observation="auto",
        severity="auto",
        collapse: bool = False,
        policy: Optional[RunnerPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        from repro.fi.collapse import collapse_faults
        from repro.fi.observation import (
            ObservationSpec,
            observation_for,
            severity_for,
        )

        if not workloads:
            raise SimulationError(
                "campaign needs at least one workload"
            )
        names = [workload.name for workload in workloads]
        duplicates = sorted({
            name for name in names if names.count(name) > 1
        })
        if duplicates:
            raise SimulationError(
                "duplicate workload names shadow each other in "
                f"per-workload reports: {', '.join(duplicates)}"
            )
        reject_zero_cycle(workloads)
        reject_input_order(netlist, workloads)
        if severity == "auto":
            severity = severity_for(netlist, DEFAULT_SEVERITY)
        if not 0.0 <= severity <= 1.0:
            raise SimulationError(
                f"severity {severity} outside [0, 1]"
            )
        fault_list = list(faults) if faults is not None else (
            full_fault_universe(netlist)
        )
        if not fault_list:
            raise SimulationError("campaign needs at least one fault")

        if observation == "auto":
            observation = observation_for(netlist)
        self._observation_key = observation_key(observation)
        self._compiled = (
            observation.compile(netlist)
            if isinstance(observation, ObservationSpec) else None
        )

        self.netlist = netlist
        self.workloads = list(workloads)
        self.faults = fault_list
        self.severity = float(severity)
        self.collapse = collapse
        self.policy = policy or RunnerPolicy()
        self._sleep = sleep

        self._universe = (
            collapse_faults(netlist, fault_list) if collapse else None
        )
        self._simulated = (
            self._universe.representatives
            if self._universe is not None else fault_list
        )
        self._fault_nets = np.array(
            [fault.net_index for fault in self._simulated],
            dtype=np.intp,
        )
        self._fault_values = np.array(
            [fault.stuck_at for fault in self._simulated],
            dtype=np.uint8,
        )
        self._shards = shard_bounds(
            len(self._simulated), self._resolve_shard_size()
        )
        self._engine: Optional[BitParallelSimulator] = None

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _resolve_shard_size(self) -> int:
        size = self.policy.shard_size
        if size is None or size == "auto":
            return auto_shard_size(self.netlist.n_nets)
        return int(size)

    # -- execution -----------------------------------------------------
    def run(self) -> CampaignResult:
        """Execute the campaign under the resilience policy."""
        # Every unit entry's meta: the design and campaign identity.
        unit_meta: Dict[str, str] = {}
        unit_keys: Dict[Tuple[int, int], str] = {}
        if self.policy.store is not None:
            unit_meta = {"design": self.netlist.name,
                         **self._unit_identity()}
            unit_keys = self._unit_keys(unit_meta)

        n_workloads = len(self.workloads)
        n_faults = len(self.faults)
        error_cycles = np.zeros((n_workloads, n_faults),
                                dtype=np.int64)
        detection = np.full((n_workloads, n_faults), -1,
                            dtype=np.int64)
        latent = np.zeros((n_workloads, n_faults), dtype=bool)
        arrays = (error_cycles, detection, latent)

        failures: List[Tuple[int, int, WorkloadFailure]] = []
        total_elapsed = 0.0

        pending: List[Tuple[int, int]] = []
        for row in range(n_workloads):
            for shard in range(self.n_shards):
                stored = (
                    self._load_unit(unit_keys[row, shard], shard,
                                    unit_meta)
                    if unit_keys else None
                )
                if stored is None:
                    pending.append((row, shard))
                    continue
                value, elapsed = stored
                self._scatter(arrays, row, shard, value)
                total_elapsed += elapsed

        jobs = resolve_jobs(self.policy.jobs)
        outcomes = self._execute(self._plan_units(pending, jobs), jobs)
        try:
            for outcome in outcomes:
                total_elapsed += outcome.elapsed_seconds
                if outcome.status == "ok":
                    self._complete(arrays, unit_meta, unit_keys,
                                   outcome)
                elif len(outcome.rows) == 1:
                    failures.append((
                        outcome.rows[0], outcome.shard,
                        self._failure(outcome),
                    ))
                # A failed group is re-run by _execute as singletons.
        finally:
            # An interrupt mid-iteration must tear the worker pool down
            # *now* (not at GC): closing the generator runs its
            # shutdown path, after which every unit published above
            # is durable and a rerun resumes from it.
            outcomes.close()

        return CampaignResult(
            netlist_name=self.netlist.name,
            faults=self.faults,
            workload_names=[w.name for w in self.workloads],
            workload_cycles=np.array(
                [w.cycles for w in self.workloads], dtype=np.int64
            ),
            error_cycles=error_cycles,
            detection_cycle=detection,
            latent=latent,
            severity=self.severity,
            simulation_seconds=total_elapsed,
            failures=[entry[2] for entry in sorted(
                failures, key=lambda entry: (entry[0], entry[1])
            )],
        )

    # -- internals -----------------------------------------------------
    def _plan_units(self, pending: Sequence[Tuple[int, int]],
                    jobs: int) -> List[Unit]:
        """Pack pending ``(row, shard)`` pairs into ``(rows, shard)``
        units.

        Per shard, rows sharing a cycle count are taken in suite order
        and split into the fewest equal-size groups whose packed value
        matrix fits the pack budget.  When pooled, the widest classes
        are split further until there are at least ``jobs`` units (or
        every unit is a single row).
        """
        classes: Dict[Tuple[int, int], List[int]] = {}
        for row, shard in pending:
            key = (shard, self.workloads[row].cycles)
            classes.setdefault(key, []).append(row)
        members = list(classes.items())
        counts = []
        for (shard, _), rows in members:
            lo, hi = self._shards[shard]
            widest = auto_pack_size(self.netlist.n_nets, hi - lo + 1)
            counts.append(-(-len(rows) // widest))
        while jobs > 1 and sum(counts) < jobs:
            sizes = [-(-len(rows) // count)
                     for (_, rows), count in zip(members, counts)]
            if max(sizes, default=1) <= 1:
                break
            counts[sizes.index(max(sizes))] += 1
        return [
            (tuple(int(row) for row in group), shard)
            for ((shard, _), rows), count in zip(members, counts)
            for group in np.array_split(rows, count)
        ]

    def _complete(self, arrays, unit_meta: Dict[str, str],
                  unit_keys: Dict[Tuple[int, int], str],
                  outcome: _UnitOutcome) -> None:
        """Merge a successful unit and store each of its rows,
        splitting the unit's elapsed time evenly across them."""
        share = outcome.elapsed_seconds / len(outcome.rows)
        for position, row in enumerate(outcome.rows):
            value = tuple(column[position] for column in outcome.value)
            self._scatter(arrays, row, outcome.shard, value)
            if unit_keys:
                self._publish_unit(unit_keys[row, outcome.shard],
                                   unit_meta, value, share)

    def _scatter(self, arrays, row: int, shard: int, value) -> None:
        """Merge one unit's per-representative columns into the full
        original-fault-axis result matrices (shard-aware expansion)."""
        from repro.fi.collapse import expand_shard

        bounds = self._shards[shard]
        if self._universe is None:
            lo, hi = bounds
            for target, columns in zip(arrays, value):
                target[row, lo:hi] = columns
            return
        for target, columns in zip(arrays, value):
            original, expanded = expand_shard(
                self._universe, bounds, np.asarray(columns)
            )
            target[row, original] = expanded

    def _failure(self, outcome: _UnitOutcome) -> WorkloadFailure:
        workload = self.workloads[outcome.rows[0]]
        error = outcome.error
        if self.n_shards > 1:
            lo, hi = self._shards[outcome.shard]
            error = (
                f"shard {outcome.shard} (faults {lo}:{hi}): {error}"
            )
        return WorkloadFailure(
            workload=workload.name,
            status=outcome.status,
            attempts=outcome.attempts,
            elapsed_seconds=outcome.elapsed_seconds,
            error=error,
        )

    def _execute(self, units: List[Unit],
                 jobs: int) -> Iterator[_UnitOutcome]:
        """Run ``units``; yield each outcome as it lands.

        A group that fails is re-run as its singleton ``(row, shard)``
        units in a further round.  With ``jobs > 1``, units fan out over
        one persistent supervised pool for the whole campaign.  Workers
        fork once, *after* the shared simulation engine is built, so
        every child inherits the full campaign context — netlist,
        stimulus, compiled observation, engine scratch — through
        copy-on-write pages instead of pickling.  A worker death
        (segfault, OOM kill) requeues the unit it held and respawns the
        worker under ``policy.max_worker_restarts``, a budget shared by
        every round; a unit that keeps killing its hosts is quarantined
        as a ``worker_crash`` outcome instead of aborting the campaign.
        """
        global _WORKER_RUNNER

        pool: Optional[WorkerPool] = None
        try:
            while units:
                if jobs > 1 and len(units) > 1 and fork_context():
                    if pool is None:
                        # Build the engine pre-fork: children inherit
                        # the constructed simulator copy-on-write.
                        self._shared_engine()
                        _WORKER_RUNNER = self
                        pool = WorkerPool(_worker_unit, PoolPolicy(
                            jobs=jobs,
                            max_worker_restarts=(
                                self.policy.max_worker_restarts
                            ),
                            heartbeat_interval=(
                                self.policy.heartbeat_interval
                            ),
                            poison_threshold=self.policy.poison_threshold,
                        ))
                    outcomes = self._pooled_outcomes(pool, units)
                else:
                    outcomes = (
                        self._run_unit(rows, shard)
                        for rows, shard in units
                    )
                requeued: List[Unit] = []
                for outcome in outcomes:
                    yield outcome
                    if outcome.status != "ok" and len(outcome.rows) > 1:
                        requeued.extend(
                            ((row,), outcome.shard)
                            for row in outcome.rows
                        )
                units = requeued
        finally:
            if pool is not None:
                pool.shutdown()
            _WORKER_RUNNER = None

    @staticmethod
    def _pooled_outcomes(pool: WorkerPool,
                         units: Sequence[Unit]) -> Iterator[_UnitOutcome]:
        """One round of units on the pool, as acknowledgments arrive."""
        for result in pool.run(list(units)):
            rows, shard = units[result.index]
            if result.crash is not None:
                yield _UnitOutcome(
                    rows=rows, shard=shard, value=None,
                    status="worker_crash",
                    attempts=max(result.crash.kills, 1),
                    elapsed_seconds=0.0,
                    error=result.crash.describe(),
                )
            elif result.error is not None:
                yield _UnitOutcome(
                    rows=rows, shard=shard, value=None,
                    status="error", attempts=1,
                    elapsed_seconds=0.0,
                    error=f"campaign worker failed: {result.error}",
                )
            else:
                yield result.value

    def _run_unit(self, rows: Tuple[int, ...],
                  shard: int) -> _UnitOutcome:
        """One supervised unit: a packed pass over ``rows`` against one
        shard.  A single row gets the full retry/backoff policy; a
        group gets one attempt and is split by the caller on failure."""
        workloads = [self.workloads[row] for row in rows]
        started = time.perf_counter()
        value, outcome = retry_call(
            lambda: self._attempt(workloads, shard),
            retries=self.policy.retries if len(rows) == 1 else 0,
            backoff=self.policy.backoff or BackoffPolicy(),
            sleep=self._sleep,
        )
        elapsed = time.perf_counter() - started
        if outcome.succeeded:
            return _UnitOutcome(
                rows=rows, shard=shard, value=value, status="ok",
                attempts=outcome.attempts, elapsed_seconds=elapsed,
            )
        return _UnitOutcome(
            rows=rows, shard=shard, value=None,
            status=(
                "timeout"
                if isinstance(outcome.error, PassTimeout) else "error"
            ),
            attempts=outcome.attempts,
            elapsed_seconds=elapsed,
            error=str(outcome.error),
        )

    def _attempt(self, workloads: Sequence[Workload], shard: int):
        """One supervised fault-pass attempt for one unit; the deadline
        is ``policy.timeout`` per workload carried."""
        if self.policy.timeout is None:
            return self._pass(workloads, shard, self._shared_engine())
        # A timed-out pass leaves its worker thread running; never hand
        # that zombie's engine to a retry — build a fresh one per try.
        box: dict = {}

        def target() -> None:
            try:
                box["value"] = self._pass(
                    workloads, shard, BitParallelSimulator(self.netlist)
                )
            except BaseException as error:  # noqa: BLE001 — relayed
                box["error"] = error

        names = "+".join(workload.name for workload in workloads)
        deadline = self.policy.timeout * len(workloads)
        worker = threading.Thread(
            target=target, daemon=True,
            name=f"fi-pass-{names}-s{shard}",
        )
        worker.start()
        worker.join(deadline)
        if worker.is_alive():
            raise PassTimeout(
                f"workload {', '.join(repr(w.name) for w in workloads)}"
                f": fault pass still running after {deadline}s"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _pass(self, workloads: Sequence[Workload], shard: int,
              engine: BitParallelSimulator):
        lo, hi = self._shards[shard]
        return engine.run_fault_passes(
            workloads,
            self._fault_nets[lo:hi],
            self._fault_values[lo:hi],
            observation=self._compiled,
        )

    def _shared_engine(self) -> BitParallelSimulator:
        if self._engine is None:
            self._engine = BitParallelSimulator(self.netlist)
        return self._engine

    # -- stored units ------------------------------------------------
    def _unit_identity(self) -> Dict[str, str]:
        """The campaign's store key and simulated-fault fingerprint:
        what every unit key (and unit entry meta) carries."""
        from repro.store import keys as K

        return {
            "campaign": K.campaign_key(**K.campaign_identity(
                self.netlist, self.workloads, severity=self.severity,
                collapse=self.collapse,
                observation=self._observation_key,
            )),
            "faults": faults_fingerprint(self._simulated),
        }

    def _unit_keys(self, identity: Dict[str, str],
                   ) -> Dict[Tuple[int, int], str]:
        """Store key of every ``(row, shard)`` of this campaign."""
        from repro.store import keys as K

        return {
            (row, shard): K.unit_key(
                identity["campaign"], faults=identity["faults"],
                bounds=bounds, row=row,
            )
            for row in range(len(self.workloads))
            for shard, bounds in enumerate(self._shards)
        }

    def _load_unit(self, key: str, shard: int, meta: Dict[str, str]):
        """A stored unit's ``(value, elapsed_seconds)``, or ``None``.

        A hit re-files the entry under ``meta``, so a unit whose writer
        was killed before indexing it is still found, and dropped, by
        its campaign."""
        lo, hi = self._shards[shard]

        def reader(path):
            with np.load(path) as archive:
                value = tuple(archive[name] for name, _ in _UNIT_ARRAYS)
                elapsed = float(archive["elapsed_seconds"])
            for array, (name, dtype) in zip(value, _UNIT_ARRAYS):
                if array.shape != (hi - lo,) or array.dtype != dtype:
                    raise SerializationError(
                        f"unit {name} is {array.dtype}{array.shape}, "
                        f"expected {np.dtype(dtype)}({hi - lo},)"
                    )
            return value, elapsed

        return self.policy.store.get(key, "unit", reader, meta=meta)

    def _publish_unit(self, key: str, meta: Dict[str, str], value,
                      elapsed: float) -> None:
        from repro.store.memo import put_or_warn

        def writer(path) -> None:
            np.savez(path, elapsed_seconds=np.float64(elapsed), **{
                name: np.asarray(array, dtype=dtype)
                for array, (name, dtype) in zip(value, _UNIT_ARRAYS)
            })

        put_or_warn(self.policy.store, key, "unit", writer, meta=meta)
