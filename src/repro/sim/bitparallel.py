"""64-way bit-parallel logic simulation engine.

This is the performance core of the fault-injection substrate (the
stand-in for the paper's Cadence Xcelium campaigns).  Net values are
``numpy.uint64`` words: bit *b* of word *w* carries the value seen by
*machine* ``64*w + b``.  Machine 0 is always the fault-free golden
machine; every other machine runs the same stimulus with one stuck-at
fault permanently forced on one gate output.  A whole fault universe
therefore simulates in a single pass per workload, with every gate
evaluation a handful of vectorized numpy operations.

A fault pass may also carry several equal-length workloads side by
side (:meth:`BitParallelSimulator.run_fault_passes`): workload *w*
owns the lane span ``[w*(F+1), (w+1)*(F+1))`` for ``F`` faults, with
its own golden machine on the span's first lane, so stimulus, golden
comparison, strobe gating and latent checks are all per span and a
group of workloads costs one settle/commit per cycle instead of one
per cycle per workload.

The schedule is levelized and type-grouped: gates of the same cell type
on the same topological level evaluate together as one gather/compute/
scatter step.

The inner loop is allocation-free on the hot path: per-word-width
scratch buffers (gathers, output comparison, mismatch masks) are built
once and reused across cycles, constant-cell outputs are evaluated once
per pass, fault forcing masks are gathered per group once per pass, and
per-machine error-cycle counts accumulate by popcounting chunks of
packed mismatch words instead of unpacking every mismatch cycle.

Golden (fault-free) runs use the same word axis for *workloads*
instead of faults: in :meth:`BitParallelSimulator.golden_stats` and
:meth:`BitParallelSimulator.run_drivers`, lane *w* (bit ``w % 64`` of
word ``w // 64``) carries workload or driver *w*, so a whole suite
costs one settle/commit per cycle rather than one per cycle per
workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.cells import Cell
from repro.netlist.netlist import Netlist
from repro.sim.simulator import Driver
from repro.sim.waveform import (
    Workload,
    reject_input_order,
    reject_zero_cycle,
)
from repro.utils.errors import SimulationError

ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
ZERO = np.uint64(0)

#: Unpacked bytes one popcount flush of buffered mismatch rows may
#: expand to (one byte per lane): 256 rows at 16 words.  The row count
#: shrinks as passes widen, so wide packed passes flush as often as
#: their memory allows rather than holding 256 rows of every word.
MISMATCH_CHUNK_BYTES = 256 * 1024


@dataclass
class GoldenStats:
    """Per-net activity profile accumulated over golden simulations.

    Drives the paper's probability features: ``P(net == 1)`` is
    ``ones_count / cycles`` and the transition probability is
    ``transition_count / (cycles - n_workloads)`` (the first cycle of
    each workload has no predecessor).  ``cycles`` is the suite's
    total, and zero-cycle workloads are rejected: they have no first
    cycle to subtract.

    The counts come from one lane-packed pass: the stimulus is packed
    as ``(max_cycles, n_pi, ceil(W/64))`` words with workload *w* on
    lane *w*, and each cycle's settled-and-committed net words are
    popcounted per net after masking out lanes whose workload has
    already ended, so mixed cycle counts and any number of workloads
    give the same totals as one scalar run per workload.
    """

    net_names: List[str]
    ones_count: np.ndarray        # int64 per net
    transition_count: np.ndarray  # int64 per net
    cycles: int
    workloads: int

    @property
    def state_probability_one(self) -> np.ndarray:
        """P(net == 1) per net."""
        if self.cycles == 0:
            return np.zeros(len(self.net_names))
        return self.ones_count / self.cycles

    @property
    def state_probability_zero(self) -> np.ndarray:
        """P(net == 0) per net."""
        return 1.0 - self.state_probability_one

    @property
    def transition_probability(self) -> np.ndarray:
        """P(net value changes between consecutive cycles), per net."""
        denominator = self.cycles - self.workloads
        if denominator <= 0:
            return np.zeros(len(self.net_names))
        return self.transition_count / denominator


class _PassScratch:
    """Reusable per-word-width buffers for one simulator.

    Everything here depends only on the schedule and the machine-word
    count ``n_words``, so a scratch set is built once per width and
    reused by every cycle of every pass at that width (the campaign
    runner replays many workloads against same-sized shards).
    """

    def __init__(self, sim: "BitParallelSimulator", n_words: int):
        self.n_words = n_words
        self.comb_gather: List[Optional[np.ndarray]] = []
        self.const_out: List[Optional[np.ndarray]] = []
        for cell, out_idx, in_idx in sim._comb_groups:
            if in_idx.shape[1] == 0:
                self.comb_gather.append(None)
                constant = cell.function([], ONES)
                self.const_out.append(np.full(
                    (len(out_idx), n_words), constant, dtype=np.uint64,
                ))
            else:
                self.comb_gather.append(np.empty(
                    in_idx.shape + (n_words,), dtype=np.uint64,
                ))
                self.const_out.append(None)
        self.flop_gather: List[np.ndarray] = [
            np.empty(in_idx.shape + (n_words,), dtype=np.uint64)
            for _, _, in_idx in sim._flop_groups
        ]
        n_outputs = len(sim._po_idx)
        self.po = np.empty((n_outputs, n_words), dtype=np.uint64)
        self.diff = np.empty((n_outputs, n_words), dtype=np.uint64)
        self.mismatch = np.empty(n_words, dtype=np.uint64)


class _LaneSpans:
    """Equal, disjoint lane spans of one packed pass.

    Span *w* covers lanes ``[w*size, (w+1)*size)`` and replays workload
    *w*, with its golden machine on the span's first lane.  The last
    span also owns the unused tail of the last word: those lanes run
    unfaulted on the last workload's stimulus, so they never mismatch.
    """

    def __init__(self, count: int, size: int):
        self.count = count
        self.size = size
        self.n_lanes = count * size
        self.n_words = (self.n_lanes + 63) // 64
        owner = np.minimum(np.arange(self.n_words * 64) // size,
                           count - 1)
        masks = np.packbits(
            (owner == np.arange(count)[:, None]).astype(np.uint8),
            axis=1, bitorder="little",
        ).view(np.uint64)  # (count, n_words): lanes of each span
        # Word-level layout for broadcast(): every word's lowest span,
        # then one layer per further span a word meets (only words on
        # a span boundary; none when the whole pass is one span).
        owner = owner.reshape(self.n_words, 64)
        first, last = owner[:, 0], owner[:, -1]
        self._first = first
        self._first_mask = masks[first, np.arange(self.n_words)]
        self._extra: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for step in range(1, int((last - first).max()) + 1):
            columns = np.flatnonzero(first + step <= last)
            spans = first[columns] + step
            self._extra.append((columns, spans, masks[spans, columns]))
        golden = np.arange(count) * size
        self._golden_words = golden >> 6
        self._golden_shift = (golden & 63).astype(np.uint64)

    def golden(self, rows: np.ndarray) -> np.ndarray:
        """Each span's golden bit per row: (rows, n_words) -> (rows,
        count) bool."""
        return ((rows[:, self._golden_words] >> self._golden_shift)
                & np.uint64(1)).astype(bool)

    def broadcast(self, bits: np.ndarray) -> np.ndarray:
        """Fill each span with its own bit per row: (rows, count) ->
        (rows, n_words)."""
        out = np.where(bits[:, self._first], self._first_mask, ZERO)
        for columns, spans, masks in self._extra:
            out[:, columns] |= np.where(bits[:, spans], masks, ZERO)
        return out

    def per_span(self, lanes: np.ndarray) -> np.ndarray:
        """Per-lane values -> (count, size - 1), golden lanes dropped."""
        return lanes[: self.n_lanes].reshape(
            self.count, self.size
        )[:, 1:].copy()


class _FaultMasks:
    """Per-pass fault forcing, pre-gathered per schedule group.

    The packed ``clear``/``force`` matrices are constant over a pass, so
    the per-group rows the inner loop needs are gathered once here —
    groups with no faulted output skip masking entirely (``None``), and
    constant cells collapse to a single pre-masked output array.
    """

    def __init__(self, sim: "BitParallelSimulator", clear: np.ndarray,
                 force: np.ndarray, scratch: _PassScratch):
        self.comb: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        self.const_out: List[Optional[np.ndarray]] = []
        for index, (_, out_idx, in_idx) in enumerate(sim._comb_groups):
            rows = clear[out_idx]
            masked = (rows.any(), np.bitwise_not(rows), force[out_idx])
            if in_idx.shape[1] == 0:
                base = scratch.const_out[index]
                self.const_out.append(
                    (base & masked[1]) | masked[2]
                    if masked[0] else base
                )
                self.comb.append(None)
            else:
                self.const_out.append(None)
                self.comb.append(
                    (masked[1], masked[2]) if masked[0] else None
                )
        self.flops: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        for _, out_idx, _ in sim._flop_groups:
            rows = clear[out_idx]
            self.flops.append(
                (np.bitwise_not(rows), force[out_idx])
                if rows.any() else None
            )


class MismatchAccumulator:
    """Streaming golden-vs-faulty mismatch accounting.

    Shared by the stuck-at and transient passes so both get the same
    optimized bookkeeping: per-cycle packed mismatch masks are buffered
    and *popcounted in chunks* (one ``unpackbits`` + column sum per
    :data:`MISMATCH_CHUNK_BYTES` of unpacked lanes) instead of being
    expanded to a boolean machine vector on every mismatch cycle, and
    first-detection cycles are scattered with one vectorized assignment
    per cycle rather than a per-machine Python loop.  Everything is per
    lane (golden lanes included); callers drop the golden lanes.
    """

    def __init__(self, n_machines: int, n_words: int):
        self.n_machines = n_machines
        self.n_words = n_words
        self.seen = np.zeros(n_words, dtype=np.uint64)
        self.detection_cycle = np.full(n_machines, -1, dtype=np.int64)
        self._counts = np.zeros(n_words * 64, dtype=np.int64)
        self._chunk = np.zeros(
            (max(1, MISMATCH_CHUNK_BYTES // (n_words * 64)), n_words),
            dtype=np.uint64,
        )
        self._fill = 0
        self._new = np.empty(n_words, dtype=np.uint64)

    def record(self, mismatch: np.ndarray, cycle: int) -> None:
        """Account one cycle's packed mismatch mask."""
        if not mismatch.any():
            return
        if self._fill == len(self._chunk):
            self._flush()
        self._chunk[self._fill] = mismatch
        self._fill += 1

        new = self._new
        np.bitwise_not(self.seen, out=new)
        np.bitwise_and(mismatch, new, out=new)
        if new.any():
            np.bitwise_or(self.seen, mismatch, out=self.seen)
            machines = np.flatnonzero(np.unpackbits(
                new.view(np.uint8), bitorder="little"
            ))
            self.detection_cycle[
                machines[machines < self.n_machines]
            ] = cycle

    def _flush(self) -> None:
        if not self._fill:
            return
        bits = np.unpackbits(
            self._chunk[: self._fill].view(np.uint8),
            axis=1, bitorder="little",
        )
        self._counts += bits.sum(axis=0, dtype=np.int64)
        self._fill = 0

    def error_cycles(self) -> np.ndarray:
        """Per-lane count of mismatch cycles (flushes the chunk)."""
        self._flush()
        return self._counts[: self.n_machines]

    def observed(self) -> np.ndarray:
        """Per-lane flags: at least one mismatch cycle ever occurred."""
        return _machine_flags(self.seen, self.n_machines)


class BitParallelSimulator:
    """Levelized, type-grouped, machine-parallel simulator."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._build_schedule()
        self._scratch_cache: Dict[int, _PassScratch] = {}

    # ------------------------------------------------------------------
    # schedule construction
    # ------------------------------------------------------------------
    def _build_schedule(self) -> None:
        netlist = self.netlist
        levels = netlist.levelize()

        grouped: Dict[Tuple[int, str], List[int]] = {}
        for gate in netlist.gates:
            if gate.is_sequential:
                continue
            grouped.setdefault(
                (levels[gate.index], gate.cell.name), []
            ).append(gate.index)

        self._comb_groups: List[Tuple[Cell, np.ndarray, np.ndarray]] = []
        for (_, _), gate_indices in sorted(grouped.items()):
            first = netlist.gates[gate_indices[0]]
            out_idx = np.array(
                [netlist.gates[i].output for i in gate_indices],
                dtype=np.intp,
            )
            in_idx = np.array(
                [netlist.gates[i].inputs for i in gate_indices],
                dtype=np.intp,
            ).reshape(len(gate_indices), first.cell.n_inputs)
            self._comb_groups.append((first.cell, out_idx, in_idx))

        flop_grouped: Dict[str, List[int]] = {}
        for gate in netlist.sequential_gates():
            flop_grouped.setdefault(gate.cell.name, []).append(gate.index)
        self._flop_groups: List[Tuple[Cell, np.ndarray, np.ndarray]] = []
        for _, gate_indices in sorted(flop_grouped.items()):
            first = netlist.gates[gate_indices[0]]
            out_idx = np.array(
                [netlist.gates[i].output for i in gate_indices],
                dtype=np.intp,
            )
            in_idx = np.array(
                [netlist.gates[i].inputs for i in gate_indices],
                dtype=np.intp,
            )
            self._flop_groups.append((first.cell, out_idx, in_idx))

        self._pi_idx = np.array(netlist.input_nets(), dtype=np.intp)
        self._pi_names = netlist.input_names()
        self._po_idx = np.array(
            [net for net, _ in netlist.primary_outputs], dtype=np.intp
        )
        self._flop_out_idx = np.array(
            [gate.output for gate in netlist.sequential_gates()],
            dtype=np.intp,
        )

    def _scratch(self, n_words: int) -> _PassScratch:
        scratch = self._scratch_cache.get(n_words)
        if scratch is None:
            scratch = _PassScratch(self, n_words)
            self._scratch_cache[n_words] = scratch
        return scratch

    # ------------------------------------------------------------------
    # inner loops
    # ------------------------------------------------------------------
    def _settle(
        self,
        values: np.ndarray,
        masks: Optional[_FaultMasks],
        scratch: _PassScratch,
    ) -> None:
        """Evaluate all combinational groups in level order."""
        for index, (cell, out_idx, in_idx) in enumerate(
            self._comb_groups
        ):
            if in_idx.shape[1] == 0:
                values[out_idx] = (
                    masks.const_out[index] if masks is not None
                    else scratch.const_out[index]
                )
                continue
            gather = scratch.comb_gather[index]
            np.take(values, in_idx, axis=0, out=gather)
            out = cell.function(
                [gather[:, position]
                 for position in range(in_idx.shape[1])],
                ONES,
            )
            if masks is not None and masks.comb[index] is not None:
                keep, forced = masks.comb[index]
                out &= keep
                out |= forced
            values[out_idx] = out

    def _commit(
        self,
        values: np.ndarray,
        masks: Optional[_FaultMasks],
        scratch: _PassScratch,
    ) -> None:
        """Compute and commit all flip-flop next-states."""
        staged: List[Tuple[np.ndarray, np.ndarray]] = []
        for index, (cell, out_idx, in_idx) in enumerate(
            self._flop_groups
        ):
            gather = scratch.flop_gather[index]
            np.take(values, in_idx, axis=0, out=gather)
            out = cell.function(
                [gather[:, position]
                 for position in range(in_idx.shape[1])],
                ONES,
            )
            if masks is not None and masks.flops[index] is not None:
                keep, forced = masks.flops[index]
                out &= keep
                out |= forced
            staged.append((out_idx, out))
        for out_idx, out in staged:
            values[out_idx] = out

    def _apply_inputs(self, values: np.ndarray, bits: np.ndarray) -> None:
        # (n_pi, 1) broadcasts across all machine words on assignment.
        values[self._pi_idx] = np.where(bits[:, None], ONES, ZERO)

    def _compare_outputs(
        self, values: np.ndarray, observation, scratch: _PassScratch,
        spans: _LaneSpans,
    ) -> np.ndarray:
        """One cycle's packed mismatch mask (a view into scratch).

        Every lane is compared with its own span's golden machine; with
        an observation, a strobed output is compared only in the spans
        whose golden strobe is active this cycle.
        """
        mismatch = scratch.mismatch
        if not len(self._po_idx):
            mismatch[:] = ZERO
            return mismatch
        np.take(values, self._po_idx, axis=0, out=scratch.po)
        golden = spans.golden(scratch.po)
        np.bitwise_xor(scratch.po, spans.broadcast(golden),
                       out=scratch.diff)
        if observation is not None:
            scratch.diff &= spans.broadcast(
                observation.compare_mask(golden)
            )
        np.bitwise_or.reduce(scratch.diff, axis=0, out=mismatch)
        return mismatch

    def _span_results(
        self, accumulator: MismatchAccumulator, values: np.ndarray,
        spans: _LaneSpans,
    ):
        """Per-span ``(error_cycles, detection_cycle, latent)`` of a
        finished pass, each ``(spans, faults)``.

        Latent flags mark end-of-run state corruption that never
        reached an output.
        """
        observed = accumulator.observed()
        if observed[: spans.n_lanes : spans.size].any():
            raise SimulationError(
                "golden machine diverged from itself — engine bug"
            )
        corrupted = np.zeros(spans.n_lanes, dtype=bool)
        if len(self._flop_out_idx):
            state = values[self._flop_out_idx]
            per_flop = state ^ spans.broadcast(spans.golden(state))
            corrupted = _machine_flags(
                np.bitwise_or.reduce(per_flop, axis=0), spans.n_lanes
            )
        return (spans.per_span(accumulator.error_cycles()),
                spans.per_span(accumulator.detection_cycle),
                spans.per_span(corrupted & ~observed))

    # ------------------------------------------------------------------
    # golden runs (one lane per workload)
    # ------------------------------------------------------------------
    def golden_stats(self, workloads: Sequence[Workload]) -> GoldenStats:
        """Accumulate per-net state/transition counts over workloads.

        The whole suite simulates in one pass: lane *w* replays
        workload *w* (see :class:`GoldenStats` for the layout), so a
        cycle costs one settle/commit however many workloads there
        are.  Lanes whose workload has ended keep running on zero
        inputs but are masked out of the counts.
        """
        reject_input_order(self.netlist, workloads)
        reject_zero_cycle(workloads)
        n_nets = self.netlist.n_nets
        ones_count = np.zeros(n_nets, dtype=np.int64)
        transition_count = np.zeros(n_nets, dtype=np.int64)
        lengths = np.array([w.cycles for w in workloads], dtype=np.int64)
        n_cycles = int(lengths.max()) if len(workloads) else 0

        bits = np.zeros((n_cycles, len(self._pi_idx), len(workloads)),
                        dtype=np.uint8)
        for lane, workload in enumerate(workloads):
            bits[:workload.cycles, :, lane] = workload.vectors
        stimulus = _pack_lanes(bits)  # (cycles, n_pi, n_words)
        live = _pack_lanes(
            (np.arange(n_cycles)[:, None] < lengths).astype(np.uint8)
        )  # (cycles, n_words): lanes whose workload is still running

        n_words = stimulus.shape[-1]
        scratch = self._scratch(n_words)
        values = np.zeros((n_nets, n_words), dtype=np.uint64)
        previous = np.empty_like(values)
        counted = np.empty_like(values)
        for cycle in range(n_cycles):
            values[self._pi_idx] = stimulus[cycle]
            self._settle(values, None, scratch)
            self._commit(values, None, scratch)
            np.bitwise_and(values, live[cycle], out=counted)
            ones_count += _lane_popcount(counted)
            if cycle:
                np.bitwise_xor(values, previous, out=counted)
                counted &= live[cycle]
                transition_count += _lane_popcount(counted)
            np.copyto(previous, values)
        return GoldenStats(
            net_names=[net.name for net in self.netlist.nets],
            ones_count=ones_count,
            transition_count=transition_count,
            cycles=int(lengths.sum()),
            workloads=len(workloads),
        )

    def run_drivers(
        self,
        drivers: Sequence[Driver],
        cycles: int,
        names: Sequence[str],
    ) -> List[Workload]:
        """Run closed-loop drivers in lockstep, one lane per driver.

        Driver *w* owns lane *w*: each cycle it sees only its own
        lane's previous-cycle primary outputs (``{}`` on cycle 0) and
        its requested inputs drive only its lane, so the recorded
        workloads equal what :meth:`repro.sim.simulator.Simulator.
        run_driver` records for each driver alone, at one settle/commit
        per cycle for the whole suite.  Inputs a driver leaves out are
        0 that cycle.
        """
        if len(names) != len(drivers):
            raise SimulationError(
                f"{len(drivers)} drivers but {len(names)} names"
            )
        if not drivers:
            return []
        column = {name: index for index, name in enumerate(self._pi_names)}
        po_names = self.netlist.output_names()
        vectors = np.zeros((len(drivers), cycles, len(self._pi_names)),
                           dtype=np.uint8)
        n_words = (len(drivers) + 63) // 64
        scratch = self._scratch(n_words)
        values = np.zeros((self.netlist.n_nets, n_words), dtype=np.uint64)
        observed: List[Dict[str, int]] = [{} for _ in drivers]
        for cycle in range(cycles):
            rows = vectors[:, cycle]
            for lane, driver in enumerate(drivers):
                row = rows[lane]
                for key, value in driver(cycle, observed[lane]).items():
                    index = column.get(key)
                    if index is None:
                        raise SimulationError(
                            f"driver produced unknown input {key!r}"
                        )
                    row[index] = 1 if value else 0
            values[self._pi_idx] = _pack_lanes(rows.T)
            self._settle(values, None, scratch)
            lanes = _unpack_lanes(values[self._po_idx], len(drivers))
            observed = [dict(zip(po_names, outputs))
                        for outputs in lanes.T.tolist()]
            self._commit(values, None, scratch)
        return [
            Workload(name=name, input_names=list(self._pi_names),
                     vectors=vectors[lane].copy())
            for lane, name in enumerate(names)
        ]

    def golden_outputs(self, workload: Workload) -> np.ndarray:
        """Golden primary-output trace, shape (cycles, n_outputs).

        Used by cross-check tests against the scalar simulator.
        """
        reject_input_order(self.netlist, [workload])
        values = np.zeros((self.netlist.n_nets, 1), dtype=np.uint64)
        outputs = np.zeros((workload.cycles, len(self._po_idx)),
                           dtype=np.uint8)
        scratch = self._scratch(1)
        stimulus = workload.vectors.astype(bool)
        for cycle in range(workload.cycles):
            self._apply_inputs(values, stimulus[cycle])
            self._settle(values, None, scratch)
            outputs[cycle] = (
                values[self._po_idx, 0] & np.uint64(1)
            ).astype(np.uint8)
            self._commit(values, None, scratch)
        return outputs

    # ------------------------------------------------------------------
    # fault campaign
    # ------------------------------------------------------------------
    def run_fault_passes(
        self,
        workloads: Sequence[Workload],
        fault_nets: np.ndarray,
        fault_values: np.ndarray,
        observation=None,
    ):
        """Simulate equal-length workloads against all faults in one
        bit-parallel pass.

        Workload *w* owns the lane span ``[w*(F+1), (w+1)*(F+1))`` for
        ``F`` faults: its golden machine on the span's first lane, then
        one machine per fault.  Each span replays its own workload and
        is compared with its own golden machine, so row *w* of the
        result equals a pass over workload *w* alone, at one
        settle/commit per cycle for the whole group.

        Args:
            workloads: Stimuli to replay; all must have the same cycle
                count.
            fault_nets: Net index per fault (the faulted gate's output).
            fault_values: Stuck-at value (0/1) per fault.
            observation: Optional
                :class:`repro.fi.observation.CompiledObservation`; when
                given, each output participates in the golden-vs-faulty
                comparison only on cycles where its strobe is active in
                the span's golden run.

        Returns:
            ``(error_cycles, detection_cycle, latent)``, each of shape
            ``(W, F)`` — per (workload, fault) count of cycles with a
            functional output mismatch, first-mismatch cycle (-1 when
            never), and end-of-run state-corruption flags for faults
            that never reached an output.
        """
        if not workloads:
            raise SimulationError("fault pass needs at least one workload")
        reject_input_order(self.netlist, workloads)
        cycles = sorted({workload.cycles for workload in workloads})
        if len(cycles) != 1:
            raise SimulationError(
                "packed fault pass requires equal workload cycle "
                f"counts, got {cycles}"
            )
        spans = _LaneSpans(len(workloads), len(fault_nets) + 1)
        n_words = spans.n_words
        clear, force = self._forcing_words(spans, fault_nets,
                                           fault_values)
        scratch = self._scratch(n_words)
        masks = _FaultMasks(self, clear, force, scratch)
        del clear
        accumulator = MismatchAccumulator(spans.n_lanes, n_words)

        # The stuck value holds from t=0: faulty nets (notably flop
        # outputs, whose forcing is otherwise applied at commit time)
        # start at their forced state rather than the reset state.
        values = force
        stimulus = np.stack(
            [workload.vectors for workload in workloads], axis=2
        ).astype(bool)  # (cycles, n_pi, W)

        for cycle in range(cycles[0]):
            values[self._pi_idx] = spans.broadcast(stimulus[cycle])
            self._settle(values, masks, scratch)
            mismatch = self._compare_outputs(values, observation,
                                             scratch, spans)
            accumulator.record(mismatch, cycle)
            self._commit(values, masks, scratch)
        return self._span_results(accumulator, values, spans)

    def _forcing_words(self, spans: _LaneSpans, fault_nets: np.ndarray,
                       fault_values: np.ndarray):
        """Packed ``(clear, force)`` net words: fault *f* of span *w*
        sits on lane ``w*size + 1 + f``."""
        lanes = (np.arange(spans.count)[:, None] * spans.size
                 + np.arange(1, spans.size)).ravel()
        words = lanes >> 6
        bit_masks = np.uint64(1) << (lanes & 63).astype(np.uint64)
        nets = np.tile(np.asarray(fault_nets, dtype=np.intp),
                       spans.count)
        stuck_one = np.tile(np.asarray(fault_values).astype(bool),
                            spans.count)
        clear = np.zeros((self.netlist.n_nets, spans.n_words),
                         dtype=np.uint64)
        force = np.zeros_like(clear)
        np.bitwise_or.at(clear, (nets, words), bit_masks)
        np.bitwise_or.at(
            force,
            (nets[stuck_one], words[stuck_one]),
            bit_masks[stuck_one],
        )
        return clear, force

    def run_fault_pass(
        self,
        workload: Workload,
        fault_nets: np.ndarray,
        fault_values: np.ndarray,
        observation=None,
    ):
        """:meth:`run_fault_passes` for one workload: per-fault
        ``(error_cycles, detection_cycle, latent)`` vectors."""
        return tuple(row[0] for row in self.run_fault_passes(
            [workload], fault_nets, fault_values,
            observation=observation,
        ))

    # ------------------------------------------------------------------
    # transient (SEU) campaign
    # ------------------------------------------------------------------
    def run_transient_pass(
        self,
        workload: Workload,
        fault_nets: np.ndarray,
        fault_cycles: np.ndarray,
        observation=None,
    ):
        """Simulate single-event upsets: one state-bit flip per machine.

        Machine *m* runs fault-free except that at the start of cycle
        ``fault_cycles[m-1]`` the flip-flop output net
        ``fault_nets[m-1]`` is inverted — the standard SEU model (soft
        errors strike state elements; combinational glitches are
        filtered unless captured).

        Returns ``(error_cycles, detection_cycle, latent)`` with the
        same semantics as :meth:`run_fault_pass`.
        """
        reject_input_order(self.netlist, [workload])
        n_faults = len(fault_nets)
        n_machines = n_faults + 1
        n_words = (n_machines + 63) // 64
        n_nets = self.netlist.n_nets

        flop_nets = set(int(net) for net in self._flop_out_idx)
        for net in fault_nets:
            if int(net) not in flop_nets:
                raise SimulationError(
                    "transient faults target flip-flop outputs only"
                )

        machine = np.arange(1, n_machines)
        words, bits = machine >> 6, machine & 63
        bit_masks = np.uint64(1) << bits.astype(np.uint64)

        # Group flips by injection cycle for O(1) lookup per cycle.
        flips_at: dict = {}
        for fault_index in range(n_faults):
            cycle = int(fault_cycles[fault_index])
            if not 0 <= cycle < workload.cycles:
                raise SimulationError(
                    f"injection cycle {cycle} outside the workload"
                )
            flips_at.setdefault(cycle, []).append(fault_index)

        scratch = self._scratch(n_words)
        spans = _LaneSpans(1, n_machines)
        accumulator = MismatchAccumulator(n_machines, n_words)
        values = np.zeros((n_nets, n_words), dtype=np.uint64)
        stimulus = workload.vectors.astype(bool)

        for cycle in range(workload.cycles):
            for fault_index in flips_at.get(cycle, ()):
                net = int(fault_nets[fault_index])
                word = int(words[fault_index])
                values[net, word] ^= bit_masks[fault_index]

            self._apply_inputs(values, stimulus[cycle])
            self._settle(values, None, scratch)
            mismatch = self._compare_outputs(values, observation,
                                             scratch, spans)
            accumulator.record(mismatch, cycle)
            self._commit(values, None, scratch)

        return tuple(row[0] for row in self._span_results(
            accumulator, values, spans
        ))


def _pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 lanes on the last axis into machine words: lane *w*
    becomes bit ``w % 64`` of word ``w // 64``; the unused tail of the
    last word is 0."""
    n_lanes = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (64 * ((n_lanes + 63) // 64),),
                      dtype=np.uint8)
    padded[..., :n_lanes] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view(np.uint64)


def _unpack_lanes(words: np.ndarray, n_lanes: int) -> np.ndarray:
    """Inverse of :func:`_pack_lanes`: (..., n_words) -> (..., n_lanes)."""
    bits = np.unpackbits(np.ascontiguousarray(words).view(np.uint8),
                         axis=-1, bitorder="little")
    return bits[..., :n_lanes]


def _lane_popcount(words: np.ndarray) -> np.ndarray:
    """Set lanes per row of packed words, shape (rows, n_words)."""
    return np.unpackbits(words.view(np.uint8), axis=1).sum(
        axis=1, dtype=np.int64
    )


def _machine_flags(mask_words: np.ndarray, n_machines: int) -> np.ndarray:
    """Expand packed machine-mask words into a boolean vector."""
    bytes_view = mask_words.view(np.uint8)
    bits = np.unpackbits(bytes_view, bitorder="little")
    return bits[:n_machines].astype(bool)
