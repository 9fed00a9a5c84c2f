"""Workload generation.

The paper trains on fault-injection results aggregated over *diverse
workloads*.  This module provides that diversity for each evaluation
design: protocol-aware closed-loop drivers (a host issuing memory
requests, a cache answering fetches, a bus interface delivering refill
beats) recorded into replayable vectors, plus constrained-random
stimulus for generic designs.

Every generator starts with a reset pulse and is fully deterministic
given its seed.  Each protocol generator is a driver factory
(``*_driver``) plus a recording call: a design's suite builds all of
its drivers and records them in one lockstep bit-parallel pass
(:meth:`~repro.sim.bitparallel.BitParallelSimulator.run_drivers`, one
lane per driver), and the single-workload ``*_workload`` functions
record one driver the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.bitparallel import BitParallelSimulator
from repro.sim.simulator import Driver
from repro.sim.waveform import Workload
from repro.utils.rng import SeedLike, derive_rng

DEFAULT_CYCLES = 200


def random_workload(
    netlist: Netlist,
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    name: Optional[str] = None,
    reset_input: str = "reset",
    reset_cycles: int = 2,
    hold: int = 1,
    bias: float = 0.5,
) -> Workload:
    """Constrained-random stimulus: reset pulse, then random inputs.

    ``hold`` keeps each random vector stable for that many cycles
    (slower workloads exercise sequential behaviour differently), and
    ``bias`` sets P(bit == 1).
    """
    rng = derive_rng(seed, "random_workload", netlist.name)
    input_names = netlist.input_names()
    vectors = np.zeros((cycles, len(input_names)), dtype=np.uint8)
    cycle = reset_cycles
    while cycle < cycles:
        row = (rng.random(len(input_names)) < bias).astype(np.uint8)
        for repeat in range(hold):
            if cycle + repeat < cycles:
                vectors[cycle + repeat] = row
        cycle += hold
    if reset_input in input_names:
        reset_column = input_names.index(reset_input)
        vectors[:reset_cycles, :] = 0
        vectors[:reset_cycles, reset_column] = 1
        vectors[reset_cycles:, reset_column] = 0
    return Workload(
        name=name or f"random[{seed}]",
        input_names=input_names,
        vectors=vectors,
    )


# ----------------------------------------------------------------------
# SDRAM controller host driver
# ----------------------------------------------------------------------
def sdram_driver(
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    request_rate: float = 0.4,
    write_fraction: float = 0.5,
    address_bits: int = 22,
) -> Driver:
    """Host traffic for the SDRAM controller.

    Models a memory client: after reset it issues read/write requests
    with random addresses at ``request_rate``, holding ``req`` asserted
    until the controller acknowledges, then idling a random gap.
    """
    rng = derive_rng(seed, "sdram_workload", str(cycles))
    state: Dict[str, int] = {"phase": 0, "gap": 0, "addr": 0, "we": 0}

    def driver(cycle: int, outputs: Dict[str, int]) -> Dict[str, int]:
        row: Dict[str, int] = {"reset": 1 if cycle < 2 else 0}
        if cycle < 2:
            return row
        if state["phase"] == 1 and outputs.get("ack"):
            state["phase"] = 0
            state["gap"] = int(rng.integers(0, 6))
        if state["phase"] == 0:
            if state["gap"] > 0:
                state["gap"] -= 1
            elif rng.random() < request_rate:
                state["phase"] = 1
                state["addr"] = int(rng.integers(1 << address_bits))
                state["we"] = int(rng.random() < write_fraction)
        if state["phase"] == 1:
            row["req"] = 1
            row["we"] = state["we"]
            for bit in range(address_bits):
                row[f"haddr_{bit}"] = (state["addr"] >> bit) & 1
        return row

    return driver


def sdram_workload(
    netlist: Netlist,
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    name: Optional[str] = None,
    **profile,
) -> Workload:
    """One :func:`sdram_driver` run recorded as a workload."""
    [workload] = BitParallelSimulator(netlist).run_drivers(
        [sdram_driver(cycles, seed, **profile)], cycles,
        [name or f"sdram_host[{seed}]"],
    )
    return workload


# ----------------------------------------------------------------------
# OR1200 IF-stage cache/pipeline driver
# ----------------------------------------------------------------------
_OR1K_OPCODES = (
    0x00,  # l.j
    0x01,  # l.jal
    0x03,  # l.bnf
    0x04,  # l.bf
    0x05,  # l.nop
    0x06,  # l.movhi
    0x21,  # l.lwz
    0x35,  # l.sw
    0x38,  # l.add family
)


def or1200_if_driver(
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    hit_rate: float = 0.7,
    branch_rate: float = 0.15,
    stall_rate: float = 0.1,
    error_rate: float = 0.02,
    exception_rate: float = 0.02,
) -> Driver:
    """Instruction-cache plus pipeline-backpressure traffic for the IF
    stage: variable-latency acks, realistic OR1K opcodes, taken
    branches, stalls, occasional bus errors and exception redirects.
    """
    rng = derive_rng(seed, "or1200_if_workload", str(cycles))
    state = {"latency": 0}

    def driver(cycle: int, outputs: Dict[str, int]) -> Dict[str, int]:
        row: Dict[str, int] = {"reset": 1 if cycle < 2 else 0}
        if cycle < 2:
            return row
        stalled = rng.random() < stall_rate
        row["stall"] = int(stalled)

        if state["latency"] == 0:
            if rng.random() < hit_rate:
                state["latency"] = 1  # answer this cycle
            else:
                state["latency"] = int(rng.integers(2, 5))
        if state["latency"] == 1:
            if rng.random() < error_rate:
                row["icpu_err"] = 1
            else:
                row["icpu_ack"] = 1
                opcode = int(
                    _OR1K_OPCODES[rng.integers(len(_OR1K_OPCODES))]
                )
                word = (opcode << 26) | int(rng.integers(1 << 26))
                for bit in range(32):
                    row[f"icpu_dat_{bit}"] = (word >> bit) & 1
            state["latency"] = 0
        else:
            state["latency"] -= 1

        if rng.random() < branch_rate:
            row["branch_taken"] = 1
            target = int(rng.integers(1 << 30)) << 2  # word-aligned
            for bit in range(32):
                row[f"branch_addr_{bit}"] = (target >> bit) & 1
        if rng.random() < exception_rate:
            row["except_start"] = 1
            cause = int(rng.integers(1, 8))
            for bit in range(3):
                row[f"except_type_{bit}"] = (cause >> bit) & 1
        return row

    return driver


def or1200_if_workload(
    netlist: Netlist,
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    name: Optional[str] = None,
    **profile,
) -> Workload:
    """One :func:`or1200_if_driver` run recorded as a workload."""
    [workload] = BitParallelSimulator(netlist).run_drivers(
        [or1200_if_driver(cycles, seed, **profile)], cycles,
        [name or f"or1200_if[{seed}]"],
    )
    return workload


# ----------------------------------------------------------------------
# OR1200 ICFSM driver
# ----------------------------------------------------------------------
def icfsm_driver(
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    hit_rate: float = 0.6,
    inhibit_rate: float = 0.08,
    error_rate: float = 0.03,
    invalidate_rate: float = 0.02,
    fetch_rate: float = 0.75,
) -> Driver:
    """CPU fetch stream plus bus-interface responses for the cache FSM.

    Models the CPU side (strobes with random addresses, occasional
    cache-inhibited regions and invalidations) and the memory side
    (refill beats with variable latency, occasional bus errors).  Tag
    lookups answer with one of the two ways matching at ``hit_rate``.
    """
    rng = derive_rng(seed, "icfsm_workload", str(cycles))
    state = {"beat_wait": 0, "addr": 0, "fetching": 0}

    def disturbed(tag: int) -> int:
        return (tag ^ (1 + int(rng.integers(0xFF)))) & 0xFF

    def driver(cycle: int, outputs: Dict[str, int]) -> Dict[str, int]:
        row: Dict[str, int] = {"reset": 1 if cycle < 2 else 0}
        if cycle < 2:
            return row
        row["ic_en"] = 1

        if not state["fetching"] and rng.random() < fetch_rate:
            state["fetching"] = 1
            state["addr"] = int(rng.integers(1 << 14))
        if state["fetching"]:
            row["cycstb"] = 1
            for bit in range(14):
                row[f"addr_{bit}"] = (state["addr"] >> bit) & 1
            row["ci"] = int(rng.random() < inhibit_rate)
            if outputs.get("ack"):
                state["fetching"] = 0

        # Tag-array response: on a hit, one of the two ways matches the
        # request tag; the other (and both, on a miss) reads disturbed.
        tag = (state["addr"] >> 6) & 0xFF
        if rng.random() < hit_rate:
            if rng.random() < 0.5:
                way_tags = (tag, disturbed(tag))
            else:
                way_tags = (disturbed(tag), tag)
        else:
            way_tags = (disturbed(tag), disturbed(tag))
        for way, way_tag in enumerate(way_tags):
            for bit in range(8):
                row[f"tag{way}_in_{bit}"] = (way_tag >> bit) & 1
            row[f"tag{way}_v_in"] = int(rng.random() < 0.9)

        # Bus interface: when the FSM requests, deliver beats with
        # 1-3 cycle latency; rare errors.
        if outputs.get("biu_req"):
            if state["beat_wait"] == 0:
                state["beat_wait"] = int(rng.integers(1, 4))
            state["beat_wait"] -= 1
            if state["beat_wait"] == 0:
                if rng.random() < error_rate:
                    row["biudata_err"] = 1
                else:
                    row["biudata_valid"] = 1
        else:
            state["beat_wait"] = 0

        row["invalidate"] = int(rng.random() < invalidate_rate)
        return row

    return driver


def icfsm_workload(
    netlist: Netlist,
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    name: Optional[str] = None,
    **profile,
) -> Workload:
    """One :func:`icfsm_driver` run recorded as a workload."""
    [workload] = BitParallelSimulator(netlist).run_drivers(
        [icfsm_driver(cycles, seed, **profile)], cycles,
        [name or f"icfsm[{seed}]"],
    )
    return workload


# ----------------------------------------------------------------------
# UART loopback driver
# ----------------------------------------------------------------------
def uart_driver(
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    send_rate: float = 0.6,
    noise_rate: float = 0.0,
    break_rate: float = 0.0,
) -> Driver:
    """Loopback traffic for the UART: the driver echoes ``txd`` back
    into ``rxd`` (a physical loopback plug), sends random bytes whenever
    the transmitter is free, and optionally injects line noise (bit
    flips) or break conditions (line held low)."""
    rng = derive_rng(seed, "uart_workload", str(cycles))
    state = {"breaking": 0}

    def driver(cycle: int, outputs: Dict[str, int]) -> Dict[str, int]:
        row: Dict[str, int] = {"reset": 1 if cycle < 2 else 0, "rxd": 1}
        if cycle < 2:
            return row
        line = outputs.get("txd", 1)
        if state["breaking"] > 0:
            state["breaking"] -= 1
            line = 0
        elif break_rate and rng.random() < break_rate:
            state["breaking"] = int(rng.integers(3, 10))
            line = 0
        elif noise_rate and rng.random() < noise_rate:
            line ^= 1
        row["rxd"] = line

        if not outputs.get("tx_busy") and rng.random() < send_rate:
            row["tx_start"] = 1
            byte = int(rng.integers(256))
            for bit in range(8):
                row[f"tx_data_{bit}"] = (byte >> bit) & 1
        return row

    return driver


def uart_workload(
    netlist: Netlist,
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
    name: Optional[str] = None,
    **profile,
) -> Workload:
    """One :func:`uart_driver` run recorded as a workload."""
    [workload] = BitParallelSimulator(netlist).run_drivers(
        [uart_driver(cycles, seed, **profile)], cycles,
        [name or f"uart[{seed}]"],
    )
    return workload


def _uart_suite(netlist, count, cycles, seed):
    """Loopback traffic mixes: clean streams at varied rates, noisy
    lines, and break storms."""
    profiles = [
        dict(send_rate=0.8, noise_rate=0.0, break_rate=0.0),   # busy clean
        dict(send_rate=0.2, noise_rate=0.0, break_rate=0.0),   # sparse
        dict(send_rate=0.6, noise_rate=0.02, break_rate=0.0),  # noisy line
        dict(send_rate=0.5, noise_rate=0.0, break_rate=0.02),  # breaks
        dict(send_rate=0.9, noise_rate=0.01, break_rate=0.01), # stressed
        dict(send_rate=0.4, noise_rate=0.0, break_rate=0.0),   # moderate
    ]
    return _profile_suite(netlist, count, cycles, seed, uart_driver,
                          profiles, lambda index, _: f"uart[{index}]")


def design_workloads(
    design_name: str,
    netlist: Netlist,
    count: int = 10,
    cycles: int = DEFAULT_CYCLES,
    seed: SeedLike = 0,
) -> List[Workload]:
    """The standard diverse workload suite for one evaluation design.

    Mixes the design's protocol driver across varied parameters with a
    couple of constrained-random workloads, mirroring the "diverse
    application workloads" of the paper's campaigns.
    """
    generators = {
        "sdram_controller": _sdram_suite,
        "or1200_if": _or1200_if_suite,
        "or1200_icfsm": _icfsm_suite,
        "uart": _uart_suite,
    }
    generator = generators.get(design_name, _generic_suite)
    return generator(netlist, count, cycles, seed)


def _sdram_suite(netlist, count, cycles, seed):
    """Mode-skewed host applications: read-only streaming, write-heavy
    bursts, sparse accesses, an idle refresh-dominated phase, and mixed
    traffic — different applications stress different logic cones, so
    node criticality genuinely depends on the workload mix."""
    profiles = [
        dict(request_rate=0.6, write_fraction=0.0),   # read streaming
        dict(request_rate=0.6, write_fraction=1.0),   # write bursts
        dict(request_rate=0.1, write_fraction=0.5),   # sparse mixed
        dict(request_rate=0.0, write_fraction=0.0),   # idle / refresh only
        dict(request_rate=0.4, write_fraction=0.25),  # read-mostly mix
        dict(request_rate=0.4, write_fraction=0.75),  # write-mostly mix
        dict(request_rate=0.9, write_fraction=0.5),   # saturating mix
        dict(request_rate=0.25, write_fraction=0.0),  # light reads
    ]
    return _profile_suite(
        netlist, count, cycles, seed, sdram_driver, profiles,
        lambda index, profile: f"sdram[{index}]"
        f"(rq={profile['request_rate']},wr={profile['write_fraction']})",
    )


def _or1200_if_suite(netlist, count, cycles, seed):
    """Mode-skewed instruction streams: straight-line code (no
    branches), branchy code, stall-heavy backpressure, an error-prone
    bus, exception storms, and clean high-hit-rate fetch."""
    profiles = [
        dict(hit_rate=0.95, branch_rate=0.0, stall_rate=0.0,
             error_rate=0.0, exception_rate=0.0),     # straight-line
        dict(hit_rate=0.8, branch_rate=0.35, stall_rate=0.0,
             error_rate=0.0, exception_rate=0.0),     # branchy
        dict(hit_rate=0.7, branch_rate=0.1, stall_rate=0.4,
             error_rate=0.0, exception_rate=0.0),     # stall-heavy
        dict(hit_rate=0.4, branch_rate=0.05, stall_rate=0.05,
             error_rate=0.15, exception_rate=0.0),    # flaky bus
        dict(hit_rate=0.8, branch_rate=0.05, stall_rate=0.05,
             error_rate=0.0, exception_rate=0.2),     # exception storm
        dict(hit_rate=0.3, branch_rate=0.0, stall_rate=0.0,
             error_rate=0.0, exception_rate=0.0),     # slow memory
        dict(hit_rate=0.9, branch_rate=0.15, stall_rate=0.1,
             error_rate=0.02, exception_rate=0.02),   # realistic mix
        dict(hit_rate=0.6, branch_rate=0.25, stall_rate=0.25,
             error_rate=0.05, exception_rate=0.05),   # stressed mix
    ]
    return _profile_suite(netlist, count, cycles, seed, or1200_if_driver,
                          profiles, lambda index, _: f"or1200_if[{index}]")


def _icfsm_suite(netlist, count, cycles, seed):
    """Mode-skewed fetch traffic: hot loops (all hits), cold-start miss
    storms, cache-inhibited regions, invalidation-heavy phases, and a
    flaky bus."""
    profiles = [
        dict(hit_rate=0.98, fetch_rate=0.9, inhibit_rate=0.0,
             error_rate=0.0, invalidate_rate=0.0),    # hot loop
        dict(hit_rate=0.1, fetch_rate=0.8, inhibit_rate=0.0,
             error_rate=0.0, invalidate_rate=0.0),    # cold misses
        dict(hit_rate=0.6, fetch_rate=0.7, inhibit_rate=0.5,
             error_rate=0.0, invalidate_rate=0.0),    # uncached region
        dict(hit_rate=0.7, fetch_rate=0.6, inhibit_rate=0.05,
             error_rate=0.0, invalidate_rate=0.3),    # invalidation storm
        dict(hit_rate=0.5, fetch_rate=0.7, inhibit_rate=0.05,
             error_rate=0.2, invalidate_rate=0.0),    # flaky bus
        dict(hit_rate=0.4, fetch_rate=0.2, inhibit_rate=0.05,
             error_rate=0.0, invalidate_rate=0.02),   # sparse fetches
        dict(hit_rate=0.7, fetch_rate=0.8, inhibit_rate=0.08,
             error_rate=0.03, invalidate_rate=0.02),  # realistic mix
        dict(hit_rate=0.3, fetch_rate=0.9, inhibit_rate=0.15,
             error_rate=0.08, invalidate_rate=0.08),  # stressed mix
    ]
    return _profile_suite(netlist, count, cycles, seed, icfsm_driver,
                          profiles, lambda index, _: f"icfsm[{index}]")


def _profile_suite(netlist, count, cycles, seed, factory, profiles, label):
    """Driver ``index`` runs ``profiles[index % len(profiles)]`` with
    seed ``(seed, index)``; the whole suite records in one pass."""
    chosen = [profiles[index % len(profiles)] for index in range(count)]
    drivers = [factory(cycles, (seed, index), **profile)
               for index, profile in enumerate(chosen)]
    names = [label(index, profile) for index, profile in enumerate(chosen)]
    return BitParallelSimulator(netlist).run_drivers(drivers, cycles, names)


def _generic_suite(netlist, count, cycles, seed):
    return [
        random_workload(
            netlist, cycles, seed=(seed, index),
            hold=1 + index % 3, bias=0.3 + 0.1 * (index % 4),
            name=f"random[{index}]",
        )
        for index in range(count)
    ]
