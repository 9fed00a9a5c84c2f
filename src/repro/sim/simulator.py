"""Scalar cycle-accurate logic simulator (reference oracle).

This is the readable, obviously-correct simulator the bit-parallel
engine (:mod:`repro.sim.bitparallel`) is cross-checked against in the
test suite.  It is the oracle, not the generator: the production paths
(golden statistics, closed-loop workload recording, fault campaigns)
all run on the bit-parallel engine, which packs one workload or driver
per machine-word lane.  :meth:`Simulator.run_driver` records one
closed-loop driver — a Python model of a bus, a cache, or a host that
reacts to the design's outputs each cycle — into a replayable
:class:`Workload`; the test suite checks that
:meth:`~repro.sim.bitparallel.BitParallelSimulator.run_drivers`
records bitwise the same stimulus for every lane.

Semantics: single implicit clock; all flip-flops sample on the cycle
boundary; combinational logic settles instantly (zero-delay model);
state initializes to 0 (architectural reset values are realized
structurally, see ``_register_with_reset_value``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.waveform import Trace, Workload
from repro.utils.errors import SimulationError

#: A closed-loop stimulus driver: ``driver(cycle, outputs)`` returns the
#: ``{input_name: 0/1}`` values to apply this cycle, where ``outputs``
#: holds the previous cycle's primary-output values (empty on cycle 0).
Driver = Callable[[int, Dict[str, int]], Mapping[str, int]]


class Simulator:
    """Event-free, levelized scalar simulator for one netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._order = [
            netlist.gates[index]
            for index in netlist.topological_order()
            if not netlist.gates[index].is_sequential
        ]
        self._flops = netlist.sequential_gates()
        self._pi_nets = netlist.input_nets()
        self._pi_names = netlist.input_names()
        self._po_nets = [net for net, _ in netlist.primary_outputs]
        self._po_names = netlist.output_names()
        self.reset()

    def reset(self) -> None:
        """Clear all state and net values to 0."""
        self._values = [0] * self.netlist.n_nets

    def step(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Advance one clock cycle.

        Applies ``inputs`` (missing inputs hold their previous value),
        settles combinational logic, returns the primary-output values
        for this cycle, then commits flip-flop next-states.
        """
        values = self._values
        for name, net in zip(self._pi_names, self._pi_nets):
            if name in inputs:
                values[net] = 1 if inputs[name] else 0
        unknown = set(inputs) - set(self._pi_names)
        if unknown:
            raise SimulationError(f"unknown inputs {sorted(unknown)}")

        for gate in self._order:
            values[gate.output] = gate.cell.function(
                [values[net] for net in gate.inputs], 1
            )

        outputs = {
            name: values[net]
            for net, name in zip(self._po_nets, self._po_names)
        }

        next_states = [
            gate.cell.function([values[net] for net in gate.inputs], 1)
            for gate in self._flops
        ]
        for gate, state in zip(self._flops, next_states):
            values[gate.output] = state
        return outputs

    def run(self, workload: Workload, record_nets: bool = False) -> Trace:
        """Replay a workload from reset; returns the output trace.

        With ``record_nets=True`` the trace additionally captures every
        net's settled value per cycle (used by feature extraction and
        by simulator cross-checks).
        """
        if workload.input_names != self._pi_names:
            raise SimulationError(
                f"workload {workload.name!r} input order does not match "
                f"netlist {self.netlist.name!r}"
            )
        self.reset()
        outputs = np.zeros((workload.cycles, len(self._po_nets)),
                           dtype=np.uint8)
        net_values = (
            np.zeros((workload.cycles, self.netlist.n_nets), dtype=np.uint8)
            if record_nets else None
        )
        for cycle in range(workload.cycles):
            row = dict(zip(self._pi_names, workload.vectors[cycle]))
            observed = self.step(row)
            outputs[cycle] = [observed[name] for name in self._po_names]
            if net_values is not None:
                # Captured after the flop commit: sequential nets show
                # their *new* state, matching the bit-parallel engine's
                # state snapshot, while combinational nets show the
                # settled value of this cycle.
                net_values[cycle] = self._values
        return Trace(
            workload=workload.name,
            output_names=list(self._po_names),
            outputs=outputs,
            net_values=net_values,
            net_names=[net.name for net in self.netlist.nets]
            if record_nets else None,
        )

    def run_driver(
        self,
        driver: Driver,
        cycles: int,
        name: str = "driver",
    ) -> Workload:
        """Run closed-loop with ``driver`` and record the stimulus.

        The returned :class:`Workload` replays open-loop to exactly the
        same behaviour (the design is deterministic), which is what the
        fault-injection campaign requires: identical stimulus against
        golden and faulty machines.
        """
        self.reset()
        vectors = np.zeros((cycles, len(self._pi_names)), dtype=np.uint8)
        observed: Dict[str, int] = {}
        for cycle in range(cycles):
            requested = driver(cycle, observed)
            row = {name: 0 for name in self._pi_names}
            for key, value in requested.items():
                if key not in row:
                    raise SimulationError(
                        f"driver produced unknown input {key!r}"
                    )
                row[key] = 1 if value else 0
            vectors[cycle] = [row[name] for name in self._pi_names]
            observed = self.step(row)
        return Workload(name=name, input_names=list(self._pi_names),
                        vectors=vectors)
