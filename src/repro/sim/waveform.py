"""Simulation traces and stimulus containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.netlist.netlist import Netlist
from repro.utils.errors import SimulationError


@dataclass
class Workload:
    """A named input stimulus: one vector of primary-input values per
    cycle, columns ordered like ``netlist.input_names()``.

    The paper's FI methodology replays identical workloads against the
    golden and every faulty machine, so workloads are stored as plain
    replayable arrays even when generated closed-loop.
    """

    name: str
    input_names: List[str]
    vectors: np.ndarray  # uint8, shape (cycles, n_inputs)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.uint8)
        if self.vectors.ndim != 2:
            raise SimulationError("workload vectors must be 2-D")
        if self.vectors.shape[1] != len(self.input_names):
            raise SimulationError(
                f"workload {self.name!r}: {self.vectors.shape[1]} columns "
                f"vs {len(self.input_names)} input names"
            )
        if self.vectors.size and self.vectors.max() > 1:
            raise SimulationError("workload vectors must be 0/1")

    @property
    def cycles(self) -> int:
        return int(self.vectors.shape[0])

    @classmethod
    def from_dicts(
        cls,
        name: str,
        netlist: Netlist,
        rows: Sequence[Mapping[str, int]],
        default: int = 0,
    ) -> "Workload":
        """Build a workload from per-cycle ``{input_name: value}`` dicts.

        Unmentioned inputs take ``default``.  Unknown names raise.
        """
        input_names = netlist.input_names()
        known = set(input_names)
        vectors = np.full((len(rows), len(input_names)), default,
                          dtype=np.uint8)
        for cycle, row in enumerate(rows):
            for key, value in row.items():
                if key not in known:
                    raise SimulationError(
                        f"workload {name!r}: unknown input {key!r}"
                    )
                vectors[cycle, input_names.index(key)] = 1 if value else 0
        return cls(name=name, input_names=input_names, vectors=vectors)

    def column(self, input_name: str) -> np.ndarray:
        """The per-cycle values of one named input."""
        try:
            index = self.input_names.index(input_name)
        except ValueError:
            raise SimulationError(
                f"workload {self.name!r}: unknown input {input_name!r}"
            ) from None
        return self.vectors[:, index]


def reject_zero_cycle(workloads: Sequence[Workload]) -> None:
    """Raise on workloads with no cycles: they have no error rate and
    would still count toward every per-workload denominator."""
    empty = [workload.name for workload in workloads
             if workload.cycles == 0]
    if empty:
        raise SimulationError(
            "zero-cycle workloads have no error rate: "
            + ", ".join(empty)
        )


def reject_input_order(netlist: Netlist,
                       workloads: Sequence[Workload]) -> None:
    """Raise on the first workload whose input columns are not in the
    netlist's primary-input order."""
    inputs = netlist.input_names()
    for workload in workloads:
        if workload.input_names != inputs:
            raise SimulationError(
                f"workload {workload.name!r} input order does not "
                f"match netlist {netlist.name!r}"
            )


@dataclass
class Trace:
    """Recorded behaviour of one simulation run."""

    workload: str
    output_names: List[str]
    outputs: np.ndarray  # uint8, shape (cycles, n_outputs)
    #: optional full per-net values, shape (cycles, n_nets)
    net_values: Optional[np.ndarray] = None
    net_names: Optional[List[str]] = None

    @property
    def cycles(self) -> int:
        return int(self.outputs.shape[0])

    def output(self, name: str) -> np.ndarray:
        """Per-cycle values of one named output."""
        try:
            index = self.output_names.index(name)
        except ValueError:
            raise SimulationError(f"unknown output {name!r}") from None
        return self.outputs[:, index]

    def output_word(self, prefix: str) -> np.ndarray:
        """Reassemble a bus exported as ``prefix_0..prefix_{w-1}`` into
        per-cycle integers (LSB = ``prefix_0``)."""
        columns = [
            (int(name[len(prefix) + 1:]), position)
            for position, name in enumerate(self.output_names)
            if name.startswith(prefix + "_")
            and name[len(prefix) + 1:].isdigit()
        ]
        if not columns:
            raise SimulationError(f"no outputs with prefix {prefix!r}")
        word = np.zeros(self.cycles, dtype=np.int64)
        for bit, position in columns:
            word |= self.outputs[:, position].astype(np.int64) << bit
        return word
