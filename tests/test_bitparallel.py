"""Tests for the bit-parallel engine: equivalence with the scalar
reference simulator, golden statistics, and fault semantics."""

import numpy as np
import pytest

from repro.circuits import CircuitBuilder, random_netlist
from repro.netlist import Netlist
from repro.sim import (
    BitParallelSimulator,
    Simulator,
    random_workload,
)
from repro.fi.faults import full_fault_universe


@pytest.mark.parametrize("seed", range(6))
def test_golden_outputs_match_scalar_on_random_designs(seed):
    netlist = random_netlist(n_inputs=6, n_gates=50, n_flops=6,
                             n_outputs=5, seed=seed)
    workload = random_workload(netlist, cycles=40, seed=seed,
                               reset_input="in_0")
    scalar = Simulator(netlist).run(workload)
    packed = BitParallelSimulator(netlist).golden_outputs(workload)
    assert np.array_equal(scalar.outputs, packed)


def test_golden_outputs_match_scalar_on_designs(all_designs):
    for design in all_designs:
        workload = random_workload(design, cycles=50, seed=1)
        scalar = Simulator(design).run(workload)
        packed = BitParallelSimulator(design).golden_outputs(workload)
        assert np.array_equal(scalar.outputs, packed)


def test_golden_stats_match_scalar_trace(icfsm):
    workload = random_workload(icfsm, cycles=60, seed=2)
    trace = Simulator(icfsm).run(workload, record_nets=True)
    stats = BitParallelSimulator(icfsm).golden_stats([workload])
    ones = trace.net_values.sum(axis=0)
    assert np.array_equal(stats.ones_count, ones)
    transitions = (np.diff(trace.net_values, axis=0) != 0).sum(axis=0)
    assert np.array_equal(stats.transition_count, transitions)
    assert stats.cycles == 60
    probability = stats.state_probability_one
    assert probability.min() >= 0.0 and probability.max() <= 1.0
    assert np.allclose(
        stats.state_probability_zero, 1.0 - probability
    )


def test_golden_stats_accumulate_workloads(icfsm):
    w1 = random_workload(icfsm, cycles=30, seed=1)
    w2 = random_workload(icfsm, cycles=20, seed=2)
    stats = BitParallelSimulator(icfsm).golden_stats([w1, w2])
    assert stats.cycles == 50
    assert stats.workloads == 2


def scalar_golden_counts(netlist, workloads):
    """Per-net ones/transition counts from one scalar run per workload
    — the oracle for the lane-packed golden pass."""
    ones = np.zeros(netlist.n_nets, dtype=np.int64)
    transitions = np.zeros(netlist.n_nets, dtype=np.int64)
    simulator = Simulator(netlist)
    for workload in workloads:
        nets = simulator.run(workload, record_nets=True).net_values
        ones += nets.sum(axis=0, dtype=np.int64)
        transitions += (np.diff(nets, axis=0) != 0).sum(axis=0)
    return ones, transitions


def test_golden_stats_mixed_cycle_counts_match_scalar(icfsm):
    # Lanes end at different cycles, including a one-cycle workload
    # that contributes ones but no transitions.
    workloads = [
        random_workload(icfsm, cycles=cycles, seed=index,
                        name=f"w{index}")
        for index, cycles in enumerate([40, 1, 17, 63, 2])
    ]
    stats = BitParallelSimulator(icfsm).golden_stats(workloads)
    ones, transitions = scalar_golden_counts(icfsm, workloads)
    assert np.array_equal(stats.ones_count, ones)
    assert np.array_equal(stats.transition_count, transitions)
    assert stats.cycles == 123
    assert stats.workloads == 5


def test_golden_stats_multi_word_lanes_match_scalar():
    # 70 workloads need two machine words of lanes.
    netlist = random_netlist(n_inputs=5, n_gates=40, n_flops=5,
                             n_outputs=3, seed=8)
    workloads = [
        random_workload(netlist, cycles=3 + index % 11, seed=index,
                        reset_input="in_0", name=f"w{index}")
        for index in range(70)
    ]
    stats = BitParallelSimulator(netlist).golden_stats(workloads)
    ones, transitions = scalar_golden_counts(netlist, workloads)
    assert np.array_equal(stats.ones_count, ones)
    assert np.array_equal(stats.transition_count, transitions)
    assert stats.cycles == sum(w.cycles for w in workloads)


def test_golden_stats_rejects_zero_cycle_workloads():
    # A zero-cycle workload would still count toward the transition
    # denominator (cycles - workloads) and skew every probability.
    from repro.circuits import build_uart
    from repro.sim import Workload, design_workloads
    from repro.utils.errors import SimulationError

    uart = build_uart()
    suite = design_workloads(uart.name, uart, count=1, cycles=50, seed=0)
    empty = Workload("empty", uart.input_names(),
                     np.zeros((0, uart.n_inputs), dtype=np.uint8))
    simulator = BitParallelSimulator(uart)
    with pytest.raises(SimulationError,
                       match="zero-cycle workloads.*empty"):
        simulator.golden_stats(suite + [empty])
    stats = simulator.golden_stats(suite)
    assert stats.cycles - stats.workloads == 49


def scalar_run_drivers(self, drivers, cycles, names):
    """Reference for :meth:`BitParallelSimulator.run_drivers`: one
    scalar closed-loop run per driver."""
    return [Simulator(self.netlist).run_driver(driver, cycles, name=name)
            for driver, name in zip(drivers, names)]


@pytest.mark.parametrize("design", ["sdram", "or1200_if", "or1200_icfsm",
                                    "uart"])
def test_run_drivers_matches_scalar_on_builtin_suites(design, monkeypatch):
    from repro.circuits import build_design
    from repro.sim import design_workloads

    netlist = build_design(design)
    packed = design_workloads(netlist.name, netlist, count=9, cycles=60,
                              seed=3)
    monkeypatch.setattr(BitParallelSimulator, "run_drivers",
                        scalar_run_drivers)
    scalar = design_workloads(netlist.name, netlist, count=9, cycles=60,
                              seed=3)
    assert [w.name for w in packed] == [w.name for w in scalar]
    for ours, reference in zip(packed, scalar):
        assert ours.input_names == reference.input_names
        assert ours.vectors.dtype == reference.vectors.dtype
        assert np.array_equal(ours.vectors, reference.vectors)


def test_run_drivers_lanes_see_only_their_own_outputs(tiny_netlist):
    # Lane w drives a = b = (w is odd); each driver must observe its
    # own lane's previous-cycle y, and nothing on cycle 0.
    seen = {lane: [] for lane in range(4)}

    def make(lane):
        def driver(cycle, outputs):
            seen[lane].append(dict(outputs))
            return {"a": lane % 2, "b": lane % 2}
        return driver

    workloads = BitParallelSimulator(tiny_netlist).run_drivers(
        [make(lane) for lane in range(4)], 3, [f"d{i}" for i in range(4)]
    )
    for lane in range(4):
        level = lane % 2
        assert seen[lane][0] == {}
        assert seen[lane][1:] == [{"y": level, "yn": 1 - level}] * 2
        assert workloads[lane].vectors.tolist() == [[level, level]] * 3


def test_run_drivers_rejects_unknown_inputs(tiny_netlist):
    from repro.utils.errors import SimulationError

    drivers = [lambda cycle, outputs: {"a": 1},
               lambda cycle, outputs: {"a": 1, "bogus_pin": 1}]
    with pytest.raises(SimulationError, match="unknown input 'bogus_pin'"):
        BitParallelSimulator(tiny_netlist).run_drivers(
            drivers, 3, ["ok", "bad"]
        )


def faulty_netlist_outputs(netlist, gate_index, stuck_at, workload):
    """Scalar simulation with one gate's function replaced by a tie —
    the independent reference for fault semantics.  The stuck value
    holds from t=0 (a stuck net has no reset state), so the initial
    value is forced as well."""
    import numpy as np

    from repro.netlist.cells import Cell

    broken = Simulator(netlist)
    gate = netlist.gates[gate_index]
    original_cell = gate.cell
    forced = Cell(
        name=original_cell.name,
        ports=original_cell.ports,
        function=lambda v, ones: (ones if stuck_at else ones ^ ones),
        inverting=original_cell.inverting,
        sequential=original_cell.sequential,
    )
    gate.cell = forced
    try:
        broken.reset()
        broken._values[gate.output] = stuck_at  # stuck from t=0
        outputs = np.zeros(
            (workload.cycles, netlist.n_outputs), dtype=np.uint8
        )
        names = netlist.output_names()
        for cycle in range(workload.cycles):
            row = dict(zip(workload.input_names,
                           workload.vectors[cycle]))
            observed = broken.step(row)
            outputs[cycle] = [observed[name] for name in names]
    finally:
        gate.cell = original_cell
    return outputs


@pytest.mark.parametrize("seed", range(3))
def test_fault_pass_matches_mutated_scalar_simulation(seed):
    netlist = random_netlist(n_inputs=5, n_gates=30, n_flops=4,
                             n_outputs=4, seed=seed + 40)
    workload = random_workload(netlist, cycles=25, seed=seed,
                               reset_input="in_0")
    faults = full_fault_universe(netlist)
    engine = BitParallelSimulator(netlist)
    fault_nets = np.array([fault.net_index for fault in faults])
    fault_values = np.array([fault.stuck_at for fault in faults])
    error_cycles, detection, latent = engine.run_fault_pass(
        workload, fault_nets, fault_values
    )

    golden = Simulator(netlist).run(workload).outputs
    rng = np.random.default_rng(seed)
    for fault_index in rng.choice(len(faults), 12, replace=False):
        fault = faults[fault_index]
        outputs = faulty_netlist_outputs(
            netlist, fault.gate_index, fault.stuck_at, workload
        )
        mismatch_cycles = np.flatnonzero((outputs != golden).any(axis=1))
        assert error_cycles[fault_index] == len(mismatch_cycles)
        if len(mismatch_cycles):
            assert detection[fault_index] == mismatch_cycles[0]
        else:
            assert detection[fault_index] == -1


def test_fault_on_dead_branch_is_latent_or_benign():
    """A fault on logic that never reaches an output cannot be
    dangerous."""
    netlist = Netlist("dead")
    a = netlist.add_input("a")
    live = netlist.add_gate("IV", [a], instance="LIVE")
    # A flop consumes the dead gate, so it is not dangling, but nothing
    # downstream of the flop is observable.
    dead = netlist.add_gate("IV", [a], instance="DEAD")
    sink = netlist.add_gate("DFF", [dead], instance="SINK")
    dead2 = netlist.add_gate("BUF", [sink], instance="DEAD2")
    sink2 = netlist.add_gate("DFF", [dead2], instance="SINK2")
    netlist.add_output(live, "y")
    # keep sink2 observed by nothing; attach to itself via a dff chain
    netlist.add_output(sink2, "z_unused")  # make it technically a PO
    # Remove observability by replacing output list: keep only y.
    netlist.primary_outputs = [(live, "y")]

    faults = full_fault_universe(netlist)
    engine = BitParallelSimulator(netlist)
    workload = random_workload(netlist, cycles=20, seed=0,
                               reset_input="a")
    error_cycles, detection, latent = engine.run_fault_pass(
        workload,
        np.array([fault.net_index for fault in faults]),
        np.array([fault.stuck_at for fault in faults]),
    )
    for fault, errors in zip(faults, error_cycles):
        if fault.node_name.split("_")[1] in ("DEAD", "SINK", "DEAD2",
                                             "SINK2"):
            assert errors == 0, fault.name


def test_single_inverter_fault_always_dangerous(tiny_netlist):
    """SA faults on the only path to an output must be detected."""
    faults = full_fault_universe(tiny_netlist)
    engine = BitParallelSimulator(tiny_netlist)
    from repro.sim import Workload

    workload = Workload.from_dicts(
        "w", tiny_netlist,
        [{"a": 1, "b": 1}, {"a": 0, "b": 0}, {"a": 1, "b": 0}],
    )
    error_cycles, detection, latent = engine.run_fault_pass(
        workload,
        np.array([fault.net_index for fault in faults]),
        np.array([fault.stuck_at for fault in faults]),
    )
    # Every fault is observable within these 3 vectors (the AND sees
    # both polarities at y, the inverter mirrors them).
    assert (error_cycles > 0).all()


def test_many_machines_cross_word_boundary():
    """More than 64 machines exercises multi-word packing."""
    builder = CircuitBuilder("wide")
    inputs = [builder.input(f"i{k}") for k in range(4)]
    nets = list(inputs)
    for index in range(80):
        nets.append(builder.not_(nets[-4]))
    for offset, net in enumerate(nets[-4:]):
        builder.output(net, f"o{offset}")
    netlist = builder.netlist
    faults = full_fault_universe(netlist)
    assert len(faults) > 64
    workload = random_workload(netlist, cycles=10, seed=0,
                               reset_input="i0")
    engine = BitParallelSimulator(netlist)
    error_cycles, detection, latent = engine.run_fault_pass(
        workload,
        np.array([fault.net_index for fault in faults]),
        np.array([fault.stuck_at for fault in faults]),
    )
    # Inverter-chain faults at the tail are certainly observable.
    assert error_cycles[-8:].max() > 0
