"""Property-based tests (hypothesis) on core data structures and
invariants: netlist generation, simulator equivalence, Verilog
round-trips, adjacency normalization, metrics, and Algorithm 1."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import random_netlist
from repro.fi import dataset_from_campaign, generate_dataset, run_campaign
from repro.graph import normalized_adjacency, stratified_split
from repro.metrics import auc_score, roc_curve, spearman
from repro.metrics.regression import _rankdata
from repro.netlist import check, from_verilog, to_verilog
from repro.sim import BitParallelSimulator, Simulator, random_workload

SLOW = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

netlist_params = st.tuples(
    st.integers(min_value=2, max_value=8),    # inputs
    st.integers(min_value=4, max_value=60),   # gates
    st.integers(min_value=0, max_value=8),    # flops
    st.integers(min_value=1, max_value=5),    # outputs
    st.integers(min_value=0, max_value=10_000),  # seed
)


@SLOW
@given(netlist_params)
def test_random_netlists_are_valid(params):
    n_inputs, n_gates, n_flops, n_outputs, seed = params
    netlist = random_netlist(n_inputs, n_gates, n_flops, n_outputs,
                             seed=seed)
    assert check(netlist) == []
    levels = netlist.levelize()
    assert len(levels) == netlist.n_gates


@SLOW
@given(netlist_params)
def test_verilog_roundtrip_property(params):
    n_inputs, n_gates, n_flops, n_outputs, seed = params
    netlist = random_netlist(n_inputs, n_gates, n_flops, n_outputs,
                             seed=seed)
    parsed = from_verilog(to_verilog(netlist))
    assert parsed.n_gates == netlist.n_gates
    assert sorted(parsed.node_names()) == sorted(netlist.node_names())
    workload = random_workload(netlist, cycles=15, seed=seed,
                               reset_input="in_0")
    original = Simulator(netlist).run(workload).outputs
    replayed = Simulator(parsed).run(workload).outputs
    assert np.array_equal(original, replayed)


@SLOW
@given(netlist_params)
def test_scalar_and_bitparallel_agree(params):
    n_inputs, n_gates, n_flops, n_outputs, seed = params
    netlist = random_netlist(n_inputs, n_gates, n_flops, n_outputs,
                             seed=seed)
    workload = random_workload(netlist, cycles=20, seed=seed,
                               reset_input="in_0")
    scalar = Simulator(netlist).run(workload).outputs
    packed = BitParallelSimulator(netlist).golden_outputs(workload)
    assert np.array_equal(scalar, packed)


def reactive_driver(input_names, seed):
    """A closed-loop driver whose stimulus depends on the outputs it
    observes: random bits XOR the parity of the last cycle's outputs
    (so a lane fed another lane's outputs records different vectors),
    with some inputs left out to exercise the 0 default."""
    rng = np.random.default_rng(seed)

    def driver(cycle, outputs):
        parity = sum(outputs.values()) & 1
        return {
            name: int(rng.random() < 0.5) ^ parity
            for name in input_names if rng.random() < 0.8
        }
    return driver


@SLOW
@given(netlist_params, st.integers(min_value=1, max_value=70),
       st.integers(min_value=0, max_value=12))
def test_run_drivers_match_scalar_run_driver(params, n_drivers, cycles):
    n_inputs, n_gates, n_flops, n_outputs, seed = params
    netlist = random_netlist(n_inputs, n_gates, n_flops, n_outputs,
                             seed=seed)
    names = [f"d{lane}" for lane in range(n_drivers)]
    inputs = netlist.input_names()
    packed = BitParallelSimulator(netlist).run_drivers(
        [reactive_driver(inputs, (seed, lane))
         for lane in range(n_drivers)],
        cycles, names,
    )
    assert [workload.name for workload in packed] == names
    for lane, workload in enumerate(packed):
        scalar = Simulator(netlist).run_driver(
            reactive_driver(inputs, (seed, lane)), cycles,
            name=names[lane],
        )
        assert workload.input_names == scalar.input_names
        assert np.array_equal(workload.vectors, scalar.vectors)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)),
             min_size=1, max_size=60),
    st.sampled_from(["symmetric", "row"]),
)
def test_normalization_invariants(edge_list, mode):
    edges = np.array(edge_list).T
    a_norm = normalized_adjacency(edges, 20, mode=mode)
    dense = a_norm.toarray()
    assert (dense >= 0.0).all()
    sums = dense.sum(axis=1)
    if mode == "row":
        assert np.allclose(sums, 1.0)
    else:
        assert np.allclose(dense, dense.T)
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues.max() <= 1.0 + 1e-9  # spectral radius bound


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=4, max_size=200),
       st.integers(0, 2**31 - 1))
def test_auc_bounds_and_reversal(labels, seed):
    y = np.array(labels, dtype=int)
    if y.min() == y.max():
        return  # need both classes
    rng = np.random.default_rng(seed)
    scores = rng.random(len(y))
    auc = auc_score(y, scores)
    assert 0.0 <= auc <= 1.0
    assert auc_score(y, -scores) == pytest.approx(1.0 - auc)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2, max_size=80,
))
def test_rankdata_properties(values):
    array = np.array(values)
    ranks = _rankdata(array)
    assert ranks.sum() == pytest.approx(len(array) * (len(array) + 1) / 2)
    order = np.argsort(array, kind="stable")
    assert (np.diff(ranks[order]) >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False),
                min_size=3, max_size=50))
def test_spearman_self_correlation(values):
    array = np.array(values)
    if np.unique(array).size < 2:
        return
    assert spearman(array, array) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(5, 300),
    st.floats(min_value=0.05, max_value=0.5),
    st.integers(0, 2**31 - 1),
)
def test_split_partition_property(n, fraction, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    split = stratified_split(labels, fraction, seed=seed)
    assert (split.train_mask ^ split.val_mask).all()
    for value in (0, 1):
        members = labels == value
        if members.sum() >= 2:
            assert split.val_mask[members].sum() >= 1
            assert split.train_mask[members].sum() >= 1


@SLOW
@given(st.integers(0, 1000), st.integers(2, 5))
def test_algorithm1_score_bounds(seed, n_workloads):
    netlist = random_netlist(n_inputs=4, n_gates=15, n_flops=2,
                             n_outputs=3, seed=seed)
    workloads = [
        random_workload(netlist, cycles=15, seed=(seed, index),
                        reset_input="in_0")
        for index in range(n_workloads)
    ]
    campaign = run_campaign(netlist, workloads)
    dataset = dataset_from_campaign(campaign)
    assert dataset.scores.min() >= 0.0
    assert dataset.scores.max() <= 1.0
    assert ((dataset.scores >= 0.5) == dataset.labels.astype(bool)).all()
    literal = generate_dataset(campaign.reports())
    assert np.allclose(dataset.scores, literal.scores)
