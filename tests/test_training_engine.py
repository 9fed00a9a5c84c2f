"""Property tests for the zero-allocation training engine.

Hypothesis-driven invariants that the bitwise suite's fixed scenarios
cannot cover: early stopping restores exactly the best-epoch weights
under randomized data/patience (including the patience=0,
improvement-on-final-epoch, and zero-epoch edges), serial and pooled
grid search rank identically, the compiled workspace tracks the frozen
reference module path (``tests/_reference_nn``) bit for bit on random
stacks, the compiler normalizes input layouts and rejects what it
cannot run, and fast-math mode stays algebraically faithful.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nn as live_nn
from repro.graph.adjacency import normalized_adjacency
from repro.models.gcn import build_gcn_stack
from repro.nn import (
    GCNConv,
    Linear,
    LogSoftmax,
    Module,
    ReLU,
    SAGEConv,
    Sequential,
    TrainingConfig,
    infer,
    train_classifier,
    train_regressor,
)
from repro.nn.engine import PropagationCache, compile_workspace
from repro.nn.gridsearch import grid_search
from repro.utils.errors import ModelError

from tests._reference_nn import ref_modules as rm
from tests._reference_nn.ref_training import (
    TrainingConfig as RefConfig,
    train_classifier as ref_train_classifier,
    train_regressor as ref_train_regressor,
)

SLOW = settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_data(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[: int(n * 0.6)] = True
    return x, y, train_mask, ~train_mask


def make_model(seed, dropout=0.0, nn=live_nn):
    """A small MLP classifier; ``nn=rm`` builds it from the frozen
    reference modules instead (same initial weights and RNG streams)."""
    modules = [nn.Linear(4, 6, seed=seed), nn.ReLU()]
    if dropout > 0.0:
        modules.append(nn.Dropout(dropout, seed=seed + 1))
    modules.extend([nn.Linear(6, 2, seed=seed + 2), nn.LogSoftmax()])
    return nn.Sequential(*modules)


# ----------------------------------------------------------------------
# early stopping restores exactly the best-epoch weights
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 1000), st.integers(0, 12), st.integers(20, 80),
       st.booleans())
def test_early_stopping_restores_best_epoch_weights(
        seed, patience, epochs, use_dropout):
    """A run that trains past its best epoch and restores must end
    with the same weights as a fresh run stopped right after that
    epoch (whose live weights ARE the best)."""
    x, y, train_mask, val_mask = make_data(40, seed)
    dropout = 0.4 if use_dropout else 0.0
    full = make_model(seed, dropout)
    history = train_classifier(
        full, x, y, train_mask, val_mask,
        TrainingConfig(epochs=epochs, lr=0.05, patience=patience))
    assert history.best_epoch >= 0

    stopped = make_model(seed, dropout)
    train_classifier(
        stopped, x, y, train_mask, val_mask,
        TrainingConfig(epochs=history.best_epoch + 1, lr=0.05,
                       patience=0))
    for restored, live in zip(full.parameters(), stopped.parameters()):
        assert np.array_equal(restored.value, live.value)


def test_improvement_on_final_epoch_keeps_live_weights():
    """When the last epoch is the best, the pending-snapshot path must
    not overwrite the live (already-best) weights on restore."""
    x, y, train_mask, val_mask = make_data(40, 3)
    probe = make_model(3)
    history = train_classifier(probe, x, y, train_mask, val_mask,
                               TrainingConfig(epochs=200, lr=0.05,
                                              patience=0))
    best = history.best_epoch
    assert best >= 0

    # Re-run stopping exactly at the best epoch: improvement lands on
    # the final epoch, so restore must be a no-op.
    exact = make_model(3)
    exact_history = train_classifier(
        exact, x, y, train_mask, val_mask,
        TrainingConfig(epochs=best + 1, lr=0.05, patience=0))
    assert exact_history.best_epoch == best
    again = make_model(3)
    train_classifier(again, x, y, train_mask, val_mask,
                     TrainingConfig(epochs=best + 1, lr=0.05,
                                    patience=0))
    for a, b in zip(exact.parameters(), again.parameters()):
        assert np.array_equal(a.value, b.value)


def test_zero_epochs_leaves_initial_weights():
    x, y, train_mask, val_mask = make_data(30, 1)
    model = make_model(1)
    initial = [p.value.copy() for p in model.parameters()]
    history = train_classifier(model, x, y, train_mask, val_mask,
                               TrainingConfig(epochs=0))
    assert history.best_epoch == -1
    assert history.train_loss == []
    assert np.isnan(history.best_val_accuracy)
    for parameter, value in zip(model.parameters(), initial):
        assert np.array_equal(parameter.value, value)


# ----------------------------------------------------------------------
# engine == frozen reference module path on random stacks
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 1000), st.sampled_from(["adam", "sgd"]),
       st.booleans())
def test_engine_matches_module_path(seed, optimizer, use_dropout):
    x, y, train_mask, val_mask = make_data(35, seed)
    dropout = 0.3 if use_dropout else 0.0
    engine_model = make_model(seed, dropout)
    module_model = make_model(seed, dropout, nn=rm)
    config = dict(epochs=40, lr=0.05, optimizer=optimizer, patience=10)
    engine_history = train_classifier(
        engine_model, x, y, train_mask, val_mask,
        TrainingConfig(**config))
    module_history = ref_train_classifier(
        module_model, x, y, train_mask, val_mask, RefConfig(**config))
    assert engine_history.train_loss == module_history.train_loss
    assert engine_history.val_metric == module_history.val_metric
    assert engine_history.best_epoch == module_history.best_epoch
    for a, b in zip(engine_model.parameters(),
                    module_model.parameters()):
        assert np.array_equal(a.value, b.value)


@SLOW
@given(st.integers(0, 1000))
def test_engine_matches_module_path_regressor(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 3))
    y = 0.5 * x[:, 0] - 0.2 * x[:, 2]
    mask = np.ones(30, dtype=bool)

    def build(nn):
        return nn.Sequential(nn.Linear(3, 5, seed=seed), nn.ReLU(),
                             nn.Linear(5, 1, seed=seed + 1))

    a, b = build(live_nn), build(rm)
    ha = train_regressor(a, x, y, mask, None,
                         TrainingConfig(epochs=30, lr=0.02, patience=0))
    hb = ref_train_regressor(b, x, y, mask, None,
                             RefConfig(epochs=30, lr=0.02, patience=0))
    assert ha.train_loss == hb.train_loss
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value, pb.value)


# ----------------------------------------------------------------------
# grid search: serial == pooled ranking
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 100))
def test_grid_serial_and_pooled_rank_identically(seed):
    x, y, train_mask, val_mask = make_data(40, seed)

    def builder(hidden_dims, dropout, seed_):
        modules = []
        previous = x.shape[1]
        for width in hidden_dims:
            modules.extend([Linear(previous, width, seed=seed_), ReLU()])
            previous = width
        modules.extend([Linear(previous, 2, seed=seed_), LogSoftmax()])
        return Sequential(*modules)

    options = dict(hidden_dim_options=((4,), (6, 6)),
                   dropout_options=(0.0,), lr_options=(0.05,),
                   epochs=25)
    serial = grid_search(builder, x, y, train_mask, val_mask, **options)
    pooled = grid_search(builder, x, y, train_mask, val_mask, jobs=2,
                         **options)
    assert [
        (p.hidden_dims, p.dropout, p.lr, p.val_accuracy, p.best_epoch)
        for p in serial.points
    ] == [
        (p.hidden_dims, p.dropout, p.lr, p.val_accuracy, p.best_epoch)
        for p in pooled.points
    ]


def test_grid_best_accuracy_is_recorded_not_recomputed():
    """The ranked accuracy comes from the training history's recorded
    best-epoch monitor accuracy — which equals a fresh forward on the
    restored weights (the eval pass is deterministic)."""
    x, y, train_mask, val_mask = make_data(50, 9)
    built = {}

    def builder(hidden_dims, dropout, seed_):
        model = Sequential(Linear(x.shape[1], hidden_dims[0],
                                  seed=seed_), ReLU(),
                           Linear(hidden_dims[0], 2, seed=seed_),
                           LogSoftmax())
        built[hidden_dims] = model
        return model

    result = grid_search(builder, x, y, train_mask, val_mask,
                         hidden_dim_options=((4,), (8,)),
                         dropout_options=(0.0,), epochs=40)
    for point in result.points:
        model = built[point.hidden_dims]
        fresh = float(
            (infer(model, x).argmax(axis=1)[val_mask]
             == y[val_mask]).mean()
        )
        assert point.val_accuracy == fresh


# ----------------------------------------------------------------------
# the compiler normalizes input layouts
# ----------------------------------------------------------------------
def test_fortran_ordered_x_trains_identically():
    """A Fortran-ordered (or otherwise non-C-contiguous) ``x`` is
    converted at compile time: same history and weights, bit for bit,
    as the C-ordered matrix."""
    x, y, train_mask, val_mask = make_data(40, 6)
    config = TrainingConfig(epochs=40, lr=0.05, patience=0)
    c_model, f_model = make_model(6, 0.3), make_model(6, 0.3)
    c_history = train_classifier(c_model, np.ascontiguousarray(x), y,
                                 train_mask, val_mask, config)
    f_history = train_classifier(f_model, np.asfortranarray(x), y,
                                 train_mask, val_mask, config)
    assert c_history.train_loss == f_history.train_loss
    assert c_history.val_metric == f_history.val_metric
    for a, b in zip(c_model.parameters(), f_model.parameters()):
        assert np.array_equal(a.value, b.value)


def test_non_csr_adjacency_is_converted():
    x, a_norm, y, train_mask, val_mask = _gcn_case(n=40, seed=8)
    histories = []
    for adjacency in (a_norm, a_norm.tocsc(), a_norm.tocoo()):
        model = Sequential(GCNConv(5, 8, adjacency, seed=0), ReLU(),
                           GCNConv(8, 2, adjacency, seed=1),
                           LogSoftmax())
        histories.append(train_classifier(
            model, x, y, train_mask, val_mask,
            TrainingConfig(epochs=20, patience=0)).train_loss)
    assert histories[0] == histories[1] == histories[2]


# ----------------------------------------------------------------------
# fast-math mode: exact algebra, different rounding
# ----------------------------------------------------------------------
def _gcn_case(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    sources = rng.integers(0, n, size=3 * n)
    targets = rng.integers(0, n, size=3 * n)
    edges = np.stack([sources, targets])
    a_norm = normalized_adjacency(edges, n)
    y = (x[:, 0] + x @ rng.normal(size=5) * 0.1 > 0).astype(np.int64)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[: int(n * 0.6)] = True
    return x, a_norm, y, train_mask, ~train_mask


def test_fast_math_tracks_exact_losses():
    x, a_norm, y, train_mask, val_mask = _gcn_case()
    exact = build_gcn_stack(x.shape[1], 2, a_norm)
    fast = build_gcn_stack(x.shape[1], 2, a_norm)
    h_exact = train_classifier(exact, x, y, train_mask, val_mask,
                               TrainingConfig(epochs=60, patience=0))
    cache = PropagationCache()
    h_fast = train_classifier(
        fast, x, y, train_mask, val_mask,
        TrainingConfig(epochs=60, patience=0, fast_math=True),
        cache=cache)
    assert np.allclose(h_exact.train_loss, h_fast.train_loss,
                       rtol=1e-8, atol=1e-10)
    assert np.allclose(h_exact.val_metric, h_fast.val_metric,
                       rtol=1e-8, atol=1e-10)
    # The first-layer propagation was cached.
    assert len(cache) == 1


def test_propagation_cache_shared_across_runs():
    x, a_norm, y, train_mask, val_mask = _gcn_case(seed=3)
    cache = PropagationCache()
    for seed in (0, 1):
        model = build_gcn_stack(x.shape[1], 2, a_norm, seed=seed)
        train_classifier(
            model, x, y, train_mask, val_mask,
            TrainingConfig(epochs=10, patience=0, fast_math=True),
            cache=cache)
    # Same (A*, X) pair on both runs: one entry, computed once.
    assert len(cache) == 1
    product = cache.get(a_norm, x)
    assert product is cache.get(a_norm, x)
    assert np.allclose(product, a_norm @ x)


def test_workspace_rejects_unknown_modules():
    class Strange(Module):
        pass

    x = np.zeros((4, 3))
    assert compile_workspace(Sequential(Linear(3, 2)), x) is not None

    edges = np.array([[0, 1, 2], [1, 2, 3]])
    a_mean = normalized_adjacency(edges, 4, mode="row",
                                  self_loops=False)
    assert compile_workspace(Sequential(SAGEConv(3, 2, a_mean)),
                             x) is not None
    with pytest.raises(ModelError, match="Strange"):
        compile_workspace(Sequential(Linear(3, 2), Strange()), x)
    with pytest.raises(ModelError, match="empty"):
        compile_workspace(Sequential(), x)


def test_workspace_rejects_mismatched_shapes():
    x = np.zeros((4, 3))
    with pytest.raises(ModelError, match="expects 5 input features, "
                                         "got 3"):
        compile_workspace(Sequential(Linear(5, 2)), x)
    a_norm = normalized_adjacency(np.array([[0], [1]]), 2)
    with pytest.raises(ModelError, match="2x2 but x has 4 rows"):
        compile_workspace(Sequential(GCNConv(3, 2, a_norm)), x)


def test_gcn_conv_operand_order_flag():
    """fast_math picks (A X) W when f_in < f_out; both orders agree."""
    x, a_norm, y, train_mask, val_mask = _gcn_case(n=50, seed=5)
    model = Sequential(GCNConv(5, 16, a_norm, seed=0), LogSoftmax())
    exact_ws = compile_workspace(model, x)
    model2 = Sequential(GCNConv(5, 16, a_norm, seed=0), LogSoftmax())
    fast_ws = compile_workspace(model2, x, fast_math=True,
                                cache=PropagationCache())
    exact_ws.forward_eval()
    fast_ws.forward_eval()
    assert np.allclose(exact_ws.output, fast_ws.output)
