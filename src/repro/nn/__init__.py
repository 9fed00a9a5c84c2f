"""From-scratch neural-network engine (numpy): parameter-container
modules, the compiled executor that trains and runs them, losses,
optimizers, training loops, and grid search."""

from repro.nn.engine import (
    PropagationCache,
    TrainingWorkspace,
    compile_workspace,
    infer,
)
from repro.nn.gridsearch import GridPoint, GridSearchResult, grid_search
from repro.nn.init import glorot_uniform
from repro.nn.losses import bce_with_logits, mse_loss, nll_loss
from repro.nn.modules import (
    Dropout,
    GCNConv,
    Linear,
    LogSoftmax,
    Module,
    Parameter,
    ReLU,
    SAGEConv,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.training import (
    TrainingConfig,
    TrainingHistory,
    train_classifier,
    train_regressor,
)

__all__ = [
    "PropagationCache",
    "TrainingWorkspace",
    "compile_workspace",
    "infer",
    "GridPoint",
    "GridSearchResult",
    "grid_search",
    "glorot_uniform",
    "bce_with_logits",
    "mse_loss",
    "nll_loss",
    "Dropout",
    "GCNConv",
    "Linear",
    "LogSoftmax",
    "Module",
    "Parameter",
    "ReLU",
    "SAGEConv",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "SGD",
    "Adam",
    "Optimizer",
    "TrainingConfig",
    "TrainingHistory",
    "train_classifier",
    "train_regressor",
]
