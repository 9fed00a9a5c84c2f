"""Multi-layer-perceptron baseline.

Same training machinery as the GCN but with plain ``Linear`` layers —
the node sees only its own features, no message passing.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.models.base import BaseClassifier, register_classifier
from repro.nn.engine import infer
from repro.nn.modules import Dropout, Linear, LogSoftmax, ReLU, Sequential
from repro.nn.training import TrainingConfig, train_classifier
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng


@register_classifier("MLP")
class MLPClassifier(BaseClassifier):
    """Feed-forward classifier on per-node features."""

    def __init__(
        self,
        hidden_dims: Sequence[int] = (16, 32, 64),
        dropout: float = 0.3,
        seed: SeedLike = 0,
        config: Optional[TrainingConfig] = None,
    ):
        self.hidden_dims = tuple(hidden_dims)
        self.dropout = dropout
        self.seed = seed
        self.config = config or TrainingConfig(epochs=300, patience=60)
        self.model: Optional[Sequential] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        self._check_training_data(x, y)
        rng = derive_rng(self.seed, "mlp-init")
        modules = []
        previous = x.shape[1]
        for position, width in enumerate(self.hidden_dims):
            modules.append(Linear(previous, width, seed=rng))
            modules.append(ReLU())
            if self.dropout > 0.0 and position == 1:
                modules.append(Dropout(self.dropout, seed=rng))
            previous = width
        modules.append(Linear(previous, 2, seed=rng))
        modules.append(LogSoftmax())
        self.model = Sequential(*modules)

        mask = np.ones(len(x), dtype=bool)
        train_classifier(self.model, np.asarray(x, dtype=np.float64),
                         np.asarray(y, dtype=np.int64), mask, None,
                         self.config)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise ModelError("predict before fit")
        return np.exp(infer(self.model, x))
