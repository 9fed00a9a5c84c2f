"""Neural-network building blocks: parameter containers.

This is the stand-in for the paper's PyTorch/torch-geometric stack.
Each module holds exactly the state one layer of Table 1's network
needs — weights, the propagation matrix of a graph convolution, a
dropout probability and its RNG stream — and nothing else: every
forward and backward pass runs on the compiled engine
(:mod:`repro.nn.engine`), which binds these containers to
preallocated buffers and hand-derived gradient kernels.  Shapes follow
the node-classification convention: activations are ``(N, F)``
matrices, one row per graph node.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.nn.init import glorot_uniform
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng, rng_from_seed


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[:] = 0.0


class Module:
    """Base class: a layer's trainable state."""

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this module (and children)."""
        return []


def _init_rng(seed: SeedLike) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, seed: SeedLike = 0):
        rng = _init_rng(seed)
        self.weight = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def parameters(self) -> List[Parameter]:
        parameters = [self.weight]
        if self.bias is not None:
            parameters.append(self.bias)
        return parameters


class GCNConv(Module):
    """Graph convolution ``H' = A* (H W) + b`` (Eq. 2 of the paper).

    ``A*`` is the pre-normalized propagation matrix (symmetric
    normalization with self-loops by default), fixed per design and
    shared across layers.
    """

    def __init__(self, in_features: int, out_features: int,
                 a_norm: sp.csr_matrix, bias: bool = True,
                 seed: SeedLike = 0):
        rng = _init_rng(seed)
        self.a_norm = a_norm
        self.weight = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def parameters(self) -> List[Parameter]:
        parameters = [self.weight]
        if self.bias is not None:
            parameters.append(self.bias)
        return parameters


class SAGEConv(Module):
    """GraphSAGE convolution with mean aggregation:
    ``H' = H W_self + (A_mean H) W_neigh + b``.

    ``a_mean`` is the row-normalized adjacency *without* self-loops
    (``D^-1 A``), so the node's own representation and its
    neighborhood aggregate pass through separate weight matrices —
    the architectural contrast to :class:`GCNConv`'s shared transform,
    exercised by the architecture ablation.
    """

    def __init__(self, in_features: int, out_features: int,
                 a_mean: sp.csr_matrix, bias: bool = True,
                 seed: SeedLike = 0):
        rng = _init_rng(seed)
        self.a_mean = a_mean
        self.weight_self = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.weight_neighbor = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def parameters(self) -> List[Parameter]:
        parameters = [self.weight_self, self.weight_neighbor]
        if self.bias is not None:
            parameters.append(self.bias)
        return parameters


class ReLU(Module):
    """Rectified linear unit."""


class Sigmoid(Module):
    """Logistic activation."""


class Tanh(Module):
    """Hyperbolic-tangent activation."""


class Dropout(Module):
    """Inverted dropout: active only in training forwards."""

    def __init__(self, p: float = 0.5, seed: SeedLike = 0):
        if not 0.0 <= p < 1.0:
            raise ModelError(f"dropout probability {p} outside [0, 1)")
        self.p = p
        self._rng = derive_rng(seed, "dropout") if not isinstance(
            seed, np.random.Generator
        ) else seed


class LogSoftmax(Module):
    """Row-wise log-softmax."""


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def parameters(self) -> List[Parameter]:
        parameters: List[Parameter] = []
        for module in self.modules:
            parameters.extend(module.parameters())
        return parameters
