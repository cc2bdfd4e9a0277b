"""Fully-connected layer."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Module, default_rng


class Linear(Module):
    """Affine transform ``y = x W + b`` over the last axis.

    Weights use Glorot-uniform initialisation from an explicit numpy
    generator so model construction is reproducible.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature sizes must be positive: {in_features} -> {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else default_rng()
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = self.register_parameter(
            "weight", rng.uniform(-limit, limit, (in_features, out_features))
        )
        self.bias = self.register_parameter("bias", np.zeros(out_features))
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last axis {self.in_features}, got input shape {x.shape}"
            )
        self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        # Collapse any leading batch axes for the weight gradient.
        x_flat = x.reshape(-1, self.in_features)
        grad_flat = grad_output.reshape(-1, self.out_features)
        self.weight.grad += x_flat.T @ grad_flat
        self.bias.grad += grad_flat.sum(axis=0)
        return grad_output @ self.weight.value.T


def linear_stacked(layers: Sequence[Linear], x: np.ndarray) -> np.ndarray:
    """Apply M same-shaped layers, one row each: (M, 1, in) -> (M, 1, out).

    Row m equals ``layers[m].forward(x[m])`` bit for bit: NumPy runs the
    stacked matmul as one GEMV (one dot for a single output) per layer,
    the kernel a one-row forward calls.  Inference only; nothing is
    kept for ``backward``.
    """
    W = np.array([layer.weight.value for layer in layers])
    b = np.array([layer.bias.value for layer in layers])[:, None, :]
    return x @ W + b
