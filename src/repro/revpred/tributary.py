"""Re-implementation of Tributary's revocation predictor (baseline).

Tributary (Harlap et al., ATC'18) is closed source; the paper
re-implements its prediction model for comparison ("Tributary
Predict").  The two differences from RevPred it calls out (§III-B):

1. architecture — Tributary's LSTM consumes *all* the input records in
   one stream, whereas RevPred splits history (LSTM) from the present
   record (FC branch).  Here the max price is appended as a seventh
   feature to every record and the 60-record sequence (59 history + 1
   present) runs through the same-depth LSTM stack;
2. training data — the max-price delta is drawn uniformly from
   [0.00001, 0.2] at training time instead of Algorithm 2's
   fluctuation-calibrated delta.

The second difference lives in the training-set builder
(``delta_mode="uniform"``); this module implements the first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.market.features import NUM_BASE_FEATURES
from repro.nn.linear import Linear, linear_stacked
from repro.nn.losses import sigmoid
from repro.nn.lstm import LSTM, infer_stacked
from repro.nn.module import Module, default_rng


class TributaryNetwork(Module):
    """Single-stream LSTM over the full (history + present) sequence."""

    def __init__(
        self,
        lstm_hidden: int = 24,
        lstm_layers: int = 3,
        history_features: int = NUM_BASE_FEATURES,
        present_features: int = NUM_BASE_FEATURES + 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.history_features = history_features
        self.present_features = present_features
        # Every record carries the base features plus the max price.
        self.lstm = LSTM(
            history_features + 1, lstm_hidden, num_layers=lstm_layers, rng=rng
        )
        self.head = Linear(lstm_hidden, 1, rng=rng)
        self.register_child("lstm", self.lstm)
        self.register_child("head", self.head)
        self._steps: int | None = None

    def _pack_sequence(self, history: np.ndarray, present: np.ndarray) -> np.ndarray:
        """Append the present record and broadcast the max price onto
        every history record, giving (B, 60, 7)."""
        batch, steps, _ = history.shape
        max_price = present[:, -1:]  # (B, 1), already normalised
        broadcast = np.repeat(max_price[:, None, :], steps, axis=1)
        history_augmented = np.concatenate([history, broadcast], axis=2)
        present_step = present[:, None, :]
        return np.concatenate([history_augmented, present_step], axis=1)

    def forward(self, history: np.ndarray, present: np.ndarray) -> np.ndarray:
        if history.ndim != 3 or history.shape[2] != self.history_features:
            raise ValueError(f"bad history shape: {history.shape}")
        if present.ndim != 2 or present.shape[1] != self.present_features:
            raise ValueError(f"bad present shape: {present.shape}")
        sequence = self._pack_sequence(history, present)
        self._steps = sequence.shape[1]
        outputs = self.lstm.forward(sequence)
        return self.head.forward(outputs[:, -1, :]).reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> None:
        if self._steps is None:
            raise RuntimeError("backward called before forward")
        grad_embedding = self.head.backward(grad_logits.reshape(-1, 1))
        grad_sequence = self.lstm.last_step_backward_seed(grad_embedding, self._steps)
        self.lstm.backward(grad_sequence)

    def predict_proba(self, history: np.ndarray, present: np.ndarray) -> np.ndarray:
        return sigmoid(self.forward(history, present))

    @staticmethod
    def infer_proba_stacked(
        models: Sequence["TributaryNetwork"], history: np.ndarray, present: np.ndarray
    ) -> np.ndarray:
        """Inference-only P-hat of row q's whole sequence through
        ``models[q]``, bit for bit that row's one-row ``predict_proba``
        (see :func:`repro.nn.lstm.infer_stacked`).

        ``history`` is (Q, 59, 6) and ``present`` (Q, 7).  Unlike
        RevPred, the max price is broadcast into *every* record of the
        single input stream, so there is no price-independent prefix to
        precompute — the whole sequence re-runs per query.
        """
        sequence = models[0]._pack_sequence(history, present)
        outputs = infer_stacked([model.lstm for model in models], sequence)
        logits = linear_stacked([model.head for model in models], outputs[:, -1:, :])
        return sigmoid(logits.reshape(-1))
