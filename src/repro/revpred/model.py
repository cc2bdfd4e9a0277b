"""The RevPred two-branch network (paper §III-B).

Input is split in two parts.  The 59 one-minute history records (six
engineered features each) feed a three-tier LSTM whose final hidden
state is the history embedding.  The present record — the six features
plus the candidate maximum price — passes through three sequential
fully-connected layers into a present embedding.  The two embeddings
are concatenated and a linear head produces "a probability-like
result" (a logit here; the sigmoid and the Eq. 3 odds correction are
applied downstream).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.market.features import HISTORY_MINUTES, NUM_BASE_FEATURES
from repro.nn.activations import ReLU
from repro.nn.linear import Linear, linear_stacked
from repro.nn.losses import sigmoid
from repro.nn.lstm import LSTM, infer_stacked
from repro.nn.module import Module, Sequential, default_rng


class RevPredNetwork(Module):
    """LSTM-over-history + MLP-over-present revocation classifier."""

    def __init__(
        self,
        lstm_hidden: int = 24,
        lstm_layers: int = 3,
        fc_hidden: int = 24,
        history_features: int = NUM_BASE_FEATURES,
        present_features: int = NUM_BASE_FEATURES + 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.history_features = history_features
        self.present_features = present_features
        self.lstm = LSTM(history_features, lstm_hidden, num_layers=lstm_layers, rng=rng)
        self.present_mlp = Sequential(
            Linear(present_features, fc_hidden, rng=rng),
            ReLU(),
            Linear(fc_hidden, fc_hidden, rng=rng),
            ReLU(),
            Linear(fc_hidden, fc_hidden, rng=rng),
            ReLU(),
        )
        self.head = Linear(lstm_hidden + fc_hidden, 1, rng=rng)
        self.register_child("lstm", self.lstm)
        self.register_child("present_mlp", self.present_mlp)
        self.register_child("head", self.head)
        self._cache: dict | None = None

    def forward(self, history: np.ndarray, present: np.ndarray) -> np.ndarray:
        """Logits for a batch: history (B, 59, 6), present (B, 7) -> (B,)."""
        if history.ndim != 3 or history.shape[2] != self.history_features:
            raise ValueError(
                f"history must be (batch, {HISTORY_MINUTES}, "
                f"{self.history_features}); got {history.shape}"
            )
        if present.ndim != 2 or present.shape[1] != self.present_features:
            raise ValueError(
                f"present must be (batch, {self.present_features}); got {present.shape}"
            )
        if history.shape[0] != present.shape[0]:
            raise ValueError(
                f"batch mismatch: history {history.shape[0]} vs present {present.shape[0]}"
            )
        lstm_outputs = self.lstm.forward(history)
        history_embedding = lstm_outputs[:, -1, :]
        present_embedding = self.present_mlp.forward(present)
        combined = np.concatenate([history_embedding, present_embedding], axis=1)
        logits = self.head.forward(combined).reshape(-1)
        self._cache = {
            "steps": history.shape[1],
            "lstm_hidden": history_embedding.shape[1],
        }
        return logits

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate d(loss)/d(logits) through both branches."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_combined = self.head.backward(grad_logits.reshape(-1, 1))
        lstm_hidden = self._cache["lstm_hidden"]
        grad_history_embedding = grad_combined[:, :lstm_hidden]
        grad_present_embedding = grad_combined[:, lstm_hidden:]
        self.present_mlp.backward(grad_present_embedding)
        grad_sequence = self.lstm.last_step_backward_seed(
            grad_history_embedding, steps=self._cache["steps"]
        )
        self.lstm.backward(grad_sequence)

    def predict_proba(self, history: np.ndarray, present: np.ndarray) -> np.ndarray:
        """Raw (uncalibrated) revocation probabilities, paper's P-hat."""
        return sigmoid(self.forward(history, present))

    # ------------------------------------------------------------------
    # Inference-only split evaluation, many models in one pass
    # ------------------------------------------------------------------
    # The two branches touch disjoint inputs: the LSTM sees only the
    # history window (which does not depend on the candidate max price),
    # the FC branch only the present record.  Splitting them lets a
    # caller evaluate the expensive LSTM branch once per (market, time)
    # and amortise it over every max-price query at that time.  Each
    # method scores one row per model (``PredictorBank``'s path) and
    # reproduces its slice of a one-row ``forward`` bitwise.

    @staticmethod
    def history_embedding_stacked(
        models: Sequence["RevPredNetwork"], history: np.ndarray
    ) -> np.ndarray:
        """Row m of (M, 59, 6) through ``models[m]``'s LSTM: the final
        hidden states, (M, lstm_hidden), bit for bit those of a one-row
        ``forward`` (see :func:`repro.nn.lstm.infer_stacked`).  Cache-free:
        ``backward`` cannot follow.
        """
        return infer_stacked([model.lstm for model in models], history)[:, -1, :]

    @staticmethod
    def proba_split_stacked(
        models: Sequence["RevPredNetwork"],
        history_embedding: np.ndarray,
        present: np.ndarray,
    ) -> np.ndarray:
        """P-hat of row q through ``models[q]``'s present MLP and head.

        ``history_embedding`` is (Q, lstm_hidden) and ``present`` (Q, 7);
        row q equals ``models[q].predict_proba`` of that row's one-row
        input, bit for bit.
        """
        x = present[:, None, :]
        for depth, layer in enumerate(models[0].present_mlp.layers):
            if isinstance(layer, Linear):
                layers = [model.present_mlp.layers[depth] for model in models]
                x = linear_stacked(layers, x)
            else:
                x = layer.forward(x)
        combined = np.concatenate([history_embedding[:, None, :], x], axis=2)
        logits = linear_stacked([model.head for model in models], combined)
        return sigmoid(logits.reshape(-1))
