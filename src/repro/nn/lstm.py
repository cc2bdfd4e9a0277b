"""Multi-layer LSTM with full backpropagation through time.

Gate order in the packed weight matrix is (input, forget, cell, output).
Forget-gate biases start at 1.0, the standard initialisation that keeps
memory open early in training.  The backward pass is exact BPTT and is
verified against finite differences in the test suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Module, default_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _infer_steps(x: np.ndarray, W: np.ndarray, b: np.ndarray, H: int) -> np.ndarray:
    """Cache-free recurrence of M stacked layers over ``x`` (M, 1,
    time, features).

    ``W`` stacks the layers' packed weights, (M, features + H, 4H), and
    ``b`` their biases, (M, 1, 4H).  Each gate value is the same
    element-wise float64 expression of the same pre-activation as in
    ``forward``; only the grouping into NumPy calls differs (one
    sigmoid over all four gate blocks, the cell block's discarded), and
    an element-wise ufunc's result does not depend on its neighbours.
    """
    lead = x.shape[:-2]
    steps = x.shape[-2]
    h = np.zeros(lead + (H,))
    c = np.zeros(lead + (H,))
    outputs = np.empty(lead + (steps, H))
    for t in range(steps):
        z = np.concatenate([x[..., t, :], h], axis=-1)
        gates = z @ W + b
        sig = _sigmoid(gates)
        g = np.tanh(gates[..., 2 * H : 3 * H])
        c = sig[..., H : 2 * H] * c + sig[..., :H] * g
        h = sig[..., 3 * H :] * np.tanh(c)
        outputs[..., t, :] = h
    return outputs


class _LSTMLayer(Module):
    """One LSTM layer over a (batch, time, features) sequence."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        limit = np.sqrt(6.0 / (input_size + 2 * hidden_size))
        self.weight = self.register_parameter(
            "weight", rng.uniform(-limit, limit, (input_size + hidden_size, 4 * hidden_size))
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = self.register_parameter("bias", bias)
        self._cache: dict | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected (batch, time, {self.input_size}), got {x.shape}"
            )
        batch, steps, _ = x.shape
        H = self.hidden_size
        h = np.zeros((batch, H))
        c = np.zeros((batch, H))
        outputs = np.empty((batch, steps, H))
        cache = {
            "x": x,
            "h_prev": np.empty((batch, steps, H)),
            "c_prev": np.empty((batch, steps, H)),
            "i": np.empty((batch, steps, H)),
            "f": np.empty((batch, steps, H)),
            "g": np.empty((batch, steps, H)),
            "o": np.empty((batch, steps, H)),
            "tanh_c": np.empty((batch, steps, H)),
        }
        W = self.weight.value
        b = self.bias.value
        for t in range(steps):
            cache["h_prev"][:, t] = h
            cache["c_prev"][:, t] = c
            z = np.concatenate([x[:, t], h], axis=1)
            gates = z @ W + b
            i = _sigmoid(gates[:, :H])
            f = _sigmoid(gates[:, H : 2 * H])
            g = np.tanh(gates[:, 2 * H : 3 * H])
            o = _sigmoid(gates[:, 3 * H :])
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            outputs[:, t] = h
            cache["i"][:, t] = i
            cache["f"][:, t] = f
            cache["g"][:, t] = g
            cache["o"][:, t] = o
            cache["tanh_c"][:, t] = tanh_c
        self._cache = cache
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x = cache["x"]
        batch, steps, _ = x.shape
        H = self.hidden_size
        W = self.weight.value
        grad_x = np.zeros_like(x)
        dh_next = np.zeros((batch, H))
        dc_next = np.zeros((batch, H))
        for t in range(steps - 1, -1, -1):
            i = cache["i"][:, t]
            f = cache["f"][:, t]
            g = cache["g"][:, t]
            o = cache["o"][:, t]
            tanh_c = cache["tanh_c"][:, t]
            c_prev = cache["c_prev"][:, t]
            h_prev = cache["h_prev"][:, t]

            dh = grad_output[:, t] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f

            d_gates = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            z = np.concatenate([x[:, t], h_prev], axis=1)
            self.weight.grad += z.T @ d_gates
            self.bias.grad += d_gates.sum(axis=0)
            dz = d_gates @ W.T
            grad_x[:, t] = dz[:, : self.input_size]
            dh_next = dz[:, self.input_size :]
        return grad_x


class LSTM(Module):
    """Stack of LSTM layers; returns the top layer's output sequence.

    The paper feeds the 59-record price history through "a three-tier
    LSTM structure" and uses the final embedding, i.e.
    ``forward(x)[:, -1, :]``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive: {num_layers}")
        rng = rng if rng is not None else default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.layers: list[_LSTMLayer] = []
        for index in range(num_layers):
            layer = _LSTMLayer(input_size if index == 0 else hidden_size, hidden_size, rng)
            self.layers.append(layer)
            self.register_child(f"layer{index}", layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def last_step_backward_seed(self, grad_last: np.ndarray, steps: int) -> np.ndarray:
        """Expand a gradient w.r.t. the final timestep into a full
        output-sequence gradient (zeros elsewhere)."""
        batch, hidden = grad_last.shape
        grad = np.zeros((batch, steps, hidden))
        grad[:, -1] = grad_last
        return grad


def infer_stacked(lstms: Sequence[LSTM], x: np.ndarray) -> np.ndarray:
    """Advance M same-shaped LSTMs one sequence each, in one pass.

    ``x`` is (M, time, features) and row m feeds ``lstms[m]``; the
    result is the top layers' (M, time, hidden) outputs.  Each timestep
    is one ``(M, 1, K) @ (M, K, 4H)`` matmul over the models' weights
    stacked C-contiguous.  NumPy runs a stacked matmul as one GEMV per
    model, the kernel a one-row :meth:`LSTM.forward` calls, so row m
    equals ``lstms[m].forward(x[m:m + 1])[0]`` bit for bit, without
    filling the BPTT cache that ``forward`` keeps for ``backward``.  A
    one-model pass is the M = 1 case.  Batching the rows into one 2-D
    (M, K) @ (K, 4H) GEMM through shared weights would not be exact:
    its blocked kernel sums in another order.
    """
    if not lstms:
        raise ValueError("infer_stacked needs at least one LSTM")
    first = lstms[0]
    shape = (first.input_size, first.hidden_size, first.num_layers)
    for lstm in lstms:
        if (lstm.input_size, lstm.hidden_size, lstm.num_layers) != shape:
            raise ValueError(
                "stacked LSTMs must share (input, hidden, layers) "
                f"{shape}; got {(lstm.input_size, lstm.hidden_size, lstm.num_layers)}"
            )
    if x.ndim != 3 or x.shape[0] != len(lstms) or x.shape[2] != first.input_size:
        raise ValueError(
            f"expected ({len(lstms)}, time, {first.input_size}), got {x.shape}"
        )
    x = x[:, None]
    for depth in range(first.num_layers):
        layers = [lstm.layers[depth] for lstm in lstms]
        W = np.array([layer.weight.value for layer in layers])
        b = np.array([layer.bias.value for layer in layers])[:, None, :]
        x = _infer_steps(x, W, b, first.hidden_size)
    return x[:, 0]
