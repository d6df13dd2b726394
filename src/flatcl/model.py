"""Multi-head MLP classifier: shared encoder plus one output head per task."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParameterSet


@dataclass
class Batch:
    features: np.ndarray  # (batch, input_dim) float64
    labels: np.ndarray    # (batch,) int
    task_id: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if self.features.shape[0] != self.labels.shape[0] or self.features.shape[0] < 1:
            raise ValueError("batch must be nonempty with matching features/labels")

    def __len__(self):
        return self.labels.shape[0]


def _kaiming_uniform(rng, fan_in, shape):
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class MultiHeadClassifier:
    """Shared encoder with per-task affine heads.

    Every weight lives in one contiguous float64 buffer, `theta`, laid out as
    enc0.W, enc0.b, ..., head0.W, head0.b, head1.W, ... (each W row-major).
    `encoder`, `heads` and `parameters()` are reshaped views of it, so a
    hand-written batched forward/backward reads the current weights on every
    call and perturb/restore is in-place mutation of `theta`.
    `add_task_head` reallocates the buffer and appends the new head at the
    end, leaving the offsets of all earlier weights unchanged; the weights
    constrained while training a task are therefore a prefix of `theta`.
    """

    def __init__(self, seed: int, input_dim: int, hidden_dims: list[int],
                 per_task_classes: list[int], activation: str = "tanh"):
        if input_dim < 1 or any(d < 1 for d in hidden_dims):
            raise ValueError("all dims must be >= 1")
        if len(per_task_classes) < 1 or any(c < 1 for c in per_task_classes):
            raise ValueError("need at least one task head with >= 1 classes")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.init_seed = seed
        self.input_dim = input_dim
        self.hidden_dims = list(hidden_dims)
        self.activation = activation
        rng = np.random.Generator(np.random.PCG64(seed))
        layers = []
        prev = input_dim
        for i, width in enumerate(hidden_dims):
            layers.append((f"enc{i}.W", _kaiming_uniform(rng, prev, (prev, width))))
            layers.append((f"enc{i}.b", np.zeros(width)))
            prev = width
        self.head_classes: list[int] = []
        self._bind(ParameterSet(layers))
        for classes in per_task_classes:
            self.add_task_head(classes)

    def _bind(self, params: ParameterSet):
        """Adopt `params` (encoder, then heads in task order) as the weights."""
        self._params = params
        self.theta = params.flat
        self.encoder: list[tuple[np.ndarray, np.ndarray]] = [
            (params[f"enc{i}.W"], params[f"enc{i}.b"]) for i in range(len(self.hidden_dims))]
        self.heads: list[tuple[np.ndarray, np.ndarray]] = [
            (params[f"head{t}.W"], params[f"head{t}.b"]) for t in range(len(self.head_classes))]

    @property
    def encoder_dim(self) -> int:
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim

    def add_task_head(self, class_count: int) -> int:
        """Append a freshly initialized head; returns its task id."""
        if class_count < 1:
            raise ValueError("class_count must be >= 1")
        task_id = len(self.heads)
        # Head seeds derive from (init_seed, task_id) so adding heads later
        # reproduces the same weights regardless of training history.
        rng = np.random.Generator(np.random.PCG64([self.init_seed, 7919, task_id]))
        w = _kaiming_uniform(rng, self.encoder_dim, (self.encoder_dim, class_count))
        self.head_classes.append(class_count)
        self._bind(ParameterSet([*self._params.items(), (f"head{task_id}.W", w),
                                 (f"head{task_id}.b", np.zeros(class_count))]))
        return task_id

    # -- parameter views -------------------------------------------------

    def parameters(self) -> ParameterSet:
        """Live view over `theta`: the model's own storage, not a copy.  The
        same set is returned until the next `add_task_head`."""
        return self._params

    def set_parameters(self, values: ParameterSet):
        self._params.require_aligned(values, "set_parameters")
        np.copyto(self.theta, values.flat)

    def encoder_names(self) -> list[str]:
        return [f"enc{i}.{p}" for i in range(len(self.encoder)) for p in "Wb"]

    def head_names(self, task_id: int) -> list[str]:
        return [f"head{task_id}.W", f"head{task_id}.b"]

    def constrained_names(self, current_task: int) -> list[str]:
        """Encoder plus heads of tasks before `current_task`."""
        names = self.encoder_names()
        for t in range(min(current_task, len(self.heads))):
            names.extend(self.head_names(t))
        return names

    # -- batched forward/backward kernel ----------------------------------
    #
    # Each step repeats the float64 operation a reverse-mode autodiff graph
    # of the same network would run, in the same order, so losses and
    # gradients are bitwise those of the graph.

    def _forward(self, features, task_id):
        """(layer inputs [x, h1, ..., hL], logits) for one head."""
        if not 0 <= task_id < len(self.heads):
            raise ValueError(f"no head for task {task_id} (have {len(self.heads)})")
        h = np.asarray(features, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.input_dim:
            raise ValueError(f"features of shape {h.shape} do not match "
                             f"input_dim {self.input_dim}")
        acts = [h]
        for w, b in self.encoder:
            z = h @ w + b
            h = np.tanh(z) if self.activation == "tanh" else np.maximum(z, 0.0)
            acts.append(h)
        w, b = self.heads[task_id]
        return acts, h @ w + b

    def _log_probs(self, features, labels, task_id):
        """(layer inputs, log-softmax of the logits) after a label-range check."""
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != np.shape(features)[0]:
            raise ValueError(f"labels of shape {labels.shape} do not match "
                             f"{np.shape(features)[0]} feature rows")
        acts, logits = self._forward(features, task_id)
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
            raise ValueError(f"labels out of range [0, {logits.shape[1]}) "
                             f"for task {task_id}")
        z = logits - logits.max(axis=-1, keepdims=True)
        return acts, z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def _activation_backward(self, delta, h):
        """Adjoint of a layer's pre-activation from that of its output h."""
        return delta * (1.0 - h * h) if self.activation == "tanh" else delta * (h > 0.0)

    def _backprop(self, acts, delta, task_id):
        """Yield (layer name, layer input, logit-side adjoint) from the head
        down; rows of `delta` stay per sample."""
        w = self.heads[task_id][0]
        yield f"head{task_id}", acts[-1], delta
        for i in reversed(range(len(self.encoder))):
            delta = self._activation_backward(delta @ w.T, acts[i + 1])
            w = self.encoder[i][0]
            yield f"enc{i}", acts[i], delta

    def task_loss(self, batch: Batch) -> float:
        _, logp = self._log_probs(batch.features, batch.labels, batch.task_id)
        return float(-logp[np.arange(len(batch)), batch.labels].mean())

    def loss_gradient(self, batch: Batch):
        """(loss value, gradient ParameterSet) for mean cross-entropy.  Each
        layer's block is written into one zeroed buffer laid out like `theta`."""
        acts, logp = self._log_probs(batch.features, batch.labels, batch.task_id)
        rows = np.arange(len(batch))
        loss = -logp[rows, batch.labels].mean()
        g = np.zeros_like(logp)
        g[rows, batch.labels] = -1.0 / len(batch)
        delta = g - np.exp(logp) * g.sum(axis=-1, keepdims=True)
        grads = self._params.zeros_like()
        for name, h, d in self._backprop(acts, delta, batch.task_id):
            np.matmul(h.T, d, out=grads[name + ".W"])
            np.sum(d, axis=0, out=grads[name + ".b"])
        return float(loss), grads

    def log_prob_gradient(self, features, label, task_id: int) -> ParameterSet:
        """Per-sample gradient of log p(true label | x; w).

        Equals minus the gradient of the single-sample nll loss; the
        empirical-Fisher convention uses the observed label.
        """
        features = np.asarray(features, dtype=np.float64).reshape(1, -1)
        batch = Batch(features, np.array([label]), task_id)
        _, grads = self.loss_gradient(batch)
        return grads.scale(-1.0)

    def gradient_second_moments(self, features, labels, task_id: int):
        """Squared per-sample log-prob gradients in one batched pass.

        Returns (ParameterSet of per-coordinate sums over samples of g_i^2,
        array of per-sample squared norms ||g_i||^2).  A layer with inputs H
        and per-sample logit-side adjoints D contributes (H^2)^T (D^2) to its
        weights and (||h_i||^2 + 1) * ||d_i||^2 to sample i.
        """
        labels = np.asarray(labels, dtype=np.int64)
        acts, logp = self._log_probs(features, labels, task_id)
        delta = np.exp(logp)
        delta[np.arange(len(delta)), labels] -= 1.0
        sums = self._params.zeros_like()
        sq_norms = np.zeros(len(delta))
        for name, h, d in self._backprop(acts, delta, task_id):
            h2, d2 = h * h, d * d
            np.matmul(h2.T, d2, out=sums[name + ".W"])
            np.sum(d2, axis=0, out=sums[name + ".b"])
            sq_norms += (h2.sum(axis=1) + 1.0) * d2.sum(axis=1)
        return sums, sq_norms

    def loss_hvp(self, batch: Batch, v: ParameterSet) -> ParameterSet:
        """Exact Hessian-vector product of the mean cross-entropy.

        Pearlmutter's R-operator: push the directional derivative R{.} = d/dt
        at w + t v through the forward pass, then through the backward pass.
        Relu kinks contribute no curvature.
        """
        acts, logp = self._log_probs(batch.features, batch.labels, batch.task_id)
        n = len(batch)
        layers = [(f"enc{i}", w) for i, (w, _) in enumerate(self.encoder)]
        layers.append((f"head{batch.task_id}", self.heads[batch.task_id][0]))
        r_acts = [np.zeros_like(acts[0])]  # R{input} of each layer
        for k, (name, w) in enumerate(layers):
            r_out = r_acts[k] @ w + acts[k] @ v[name + ".W"] + v[name + ".b"]
            if k + 1 < len(layers):
                r_acts.append(self._activation_backward(r_out, acts[k + 1]))
        p = np.exp(logp)
        delta = p.copy()
        delta[np.arange(n), batch.labels] -= 1.0
        delta /= n
        r_delta = p * (r_out - (p * r_out).sum(axis=1, keepdims=True)) / n
        out = self._params.zeros_like()
        for k in reversed(range(len(layers))):
            name, w = layers[k]
            out[name + ".W"] = acts[k].T @ r_delta + r_acts[k].T @ delta
            np.sum(r_delta, axis=0, out=out[name + ".b"])
            if k == 0:
                break
            d_h = delta @ w.T
            r_d_h = r_delta @ w.T + delta @ v[name + ".W"].T
            delta = self._activation_backward(d_h, acts[k])
            r_delta = self._activation_backward(r_d_h, acts[k])
            if self.activation == "tanh":
                r_delta -= 2.0 * d_h * acts[k] * r_acts[k]
        return out

    def logits(self, features, task_id: int) -> np.ndarray:
        return self._forward(features, task_id)[1]

    def predict(self, features, task_id: int) -> np.ndarray:
        """Argmax class ids; ties broken by lowest class index."""
        return np.argmax(self.logits(features, task_id), axis=1)

    def accuracy(self, features, labels, task_id: int) -> float:
        pred = self.predict(features, task_id)
        return float(np.mean(pred == np.asarray(labels)))

    def clone(self) -> "MultiHeadClassifier":
        other = MultiHeadClassifier.__new__(MultiHeadClassifier)
        other.init_seed = self.init_seed
        other.input_dim = self.input_dim
        other.hidden_dims = list(self.hidden_dims)
        other.activation = self.activation
        other.head_classes = list(self.head_classes)
        other._bind(self._params.copy())
        return other
