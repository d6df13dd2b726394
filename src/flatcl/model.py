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

    Parameters live as raw float64 arrays that a hand-written batched
    forward/backward reads on every call, so perturb/restore is just array
    mutation.
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
        self.encoder: list[tuple[np.ndarray, np.ndarray]] = []
        rng = np.random.Generator(np.random.PCG64(seed))
        prev = input_dim
        for width in hidden_dims:
            w = _kaiming_uniform(rng, prev, (prev, width))
            b = np.zeros(width)
            self.encoder.append((w, b))
            prev = width
        self.heads: list[tuple[np.ndarray, np.ndarray]] = []
        self.head_classes: list[int] = []
        for classes in per_task_classes:
            self.add_task_head(classes)

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
        b = np.zeros(class_count)
        self.heads.append((w, b))
        self.head_classes.append(class_count)
        return task_id

    # -- parameter views -------------------------------------------------

    def _named_arrays(self):
        """(name, live array) pairs in parameter order."""
        for i, (w, b) in enumerate(self.encoder):
            yield f"enc{i}.W", w
            yield f"enc{i}.b", b
        for t, (w, b) in enumerate(self.heads):
            yield f"head{t}.W", w
            yield f"head{t}.b", b

    def parameters(self) -> ParameterSet:
        """Live view: arrays are the model's own storage, not copies."""
        return ParameterSet(self._named_arrays())

    def set_parameters(self, values: ParameterSet):
        own = self.parameters()
        own.require_aligned(values, "set_parameters")
        for name in own:
            np.copyto(own[name], values[name])

    def encoder_names(self) -> list[str]:
        return [n for n in self.parameters() if n.startswith("enc")]

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
        if task_id >= len(self.heads):
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

    def _full(self, layer_arrays: dict) -> ParameterSet:
        """Parameter-ordered set; layers not in `layer_arrays` get zeros."""
        return ParameterSet((n, layer_arrays[n] if n in layer_arrays else np.zeros_like(a))
                            for n, a in self._named_arrays())

    def task_loss(self, batch: Batch) -> float:
        _, logp = self._log_probs(batch.features, batch.labels, batch.task_id)
        return float(-logp[np.arange(len(batch)), batch.labels].mean())

    def loss_gradient(self, batch: Batch):
        """(loss value, gradient ParameterSet) for mean cross-entropy."""
        acts, logp = self._log_probs(batch.features, batch.labels, batch.task_id)
        rows = np.arange(len(batch))
        loss = -logp[rows, batch.labels].mean()
        g = np.zeros_like(logp)
        g[rows, batch.labels] = -1.0 / len(batch)
        delta = g - np.exp(logp) * g.sum(axis=-1, keepdims=True)
        grads = {}
        for name, h, d in self._backprop(acts, delta, batch.task_id):
            grads[name + ".W"] = h.T @ d
            grads[name + ".b"] = d.sum(axis=0)
        return float(loss), self._full(grads)

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
        sums = {}
        sq_norms = np.zeros(len(delta))
        for name, h, d in self._backprop(acts, delta, task_id):
            h2, d2 = h * h, d * d
            sums[name + ".W"] = h2.T @ d2
            sums[name + ".b"] = d2.sum(axis=0)
            sq_norms += (h2.sum(axis=1) + 1.0) * d2.sum(axis=1)
        return self._full(sums), sq_norms

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
        out = {}
        for k in reversed(range(len(layers))):
            name, w = layers[k]
            out[name + ".W"] = acts[k].T @ r_delta + r_acts[k].T @ delta
            out[name + ".b"] = r_delta.sum(axis=0)
            if k == 0:
                break
            d_h = delta @ w.T
            r_d_h = r_delta @ w.T + delta @ v[name + ".W"].T
            delta = self._activation_backward(d_h, acts[k])
            r_delta = self._activation_backward(r_d_h, acts[k])
            if self.activation == "tanh":
                r_delta -= 2.0 * d_h * acts[k] * r_acts[k]
        return self._full(out)

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
        other.encoder = [(w.copy(), b.copy()) for w, b in self.encoder]
        other.heads = [(w.copy(), b.copy()) for w, b in self.heads]
        other.head_classes = list(self.head_classes)
        return other
