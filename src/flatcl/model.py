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
    `parameters()` lays those names over it, so a hand-written batched
    forward/backward reads the current weights on every call and
    perturb/restore is in-place mutation of `theta`.
    The constructor lays out all of its heads in one buffer at once;
    `add_task_head` reallocates the buffer and appends the new head at the
    end, leaving the offsets of all earlier weights unchanged; the weights
    constrained while training a task are therefore a prefix of `theta`.

    `_bind` builds one layer plan per head, the model's only map of its
    blocks: for each layer from the input up, `(W, b, W slice, b slice)`,
    the `(W, b)` views of `theta` and the slices where those blocks lie in
    any vector laid out like it.  The kernels walk that plan, so a step
    builds no names and looks up no layers.  The gradient kernel writes
    into `_output_views` of a flat buffer, the plan's blocks as 2-D views,
    which a caller binds once per buffer and head.  The public methods
    check their inputs and then call the unchecked kernel; the training
    loop checks each task's rows once, binds the views of the buffers it
    owns once per task and calls the kernel directly.

    The gradient, the per-sample Fisher pass and the Hessian bind share one
    backward pass, `_adjoints`.  The gradient and the Fisher pass seed it
    with one output-layer adjoint, `_output_adjoint`; the Hessian bind
    forms its own, `(p - onehot) / n`.  The Hessian-vector product is
    split into a bind step and an apply step (`_hvp_operator`): binding to
    checked rows runs the forward pass, the softmax and the backward
    adjoints once, and the operator it returns runs only the passes that
    depend on the direction.  A Lanczos run binds once and applies per
    iteration; `probe.hvp` on a `model_objective` binds and applies once.
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
        for t, classes in enumerate(per_task_classes):
            layers.extend(self._new_head(t, classes))
        self.head_classes = list(per_task_classes)
        self._bind(ParameterSet(layers))

    def _bind(self, params: ParameterSet):
        """Adopt `params` (encoder, then heads in task order, each layer a
        consecutive (W, b) pair) as the weights and plan each head."""
        self._params = params
        self.theta = params.flat
        names = params.names()
        layers = [(params[w], params[b], params.slice_of(w), params.slice_of(b))
                  for w, b in zip(names[0::2], names[1::2])]
        depth = len(self.hidden_dims)
        self._plans = [layers[:depth] + [head] for head in layers[depth:]]

    @property
    def encoder_dim(self) -> int:
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim

    def _new_head(self, task_id: int, class_count: int):
        """The (name, array) pairs of a freshly initialized head.  Head seeds
        derive from (init_seed, task_id), so a head has the same weights
        whether the model was built with it or it was added later."""
        rng = np.random.Generator(np.random.PCG64([self.init_seed, 7919, task_id]))
        w = _kaiming_uniform(rng, self.encoder_dim, (self.encoder_dim, class_count))
        return [(f"head{task_id}.W", w), (f"head{task_id}.b", np.zeros(class_count))]

    def add_task_head(self, class_count: int) -> int:
        """Append a freshly initialized head; returns its task id."""
        if class_count < 1:
            raise ValueError("class_count must be >= 1")
        task_id = len(self.head_classes)
        self.head_classes.append(class_count)
        self._bind(ParameterSet([*self._params.items(),
                                 *self._new_head(task_id, class_count)]))
        return task_id

    # -- parameter views -------------------------------------------------

    def parameters(self) -> ParameterSet:
        """Live view over `theta`: the model's own storage, not a copy.  The
        same set is returned until the next `add_task_head`."""
        return self._params

    def set_parameters(self, values: ParameterSet):
        self._params.require_aligned(values, "set_parameters")
        np.copyto(self.theta, values.flat)

    def constrained_names(self, current_task: int) -> list[str]:
        """Encoder plus heads of tasks before `current_task`: a prefix of
        the layout."""
        layers = len(self.hidden_dims) + min(current_task, len(self.head_classes))
        return self._params.names()[:2 * layers]

    # -- batched forward/backward kernel ----------------------------------
    #
    # Each step repeats the float64 operation a reverse-mode autodiff graph
    # of the same network would run, in the same order, so losses and
    # gradients are bitwise those of the graph.  `_check_rows` is the input
    # check of every public entry point; the other `_` methods trust their
    # inputs: float64 rows of width `input_dim`, int64 labels in range for an
    # existing head.

    def _check_rows(self, features, labels, task_id):
        """(float64 features, int64 labels) after the shape and label-range
        checks every entry point runs; `labels` may be None."""
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.ndim != 1 or labels.shape[0] != np.shape(features)[0]:
                raise ValueError(f"labels of shape {labels.shape} do not match "
                                 f"{np.shape(features)[0]} feature rows")
        if not 0 <= task_id < len(self.head_classes):
            raise ValueError(f"no head for task {task_id} (have {len(self.head_classes)})")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.input_dim:
            raise ValueError(f"features of shape {features.shape} do not match "
                             f"input_dim {self.input_dim}")
        classes = self.head_classes[task_id]
        if labels is not None and (labels.min(initial=0) < 0
                                   or labels.max(initial=0) >= classes):
            raise ValueError(f"labels out of range [0, {classes}) for task {task_id}")
        return features, labels

    def _forward(self, features, task_id):
        """(layer inputs [x, h1, ..., hL], logits) for one head."""
        plan = self._plans[task_id]
        h = features
        acts = [h]
        for w, b, _, _ in plan[:-1]:
            z = h @ w
            z += b
            h = np.tanh(z, out=z) if self.activation == "tanh" else np.maximum(z, 0.0, out=z)
            acts.append(h)
        w, b, _, _ = plan[-1]
        logits = h @ w
        logits += b
        return acts, logits

    def _log_probs(self, features, task_id):
        """(layer inputs, log-softmax of the logits)."""
        acts, z = self._forward(features, task_id)
        # in place; the reductions are the ones `.max` and `.sum` call
        z -= np.maximum.reduce(z, axis=-1, keepdims=True)
        lse = np.add.reduce(np.exp(z), axis=-1, keepdims=True)
        z -= np.log(lse, out=lse)
        return acts, z

    @staticmethod
    def _output_adjoint(logp, labels, scale):
        """scale * (softmax - onehot(labels)) from log-probabilities: the
        logit adjoint of the mean loss (scale 1/n) and of each sample's
        loss (scale 1).  Equal bit for bit to an autodiff graph's
        `g - softmax * g.sum(-1)` for the one-hot `g` of -scale: each row of
        `g` sums to exactly -scale, and IEEE negation is exact."""
        d = np.exp(logp)
        d *= scale
        d[np.arange(labels.shape[0]), labels] -= scale
        return d

    def _output_views(self, out, task_id):
        """Per layer of head `task_id`, the (W, b) blocks of flat `out` (laid
        out like `theta`) as views shaped like the weights: the kernel's
        output, bound once per buffer and head."""
        return [(out[w_sl].reshape(w.shape), out[b_sl])
                for w, _, w_sl, b_sl in self._plans[task_id]]

    def _adjoints(self, plan, acts, delta):
        """The backward pass from `delta`, the adjoint of the last layer's
        output: (out, inp), where out[k] is the adjoint of layer k's affine
        output and inp[k] that of its input acts[k] (inp[0] is None; the
        rows need none)."""
        out, inp = [None] * len(plan), [None] * len(plan)
        out[-1] = delta
        for k in range(len(plan) - 1, 0, -1):
            inp[k] = d_h = out[k] @ plan[k][0].T
            h = acts[k]
            out[k - 1] = d_h * (1.0 - h * h) if self.activation == "tanh" else d_h * (h > 0.0)
        return out, inp

    def _loss_gradient_into(self, features, labels, task_id, views) -> float:
        """Mean cross-entropy of the rows; its gradient goes into `views`,
        `_output_views(out, task_id)` of a flat vector `out` laid out like
        `theta`.  Every block of `out` that head `task_id` does not reach is
        left as it was."""
        acts, logp = self._log_probs(features, task_id)
        self._gradient_into(acts, logp, labels, task_id, views)
        n = labels.shape[0]
        return float(-(np.add.reduce(logp[np.arange(n), labels]) / n))  # .mean()'s sum and divide

    def _gradient_into(self, acts, logp, labels, task_id, views):
        """The backward half of `_loss_gradient_into`, from `_log_probs`.
        `views` may stop short of the head: the layers past its end are
        not written."""
        deltas, _ = self._adjoints(self._plans[task_id], acts,
                                   self._output_adjoint(logp, labels, 1.0 / labels.shape[0]))
        for (out_w, out_b), h, delta in zip(views, acts, deltas):
            np.matmul(h.T, delta, out=out_w)
            np.add.reduce(delta, axis=0, out=out_b)  # delta.sum(axis=0)

    def task_loss(self, batch: Batch) -> float:
        features, labels = self._check_rows(batch.features, batch.labels, batch.task_id)
        return self._task_loss(features, labels, batch.task_id)

    def _task_loss(self, features, labels, task_id) -> float:
        _, logp = self._log_probs(features, task_id)
        return float(-logp[np.arange(labels.shape[0]), labels].mean())

    def loss_gradient(self, batch: Batch):
        """(loss value, gradient ParameterSet) for mean cross-entropy, in a
        fresh zeroed set laid out like `theta`."""
        features, labels = self._check_rows(batch.features, batch.labels, batch.task_id)
        return self._loss_gradient(features, labels, batch.task_id)

    def _loss_gradient(self, features, labels, task_id):
        grads = self._params.zeros_like()
        views = self._output_views(grads.flat, task_id)
        return self._loss_gradient_into(features, labels, task_id, views), grads

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

        Returns (per-coordinate sums over samples of g_i^2, laid out like
        `theta`; per-sample squared norms ||g_i||^2).  A layer with inputs H
        and per-sample logit-side adjoints D contributes (H^2)^T (D^2) to its
        weights and (||h_i||^2 + 1) * ||d_i||^2 to sample i.
        """
        features, labels = self._check_rows(features, labels, task_id)
        plan = self._plans[task_id]
        acts, logp = self._log_probs(features, task_id)
        deltas, _ = self._adjoints(plan, acts, self._output_adjoint(logp, labels, 1.0))
        sums = np.zeros(self.theta.size)
        views = self._output_views(sums, task_id)
        sq_norms = np.zeros(labels.shape[0])
        for k in range(len(plan) - 1, -1, -1):  # top-down, the order of the sums
            out_w, out_b = views[k]
            h2, d2 = acts[k] * acts[k], deltas[k] * deltas[k]
            np.matmul(h2.T, d2, out=out_w)
            np.sum(d2, axis=0, out=out_b)
            sq_norms += (h2.sum(axis=1) + 1.0) * d2.sum(axis=1)
        return sums, sq_norms

    def _hvp_operator(self, features, labels, task_id):
        """Bind Pearlmutter's R-operator to checked rows at the current weights.

        R{.} = d/dt at w + t v is pushed through the forward pass, then
        through the backward pass.  Everything that depends only on the
        weights and the rows (the layer inputs, the softmax, the backward
        adjoints, the activation derivatives) is computed here, once.  The
        returned operator maps a flat `v` to a fresh flat H v and runs only
        the R-forward and R-backward passes, taking each layer's block of
        `v` and of H v by the plan's slices; it is valid while the weights
        do not move.  Relu kinks contribute no curvature.
        """
        plan = self._plans[task_id]
        tanh = self.activation == "tanh"
        acts, logp = self._log_probs(features, task_id)
        n = labels.shape[0]
        p = np.exp(logp)
        # For k >= 1, layer k reads the hidden output acts[k]: slope[k] is
        # the activation's derivative there, adjoint[k] the loss adjoint of
        # layer k's output and, for tanh, curvature[k] = 2 * d_h * acts[k]
        # (d_h the loss adjoint of acts[k]) the factor that the activation's
        # second derivative contributes.
        slope = [None] + [(1.0 - h * h) if tanh else (h > 0.0) for h in acts[1:]]
        delta = p.copy()
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        adjoint, d_h = self._adjoints(plan, acts, delta)
        curvature = ([None] + [2.0 * d * h for d, h in zip(d_h[1:], acts[1:])]
                     if tanh else None)
        size = self.theta.size

        def hvp(v: np.ndarray) -> np.ndarray:
            out = np.zeros(size)
            v_w = [v[w_sl].reshape(w.shape) for w, _, w_sl, _ in plan]
            r_acts = [None]  # R{input} of each layer; R{x} = 0
            for k, (w, _, _, b_sl) in enumerate(plan):
                if k:
                    r_out = r_acts[k] @ w + acts[k] @ v_w[k] + v[b_sl]
                else:
                    r_out = acts[0] @ v_w[0] + v[b_sl]
                if k + 1 < len(plan):
                    r_acts.append(r_out * slope[k + 1])
            r_delta = p * (r_out - (p * r_out).sum(axis=1, keepdims=True)) / n
            for k in range(len(plan) - 1, -1, -1):
                w, _, w_sl, b_sl = plan[k]
                out_w = out[w_sl].reshape(w.shape)
                np.matmul(acts[k].T, r_delta, out=out_w)
                np.sum(r_delta, axis=0, out=out[b_sl])
                if k == 0:
                    break
                out_w += r_acts[k].T @ adjoint[k]
                r_delta = (r_delta @ w.T + adjoint[k] @ v_w[k].T) * slope[k]
                if tanh:
                    r_delta -= curvature[k] * r_acts[k]
            return out

        return hvp

    def logits(self, features, task_id: int) -> np.ndarray:
        features, _ = self._check_rows(features, None, task_id)
        return self._forward(features, task_id)[1]

    def predict(self, features, task_id: int) -> np.ndarray:
        """Argmax class ids; ties broken by lowest class index."""
        return np.argmax(self.logits(features, task_id), axis=1)

    def accuracy(self, features, labels, task_id: int) -> float:
        pred = self.predict(features, task_id)
        return float(np.mean(pred == np.asarray(labels)))

    def clone(self) -> "MultiHeadClassifier":
        other = MultiHeadClassifier(self.init_seed, self.input_dim, self.hidden_dims,
                                    self.head_classes, activation=self.activation)
        np.copyto(other.theta, self.theta)
        return other
