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
    forward/backward reads the current weights on every call.
    The constructor lays out all of its heads in one buffer at once;
    `add_task_head` reallocates the buffer and appends the new head at the
    end, leaving the offsets of all earlier weights unchanged; the weights
    constrained while training a task are therefore a prefix of `theta`.

    One method, `_plan(vec, task_id)`, lays a head's blocks over any vector
    laid out like `theta`, or a stack of them.  `_bind` keeps each head's
    plan over `theta`; plans over other vectors are what the gradient
    kernel writes, the Hessian operator reads directions from and the
    create step and the probes read perturbed weights from.  The kernels
    take a plan, not a task id, so no pass writes `theta`: only the
    constructors, `set_parameters` and the training loop's step, clamp and
    best-snapshot restore do.  The public methods check their inputs and then call the
    unchecked kernel; the training loop checks each task's rows once, binds
    the plans of the buffers it owns once per task and calls the kernel.

    The gradient, the per-sample Fisher pass and the Hessian bind share one
    output-layer adjoint, `_output_adjoint`, and one backward pass,
    `_adjoints`, with one activation derivative, `_slope`.  The
    Hessian-vector product is split into a bind step and an apply step
    (`_hvp_operator`): binding to checked rows runs the forward pass, the
    softmax and the backward adjoints once, and the operator it returns
    runs only the passes that depend on the direction.  A Lanczos run binds
    once and applies per iteration; `probe.hvp` on a `model_objective`
    binds and applies once.
    """

    def __init__(self, seed: int, input_dim: int, hidden_dims: list[int],
                 per_task_classes: list[int], activation: str = "tanh"):
        self._lay_out(seed, input_dim, hidden_dims, per_task_classes, activation)
        rng = np.random.Generator(np.random.PCG64(seed))
        for i in range(len(self.hidden_dims)):
            w = self._params[f"enc{i}.W"]
            w[...] = _kaiming_uniform(rng, w.shape[0], w.shape)
        for t, classes in enumerate(self.head_classes):
            for name, value in self._new_head(t, classes):
                self._params[name] = value

    @classmethod
    def from_weights(cls, theta, seed: int, input_dim: int, hidden_dims: list[int],
                     per_task_classes: list[int], activation: str = "tanh"):
        """The model `cls(seed, ...)` describes, holding a copy of the flat
        weights `theta` in place of its initial ones, which are not drawn:
        what a checkpoint load and `clone` build."""
        model = cls.__new__(cls)
        model._lay_out(seed, input_dim, hidden_dims, per_task_classes, activation)
        if np.shape(theta) != model.theta.shape:
            raise ValueError(f"weights of shape {np.shape(theta)} do not fit a model "
                             f"of {model.theta.size} weights")
        np.copyto(model.theta, theta)
        return model

    def _lay_out(self, seed, input_dim, hidden_dims, per_task_classes, activation):
        """Check and keep the model's description, and bind zero weights
        laid out for it."""
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
        self.head_classes = list(per_task_classes)
        dims = [input_dim, *self.hidden_dims]
        blocks = []
        for i, width in enumerate(self.hidden_dims):
            blocks += [(f"enc{i}.W", (dims[i], width)), (f"enc{i}.b", (width,))]
        for t, classes in enumerate(self.head_classes):
            blocks += [(f"head{t}.W", (self.encoder_dim, classes)), (f"head{t}.b", (classes,))]
        self._bind(ParameterSet((name, np.zeros(shape)) for name, shape in blocks))

    def _bind(self, params: ParameterSet):
        """Adopt `params` (encoder, then heads in task order, each layer a
        consecutive (W, b) pair) as the weights and plan each head."""
        self._params = params
        self.theta = params.flat
        names = params.names()
        # each W is followed by its b, so a layer is one (rows + 1, cols) block [W; b]
        layers = [(slice(params.slice_of(w).start, params.slice_of(b).stop),
                   (params[w].shape[0] + 1, params[w].shape[1]))
                  for w, b in zip(names[0::2], names[1::2])]
        depth = len(self.hidden_dims)
        self._layers = [layers[:depth] + [head] for head in layers[depth:]]
        self._plans = [self._plan(self.theta, t) for t in range(len(self._layers))]

    def _plan(self, vec, task_id):
        """Head `task_id`'s layers in `vec`, a flat vector laid out like
        `theta` or a (k, d) stack of them: per layer from the input up,
        `(W, b, Wb, slice)`.  `Wb` is the layer's folded block `[W; b]`,
        (rows + 1, cols), `W` and `b` are its views shaped like the weights
        ((k, rows, cols) and (k, 1, cols) for a stack), and `slice` is where
        the layer lies in a flat vector."""
        plan = []
        for sl, shape in self._layers[task_id]:
            if vec.ndim == 1:
                wb = vec[sl].reshape(shape)
                plan.append((wb[:-1], wb[-1], wb, sl))
            else:
                wb = vec[:, sl].reshape(vec.shape[0], *shape)
                plan.append((wb[:, :-1], wb[:, -1:], wb, sl))
        return plan

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

    def _forward(self, features, plan):
        """(layer inputs [x, h1, ..., hL], logits) through `plan`: a head's
        plan, or one whose (W, b) blocks are stacks over k weight vectors,
        (k, rows, cols) and (k, 1, cols), which gives every layer after the
        input a leading axis of k.  Each matmul broadcasts over the stack
        and runs per stack entry the product the unstacked plan runs."""
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

    def _log_probs(self, features, plan):
        """(layer inputs, log-softmax of the logits) through `plan`."""
        acts, z = self._forward(features, plan)
        # in place; the reductions are the ones `.max` and `.sum` call
        z -= np.maximum.reduce(z, axis=-1, keepdims=True)
        lse = np.add.reduce(np.exp(z), axis=-1, keepdims=True)
        z -= np.log(lse, out=lse)
        return acts, z

    @staticmethod
    def _output_adjoint(p, labels, scale):
        """scale * (p - onehot(labels)), written over the softmax `p`: the
        logit adjoint of the mean loss (scale 1/n) and of each sample's
        loss (scale 1).  Equal bit for bit to an autodiff graph's
        `g - p * g.sum(-1)` for the one-hot `g` of -scale: each row of `g`
        sums to exactly -scale, and IEEE negation is exact."""
        p *= scale
        p[np.arange(labels.shape[0]), labels] -= scale
        return p

    def _adjoints(self, plan, acts, delta):
        """The backward pass from `delta`, the adjoint of the last layer's
        output: (out, inp), where out[k] is the adjoint of layer k's affine
        output and inp[k] that of its input acts[k] (inp[0] is None; the
        rows need none)."""
        out, inp = [None] * len(plan), [None] * len(plan)
        out[-1] = delta
        for k in range(len(plan) - 1, 0, -1):
            inp[k] = d_h = out[k] @ plan[k][0].T
            out[k - 1] = d_h * self._slope(acts[k])
        return out, inp

    def _slope(self, h):
        """The activation's derivative at its output `h`."""
        return (1.0 - h * h) if self.activation == "tanh" else (h > 0.0)

    @staticmethod
    def _nll(logp, labels):
        """Mean negative log-probability of the labels over the last two
        axes of `logp`: `.mean()`'s sum and divide.  The picks are made
        C-contiguous first: a stack's picks come out column-major, and a
        sum along a strided axis adds in another order."""
        picked = np.ascontiguousarray(logp[..., np.arange(labels.size), labels])
        return -(np.add.reduce(picked, axis=-1) / labels.size)

    def _loss_gradient_into(self, features, labels, plan, views) -> float:
        """Mean cross-entropy of the rows through the weights `plan`; its
        gradient goes into `views`, the same head's plan over a flat vector
        laid out like `theta`.  Every block of that vector the head does not
        reach is left as it was."""
        acts, logp = self._log_probs(features, plan)
        self._gradient_into(acts, logp, labels, plan, views)
        return float(self._nll(logp, labels))

    def _gradient_into(self, acts, logp, labels, plan, views):
        """The backward half of `_loss_gradient_into`, from `_log_probs`.
        `views` may stop short of the head: the layers past its end are
        not written."""
        d_out = self._output_adjoint(np.exp(logp), labels, 1.0 / labels.shape[0])
        deltas, _ = self._adjoints(plan, acts, d_out)
        for (out_w, out_b, _, _), h, delta in zip(views, acts, deltas):
            np.matmul(h.T, delta, out=out_w)
            np.add.reduce(delta, axis=0, out=out_b)  # delta.sum(axis=0)

    def task_loss(self, batch: Batch) -> float:
        features, labels = self._check_rows(batch.features, batch.labels, batch.task_id)
        return self._task_loss(features, labels, batch.task_id)

    def _task_loss(self, features, labels, task_id) -> float:
        return float(self._nll(self._log_probs(features, self._plans[task_id])[1], labels))

    def _task_losses(self, features, labels, task_id, thetas) -> np.ndarray:
        """`_task_loss` at each row of `thetas`, a (k, d) stack of weight
        vectors laid out like `theta`, in one pass through the stack's plan.
        Each loss equals bit for bit the one `_task_loss` gives with that
        row as the weights; `theta` is not read."""
        return self._nll(self._log_probs(features, self._plan(thetas, task_id))[1], labels)

    def loss_gradient(self, batch: Batch):
        """(loss value, gradient ParameterSet) for mean cross-entropy, in a
        fresh zeroed set laid out like `theta`."""
        features, labels = self._check_rows(batch.features, batch.labels, batch.task_id)
        return self._loss_gradient(features, labels, batch.task_id)

    def _loss_gradient(self, features, labels, task_id):
        grads = self._params.zeros_like()
        views = self._plan(grads.flat, task_id)
        return self._loss_gradient_into(features, labels, self._plans[task_id], views), grads

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
        acts, logp = self._log_probs(features, plan)
        deltas, _ = self._adjoints(plan, acts, self._output_adjoint(np.exp(logp), labels, 1.0))
        sums = np.zeros(self.theta.size)
        views = self._plan(sums, task_id)
        sq_norms = np.zeros(labels.shape[0])
        for k in range(len(plan) - 1, -1, -1):  # top-down, the order of the sums
            out_w, out_b, _, _ = views[k]
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
        the R-forward and R-backward passes.  Each layer works on its folded
        block `[W; b]` and on its input with a ones column appended, so the
        direction's `acts @ v_W + v_b` is one matmul and H v's W and b rows
        are one matmul too; the 1/n of the mean is folded into the softmax
        once.  `v` is copied into a direction buffer whose blocks, like those
        of the output buffer, are laid out by `_plan` here, so an apply
        builds no views; it returns a copy of the output buffer.  The
        operator is valid while the weights do not move.  Relu kinks
        contribute no curvature.
        """
        plan = self._plans[task_id]
        tanh = self.activation == "tanh"
        acts, logp = self._log_probs(features, plan)
        n = labels.shape[0]
        p = np.exp(logp)
        # For k >= 1 layer k reads the hidden output acts[k]: slope[k] is the
        # activation's derivative there, adjoint[k] the loss adjoint of layer
        # k's output and, for tanh, curvature[k] = 2 * d_h * acts[k] (d_h the
        # loss adjoint of acts[k]) the activation's second-derivative factor.
        slope = [None] + [self._slope(h) for h in acts[1:]]
        adjoint, d_h = self._adjoints(plan, acts, self._output_adjoint(p.copy(), labels, 1.0 / n))
        curvature = ([None] + [2.0 * d * h for d, h in zip(d_h[1:], acts[1:])]
                     if tanh else None)
        p_n = p * (1.0 / n)
        ones = np.ones((n, 1))
        aug = [np.concatenate((h, ones), axis=1) for h in acts]  # [h, 1] @ [W; b] = h @ W + b
        aug_t = [a.T for a in aug]
        weights, weights_t = [w for w, *_ in plan], [w.T for w, *_ in plan]
        # every block of the head is overwritten by each apply; the others stay 0
        out, direction = np.zeros(self.theta.size), np.zeros(self.theta.size)
        out_plan, v_plan = self._plan(out, task_id), self._plan(direction, task_id)
        out_w, out_wb = [w for w, *_ in out_plan], [wb for _, _, wb, _ in out_plan]
        v_wb, v_w_t = [wb for _, _, wb, _ in v_plan], [w.T for w, *_ in v_plan]

        def hvp(v: np.ndarray) -> np.ndarray:
            np.copyto(direction, v)
            r_acts = [None]  # R{input} of each layer; R{x} = 0
            r_out = aug[0] @ v_wb[0]
            for k in range(1, len(plan)):
                r_acts.append(r_out * slope[k])
                r_out = r_acts[k] @ weights[k] + aug[k] @ v_wb[k]
            # np.add.reduce is the reduction `.sum` and `np.sum` call
            r_delta = p_n * (r_out - np.add.reduce(p * r_out, axis=1, keepdims=True))
            for k in range(len(plan) - 1, 0, -1):
                np.matmul(aug_t[k], r_delta, out=out_wb[k])
                out_w[k] += r_acts[k].T @ adjoint[k]
                r_delta = (r_delta @ weights_t[k] + adjoint[k] @ v_w_t[k]) * slope[k]
                if tanh:
                    r_delta -= curvature[k] * r_acts[k]
            np.matmul(aug_t[0], r_delta, out=out_wb[0])
            return out.copy()

        return hvp

    def logits(self, features, task_id: int) -> np.ndarray:
        features, _ = self._check_rows(features, None, task_id)
        return self._forward(features, self._plans[task_id])[1]

    def predict(self, features, task_id: int) -> np.ndarray:
        """Argmax class ids; ties broken by lowest class index."""
        return np.argmax(self.logits(features, task_id), axis=1)

    def accuracy(self, features, labels, task_id: int) -> float:
        pred = self.predict(features, task_id)
        return float(np.mean(pred == np.asarray(labels)))

    def clone(self) -> "MultiHeadClassifier":
        return MultiHeadClassifier.from_weights(self.theta, self.init_seed, self.input_dim,
                                                self.hidden_dims, self.head_classes,
                                                self.activation)
