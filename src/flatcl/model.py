"""Multi-head MLP classifier: shared encoder plus one output head per task."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import ParameterSet, _Layout
from .rules import _integer, check, generator, int_labels


@dataclass
class Batch:
    """Labeled rows for one head, a plain record: the model's entry points
    check them, through `MultiHeadClassifier._check_rows`."""
    features: np.ndarray  # (batch, input_dim) float64
    labels: np.ndarray    # (batch,) int
    task_id: int

    def __len__(self):
        return len(self.labels)


def _kaiming_uniform(rng, wb):
    """Draw the W rows of the folded block `wb` uniform in +-sqrt(6 /
    fan_in), fan_in being W's row count; the bias row is left as it is."""
    w = wb[:-1]
    bound = np.sqrt(6.0 / max(w.shape[0], 1))
    w[...] = rng.uniform(-bound, bound, size=w.shape)


# A run of T tasks makes T descriptions, one per head count, again for each
# seed of a multi-seed run: fewer than T entries evict each before its
# reuse, and 64 holds every description of a run of up to 64 tasks.
@functools.lru_cache(maxsize=64)
def _layout_of(input_dim, hidden_dims, head_classes):
    """The parameter layout of one checked model description: the encoder,
    then the heads in task order, each layer one name (enc0, ..., head0,
    head1, ...) over one folded block `[W; b]` of shape (fan_in + 1,
    fan_out), whose last row is the bias.  Built once per description and
    shared by every model of it; only the weights and the row buffers are a
    model's own."""
    rows = [fan_in + 1 for fan_in in (input_dim, *hidden_dims)]  # W's fan_in rows, b's one
    return _Layout([f"enc{i}" for i in range(len(hidden_dims))]
                   + [f"head{t}" for t in range(len(head_classes))],
                   [*zip(rows, hidden_dims)] + [(rows[-1], classes) for classes in head_classes])


class MultiHeadClassifier:
    """Shared encoder with per-task affine heads.

    Every weight lives in one contiguous float64 buffer, `theta`, laid out as
    enc0, ..., head0, head1, ..., one name per layer, each the folded block
    `[W; b]` (row-major, so W's rows and then the bias row).
    `parameters()` lays those names over it, so a hand-written batched
    forward/backward reads the current weights on every call.
    The constructor lays out all of its heads in one buffer at once;
    `add_task_head` reallocates the buffer and appends the new head at the
    end, leaving the offsets of all earlier weights unchanged; the weights
    constrained while training a task are therefore a prefix of `theta`.

    The layout, shared by every model of one description (`_layout_of`),
    is the one record of where each block lies; `_plan(vec, task_id)` views
    a head's folded `[W; b]` blocks through it, `_Layout.block`, over any
    vector laid out like `theta`, or a stack of them, as `parameters()[name]`
    does over `theta`.  A plan over `theta` is made when a
    pass binds; plans over other vectors are what the gradient kernel
    writes, the Hessian operator reads directions from and the create step
    and the probes read perturbed weights from.  The kernels take a plan,
    not a task id, so no pass writes `theta`: only the constructors,
    `set_parameters` and the training loop's step, clamp and best-snapshot
    restore do.  The public methods check their inputs and then call the
    unchecked kernel; the training loop checks each task's rows once and
    calls the kernel through passes bound once.

    There is one forward and one backward pass, `_Pass`, in folded form
    (each layer one matmul `[h, 1] @ [W; b]`, the softmax `exp(z - max) /
    sum`).  Every pass is bound by `_pass` and writes into the model's one
    row-buffer cache, kept across `add_task_head`: a pass's layer inputs
    stay valid until the next forward of as many rows through any pass of
    the same model.  The gradient, the per-sample
    Fisher pass and the Hessian bind share the pass's output-layer adjoint
    and backward adjoints.  Their bits are those of the per-layer recursion
    tests/test_model.py writes out in the same folded form, and lie within
    1e-13 (of each block's largest entry) of the former unfolded spelling,
    `h @ W + b` with a log-softmax, which an autodiff graph computes.  The
    Hessian-vector product is split into a bind step and an apply step
    (`_hvp_operator`): binding to checked rows runs the forward pass, the
    softmax and the backward adjoints once, and the operator it returns
    runs only the passes that depend on the direction.  A Lanczos run binds
    once and applies per iteration; `probe.hvp` on a `model_objective`
    binds and applies once; a probe report's one bind also writes its
    gradient.
    """

    def __init__(self, seed: int, input_dim: int, hidden_dims: list[int],
                 per_task_classes: list[int], activation: str = "tanh"):
        self._lay_out(seed, input_dim, hidden_dims, per_task_classes, activation)
        rng = generator(seed)
        for i in range(len(self.hidden_dims)):
            _kaiming_uniform(rng, self._params[f"enc{i}"])
        for t in range(len(self.head_classes)):
            self._new_head(t)

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
        check("seed", seed, "seed")
        for name, value in (("hidden_dims", hidden_dims), ("per_task_classes", per_task_classes)):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
        dims = [input_dim, *hidden_dims]
        if any(not _integer(d) or d < 1 for d in dims):
            raise ValueError(f"input and hidden dims must be integers >= 1, got {dims}")
        if len(per_task_classes) < 1:
            raise ValueError("need at least one task head with >= 1 classes")
        for class_count in per_task_classes:
            check("count", class_count, "class_count")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.init_seed = seed
        self.input_dim = input_dim
        self.hidden_dims = list(hidden_dims)
        self.activation = activation
        self.head_classes = list(per_task_classes)
        self._rows = {}  # (stack shape, class count) -> {row count: _Rows}, see `_pass`
        self._bind()

    def _bind(self):
        """Bind zero weights laid out for the model's description, in one
        buffer, with the description's shared layout."""
        layout = _layout_of(self.input_dim, tuple(self.hidden_dims), tuple(self.head_classes))
        self._params = ParameterSet(layout=layout, flat=np.zeros(layout.offsets[-1]))
        self.theta = self._params.flat

    def _plan(self, vec, task_id) -> list:
        """Head `task_id`'s layers in `vec`, a flat vector laid out like
        `theta` or a (k, d) stack of them: per layer from the input up, the
        layout's block of enc0, ..., then of head{task_id}, each the folded
        `[W; b]`, (rows + 1, cols), whose last row is the bias; over a stack
        each block leads with k.  `wb[..., :-1, :]` is W."""
        depth, block = len(self.hidden_dims), self._params._layout.block
        return [block(vec, i) for i in (*range(depth), depth + task_id)]

    def _new_head(self, task_id: int):
        """Draw head `task_id`'s W into its block; its bias row stays the
        zero `_bind` laid out.  Head seeds derive from (init_seed, task_id),
        so a head has the same weights whether the model was built with it
        or it was added later."""
        _kaiming_uniform(generator([self.init_seed, 7919, task_id]),
                         self._params[f"head{task_id}"])

    def add_task_head(self, class_count: int) -> int:
        """Append a freshly initialized head; returns its task id."""
        check("count", class_count, "class_count")
        task_id = len(self.head_classes)
        self.head_classes.append(class_count)
        kept = self.theta
        self._bind()
        self.theta[:kept.size] = kept
        self._new_head(task_id)
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
        return self._params.names()[:len(self.hidden_dims)
                                    + min(current_task, len(self.head_classes))]

    # -- batched forward/backward kernel ----------------------------------
    #
    # Every pass runs through a `_Pass` bound to a plan.  `_check_rows` is the
    # input check of every public entry point; the other `_` methods, and
    # `_Pass`, trust their inputs: float64 rows of width `input_dim`, int64
    # labels in range for an existing head.

    def _check_rows(self, features, labels, task_id):
        """(float64 features, int64 labels) after the one check of rows,
        which every entry point runs: shapes, at least one labeled row, and
        integer labels in range for the head.  `labels` may be None."""
        if labels is not None:
            labels = int_labels(labels)
            if labels.ndim != 1 or labels.shape[0] != np.shape(features)[0]:
                raise ValueError(f"labels of shape {labels.shape} do not match "
                                 f"{np.shape(features)[0]} feature rows")
            if labels.shape[0] == 0:
                raise ValueError("need at least one sample")
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

    def _pass(self, vec, task_id) -> "_Pass":
        """A pass of head `task_id` through the plan of `vec` (laid out like
        `theta`, or a stack of them) into the model's row buffers."""
        rows = self._rows.setdefault((vec.shape[:-1], self.head_classes[task_id]), {})
        return _Pass(self._plan(vec, task_id), self.activation, rows)

    def task_loss(self, batch: Batch) -> float:
        features, labels = self._check_rows(batch.features, batch.labels, batch.task_id)
        return float(self._task_losses(features, labels, batch.task_id, self.theta))

    def _task_losses(self, features, labels, task_id, thetas) -> np.ndarray:
        """Mean cross-entropy of checked rows at `thetas`, a flat vector laid
        out like `theta` (a 0-d loss) or a (k, d) stack of them (k losses),
        in one pass through its plan.  Each loss of a stack equals bit for
        bit the one its row gives alone."""
        bound = self._pass(thetas, task_id)
        rows, z = bound.forward(features)
        _, s = bound.exp_sum(z)
        return bound.loss(z, s, rows.index, labels)

    def loss_gradient(self, batch: Batch):
        """(loss value, gradient ParameterSet) for mean cross-entropy, in a
        fresh zeroed set laid out like `theta`."""
        features, labels = self._check_rows(batch.features, batch.labels, batch.task_id)
        return self._loss_gradient(features, labels, batch.task_id)

    def _loss_gradient(self, features, labels, task_id):
        grads = self._params.zeros_like()
        loss = self._pass(self.theta, task_id).loss_gradient(features, labels,
                                                             self._plan(grads.flat, task_id))
        return loss, grads

    def log_prob_gradient(self, features, label, task_id: int) -> ParameterSet:
        """Per-sample gradient of log p(true label | x; w).

        Equals minus the gradient of the single-sample nll loss; the
        empirical-Fisher convention uses the observed label.
        """
        features = np.asarray(features, dtype=np.float64).reshape(1, -1)
        batch = Batch(features, np.array([label]), task_id)
        _, grads = self.loss_gradient(batch)
        grads.flat *= -1.0
        return grads

    def gradient_second_moments(self, features, labels, task_id: int):
        """Squared per-sample log-prob gradients in one batched pass.

        Returns (per-coordinate sums over samples of g_i^2, laid out like
        `theta`; per-sample squared norms ||g_i||^2).  A layer with inputs H
        and per-sample logit-side adjoints D contributes [H^2, 1]^T (D^2) to
        its folded block and (||h_i||^2 + 1) * ||d_i||^2 to sample i.
        """
        features, labels = self._check_rows(features, labels, task_id)
        bound = self._pass(self.theta, task_id)
        rows, z = bound.forward(features)
        p, _ = bound.softmax(z)
        deltas, _ = bound.adjoints(rows, bound.output_adjoint(p, labels, 1.0, np.eye(p.shape[1])))
        sums, sq_norms = np.zeros(self.theta.size), np.zeros(labels.shape[0])
        views = self._plan(sums, task_id)
        for k in range(len(deltas) - 1, -1, -1):  # top-down, the order of the sums
            a2, d2 = rows.aug[k] * rows.aug[k], deltas[k] * deltas[k]  # a2 = [h^2, 1]
            np.dot(a2.T, d2, out=views[k])
            sq_norms += np.add.reduce(a2, axis=1) * np.add.reduce(d2, axis=1)
        return sums, sq_norms

    def _hvp_operator(self, features, labels, task_id, grads=None):
        """Bind Pearlmutter's R-operator to checked rows at the current weights.

        R{.} = d/dt at w + t v is pushed through the forward pass, then
        through the backward pass.  Everything that depends only on the
        weights and the rows (the layer inputs, the softmax, the backward
        adjoints, the activation derivatives, relu's as float64 so no apply
        casts a bool mask) is computed here, once, by the model's pass; the
        operator keeps copies of the layer inputs, the only row buffers it
        reads after the bind.  The returned operator maps a flat `v` to a
        fresh flat H v and runs only the R-forward and R-backward passes,
        in the pass's folded form: the direction's `h @ v_W + v_b` is one
        matmul, `[h, 1] @ [v_W; v_b]`, and H v's W and b rows are one
        matmul too; the 1/n of the mean is folded into the softmax once.
        An apply writes every intermediate into a buffer bound here, with
        `out=`, and allocates only the copy of the output buffer it
        returns: `v` is copied into a direction buffer whose blocks, like
        those of the output buffer, are laid out by `_plan` here, so an
        apply builds no views either.  The buffers are the operator's own,
        so a forward through the model leaves them be.  The operator is
        valid while the weights do not move.  Relu kinks contribute no
        curvature.  Its products are bitwise those of the R-operator
        recursion tests/test_model.py writes out in the same folded form.

        Given `grads`, a flat vector laid out like `theta`, the bind also
        writes the mean loss's gradient into the head's blocks of it, `[h,
        1].T @ delta` per layer from its own adjoints: bit for bit
        `_loss_gradient`'s, with no second pass at w.  The rest of `grads`
        is left as it is.
        """
        bound = self._pass(self.theta, task_id)
        rows, z = bound.forward(features)
        p, _ = bound.softmax(z)
        n = labels.shape[0]
        # For k >= 1 layer k reads the hidden output acts[k]: slope[k] is the
        # activation's derivative there, adjoint[k] the loss adjoint of layer
        # k's output and, for tanh, curvature[k] = 2 * d_h * acts[k] (d_h the
        # loss adjoint of acts[k]) the activation's second-derivative factor.
        acts, aug = rows.acts, [a.copy() for a in rows.aug]  # the operator outlives `rows`
        aug_t = [a.T for a in aug]
        slope = [None] + [np.asarray(bound.slope(h), dtype=np.float64) for h in acts[1:]]
        adjoint, d_h = bound.adjoints(
            rows, bound.output_adjoint(p.copy(), labels, 1.0 / n, rows.eye_n))
        if grads is not None:
            for a_t, delta, block in zip(aug_t, adjoint, self._plan(grads, task_id)):
                np.dot(a_t, delta, out=block)
        tanh = bound.tanh
        curvature = ([None] + [2.0 * d * h for d, h in zip(d_h[1:], acts[1:])]
                     if tanh else None)
        p_n = p * (1.0 / n)
        weights, weights_t = [wb[..., :-1, :] for wb in bound.wb], bound.w_t
        # every block of the head is overwritten by each apply; the others stay 0
        out, direction = np.zeros(self.theta.size), np.zeros(self.theta.size)
        out_wb, v_wb = self._plan(out, task_id), self._plan(direction, task_id)
        out_w, v_w_t = [wb[..., :-1, :] for wb in out_wb], [wb[..., :-1, :].T for wb in v_wb]
        # per layer k of c outputs over h inputs: R{out} and R{delta}, (n, c);
        # second[k], (n, c), the direction's product in the forward and, in
        # the backward of layer k + 1, its product and the curvature term;
        # and for k >= 1 R{input}, (n, h), and the W-term of H v, (h, c)
        r_out, r_delta, second = ([np.empty((n, wb.shape[1])) for wb in v_wb]
                                  for _ in range(3))
        r_in = [None] + [np.empty(h.shape) for h in acts[1:]]
        w_term = [None] + [np.empty(w.shape) for w in out_w[1:]]
        p_r, p_r_sum = np.empty(p.shape), np.empty((n, 1))  # p * R{z} and its row sum
        dot, add, subtract, multiply = np.dot, np.add, np.subtract, np.multiply

        def hvp(v: np.ndarray) -> np.ndarray:
            np.copyto(direction, v)
            dot(aug[0], v_wb[0], out=r_out[0])
            for k in range(1, len(v_wb)):
                multiply(r_out[k - 1], slope[k], out=r_in[k])
                dot(r_in[k], weights[k], out=r_out[k])
                add(r_out[k], dot(aug[k], v_wb[k], out=second[k]), out=r_out[k])
            # np.add.reduce is the reduction `.sum` and `np.sum` call; the sum
            # is copied over its row, as a ufunc's broadcast takes a buffer
            np.add.reduce(multiply(p, r_out[-1], out=p_r), axis=1, keepdims=True, out=p_r_sum)
            np.copyto(p_r, p_r_sum)
            multiply(p_n, subtract(r_out[-1], p_r, out=r_delta[-1]), out=r_delta[-1])
            for k in range(len(v_wb) - 1, 0, -1):
                dot(aug_t[k], r_delta[k], out=out_wb[k])
                add(out_w[k], dot(r_in[k].T, adjoint[k], out=w_term[k]), out=out_w[k])
                below, scratch = r_delta[k - 1], second[k - 1]
                dot(r_delta[k], weights_t[k], out=below)
                add(below, dot(adjoint[k], v_w_t[k], out=scratch), out=below)
                multiply(below, slope[k], out=below)
                if tanh:
                    subtract(below, multiply(curvature[k], r_in[k], out=scratch), out=below)
            dot(aug_t[0], r_delta[0], out=out_wb[0])
            return out.copy()

        return hvp

    def logits(self, features, task_id: int) -> np.ndarray:
        features, _ = self._check_rows(features, None, task_id)
        return self._pass(self.theta, task_id).forward(features)[1]

    def predict(self, features, task_id: int) -> np.ndarray:
        """Argmax class ids; ties broken by lowest class index."""
        return np.argmax(self.logits(features, task_id), axis=1)

    def accuracy(self, features, labels, task_id: int) -> float:
        features, labels = self._check_rows(features, labels, task_id)
        return float(np.mean(self.predict(features, task_id) == labels))

    def clone(self) -> "MultiHeadClassifier":
        return MultiHeadClassifier.from_weights(self.theta, self.init_seed, self.input_dim,
                                                self.hidden_dims, self.head_classes,
                                                self.activation)


def _row_max(z):
    """The class max of a flat pass's logits, (n, 1): the reduction `.max`
    calls, which over 8 rows costs less than a call per class column."""
    return np.maximum.reduce(z, axis=-1, keepdims=True)


def _row_sum(e):
    """The class sum, (..., 1): the reduction `.sum` calls."""
    return np.add.reduce(e, axis=-1, keepdims=True)


def _column_max(z):
    """The class max of a stack's logits, (k, n, 1): c - 1 elementwise
    maxima over the class columns, each over all k * n rows at once, where
    a reduction loops over the rows of a short axis.  A max is exact, so it
    can differ from the reduction's only in the sign of a zero max, which
    no loss reads: z - max is then a zero, whose exp is 1 and which
    log(s) - z leaves at log(s), or at +0 when log(s) is 0."""
    return _column_chain(np.maximum, z)


def _column_sum(e):
    """The class sum of a stack's exps over fewer than 8 classes, (k, n,
    1): c - 1 elementwise adds over the class columns, left to right, the
    order in which the reduction adds fewer than 8 terms, so its bits."""
    return _column_chain(np.add, e)


def _column_chain(ufunc, a):
    """`ufunc` folded over the last axis of `a` left to right, one
    elementwise call per column over every row, into a fresh (..., 1)."""
    out = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j:j + 1], out=out)
    return out


class _Rows(NamedTuple):
    """A bound pass's buffers for n rows: `aug`, each layer's input with a
    ones column appended ([x, 1], [h1, 1], ...), and `aug_t`, their
    transposes; `acts`, the layer inputs, and `fill`, the views of `aug`
    they go into (x is written into `fill[0]` directly; each hidden h has a
    contiguous buffer, copied into its `fill` after the activation);
    `index`, arange(n); and `eye_n`, the identity over the head's classes
    over n (bitwise times 1/n), whose rows are the mean loss's scaled
    one-hot labels (a forward of no rows, which `logits` allows, has none
    to scale; a stack's rows, which no backward reads, have none)."""
    aug: list
    aug_t: list
    acts: list
    fill: list
    index: np.ndarray
    eye_n: np.ndarray


class _Pass:
    """The one forward and backward pass of a head, bound to a plan.

    Each layer is one matmul of its input with a ones column appended and
    its folded block, `[h, 1] @ [W; b]`; the softmax is `exp(z - max) / sum`
    and the loss `mean(log(sum) - (z - max)[label])`, which needs no
    division; and each layer's W and b gradient is one matmul,
    `[h, 1].T @ delta`, into the folded block of an output plan.  The pass
    keeps the plan's folded blocks, the transposes of its W blocks and
    `rows`, a dict of one `_Rows` set per row count, whose ones columns are
    set once.  A forward's layer inputs stay valid until the next forward
    of as many rows through a pass given the same dict.  Over the plan of a (k, d)
    stack every layer after the input has a leading axis of k, and each
    matmul runs per stack entry the product the unstacked plan runs; only
    the forward and the loss are taken over a stack.

    Every product goes through `_dot`, bound once: `np.dot` over a flat
    plan, `np.matmul` over a stack, on which `np.dot` means another
    product.  On 2-d float64 operands both call the same BLAS gemm and give
    the same bits; `np.dot` skips the ufunc dispatch.  It writes only into
    a C-contiguous `out=`, so the forward writes into the contiguous hidden
    buffers and copies into the strided `fill` views.  The softmax's class
    max is bound the same way, `_class_max`: a reduction over a flat
    pass's 8 rows, c - 1 elementwise maxima over the class columns of a
    stack's k * n rows (`_column_max`).  A max is exact, so both give every
    loss the same bits.  The class sum, `_class_sum`, is bound alike: a
    reduction over a flat pass, and over a stack of fewer than 8 classes a
    column chain (`_column_sum`), which adds in the reduction's order; from
    8 classes on the reduction adds in another order, so a stack keeps it.
    """

    def __init__(self, plan, activation, rows):
        self.wb = plan
        flat = plan[0].ndim == 2
        self._dot = np.dot if flat else np.matmul
        self._class_max = _row_max if flat else _column_max
        self._class_sum = _row_sum if flat or plan[-1].shape[-1] >= 8 else _column_sum
        self.w_t = [wb[..., :-1, :].swapaxes(-1, -2) for wb in plan]
        self.tanh = activation == "tanh"
        self._rows = rows

    def _new_rows(self, n) -> _Rows:
        lead = self.wb[0].shape[:-2]  # () for a flat plan, (k,) for a stack
        aug = [np.empty((n, self.wb[0].shape[-2]))]
        aug += [np.empty((*lead, n, wb.shape[-2])) for wb in self.wb[1:]]
        for a in aug:
            a[..., -1] = 1.0
        fill = [a[..., :-1] for a in aug]
        acts = fill[:1] + [np.empty(f.shape) for f in fill[1:]]
        # only a flat plan runs the backward, the one reader of `eye_n`
        eye_n = None if lead else np.eye(self.wb[-1].shape[-1]) / max(n, 1)
        rows = self._rows[n] = _Rows(aug, [a.swapaxes(-1, -2) for a in aug], acts, fill,
                                     np.arange(n), eye_n)
        return rows

    def forward(self, features):
        """(rows, logits): the buffers for the features' row count, holding
        every layer's input, and the logits, a fresh array."""
        n = features.shape[0]
        rows = self._rows.get(n) or self._new_rows(n)
        aug, acts, fill = rows.aug, rows.acts, rows.fill
        dot, wb = self._dot, self.wb
        fill[0][...] = features
        for k in range(1, len(aug)):
            h = dot(aug[k - 1], wb[k - 1], out=acts[k])
            if self.tanh:
                np.tanh(h, out=h)
            else:
                np.maximum(h, 0.0, out=h)
            fill[k][...] = h
        return rows, dot(aug[-1], wb[-1])

    def exp_sum(self, z):
        """(e, s) from logits `z`: e = exp(z - max) and s its sum over the
        last axis, kept as a (..., 1) column, so the softmax is e / s.  `z`
        becomes z - max in place.  The max is `_class_max`'s and the sum
        `_class_sum`'s.  The loss reads `z` and `s` alone."""
        z -= self._class_max(z)
        e = np.exp(z)
        return e, self._class_sum(e)

    def softmax(self, z):
        """(p, s): `exp_sum`'s s and the softmax p = e / s, written over e."""
        p, s = self.exp_sum(z)
        p /= s
        return p, s

    @staticmethod
    def loss(z, s, index, labels):
        """Mean cross-entropy over the last two axes, from `exp_sum`'s
        shifted `z` and `s`: the mean of log(s) - z[label], `.mean()`'s sum
        and divide.  The terms are C-contiguous: a stack's picks come out
        column-major, and a sum along a strided axis adds in another
        order."""
        terms = np.log(s[..., 0])
        terms -= z[..., index, labels]
        return np.add.reduce(terms, axis=-1) / index.size

    @staticmethod
    def output_adjoint(p, labels, scale, scaled_eye):
        """scale * (p - onehot(labels)), written over the softmax `p` as
        p * scale - scaled_eye[labels], where `scaled_eye` is scale times
        the identity: the logit adjoint of the mean loss (scale 1/n) and of
        each sample's loss (scale 1).  Subtracting a zero changes no bit,
        so it equals bit for bit an autodiff graph's `g - p * g.sum(-1)` for
        the one-hot `g` of -scale: each row of `g` sums to exactly -scale,
        and IEEE negation is exact."""
        p *= scale
        p -= scaled_eye.take(labels, axis=0)
        return p

    def adjoints(self, rows, delta):
        """The backward pass from `delta`, the adjoint of the logits, over
        the layer inputs in `rows`: (out, inp), where out[k] is the adjoint
        of layer k's affine output and inp[k] that of its input acts[k]
        (inp[0] is None; the rows need none)."""
        out, inp = [None] * len(self.wb), [None] * len(self.wb)
        out[-1] = delta
        for k in range(len(self.wb) - 1, 0, -1):
            inp[k] = d_h = self._dot(out[k], self.w_t[k])
            out[k - 1] = d_h * self.slope(rows.acts[k])
        return out, inp

    def slope(self, h):
        """The activation's derivative at its output `h`."""
        return (1.0 - h * h) if self.tanh else (h > 0.0)

    def loss_gradient(self, features, labels, views, loss=True):
        """Mean cross-entropy of the rows, or None without `loss`; its
        gradient goes into `views`, the folded blocks of an output plan from
        the input up.  `views` may stop short of the head: the layers past
        its end are not written, nor is anything outside them."""
        rows, z = self.forward(features)
        p, s = self.softmax(z)
        value = float(self.loss(z, s, rows.index, labels)) if loss else None
        delta = self.output_adjoint(p, labels, 1.0 / labels.shape[0], rows.eye_n)
        deltas, _ = self.adjoints(rows, delta)
        for a_t, delta, out in zip(rows.aug_t, deltas, views):
            self._dot(a_t, delta, out=out)
        return value
