"""Flat-space training engine.

Create: perturb weights along an adaptively scaled ascent direction and take
the gradient there.  Find: diagonal empirical Fisher as a per-parameter
flatness estimate, accumulated across tasks with decay.  New tasks train
inside the previous task's flat region under a hard clamp and a soft
importance-weighted anchor penalty, with optional replay and sparse-update
masks.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import Batch, MultiHeadClassifier
from .params import ParameterSet
from .replay import ReplayBuffer, replay_schedule
from .rules import _integer, check, generator, int_labels


# ---------------------------------------------------------------------------
# domain types


@dataclass
class FlatRegion:
    """Elementwise box around the previous task's solution.

    Bounds are anchor +/- rho * |anchor|; coordinates with a zero anchor
    collapse to the point {0}.  `constrained_names` must be a prefix of the
    anchor's layout; `lo` and `hi` are the bounds of that prefix, computed
    once here.
    """
    anchor: ParameterSet
    rho: float
    constrained_names: list[str]
    lo: np.ndarray = field(init=False, repr=False)
    hi: np.ndarray = field(init=False, repr=False)
    clipped: np.ndarray = field(init=False, repr=False)  # `clamp_to_region`'s buffers
    moved: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check("nonnegative", self.rho, "rho")
        anchor = self.anchor.prefix(self.constrained_names)
        half = self.rho * np.abs(anchor)
        self.lo, self.hi = anchor - half, anchor + half
        self.clipped, self.moved = np.empty(anchor.size), np.empty(anchor.size, dtype=bool)


@dataclass(frozen=True)
class ImportanceMap:
    """Per-parameter flatness values laid out like `theta`; never negative or
    NaN, checked here alone, on a read-only float64 copy that keeps it so."""
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if not np.all(values >= 0):
            raise ValueError("negative or NaN importance entries")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)  # one instance per variant, shared by its configs and its alias
class VariantFlags:
    create: bool = False
    find: bool = False
    clamp: bool = False
    l2: bool = False
    replay: bool = False


# The rule of each `OptimizerConfig` field a config may set, in field order.
OPTIMIZER_RULES = {"learning_rate": "positive", "batch_size": "count", "base_optimizer": "",
                   "weight_decay": "nonnegative", "lam": "nonnegative", "rho": "nonnegative",
                   "gamma": "unit", "fisher_sample_count": "count",
                   "validate_every_steps": "count", "sparse_update_ratio": "fraction",
                   "store_ratio": "fraction", "replay_every": "count"}


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.01
    batch_size: int = 8
    base_optimizer: str = "adam_decoupled"  # or "sgd"
    weight_decay: float = 0.01
    lam: float = 50000.0          # soft-penalty coefficient
    rho: float = 0.65             # flat-region radius
    gamma: float = 0.95           # importance decay
    fisher_sample_count: int = 128
    validate_every_steps: int = 50
    variant: VariantFlags = field(default_factory=VariantFlags)
    sparse_update_ratio: float = 1.0
    store_ratio: float = 0.01
    replay_every: int = 20

    def __post_init__(self):
        for name, rule in OPTIMIZER_RULES.items():
            check(rule, getattr(self, name), f"optimizer {name}")
        if self.base_optimizer not in ("sgd", "adam_decoupled"):
            raise ValueError(f"unknown base_optimizer {self.base_optimizer!r}")
        # decoupled decay scales the weights by 1 - lr * wd each step
        # (`base_step`), which flips or zeroes every weight at a product >= 1
        if self.learning_rate * self.weight_decay >= 1:
            raise ValueError("optimizer learning_rate * weight_decay must be < 1, got "
                             f"{self.learning_rate!r} * {self.weight_decay!r}")


@dataclass
class Perturbation:
    epsilon_hat: ParameterSet


@dataclass
class TaskReport:
    task_id: int
    step_losses: list = field(default_factory=list)
    clamp_counts: list = field(default_factory=list)
    validation_curve: list = field(default_factory=list)  # (step, accuracy)
    best_step: int = -1
    best_accuracy: float = float("nan")
    frozen_zero_anchor_coords: int = 0


# ---------------------------------------------------------------------------
# core operations


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of flat `x` is finite.  A finite sum of squares
    proves it; only a sum that is not (a non-finite entry, or finite entries
    whose squares overflow) is settled entry by entry.  `np.vdot` sums as
    `x @ x` does, without the overflow warning."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _epsilon(w: np.ndarray, g: np.ndarray, rho: float, out=None) -> np.ndarray:
    """rho * w^2 g / ||w g||_2 over flat vectors, written into `out` (a new
    vector when None, never `w` or `g`); zero when w g or rho is."""
    out = np.multiply(w, g, out=out)
    denom_sq = float(np.vdot(out, out))  # the sum `all_finite` takes
    # A finite sum of squares proves every w_i g_i, hence every w_i and g_i,
    # finite; only a sum that is not is settled entry by entry.  Finite inputs
    # whose sum overflows would give NaN or a silent zero unless rho is 0.
    if not math.isfinite(denom_sq):
        if not (np.isfinite(w).all() and np.isfinite(g).all()):
            raise FloatingPointError("non-finite inputs to compute_perturbation")
        if rho != 0.0:
            raise FloatingPointError("w * g overflows in compute_perturbation")
    if denom_sq == 0.0 or rho == 0.0:
        out.fill(0.0)
        return out
    np.square(w, out=out)
    out *= rho / math.sqrt(denom_sq)
    out *= g
    return out


def compute_perturbation(params: ParameterSet, grads: ParameterSet, rho: float) -> Perturbation:
    """Ascent direction rho * w^2 g / ||w g||_2, one global normalizer."""
    check("nonnegative", rho, "rho")
    params.require_aligned(grads, "compute_perturbation")
    return Perturbation(params.unflatten(_epsilon(params.flat, grads.flat, rho)))


def create_gradient(model: MultiHeadClassifier, batch: Batch, rho: float,
                    perturb_names=None):
    """Gradient of the batch loss taken at the perturbed point w + eps.

    Only `perturb_names` (default: all), a prefix of the layout, move.
    Returns (grads, loss_at_perturbed_point), the grads in a fresh set.
    The perturbed point is built in a scratch vector; the weights are
    read, never written.
    """
    check("nonnegative", rho, "rho")
    features, labels = model._check_rows(batch.features, batch.labels, batch.task_id)
    params = model.parameters()
    n = params.total_size() if perturb_names is None else params.prefix(perturb_names).size
    grads = params.zeros_like()
    loss = _create_step(model, n, rho)(features, labels, batch.task_id, grads.flat,
                                       model._plan(grads.flat, batch.task_id))
    return grads, loss


def _create_step(model, n, rho):
    """Bind the create step, which perturbs the first `n` weights: the
    model's passes at the weights and, at rho > 0, one scratch vector and a
    pass per head through its plan.  `step(features, labels, task_id, out,
    views)` writes the gradient at w + eps of checked rows through `views`,
    the folded blocks of the rows' head in flat `out` (which must be zero
    outside them), and returns the loss there, scored through the scratch
    vector, which holds w + eps and the rest of `theta`."""
    heads = range(len(model.head_classes))
    at_w = [model._pass(model.theta, t) for t in heads]
    if rho == 0.0:
        def plain(features, labels, task_id, out, views):
            return at_w[task_id].loss_gradient(features, labels, views)
        return plain
    scratch = np.empty(model.theta.size)
    # the pass at w + eps runs after the one at w ends, so both use one row-buffer set
    at_eps = [model._pass(scratch, t) for t in heads]
    # eps reads only the gradient over w, so the pass at w skips the loss
    # and, when the rows' head lies past w (the current task's does), the
    # head's blocks, which the pass at w + eps writes
    params = model.parameters()
    depth = [len(model.hidden_dims) + (params.slice_of(f"head{t}").stop <= n) for t in heads]
    w, eps = model.theta[:n], scratch[:n]
    rest, scratch_rest = model.theta[n:], scratch[n:]

    def step(features, labels, task_id, out, views):
        at_w[task_id].loss_gradient(features, labels, views[:depth[task_id]], loss=False)
        np.add(_epsilon(w, out[:n], rho, out=eps), w, out=eps)  # bitwise w + eps
        scratch_rest[...] = rest
        loss = at_eps[task_id].loss_gradient(features, labels, views)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at perturbed point (task {task_id})")
        return loss

    return step


def find_fisher(model: MultiHeadClassifier, features, labels, task_id: int,
                n_samples: int, seed: int) -> ImportanceMap:
    """Diagonal empirical Fisher: mean squared per-sample log-prob gradient,
    from one batched pass over the sampled rows."""
    check("count", n_samples, "n_samples")
    rng = generator(seed)
    n = len(labels)
    if n < n_samples:
        warnings.warn(f"dataset has {n} samples < fisher_sample_count {n_samples}; "
                      "using the full dataset")
        idx = np.arange(n)
    else:
        idx = rng.choice(n, size=n_samples, replace=False)
    sums, _ = model.gradient_second_moments(np.asarray(features)[idx],
                                            np.asarray(labels)[idx], task_id)
    return ImportanceMap(sums * (1.0 / len(idx)))


def random_importance(model: MultiHeadClassifier, seed: int) -> ImportanceMap:
    """Random nonnegative flatness stand-in, drawn once per task."""
    rng = generator(seed)
    return ImportanceMap(rng.uniform(0.0, 1.0, size=model.theta.size))


def accumulate_fisher(importance: ImportanceMap | None, fresh: ImportanceMap,
                      gamma: float) -> ImportanceMap:
    """Decay the old accumulator, then add the fresh per-task values.

    With no accumulator yet the result is a copy of `fresh`.  The old vector
    covers a prefix of the fresh one, so it may be no longer; heads added
    since the last accumulation start at zero importance.
    """
    if importance is None:
        return ImportanceMap(fresh.values)
    old, new = importance.values, fresh.values
    if old.size > new.size:
        raise ValueError(f"accumulated importance longer than fresh ({old.size} > {new.size})")
    pad = np.zeros(new.size - old.size)
    return ImportanceMap(np.concatenate([old, pad]) * gamma + new)


def soft_penalty(params: ParameterSet, region: FlatRegion,
                 importance: ImportanceMap):
    """Importance-weighted quadratic anchor penalty over constrained names.

    Returns (value, grads over the full params, zeros outside the region's
    names).  The caller scales both by lambda.
    """
    names = region.constrained_names
    f = importance.values[:region.lo.size]
    w, anchor = params.prefix(names), region.anchor.prefix(names)
    grads = params.zeros_like()
    _penalty_gradient(w, anchor, 2.0 * f, grads.flat[:w.size])
    diff = w - anchor
    return float(np.sum(f * diff * diff)), grads


def _penalty_gradient(w, anchor, two_f, out) -> np.ndarray:
    """out <- 2f (w - anchor) over the constrained prefix, given 2f."""
    np.subtract(w, anchor, out=out)
    out *= two_f
    return out


def clamp_to_region(params: ParameterSet, region: FlatRegion) -> int:
    """Project constrained coordinates into the box; returns clamp count,
    the coordinates the projection changes (a NaN one counts).  The
    projection is np.maximum then np.minimum, which give np.clip's bits,
    written through the region's two buffers."""
    w = params.prefix(region.constrained_names)
    clipped = np.maximum(w, region.lo, out=region.clipped)
    np.minimum(clipped, region.hi, out=clipped)
    count = int(np.count_nonzero(np.not_equal(clipped, w, out=region.moved)))
    w[...] = clipped
    return count


def build_sparse_mask(importance: ImportanceMap, ratio: float,
                      layers: list[slice]) -> np.ndarray:
    """Per layer (a slice), mark the `ratio` fraction with LOWEST importance updatable."""
    check("fraction", ratio, "ratio")
    mask = np.zeros_like(importance.values)
    for layer in layers:
        values = importance.values[layer]
        if values.size == 0:
            raise ValueError("empty layer in partition")
        k = max(1, int(np.floor(values.size * ratio)))
        mask[layer][np.argsort(values, kind="stable")[:k]] = 1.0
    return mask


# ---------------------------------------------------------------------------
# base optimizer

# Adam's moment decay rates and denominator offset (Kingma and Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class OptimizerState:
    """SGD or Adam-with-decoupled-weight-decay state; the Adam moments are
    the rows of one (2, d) array, `moments`, over the parameter buffer, and
    `m` and `v` are its row views.  `decay` and `gain` are (2, d) rows of
    (b1; b2) and (1 - b1; 1 - b2), which scale `moments` and the gradient
    in one call each: a full row runs numpy's contiguous loop, which a
    broadcast (2, 1) column does not.

    It also owns the vectors a training step rewrites, so a step allocates
    none of them: `total`, the step's summed gradient, a set laid out like
    the parameters; `grad`, one batch's flat gradient (`train_task` lays
    each head's folded blocks over both once); `penalty`, the anchor penalty's
    gradient; and `tmp`, Adam's (2, d) temporaries.  The create step's
    perturbed point lives in the scratch vector `_create_step` binds.
    """

    def __init__(self, params: ParameterSet):
        self.t = 0
        n = params.total_size()
        self.moments = np.zeros((2, n))
        self.m, self.v = self.moments
        self.decay = np.repeat([[ADAM_BETA1], [ADAM_BETA2]], n, axis=1)
        self.gain = np.repeat([[1 - ADAM_BETA1], [1 - ADAM_BETA2]], n, axis=1)
        self.total = params.zeros_like()
        self.penalty, self.grad = np.empty((2, n))
        self.tmp = np.empty((2, n))


def base_step(state: OptimizerState, params: ParameterSet,
              total_grads: ParameterSet, config: OptimizerConfig):
    """One in-place update; grads must already include all loss terms.

    Adam updates both moments at once, m <- b1 m + (1 - b1) g and v <- b2 v
    + ((1 - b2) g) g, and then takes m-hat and v-hat into the rows of
    `tmp`: each entry goes through the operations, in the order, that the
    per-vector form m *= b1; m += g * (1 - b1); ... gives it."""
    params.require_aligned(total_grads, "base_step")
    g = total_grads.flat
    if not all_finite(g):
        raise FloatingPointError("non-finite gradients in base_step")
    state.t += 1
    lr = config.learning_rate
    w = params.flat
    a, b = tmp = state.tmp
    if config.base_optimizer == "sgd":
        w -= np.multiply(g, lr, out=a)
    else:
        moments = state.moments
        moments *= state.decay
        np.multiply(g, state.gain, out=tmp)
        b *= g
        moments += tmp
        np.divide(state.m, 1.0 - ADAM_BETA1 ** state.t, out=a)
        np.divide(state.v, 1.0 - ADAM_BETA2 ** state.t, out=b)
        np.sqrt(b, out=b)  # a is m-hat, b becomes sqrt(v-hat) + eps
        b += ADAM_EPS
        a *= lr
        w -= np.divide(a, b, out=a)
    if config.weight_decay:
        w -= np.multiply(w, lr * config.weight_decay, out=a)


# ---------------------------------------------------------------------------
# task-level training


def _check_replay_rows(model: MultiHeadClassifier, store: ReplayBuffer):
    """Check every stored row against its head, as `train_task` does its
    tasks' rows; the store may come from a checkpoint, whose load checks
    that its row, label and task-id counts agree."""
    for tid in sorted(set(store.task_ids.tolist())):
        rows = store.task_ids == tid
        model._check_rows(store.features[rows], store.labels[rows], tid)


def train_task(model: MultiHeadClassifier, tasks, region, importance,
               replay_buffer: ReplayBuffer | None, config: OptimizerConfig,
               rng, epochs: int, val_sets, step_hook=None) -> TaskReport:
    """Train on `tasks` and leave the best-validation snapshot in the model.

    Each task supplies train_xy() and task_id.  `_step_batches` lays out
    the steps: the tasks' minibatches round-robin, one permutation per task
    and epoch, with replay's draws between them.  The last task is the
    current one: its constrained names are the ones perturbed and masked,
    and it names the report.  `val_sets` is a list of (features, labels,
    task_id), pooled for validation.

    Each task's training rows, and the replay store's rows, are checked once
    here against their heads.  The create step is bound once here, over the
    model's bound passes and a scratch vector of its own.  One loop body
    takes every step: it runs the create step on the step's unchecked
    batches into the buffers of `OptimizerState`, summing their gradients
    by row weight, and then applies the gradient of `soft_penalty` written
    into a buffer, the sparse mask, `base_step` and `clamp_to_region`.
    These are the kernels `create_gradient` and `loss_gradient` run.
    """
    flags = config.variant
    data = [(task.task_id, *model._check_rows(*task.train_xy(), task.task_id))
            for task in tasks]
    use_replay = flags.replay and replay_buffer is not None and len(replay_buffer) > 0
    if use_replay:
        _check_replay_rows(model, replay_buffer)
    task_id = tasks[-1].task_id
    params = model.parameters()
    state = OptimizerState(params)
    report = TaskReport(task_id=task_id)

    use_penalty = flags.l2 and region is not None and importance is not None
    use_clamp = flags.clamp and region is not None
    names = model.constrained_names(task_id)

    if region is not None:
        report.frozen_zero_anchor_coords = int(np.count_nonzero(
            region.anchor.prefix(region.constrained_names) == 0.0))

    mask = None  # sparse-update mask over the constrained prefix
    if config.sparse_update_ratio < 1.0 and importance is not None and names:
        layers = [params.slice_of(name) for name in names]  # encoder, earlier heads
        mask = build_sparse_mask(importance, config.sparse_update_ratio, layers)[:layers[-1].stop]
        masked = state.total.flat[:mask.size]  # the summed gradient's masked prefix

    if use_penalty:
        w_c = params.prefix(region.constrained_names)
        anchor_c = region.anchor.prefix(region.constrained_names)
        two_f = 2.0 * importance.values[:w_c.size]
        penalty = state.penalty[:w_c.size]
        penalized = state.total.flat[:w_c.size]  # the summed gradient's constrained prefix

    # at rho 0, the plain gradient; the create step perturbs the constrained
    # prefix, or every weight when it is empty (task 0 with no hidden layer)
    grads_into = _create_step(model, params.prefix(names).size if names else params.total_size(),
                              config.rho if flags.create else 0.0)
    summed, grad = state.total.flat, state.grad  # rewritten each step
    # per head, the folded blocks of `summed` and of `grad` the kernel writes into
    views = [(model._plan(summed, h), model._plan(grad, h))
             for h in range(len(model.head_classes))]
    best_theta = None

    def validate(step):
        nonlocal best_theta
        correct = seen = 0
        for feats, labels, val_task in val_sets:
            correct += int(np.sum(model.predict(feats, val_task) == labels))
            seen += len(labels)
        acc = correct / seen if seen else 0.0
        report.validation_curve.append((step, acc))
        if best_theta is None or acc > report.best_accuracy:
            report.best_step, report.best_accuracy = step, acc
            best_theta = model.theta.copy()

    steps = _step_batches(data, replay_buffer if use_replay else None, config, rng, epochs)
    for step_index, batches in enumerate(steps, 1):
        # the batches' gradients, each weighted by its share of the step's
        # rows (a weight of 1.0 would change no bit), summed into `summed`:
        # the first is written there, each later one into `grad` and added
        out, loss_val = summed, 0.0
        for weight, features, labels, tid in batches:
            out.fill(0.0)
            loss_val += weight * grads_into(features, labels, tid, out, views[tid][out is grad])
            if weight != 1.0:
                out *= weight
            if out is grad:
                np.add(summed, out, out=summed)
            out = grad
        if use_penalty:
            pen = _penalty_gradient(w_c, anchor_c, two_f, penalty)
            pen *= config.lam
            np.add(penalized, pen, out=penalized)
        if mask is not None:
            np.multiply(masked, mask, out=masked)
        base_step(state, params, state.total, config)
        clamped = clamp_to_region(params, region) if use_clamp else 0
        report.step_losses.append(loss_val)
        report.clamp_counts.append(clamped)
        if step_hook is not None:
            step_hook(model, region)
        if step_index % config.validate_every_steps == 0:
            validate(step_index)
    validate(len(report.step_losses))
    np.copyto(model.theta, best_theta)
    return report


def _step_batches(data, replay_buffer, config, rng, epochs):
    """Each step's batches, as a tuple of (weight, features, labels,
    task_id).  Every epoch draws one permutation per task of `data`'s
    (task_id, features, labels), in order, then takes the tasks'
    minibatches round-robin, each a step of its own at weight 1.0.  With a
    `replay_buffer`, a step that `replay_schedule` picks follows a
    minibatch: replay's draw as per-head batches, each weighted by its share
    of the rows."""
    size = config.batch_size
    longest = max(len(labels) for _, _, labels in data)
    taken = 0
    for _ in range(epochs):
        epoch = []
        for tid, feats, labels in data:
            perm = rng.permutation(len(labels))
            epoch.append((tid, feats[perm], labels[perm]))
        for start in range(0, longest, size):
            for tid, feats, labels in epoch:
                if start >= len(labels):
                    continue
                yield ((1.0, feats[start:start + size], labels[start:start + size], tid),)
                taken += 1
                if replay_buffer is not None and replay_schedule(taken, config.replay_every):
                    batches = replay_buffer.sample_batches(size, rng)
                    rows = sum(len(b) for b in batches)
                    yield tuple((len(b) / rows, b.features, b.labels, b.task_id)
                                for b in batches)
                    taken += 1


# ---------------------------------------------------------------------------
# continual loop


@functools.cache
def _rng_checker():
    """The one PCG64 a `RunState` restores an rng state into, numpy's own
    check of it, made on first use: importing flatcl loads no
    `numpy.random`.  Nothing draws from it, so no state it takes is read."""
    return generator(0).bit_generator


@dataclass
class RunState:
    """What a continual run hands on at a task boundary.  A fresh run starts
    from `RunState(model)`; the next flat region is rebuilt from the weights."""
    model: MultiHeadClassifier
    next_task: int | None = None
    rng_state: dict | None = None
    importance: ImportanceMap | None = None
    matrix_rows: np.ndarray | None = None
    probe_values: list | None = None  # the finished tasks' probe values
    replay_buffer: ReplayBuffer | None = None

    def __post_init__(self):
        """Refuse, on save and on load, a state no run hands on: importance
        laid out for another model, an rng state a PCG64 generator does not
        take, a next task that is not the count of finished accuracy rows
        (at most one per head; None, for a fresh run, with no rows), or a
        replay store whose task ids are not integers (an integer-valued
        float is cast), are not one per label or name no head, or whose
        labels are out of range for their heads."""
        if self.importance is not None and self.importance.values.shape != self.model.theta.shape:
            raise ValueError(f"misaligned importance: {self.importance.values.shape} "
                             f"for {self.model.theta.size} weights")
        if self.rng_state is not None:
            try:
                _rng_checker().state = self.rng_state
            except (KeyError, OverflowError, TypeError, ValueError):
                raise ValueError("rng_state is not a PCG64 generator state") from None
        rows = len(self.matrix_rows) if np.ndim(self.matrix_rows) else 0  # None holds no rows
        heads = len(self.model.head_classes)
        if not (self.next_task is None and rows == 0
                or _integer(self.next_task) and 1 <= self.next_task == rows <= heads):
            raise ValueError(f"next_task {self.next_task!r} does not fit {rows} finished "
                             f"accuracy rows and {heads} task heads")
        if (store := self.replay_buffer) is not None:
            # one vectorized pass, not a loop per head: every load, one per
            # probe op, checks the store it reads
            store.task_ids = ids = int_labels(store.task_ids, "replay task ids")
            if ids.ndim != 1 or ids.shape != store.labels.shape:
                raise ValueError(f"replay task ids of shape {ids.shape} do not fit "
                                 f"labels of shape {store.labels.shape}")
            if (stray := (ids < 0) | (ids >= heads)).any():
                raise ValueError(f"replay task id {ids[stray][0]} names no head "
                                 f"(have {heads})")
            classes = np.asarray(self.model.head_classes)[ids]
            if (out := (store.labels < 0) | (store.labels >= classes)).any():
                raise ValueError(f"replay label {store.labels[out][0]} is out of range "
                                 f"[0, {classes[out][0]}) for task {ids[out][0]}")


def train_continual(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int, state=None, after_task=None,
                    step_hook=None) -> RunState:
    """Sequential training over a task stream with flat-region constraints.

    Each task after the first trains inside the flat region around the
    weights it starts from, which are the previous task's solution.  After
    each task: estimate Fisher at the converged weights, decay-then-add into
    the accumulator, and record test accuracy on all seen tasks.  The run
    moves `state`, a `RunState` of `model` or None for a fresh one, from
    boundary to boundary; a loaded checkpoint reproduces the uninterrupted
    run bitwise.  After each task, with the model at its weights,
    `after_task(state, report)` gets the new boundary and the `TaskReport`.
    Returns the last state: `matrix_rows` is the (T, T) matrix.
    """
    flags = config.variant
    n_tasks = len(stream)
    state = RunState(model) if state is None else state
    if state.model is not model:
        raise ValueError("state holds another model than the one to train")
    rng = generator([seed, 1])
    if state.rng_state is not None:
        rng.bit_generator.state = state.rng_state
    if flags.replay and state.replay_buffer is None:
        state.replay_buffer = ReplayBuffer()
    matrix = np.full((n_tasks, n_tasks), np.nan)
    if state.matrix_rows is not None:
        matrix[:state.matrix_rows.shape[0], :] = state.matrix_rows

    for t in range(state.next_task or 0, n_tasks):
        task = stream[t]
        if t >= len(model.head_classes):
            model.add_task_head(task.class_count)
        region = None if t == 0 else FlatRegion(
            anchor=model.parameters().copy(), rho=config.rho,
            constrained_names=model.constrained_names(t))
        importance = state.importance
        if region is not None and flags.l2 and (not flags.find or importance is None):
            importance = random_importance(model, [seed, 3, t])

        val_sets = [(*stream[j].val_xy(), j) for j in range(t + 1)]
        report = train_task(model, [task], region, importance, state.replay_buffer,
                            config, rng, epochs, val_sets, step_hook=step_hook)

        feats, labels = task.train_xy()
        if flags.find or config.sparse_update_ratio < 1.0:
            fresh = find_fisher(model, feats, labels, t, config.fisher_sample_count,
                                [seed, 2, t])
            state.importance = accumulate_fisher(state.importance, fresh, config.gamma)

        if flags.replay:
            state.replay_buffer.add_task(feats, labels, t, config.store_ratio, [seed, 4, t])

        for j in range(t + 1):
            tf, tl = stream[j].test_xy()
            matrix[t, j] = model.accuracy(tf, tl, j)

        # rows up to t are finished, so the view never changes again
        state.next_task, state.matrix_rows = t + 1, matrix[:t + 1]
        state.rng_state = rng.bit_generator.state
        if after_task is not None:
            after_task(state, report)

    return state


def train_multitask(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int):
    """Joint round-robin training over all tasks through `train_task`;
    returns per-task test accuracies (the intransigence reference)."""
    rng = generator([seed, 9])
    for t, task in enumerate(stream):
        if t >= len(model.head_classes):
            model.add_task_head(task.class_count)
    val_sets = [(*task.val_xy(), t) for t, task in enumerate(stream)]
    train_task(model, list(stream), None, None, None, config, rng, epochs, val_sets)
    return np.array([model.accuracy(*task.test_xy(), t)
                     for t, task in enumerate(stream)])
