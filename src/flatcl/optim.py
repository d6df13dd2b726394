"""Flat-space training engine.

Create: perturb weights along an adaptively scaled ascent direction and take
the gradient there.  Find: diagonal empirical Fisher as a per-parameter
flatness estimate, accumulated across tasks with decay.  New tasks train
inside the previous task's flat region under a hard clamp and a soft
importance-weighted anchor penalty, with optional replay and sparse-update
masks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import Batch, MultiHeadClassifier
from .params import ParameterSet
from .replay import ReplayBuffer, replay_schedule


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

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        anchor = self.anchor.prefix(self.constrained_names)
        half = self.rho * np.abs(anchor)
        self.lo, self.hi = anchor - half, anchor + half


@dataclass
class ImportanceMap:
    """Per-parameter flatness values; never negative."""
    values: ParameterSet

    def __post_init__(self):
        if np.any(self.values.flat < 0):
            raise ValueError("negative importance entries")


@dataclass
class VariantFlags:
    create: bool = False
    find: bool = False
    clamp: bool = False
    l2: bool = False
    replay: bool = False


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
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate must be > 0 and batch_size >= 1")
        if self.lam < 0 or self.rho < 0 or not (0 <= self.gamma <= 1):
            raise ValueError("invalid lam/rho/gamma")
        if not (0 < self.sparse_update_ratio <= 1):
            raise ValueError("sparse_update_ratio must be in (0, 1]")
        if self.base_optimizer not in ("sgd", "adam_decoupled"):
            raise ValueError(f"unknown base_optimizer {self.base_optimizer!r}")
        if isinstance(self.variant, dict):
            self.variant = VariantFlags(**self.variant)


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


def _epsilon(w: np.ndarray, g: np.ndarray, rho: float) -> np.ndarray:
    """rho * w^2 g / ||w g||_2 over flat vectors; zero when w g or rho is."""
    if not (np.isfinite(w).all() and np.isfinite(g).all()):
        raise FloatingPointError("non-finite inputs to compute_perturbation")
    wg = w * g
    denom_sq = float(wg @ wg)
    if denom_sq == 0.0 or rho == 0.0:
        return np.zeros_like(w)
    return rho / np.sqrt(denom_sq) * w ** 2 * g


def compute_perturbation(params: ParameterSet, grads: ParameterSet, rho: float) -> Perturbation:
    """Ascent direction rho * w^2 g / ||w g||_2, one global normalizer."""
    params.require_aligned(grads, "compute_perturbation")
    return Perturbation(params.unflatten(_epsilon(params.flat, grads.flat, rho)))


def create_gradient(model: MultiHeadClassifier, batch: Batch, rho: float,
                    perturb_names=None):
    """Gradient of the batch loss taken at the perturbed point w + eps.

    Only `perturb_names` (default: all), a prefix of the layout, move.
    Returns (grads, loss_at_perturbed_point).  Weights are restored exactly
    by copying them back, not by subtracting the perturbation.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    loss0, grads0 = model.loss_gradient(batch)
    if rho == 0.0:
        return grads0, loss0
    params = model.parameters()
    w = params.flat if perturb_names is None else params.prefix(perturb_names)
    eps = _epsilon(w, grads0.flat[:w.size], rho)
    saved = w.copy()
    try:
        w += eps
        loss_c, grads_c = model.loss_gradient(batch)
        if not np.isfinite(loss_c):
            raise FloatingPointError(
                f"non-finite loss at perturbed point (task {batch.task_id})")
    finally:
        np.copyto(w, saved)
    return grads_c, loss_c


def find_fisher(model: MultiHeadClassifier, features, labels, task_id: int,
                n_samples: int, seed: int) -> ImportanceMap:
    """Diagonal empirical Fisher: mean squared per-sample log-prob gradient,
    from one batched pass over the sampled rows."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = len(labels)
    if n < n_samples:
        warnings.warn(f"dataset has {n} samples < fisher_sample_count {n_samples}; "
                      "using the full dataset")
        idx = np.arange(n)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        idx = rng.choice(n, size=n_samples, replace=False)
    sums, _ = model.gradient_second_moments(np.asarray(features)[idx],
                                            np.asarray(labels)[idx], task_id)
    return ImportanceMap(sums.scale(1.0 / len(idx)))


def random_importance(model: MultiHeadClassifier, seed: int) -> ImportanceMap:
    """Random nonnegative flatness stand-in, drawn once per task."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params = model.parameters()
    return ImportanceMap(params.unflatten(rng.uniform(0.0, 1.0, size=params.total_size())))


def accumulate_fisher(importance: ImportanceMap | None, fresh: ImportanceMap,
                      gamma: float) -> ImportanceMap:
    """Decay the old accumulator, then add the fresh per-task values.

    With no accumulator yet the result is a copy of `fresh`.  The old layout
    must be a prefix of the fresh one; heads added since the last
    accumulation start at zero importance.
    """
    if importance is None:
        return ImportanceMap(fresh.values.copy())
    old, new = importance.values, fresh.values
    if ([(n, a.shape) for n, a in old.items()]
            != [(n, a.shape) for n, a in new.items()[:len(old)]]):
        raise ValueError(f"accumulate_fisher: accumulated layout {old!r} is not a "
                         f"prefix of the fresh layout {new!r}")
    pad = np.zeros(new.total_size() - old.total_size())
    return ImportanceMap(new.unflatten(np.concatenate([old.flat, pad]) * gamma + new.flat))


def soft_penalty(params: ParameterSet, region: FlatRegion,
                 importance: ImportanceMap):
    """Importance-weighted quadratic anchor penalty over constrained names.

    Returns (value, grads over the full params, zeros outside the region's
    names).  The caller scales both by lambda.
    """
    names = region.constrained_names
    f = importance.values.prefix(names)
    if np.any(f < 0):
        raise ValueError("negative importance in the constrained region")
    diff = params.prefix(names) - region.anchor.prefix(names)
    grads = params.zeros_like()
    grads.flat[:diff.size] = 2.0 * f * diff
    return float(np.sum(f * diff * diff)), grads


def clamp_to_region(params: ParameterSet, region: FlatRegion) -> int:
    """Project constrained coordinates into the box; returns clamp count."""
    w = params.prefix(region.constrained_names)
    clipped = np.clip(w, region.lo, region.hi)
    count = int(np.count_nonzero(clipped != w))
    np.copyto(w, clipped)
    return count


def build_sparse_mask(importance: ImportanceMap, ratio: float,
                      layer_partition: list[list[str]]) -> ParameterSet:
    """Per layer, mark the `ratio` fraction with LOWEST importance updatable."""
    if not (0 < ratio <= 1):
        raise ValueError("ratio must be in (0, 1]")
    mask = importance.values.zeros_like()
    for group in layer_partition:
        if not group:
            raise ValueError("empty layer in partition")
        values = np.concatenate([importance.values[n].ravel() for n in group])
        if values.size == 0:
            raise ValueError("empty layer in partition")
        k = values.size if ratio == 1.0 else max(1, int(np.floor(values.size * ratio)))
        layer = np.zeros(values.size)
        layer[np.argsort(values, kind="stable")[:k]] = 1.0
        offset = 0
        for n in group:
            size = mask[n].size
            mask[n] = layer[offset:offset + size].reshape(mask[n].shape)
            offset += size
    return mask


# ---------------------------------------------------------------------------
# base optimizer


class OptimizerState:
    """SGD or Adam-with-decoupled-weight-decay state; the Adam moments `m`
    and `v` are flat vectors over the parameter buffer."""

    def __init__(self, params: ParameterSet, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros(params.total_size())
        self.v = np.zeros(params.total_size())


def base_step(state: OptimizerState, params: ParameterSet,
              total_grads: ParameterSet, config: OptimizerConfig):
    """One in-place update; grads must already include all loss terms."""
    params.require_aligned(total_grads, "base_step")
    g = total_grads.flat
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradients in base_step")
    state.t += 1
    lr = config.learning_rate
    w = params.flat
    if config.base_optimizer == "sgd":
        w -= lr * g
    else:
        b1, b2 = state.beta1, state.beta2
        state.m *= b1
        state.m += (1 - b1) * g
        state.v *= b2
        state.v += (1 - b2) * g * g
        m_hat = state.m / (1.0 - b1 ** state.t)
        v_hat = state.v / (1.0 - b2 ** state.t)
        w -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    if config.weight_decay:
        w -= lr * config.weight_decay * w


# ---------------------------------------------------------------------------
# task-level training


def train_task(model: MultiHeadClassifier, tasks, region, importance,
               replay_buffer: ReplayBuffer | None, config: OptimizerConfig,
               rng, epochs: int, val_sets, step_hook=None) -> TaskReport:
    """Train on `tasks` and leave the best-validation snapshot in the model.

    Each task supplies train_xy() and task_id.  Every epoch draws one
    permutation per task, in task order, then steps through the tasks'
    minibatches round-robin.  The last task is the current one: its
    constrained names are the ones perturbed and masked, and it names the
    report.  `val_sets` is a list of (features, labels, task_id), pooled for
    validation.
    """
    flags = config.variant
    data = [(task.task_id, *task.train_xy()) for task in tasks]
    task_id = tasks[-1].task_id
    params = model.parameters()
    state = OptimizerState(params)
    report = TaskReport(task_id=task_id)

    use_penalty = flags.l2 and region is not None and importance is not None
    use_clamp = flags.clamp and region is not None
    names = model.constrained_names(task_id)
    perturb_names = names or None

    if region is not None:
        report.frozen_zero_anchor_coords = int(np.count_nonzero(
            region.anchor.prefix(region.constrained_names) == 0.0))

    mask = None  # sparse-update mask over the constrained prefix
    if config.sparse_update_ratio < 1.0 and importance is not None and names:
        layers = [names[i:i + 2] for i in range(0, len(names), 2)]  # (W, b) pairs
        mask = build_sparse_mask(importance, config.sparse_update_ratio,
                                 layers).prefix(names)

    def grads_for(batch: Batch):
        if flags.create:
            return create_gradient(model, batch, config.rho, perturb_names)
        loss, grads = model.loss_gradient(batch)
        return grads, loss

    total = params.zeros_like()  # the step's summed gradient, rewritten each step
    best_theta = None
    step_index = 0

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

    def do_step(batches):
        nonlocal step_index
        total_weight = sum(len(b) for b in batches)
        summed = total.flat
        loss_val = 0.0
        for i, b in enumerate(batches):
            g, loss = grads_for(b)
            w = len(b) / total_weight
            loss_val += w * loss
            if i == 0:
                np.multiply(g.flat, w, out=summed)
            else:
                summed += w * g.flat
        if use_penalty:
            summed += config.lam * soft_penalty(params, region, importance)[1].flat
        if mask is not None:
            summed[:mask.size] *= mask
        base_step(state, params, total, config)
        clamped = clamp_to_region(params, region) if use_clamp else 0
        report.step_losses.append(loss_val)
        report.clamp_counts.append(clamped)
        if step_hook is not None:
            step_hook(model, region)
        step_index += 1
        if step_index % config.validate_every_steps == 0:
            validate(step_index)

    longest = max(len(labels) for _, _, labels in data)
    for _ in range(epochs):
        perms = [rng.permutation(len(labels)) for _, _, labels in data]
        for start in range(0, longest, config.batch_size):
            for (tid, feats, labels), perm in zip(data, perms):
                idx = perm[start:start + config.batch_size]
                if not idx.size:
                    continue
                do_step([Batch(feats[idx], labels[idx], tid)])
                if (flags.replay and replay_buffer is not None and len(replay_buffer)
                        and replay_schedule(step_index, replay_buffer.replay_every)):
                    do_step(replay_buffer.sample_batches(config.batch_size, rng))
    validate(step_index)
    np.copyto(model.theta, best_theta)
    return report


# ---------------------------------------------------------------------------
# continual loop


@dataclass
class ContinualResult:
    model: MultiHeadClassifier
    accuracy_matrix: np.ndarray       # (T, T), NaN above the diagonal
    reports: list
    probe_values: list                # probe_fn outputs per task, if probing


def _derived_seed(seed, *tags):
    return [int(seed)] + [int(t) for t in tags]


def train_continual(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int, probe_fn=None, resume=None,
                    checkpoint_fn=None, step_hook=None) -> ContinualResult:
    """Sequential training over a task stream with flat-region constraints.

    After each task: estimate Fisher at the converged weights, decay-then-add
    into the accumulator, snapshot the anchor, and record test accuracy on
    all seen tasks.  `resume`, a loaded `checkpoint.Checkpoint`, restarts at
    its task boundary and reproduces the uninterrupted run bitwise.  After
    each task `checkpoint_fn(t, **fields)` receives the resume fields of a
    `Checkpoint` by name.
    """
    flags = config.variant
    n_tasks = len(stream)
    matrix = np.full((n_tasks, n_tasks), np.nan)
    reports, probe_values = [], []

    rng = np.random.Generator(np.random.PCG64(_derived_seed(seed, 1)))
    buffer = (ReplayBuffer(store_ratio=config.store_ratio,
                           replay_every=config.replay_every)
              if flags.replay else None)
    accumulated = None
    anchor = None
    start_task = 0

    if resume is not None:
        start_task = resume.next_task
        rng.bit_generator.state = resume.rng_state
        accumulated = resume.importance
        anchor = resume.anchor
        if flags.replay:
            buffer = resume.replay_buffer
        matrix[:resume.matrix_rows.shape[0], :] = resume.matrix_rows

    for t in range(start_task, n_tasks):
        task = stream[t]
        if t >= len(model.heads):
            model.add_task_head(task.class_count)
        if t == 0 or anchor is None:
            region = None
        else:
            region = FlatRegion(anchor=anchor, rho=config.rho,
                                constrained_names=model.constrained_names(t))
        task_importance = None
        if region is not None and flags.l2:
            if flags.find and accumulated is not None:
                task_importance = accumulated
            else:
                task_importance = random_importance(model, _derived_seed(seed, 3, t))

        val_sets = [(*stream[j].val_xy(), j) for j in range(t + 1)]
        # Without l2 the accumulated importance still drives the sparse mask;
        # the penalty needs l2, so it stays off.
        reports.append(train_task(model, [task], region, task_importance or accumulated,
                                  buffer, config, rng, epochs, val_sets,
                                  step_hook=step_hook))

        feats, labels = task.train_xy()
        if flags.find or config.sparse_update_ratio < 1.0:
            fresh = find_fisher(model, feats, labels, t,
                                config.fisher_sample_count,
                                _derived_seed(seed, 2, t))
            accumulated = accumulate_fisher(accumulated, fresh, config.gamma)

        anchor = model.parameters().copy()

        if buffer is not None:
            buffer.add_task(feats, labels, t, _derived_seed(seed, 4, t))

        for j in range(t + 1):
            tf, tl = stream[j].test_xy()
            matrix[t, j] = model.accuracy(tf, tl, j)

        if probe_fn is not None:
            probe_values.append(probe_fn(model, t))

        if checkpoint_fn is not None:
            checkpoint_fn(t, next_task=t + 1, rng_state=rng.bit_generator.state,
                          importance=accumulated, anchor=anchor, replay_buffer=buffer,
                          matrix_rows=matrix[:t + 1, :].copy())

    return ContinualResult(model, matrix, reports, probe_values)


def train_multitask(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int):
    """Joint round-robin training over all tasks through `train_task`;
    returns per-task test accuracies (the intransigence reference)."""
    for t, task in enumerate(stream):
        if t >= len(model.heads):
            model.add_task_head(task.class_count)
    rng = np.random.Generator(np.random.PCG64(_derived_seed(seed, 9)))
    val_sets = [(*task.val_xy(), t) for t, task in enumerate(stream)]
    train_task(model, list(stream), None, None, None, config, rng, epochs, val_sets)
    return np.array([model.accuracy(*task.test_xy(), t)
                     for t, task in enumerate(stream)])
