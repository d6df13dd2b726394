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
    collapse to the point {0}.
    """
    anchor: ParameterSet
    rho: float
    constrained_names: list[str]

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")


@dataclass
class ImportanceMap:
    values: ParameterSet
    gamma: float = 0.95

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")
        for name, arr in self.values.items():
            if np.any(arr < 0):
                raise ValueError(f"negative importance entries in {name}")


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
    warmup_steps: int = 0
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


def compute_perturbation(params: ParameterSet, grads: ParameterSet, rho: float) -> Perturbation:
    """Ascent direction rho * w^2 g / ||w g||_2, one global normalizer."""
    params.require_aligned(grads, "compute_perturbation")
    if not params.all_finite() or not grads.all_finite():
        raise FloatingPointError("non-finite inputs to compute_perturbation")
    denom_sq = sum(float(np.sum((params[n] * grads[n]) ** 2)) for n in params)
    if denom_sq == 0.0 or rho == 0.0:
        return Perturbation(params.zeros_like())
    scale = rho / np.sqrt(denom_sq)
    eps = ParameterSet((n, scale * params[n] ** 2 * grads[n]) for n in params)
    return Perturbation(eps)


def create_gradient(model: MultiHeadClassifier, batch: Batch, rho: float,
                    perturb_names=None):
    """Gradient of the batch loss taken at the perturbed point w + eps.

    Returns (grads, loss_at_perturbed_point).  Weights are restored exactly
    via store/copy, not by subtracting the perturbation.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    loss0, grads0 = model.loss_gradient(batch)
    if rho == 0.0:
        return grads0, loss0
    params = model.parameters()
    if perturb_names is None:
        perturb_names = params.names()
    sub = params.subset(perturb_names)
    eps = compute_perturbation(sub, grads0.subset(perturb_names), rho).epsilon_hat
    saved = sub.copy()
    try:
        for n in perturb_names:
            params[n] += eps[n]
        loss_c, grads_c = model.loss_gradient(batch)
        if not np.isfinite(loss_c):
            raise FloatingPointError(
                f"non-finite loss at perturbed point (task {batch.task_id})")
    finally:
        for n in perturb_names:
            np.copyto(params[n], saved[n])
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
    return ImportanceMap(sums.scale(1.0 / len(idx)), gamma=1.0)


def random_importance(model: MultiHeadClassifier, seed: int) -> ImportanceMap:
    """Random nonnegative flatness stand-in, drawn once per task."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = ParameterSet(
        (n, rng.uniform(0.0, 1.0, size=a.shape)) for n, a in model.parameters().items())
    return ImportanceMap(values, gamma=1.0)


def accumulate_fisher(importance: ImportanceMap, fresh: ImportanceMap,
                      gamma: float) -> ImportanceMap:
    """Decay the old accumulator, then add the fresh per-task values."""
    importance.values.require_aligned(fresh.values, "accumulate_fisher")
    merged = importance.values.scale(gamma).add(fresh.values)
    return ImportanceMap(merged, gamma=gamma)


def soft_penalty(params: ParameterSet, region: FlatRegion,
                 importance: ImportanceMap):
    """Importance-weighted quadratic anchor penalty over constrained names.

    Returns (value, grads over the full params, zeros outside the region's
    names).  The caller scales both by lambda.
    """
    value = 0.0
    grads = params.zeros_like()
    for name in region.constrained_names:
        f = importance.values[name]
        if np.any(f < 0):
            raise ValueError(f"negative importance for {name}")
        diff = params[name] - region.anchor[name]
        value += float(np.sum(f * diff * diff))
        grads[name] = 2.0 * f * diff
    return value, grads


def clamp_to_region(params: ParameterSet, region: FlatRegion) -> int:
    """Project constrained coordinates into the box; returns clamp count."""
    count = 0
    for name in region.constrained_names:
        anchor = region.anchor[name]
        half = region.rho * np.abs(anchor)
        lo, hi = anchor - half, anchor + half
        clipped = np.clip(params[name], lo, hi)
        count += int(np.sum(clipped != params[name]))
        np.copyto(params[name], clipped)
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
        sizes = [importance.values[n].size for n in group]
        total = sum(sizes)
        if total == 0:
            raise ValueError("empty layer in partition")
        if ratio == 1.0:
            for n in group:
                mask[n][...] = 1.0
            continue
        flat = np.concatenate([importance.values[n].ravel() for n in group])
        k = max(1, int(np.floor(total * ratio)))
        keep = np.argsort(flat, kind="stable")[:k]
        mflat = np.zeros(total)
        mflat[keep] = 1.0
        offset = 0
        for n, size in zip(group, sizes):
            mask[n] = mflat[offset:offset + size].reshape(importance.values[n].shape)
            offset += size
    return mask


# ---------------------------------------------------------------------------
# base optimizer


class OptimizerState:
    """SGD or Adam-with-decoupled-weight-decay state."""

    def __init__(self, config: OptimizerConfig, params: ParameterSet,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.config = config
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = params.zeros_like()
        self.v = params.zeros_like()

    def _lr(self):
        lr = self.config.learning_rate
        if self.config.warmup_steps > 0:
            lr *= min(1.0, self.t / self.config.warmup_steps)
        return lr


def base_step(state: OptimizerState, params: ParameterSet,
              total_grads: ParameterSet, config: OptimizerConfig):
    """One in-place update; grads must already include all loss terms."""
    if not total_grads.all_finite():
        raise FloatingPointError("non-finite gradients in base_step")
    state.t += 1
    lr = state._lr()
    if config.base_optimizer == "sgd":
        for name in params:
            params[name] -= lr * total_grads[name]
            if config.weight_decay:
                params[name] -= lr * config.weight_decay * params[name]
        return
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name in params:
        g = total_grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        if config.weight_decay:
            params[name] -= lr * config.weight_decay * params[name]


# ---------------------------------------------------------------------------
# task-level training


def _pooled_accuracy(model, eval_sets):
    correct = total = 0
    for feats, labels, task_id in eval_sets:
        pred = model.predict(feats, task_id)
        correct += int(np.sum(pred == labels))
        total += len(labels)
    return correct / total if total else 0.0


def train_task(model: MultiHeadClassifier, task, region, importance,
               replay_buffer: ReplayBuffer | None, config: OptimizerConfig,
               rng, epochs: int, val_sets, step_hook=None) -> TaskReport:
    """Run one task's training loop; leaves the best-validation snapshot in
    the model.  `task` supplies train_xy() and task_id; `val_sets` is a list
    of (features, labels, task_id) for all seen tasks."""
    flags = config.variant
    task_id = task.task_id
    feats, labels = task.train_xy()
    n = len(labels)
    params = model.parameters()
    state = OptimizerState(config, params)
    report = TaskReport(task_id=task_id)

    constrained = region.constrained_names if region is not None else []
    use_penalty = flags.l2 and region is not None and importance is not None
    use_clamp = flags.clamp and region is not None
    perturb_names = model.constrained_names(task_id) or None

    if region is not None:
        report.frozen_zero_anchor_coords = sum(
            int(np.sum(region.anchor[nm] == 0.0)) for nm in constrained)

    mask = None
    if config.sparse_update_ratio < 1.0 and importance is not None:
        partition = [[f"enc{i}.W", f"enc{i}.b"] for i in range(len(model.encoder))]
        for t in range(task_id):
            partition.append(model.head_names(t))
        if partition:
            sub = ImportanceMap(importance.values.subset(
                [nm for grp in partition for nm in grp]), gamma=1.0)
            mask = build_sparse_mask(sub, config.sparse_update_ratio, partition)

    def grads_for(batch: Batch):
        if flags.create:
            return create_gradient(model, batch, config.rho, perturb_names)
        loss, grads = model.loss_gradient(batch)
        return grads, loss

    def do_step(batches):
        total_weight = sum(len(b) for b in batches)
        total = None
        loss_val = 0.0
        for b in batches:
            g, loss = grads_for(b)
            w = len(b) / total_weight
            loss_val += w * loss
            total = g.scale(w) if total is None else total.add_scaled(g, w)
        if use_penalty:
            _, pgrads = soft_penalty(params, region, importance)
            total = total.add_scaled(pgrads, config.lam)
        if mask is not None:
            for nm in mask:
                total[nm] *= mask[nm]
        base_step(state, params, total, config)
        clamped = clamp_to_region(params, region) if use_clamp else 0
        report.step_losses.append(loss_val)
        report.clamp_counts.append(clamped)
        if step_hook is not None:
            step_hook(model, region)

    best_acc = -1.0
    best_params = None

    def validate(step):
        nonlocal best_acc, best_params
        acc = _pooled_accuracy(model, val_sets)
        report.validation_curve.append((step, acc))
        if acc > best_acc:
            best_acc = acc
            best_params = params.copy()
            report.best_step = step
            report.best_accuracy = acc

    step_index = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            do_step([Batch(feats[idx], labels[idx], task_id)])
            step_index += 1
            if step_index % config.validate_every_steps == 0:
                validate(step_index)
            if (flags.replay and replay_buffer is not None and len(replay_buffer)
                    and replay_schedule(step_index, replay_buffer.replay_every)):
                batches = replay_buffer.sample_batches(config.batch_size, rng)
                do_step(batches)
                step_index += 1
                if step_index % config.validate_every_steps == 0:
                    validate(step_index)
    validate(step_index)
    if best_params is not None:
        model.set_parameters(best_params)
    return report


# ---------------------------------------------------------------------------
# continual loop


@dataclass
class ContinualResult:
    model: MultiHeadClassifier
    accuracy_matrix: np.ndarray       # (T, T), NaN above the diagonal
    reports: list
    importance_history: list          # accumulated ImportanceMap after each task
    region_history: list              # FlatRegion used while training each task (None first)
    probe_values: list                # probe_fn outputs per task, if probing


def _derived_seed(seed, *tags):
    return [int(seed)] + [int(t) for t in tags]


def train_continual(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int, probe_fn=None,
                    resume_state: dict | None = None,
                    checkpoint_fn=None, step_hook=None) -> ContinualResult:
    """Sequential training over a task stream with flat-region constraints.

    After each task: estimate Fisher at the converged weights, decay-then-add
    into the accumulator, snapshot the anchor, and record test accuracy on
    all seen tasks.  `resume_state` (from a checkpoint) restarts at a task
    boundary and reproduces the uninterrupted run bitwise.
    """
    flags = config.variant
    n_tasks = len(stream)
    matrix = np.full((n_tasks, n_tasks), np.nan)
    reports, importance_history, region_history, probe_values = [], [], [], []

    rng = np.random.Generator(np.random.PCG64(_derived_seed(seed, 1)))
    buffer = (ReplayBuffer(store_ratio=config.store_ratio,
                           replay_every=config.replay_every)
              if flags.replay else None)
    accumulated = None
    anchor = None
    start_task = 0

    if resume_state is not None:
        start_task = resume_state["next_task"]
        rng.bit_generator.state = resume_state["rng_state"]
        accumulated = resume_state["importance"]
        anchor = resume_state["anchor"]
        if flags.replay:
            buffer = resume_state["replay_buffer"]
        done = resume_state["matrix_rows"]
        matrix[:done.shape[0], :] = done

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
        # Sparse masks reuse the accumulated importance even when the soft
        # penalty itself is disabled.
        mask_importance = task_importance
        if mask_importance is None and accumulated is not None:
            mask_importance = accumulated

        val_sets = [(*stream[j].val_xy(), j) for j in range(t + 1)]
        report = train_task(model, task, region, task_importance, buffer,
                            config, rng, epochs, val_sets, step_hook=step_hook)
        reports.append(report)
        region_history.append(region)

        feats, labels = task.train_xy()
        if flags.find or config.sparse_update_ratio < 1.0:
            fresh = find_fisher(model, feats, labels, t,
                                config.fisher_sample_count,
                                _derived_seed(seed, 2, t))
            if accumulated is None:
                accumulated = ImportanceMap(fresh.values.copy(), gamma=config.gamma)
            else:
                # A new head appeared since the last accumulation; extend with zeros.
                full = model.parameters().zeros_like()
                for nm in accumulated.values:
                    full[nm] = accumulated.values[nm]
                accumulated = accumulate_fisher(
                    ImportanceMap(full, gamma=config.gamma), fresh, config.gamma)
        importance_history.append(accumulated)

        anchor = ParameterSet((nm, a.copy()) for nm, a in model.parameters().items())

        if buffer is not None:
            buffer.add_task(feats, labels, t, _derived_seed(seed, 4, t))

        for j in range(t + 1):
            tf, tl = stream[j].test_xy()
            matrix[t, j] = model.accuracy(tf, tl, j)

        if probe_fn is not None:
            probe_values.append(probe_fn(model, t))

        if checkpoint_fn is not None:
            checkpoint_fn(t, {
                "next_task": t + 1,
                "rng_state": rng.bit_generator.state,
                "importance": accumulated,
                "anchor": anchor,
                "replay_buffer": buffer,
                "matrix_rows": matrix[:t + 1, :].copy(),
            })

    return ContinualResult(model, matrix, reports, importance_history,
                           region_history, probe_values)


def train_multitask(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int):
    """Joint round-robin training over all tasks; returns per-task test
    accuracies (the intransigence reference)."""
    for t, task in enumerate(stream):
        if t >= len(model.heads):
            model.add_task_head(task.class_count)
    rng = np.random.Generator(np.random.PCG64(_derived_seed(seed, 9)))
    params = model.parameters()
    state = OptimizerState(config, params)
    val_sets = [(*task.val_xy(), t) for t, task in enumerate(stream)]
    data = [task.train_xy() for task in stream]
    best_acc, best_params = -1.0, None
    step = 0
    for _ in range(epochs):
        queues = []
        for t, (feats, labels) in enumerate(data):
            perm = rng.permutation(len(labels))
            chunks = [perm[s:s + config.batch_size]
                      for s in range(0, len(labels), config.batch_size)]
            queues.append(chunks)
        for i in range(max(len(q) for q in queues)):
            for t, chunks in enumerate(queues):
                if i >= len(chunks):
                    continue
                feats, labels = data[t]
                idx = chunks[i]
                _, grads = model.loss_gradient(Batch(feats[idx], labels[idx], t))
                base_step(state, params, grads, config)
                step += 1
                if step % config.validate_every_steps == 0:
                    acc = _pooled_accuracy(model, val_sets)
                    if acc > best_acc:
                        best_acc, best_params = acc, params.copy()
    acc = _pooled_accuracy(model, val_sets)
    if acc > best_acc:
        best_acc, best_params = acc, params.copy()
    if best_params is not None:
        model.set_parameters(best_params)
    return np.array([model.accuracy(*task.test_xy(), t)
                     for t, task in enumerate(stream)])
