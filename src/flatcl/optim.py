"""Flat-space training engine.

Create: perturb weights along an adaptively scaled ascent direction and take
the gradient there.  Find: diagonal empirical Fisher as a per-parameter
flatness estimate, accumulated across tasks with decay.  New tasks train
inside the previous task's flat region under a hard clamp and a soft
importance-weighted anchor penalty, with optional replay and sparse-update
masks.
"""

from __future__ import annotations

import math
import sys
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
        check_rho(self.rho)
        anchor = self.anchor.prefix(self.constrained_names)
        half = self.rho * np.abs(anchor)
        self.lo, self.hi = anchor - half, anchor + half


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
        def positive_int(v):
            return isinstance(v, int) and v >= 1
        big = sys.float_info.max  # a larger number is inf, or an int no float holds
        for name, rule, ok in (
                ("learning_rate", "a finite number > 0", lambda v: 0 < v <= big),
                ("batch_size", "an integer >= 1", positive_int),
                ("weight_decay", "a finite number >= 0", lambda v: 0 <= v <= big),
                ("lam", "a finite number >= 0", lambda v: 0 <= v <= big),
                ("rho", "a finite number >= 0", lambda v: 0 <= v <= big),
                ("gamma", "a number in [0, 1]", lambda v: 0 <= v <= 1),
                ("fisher_sample_count", "an integer >= 1", positive_int),
                ("validate_every_steps", "an integer >= 1", positive_int),
                ("sparse_update_ratio", "a number in (0, 1]", lambda v: 0 < v <= 1),
                ("store_ratio", "a number in (0, 1]", lambda v: 0 < v <= 1),
                ("replay_every", "an integer >= 1", positive_int)):
            value = getattr(self, name)
            # bool is an int subclass; a JSON true is not the number 1
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
                raise ValueError(f"optimizer {name} must be {rule}, got {value!r}")
        if self.base_optimizer not in ("sgd", "adam_decoupled"):
            raise ValueError(f"unknown base_optimizer {self.base_optimizer!r}")


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


def check_rho(rho: float):
    """The one-line refusal of a negative, NaN or infinite radius that every
    entry point taking rho shares."""
    if not rho >= 0:
        raise ValueError("rho must be >= 0")
    if rho > sys.float_info.max:
        raise ValueError("rho must be finite")


def compute_perturbation(params: ParameterSet, grads: ParameterSet, rho: float) -> Perturbation:
    """Ascent direction rho * w^2 g / ||w g||_2, one global normalizer."""
    check_rho(rho)
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
    check_rho(rho)
    features, labels = model._check_rows(batch.features, batch.labels, batch.task_id)
    params = model.parameters()
    n = params.total_size() if perturb_names is None else params.prefix(perturb_names).size
    grads = params.zeros_like()
    loss = _create_step(model, n, rho)(features, labels, batch.task_id, grads.flat,
                                       model._plan(grads.flat, batch.task_id))
    return grads, loss


def _create_step(model, n, rho):
    """Bind the create step, which perturbs the first `n` weights, to one
    scratch vector and its plan per head.  `step(features, labels, task_id,
    out, views)` writes the gradient at w + eps of checked rows through
    `views`, the plan of flat `out` (which must be zero outside the rows'
    head), and returns the loss there, scored through the plans of the
    scratch vector, which holds w + eps and the rest of `theta`."""
    scratch = np.empty(model.theta.size)
    plans = [model._plan(scratch, t) for t in range(len(model.head_classes))]
    w, eps = model.theta[:n], scratch[:n]

    def step(features, labels, task_id, out, views):
        plan = model._plans[task_id]
        if rho == 0.0:
            return model._loss_gradient_into(features, labels, plan, views)
        # eps reads only the gradient over w, so the pass at w skips the loss
        # and, when the rows' head lies past w (the current task's does), the
        # head's blocks, which the pass at w + eps writes
        model._gradient_into(*model._log_probs(features, plan), labels, plan,
                             views[:-1] if plan[-1][3].stop > n else views)
        np.add(_epsilon(w, out[:n], rho, out=eps), w, out=eps)  # bitwise w + eps
        np.copyto(scratch[n:], model.theta[n:])
        loss = model._loss_gradient_into(features, labels, plans[task_id], views)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at perturbed point (task {task_id})")
        return loss

    return step


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
    return ImportanceMap(sums * (1.0 / len(idx)))


def random_importance(model: MultiHeadClassifier, seed: int) -> ImportanceMap:
    """Random nonnegative flatness stand-in, drawn once per task."""
    rng = np.random.Generator(np.random.PCG64(seed))
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
    """Project constrained coordinates into the box; returns clamp count."""
    w = params.prefix(region.constrained_names)
    clipped = w.clip(region.lo, region.hi)  # what np.clip calls
    count = int(np.count_nonzero(clipped != w))
    np.copyto(w, clipped)
    return count


def build_sparse_mask(importance: ImportanceMap, ratio: float,
                      layers: list[slice]) -> np.ndarray:
    """Per layer (a slice), mark the `ratio` fraction with LOWEST importance updatable."""
    if not (0 < ratio <= 1):
        raise ValueError("ratio must be in (0, 1]")
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
    """SGD or Adam-with-decoupled-weight-decay state; the Adam moments `m`
    and `v` are flat vectors over the parameter buffer.

    It also owns the vectors a training step rewrites, so a step allocates
    none of them: `total`, the step's summed gradient, a set laid out like
    the parameters; `grad`, one batch's flat gradient (`train_task` binds
    each head's plan over both once); `penalty`, the anchor penalty's
    gradient; and `tmp`, Adam's two temporaries.  The create step's
    perturbed point lives in the scratch vector `_create_step` binds.
    """

    def __init__(self, params: ParameterSet):
        self.t = 0
        n = params.total_size()
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.total = params.zeros_like()
        self.penalty, self.grad = np.empty((2, n))
        self.tmp = np.empty((2, n))


def base_step(state: OptimizerState, params: ParameterSet,
              total_grads: ParameterSet, config: OptimizerConfig):
    """One in-place update; grads must already include all loss terms."""
    params.require_aligned(total_grads, "base_step")
    g = total_grads.flat
    if not all_finite(g):
        raise FloatingPointError("non-finite gradients in base_step")
    state.t += 1
    lr = config.learning_rate
    w = params.flat
    a, b = state.tmp
    if config.base_optimizer == "sgd":
        w -= np.multiply(g, lr, out=a)
    else:
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        state.m *= b1
        state.m += np.multiply(g, 1 - b1, out=a)
        state.v *= b2
        np.multiply(g, 1 - b2, out=a)
        state.v += np.multiply(a, g, out=a)
        m_hat = np.divide(state.m, 1.0 - b1 ** state.t, out=a)
        v_hat = np.divide(state.v, 1.0 - b2 ** state.t, out=b)
        denom = np.sqrt(v_hat, out=b)
        denom += ADAM_EPS
        m_hat *= lr
        w -= np.divide(m_hat, denom, out=a)
    if config.weight_decay:
        w -= np.multiply(w, lr * config.weight_decay, out=a)


# ---------------------------------------------------------------------------
# task-level training


def _check_replay_rows(model: MultiHeadClassifier, store: ReplayBuffer):
    """Check every stored row against its head, as `train_task` does its
    tasks' rows; the store may come from a checkpoint, whose load checks
    that its row, label and task-id counts agree."""
    for tid in np.unique(store.task_ids):
        rows = store.task_ids == tid
        model._check_rows(store.features[rows], store.labels[rows], int(tid))


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

    Each task's training rows, and the replay store's rows, are checked once
    here against their heads; the steps then call the unchecked kernel and
    write into the buffers of `OptimizerState`, with the same arithmetic as
    `create_gradient`, `soft_penalty`, `base_step` and `clamp_to_region`.
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
        layers = [sl for *_, sl  # encoder, earlier heads
                  in model._plans[task_id][:-1] + [p[-1] for p in model._plans[:task_id]]]
        mask = build_sparse_mask(importance, config.sparse_update_ratio, layers)[:layers[-1].stop]

    if use_penalty:
        w_c = params.prefix(region.constrained_names)
        anchor_c = region.anchor.prefix(region.constrained_names)
        two_f = 2.0 * importance.values[:w_c.size]
        penalty = state.penalty[:w_c.size]

    # at rho 0, the plain gradient; the create step perturbs the constrained
    # prefix, or every weight when it is empty (task 0 with no hidden layer)
    grads_into = _create_step(model, params.prefix(names).size if names else params.total_size(),
                              config.rho if flags.create else 0.0)
    summed = state.total.flat  # the step's summed gradient, rewritten each step
    # per head, the plans of `summed` and of `state.grad` the kernel writes into
    views = [(model._plan(summed, h), model._plan(state.grad, h))
             for h in range(len(model.head_classes))]
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
        """One update from (features, labels, task_id) batches, each
        gradient weighted by its share of the rows."""
        nonlocal step_index
        if len(batches) == 1:  # weight 1: scaling by it would change no bit
            features, labels, tid = batches[0]
            summed.fill(0.0)
            loss_val = 0.0 + grads_into(features, labels, tid, summed, views[tid][0])
        else:
            total_weight = sum(len(labels) for _, labels, _ in batches)
            loss_val = 0.0
            for i, (features, labels, tid) in enumerate(batches):
                out = summed if i == 0 else state.grad
                out.fill(0.0)
                loss = grads_into(features, labels, tid, out, views[tid][i > 0])
                w = len(labels) / total_weight
                loss_val += w * loss
                out *= w
                if i:
                    np.add(summed, out, out=summed)
        if use_penalty:
            pen = _penalty_gradient(w_c, anchor_c, two_f, penalty)
            pen *= config.lam
            summed[:pen.size] += pen
        if mask is not None:
            summed[:mask.size] *= mask
        base_step(state, params, state.total, config)
        clamped = clamp_to_region(params, region) if use_clamp else 0
        report.step_losses.append(loss_val)
        report.clamp_counts.append(clamped)
        if step_hook is not None:
            step_hook(model, region)
        step_index += 1
        if step_index % config.validate_every_steps == 0:
            validate(step_index)

    size = config.batch_size
    longest = max(len(labels) for _, _, labels in data)
    for _ in range(epochs):
        epoch = []
        for tid, feats, labels in data:
            perm = rng.permutation(len(labels))
            epoch.append((tid, feats[perm], labels[perm]))
        for start in range(0, longest, size):
            for tid, feats, labels in epoch:
                if start >= len(labels):
                    continue
                do_step([(feats[start:start + size], labels[start:start + size], tid)])
                if use_replay and replay_schedule(step_index, config.replay_every):
                    do_step([(b.features, b.labels, b.task_id)
                             for b in replay_buffer.sample_batches(size, rng)])
    validate(step_index)
    np.copyto(model.theta, best_theta)
    return report


# ---------------------------------------------------------------------------
# continual loop


@dataclass
class ContinualResult:
    accuracy_matrix: np.ndarray       # (T, T), NaN above the diagonal
    reports: list
    probe_values: list                # probe_fn outputs per task, if probing


def _derived_seed(seed, *tags):
    return [int(seed)] + [int(t) for t in tags]


def train_continual(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int, probe_fn=None, resume=None,
                    checkpoint_fn=None, step_hook=None) -> ContinualResult:
    """Sequential training over a task stream with flat-region constraints.

    Each task after the first trains inside the flat region around the
    weights it starts from, which are the previous task's solution.  After
    each task: estimate Fisher at the converged weights, decay-then-add into
    the accumulator, and record test accuracy on all seen tasks.  `resume`,
    a loaded `checkpoint.Checkpoint`, restarts at its task boundary and
    reproduces the uninterrupted run bitwise, its probe values included.
    After each task `checkpoint_fn(t, **fields)` receives the resume fields
    of a `Checkpoint` by name.
    """
    flags = config.variant
    n_tasks = len(stream)
    matrix = np.full((n_tasks, n_tasks), np.nan)
    reports, probe_values = [], []

    rng = np.random.Generator(np.random.PCG64(_derived_seed(seed, 1)))
    buffer = ReplayBuffer() if flags.replay else None
    accumulated = None
    start_task = 0

    if resume is not None:
        start_task = resume.next_task
        rng.bit_generator.state = resume.rng_state
        accumulated = resume.importance
        if flags.replay:
            buffer = resume.replay_buffer
        matrix[:resume.matrix_rows.shape[0], :] = resume.matrix_rows
        probe_values = list(resume.probe_values or [])  # files without them: none

    for t in range(start_task, n_tasks):
        task = stream[t]
        if t >= len(model.head_classes):
            model.add_task_head(task.class_count)
        region = None if t == 0 else FlatRegion(
            anchor=model.parameters().copy(), rho=config.rho,
            constrained_names=model.constrained_names(t))
        importance = accumulated
        if region is not None and flags.l2 and (not flags.find or accumulated is None):
            importance = random_importance(model, _derived_seed(seed, 3, t))

        val_sets = [(*stream[j].val_xy(), j) for j in range(t + 1)]
        reports.append(train_task(model, [task], region, importance,
                                  buffer, config, rng, epochs, val_sets,
                                  step_hook=step_hook))

        feats, labels = task.train_xy()
        if flags.find or config.sparse_update_ratio < 1.0:
            fresh = find_fisher(model, feats, labels, t,
                                config.fisher_sample_count,
                                _derived_seed(seed, 2, t))
            accumulated = accumulate_fisher(accumulated, fresh, config.gamma)

        if buffer is not None:
            buffer.add_task(feats, labels, t, config.store_ratio,
                            _derived_seed(seed, 4, t))

        for j in range(t + 1):
            tf, tl = stream[j].test_xy()
            matrix[t, j] = model.accuracy(tf, tl, j)

        if probe_fn is not None:
            probe_values.append(probe_fn(model, t))

        if checkpoint_fn is not None:
            checkpoint_fn(t, next_task=t + 1, rng_state=rng.bit_generator.state,
                          importance=accumulated, replay_buffer=buffer,
                          matrix_rows=matrix[:t + 1, :].copy(),
                          probe_values=list(probe_values))

    return ContinualResult(matrix, reports, probe_values)


def train_multitask(model: MultiHeadClassifier, stream, config: OptimizerConfig,
                    seed: int, epochs: int):
    """Joint round-robin training over all tasks through `train_task`;
    returns per-task test accuracies (the intransigence reference)."""
    for t, task in enumerate(stream):
        if t >= len(model.head_classes):
            model.add_task_head(task.class_count)
    rng = np.random.Generator(np.random.PCG64(_derived_seed(seed, 9)))
    val_sets = [(*task.val_xy(), t) for t, task in enumerate(stream)]
    train_task(model, list(stream), None, None, None, config, rng, epochs, val_sets)
    return np.array([model.accuracy(*task.test_xy(), t)
                     for t, task in enumerate(stream)])
