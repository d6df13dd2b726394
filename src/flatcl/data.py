"""Synthetic continual-learning benchmarks and a delimited-file export."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .optim import check


@dataclass
class TaskDataset:
    name: str
    task_id: int
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray    # (N,) int
    class_count: int
    splits: dict = field(default_factory=dict)  # {"train"|"val"|"test": index array}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.class_count:
            raise ValueError(f"labels out of range for class_count={self.class_count}")
        if self.splits:
            all_idx = np.concatenate([np.asarray(v) for v in self.splits.values()])
            # sorted, the indices are 0..n-1: disjoint, covering, none out of range
            if not np.array_equal(np.sort(all_idx), np.arange(len(self.labels))):
                raise ValueError("splits must be disjoint and cover the dataset")

    def split_xy(self, split: str):
        idx = self.splits[split]
        return self.features[idx], self.labels[idx]

    def train_xy(self):
        return self.split_xy("train")

    def val_xy(self):
        return self.split_xy("val")

    def test_xy(self):
        return self.split_xy("test")


@dataclass
class TaskStream:
    tasks: list[TaskDataset]

    def __post_init__(self):
        for i, t in enumerate(self.tasks):
            if t.task_id != i:
                raise ValueError("task_ids must be 0..T-1 in presented order")

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, i):
        return self.tasks[i]


def _split_sizes(n):
    """(train, val) row counts of the 60/20/20 split of n rows; test takes
    the rest.  Every split of 4 or more rows has a row."""
    return int(round(0.6 * n)), int(round(0.2 * n))


def _split_indices(n, rng):
    """Deterministic 60/20/20 train/val/test split; test takes the rest."""
    perm = rng.permutation(n)
    n_train, n_val = _split_sizes(n)
    return {
        "train": np.sort(perm[:n_train]),
        "val": np.sort(perm[n_train:n_train + n_val]),
        "test": np.sort(perm[n_train + n_val:]),
    }


def _simplex_means(classes, dim, separation):
    """Class means evenly spaced on a circle in the first two coordinates;
    the one check of `dim` and `separation` both generators run."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    check("positive", separation, "separation")
    means = np.zeros((classes, dim))
    angles = 2.0 * np.pi * np.arange(classes) / classes
    means[:, 0] = separation * np.cos(angles)
    means[:, 1] = separation * np.sin(angles)
    return means


def _rotate_first_two(x, theta):
    out = x.copy()
    c, s = np.cos(theta), np.sin(theta)
    out[:, 0] = c * x[:, 0] - s * x[:, 1]
    out[:, 1] = s * x[:, 0] + c * x[:, 1]
    return out


def _gaussian_classes(rng, means, samples_per_class):
    """(features, labels, splits): `samples_per_class` unit-variance draws
    around each row of `means` in class order, then the split; the one
    check, for both generators, that every split gets a row."""
    rows = len(means) * samples_per_class
    n_train, n_val = _split_sizes(rows)
    if min(n_train, n_val, rows - n_train - n_val) < 1:
        raise ValueError(f"classes_per_task * samples_per_class must give every "
                         f"train/val/test split a row (at least 4 rows), got "
                         f"{len(means)} * {samples_per_class}")
    feats = [rng.normal(size=(samples_per_class, means.shape[1])) + mu for mu in means]
    labels = np.repeat(np.arange(len(means)), samples_per_class)
    return np.concatenate(feats), labels, _split_indices(len(labels), rng)


def gen_rotated_gaussians(seed, n_tasks, classes_per_task, dim, samples_per_class,
                          separation, rotation_per_task) -> TaskStream:
    """Gaussian blob tasks whose class means rotate from task to task."""
    check("finite", rotation_per_task, "rotation_per_task")
    # the last task's angle; cos and sin of an infinite one are NaN
    if not abs((n_tasks - 1) * rotation_per_task) <= sys.float_info.max:
        raise ValueError(f"rotation_per_task must give the last of {n_tasks} tasks a finite "
                         f"angle, got {rotation_per_task!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    base_means = _simplex_means(classes_per_task, dim, separation)
    tasks = []
    for t in range(n_tasks):
        means = _rotate_first_two(base_means, t * rotation_per_task)
        features, labels, splits = _gaussian_classes(rng, means, samples_per_class)
        tasks.append(TaskDataset(f"rot{t}", t, features, labels, classes_per_task, splits))
    return TaskStream(tasks)


def gen_permuted_features(seed, n_tasks, classes, dim, samples_per_class,
                          separation) -> TaskStream:
    """One base Gaussian task; task t applies a fixed coordinate permutation."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base_features, base_labels, splits = _gaussian_classes(
        rng, _simplex_means(classes, dim, separation), samples_per_class)
    tasks = []
    for t in range(n_tasks):
        perm = np.arange(dim) if t == 0 else rng.permutation(dim)
        tasks.append(TaskDataset(
            f"perm{t}", t, base_features[:, perm], base_labels.copy(), classes,
            {k: v.copy() for k, v in splits.items()},
        ))
    return TaskStream(tasks)


def make_order(stream: TaskStream, permutation, name="permutation") -> TaskStream:
    """Reorder (and possibly subset) a stream; task ids renumbered to 0..k-1.
    `permutation` must be a nonempty list of distinct task indices; `name`
    names it in the refusal."""
    # bool is an int subclass; a JSON true is not the index 1
    if (not isinstance(permutation, (list, tuple)) or not permutation
            or any(isinstance(p, bool) or not isinstance(p, numbers.Integral)
                   or not 0 <= p < len(stream) for p in permutation)
            or len(set(permutation)) != len(permutation)):
        raise ValueError(f"{name} must be a nonempty list of distinct task indices "
                         f"in [0, {len(stream)}), got {permutation!r}")
    tasks = []
    for new_id, old_id in enumerate(permutation):
        src = stream[old_id]
        tasks.append(TaskDataset(src.name, new_id, src.features, src.labels,
                                 src.class_count, src.splits))
    return TaskStream(tasks)


def save_delimited(path, features, labels):
    """Write `features, label` rows in full-precision decimal; reading them
    back with `np.loadtxt(path, delimiter=",")` is bitwise exact."""
    with open(path, "w") as f:
        f.write("# columns: features..., label\n")
        for row, y in zip(np.asarray(features, dtype=np.float64), labels):
            f.write(",".join(repr(float(v)) for v in row) + f",{int(y)}\n")
