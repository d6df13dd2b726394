"""Exemplar storage via K-means representativeness and scheduled replay."""

from __future__ import annotations

import numpy as np

from .model import Batch
from .rules import generator


def _kmeans_pp_init(features, k, rng):
    n = features.shape[0]
    centroids = np.empty((k, features.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = features[first]
    d2 = np.sum((features - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[i] = features[idx]
        d2 = np.minimum(d2, np.sum((features - centroids[i]) ** 2, axis=1))
    return centroids


# Lloyd iterations K-means runs at most before keeping its assignment
KMEANS_ITERS = 100


def _sq_distances(features, centroids):
    """(n, k) squared distances of each row to each centroid."""
    diff = features[:, None, :] - centroids[None, :, :]
    diff *= diff
    return np.add.reduce(diff, axis=2)


def select_exemplars(features, k, seed):
    """K-means the raw features; keep the sample nearest each centroid.

    Returns sorted row indices into `features`.  k >= dataset size keeps
    every row.  Ties go to the lowest index.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        raise ValueError("task_data must be nonempty")
    rng = generator(seed)
    if k >= n:
        return np.arange(n)
    centroids = _kmeans_pp_init(features, k, rng)
    assign = None
    for _ in range(KMEANS_ITERS):
        dists = _sq_distances(features, centroids)
        new_assign = np.argmin(dists, axis=1)
        if assign is not None and not np.add.reduce(new_assign != assign):
            break  # converged: the centroids are the ones `dists` was taken at
        assign = new_assign
        for c in range(k):
            members = features[assign == c]
            if len(members):
                centroids[c] = np.add.reduce(members, axis=0) / len(members)  # .mean(axis=0)
    else:
        dists = _sq_distances(features, centroids)
    picked = []
    for c in range(k):
        # argmin over all rows of distance-to-centroid, restricted to the
        # cluster when nonempty; np.argmin breaks ties by lowest index.
        members = np.where(assign == c)[0]
        pool = members if len(members) else np.arange(n)
        picked.append(int(pool[np.argmin(dists[pool, c])]))
    picked = sorted(set(picked))
    # Degenerate clusters can collapse onto one sample; pad back to k so the
    # buffer size stays exactly max(1, floor(ratio * n)).
    for i in range(n):
        if len(picked) == k:
            break
        if i not in picked:
            picked.append(i)
    return np.sort(picked)


class ReplayBuffer:
    """Fixed exemplar store, filled once per finished task: row i of
    `features` has the int64 label `labels[i]` and task id `task_ids[i]`."""

    def __init__(self):
        self.features = np.zeros((0, 0))
        self.labels = np.zeros(0, dtype=np.int64)
        self.task_ids = np.zeros(0, dtype=np.int64)

    def __len__(self):
        return len(self.labels)

    def add_task(self, features, labels, task_id, store_ratio, seed):
        k = max(1, int(np.floor(store_ratio * len(labels))))
        idx = select_exemplars(features, k, seed)
        picked = np.asarray(features, dtype=np.float64)[idx]
        self.features = (np.concatenate([self.features, picked]) if len(self)
                         else picked)
        self.labels = np.concatenate([self.labels, np.asarray(labels, dtype=np.int64)[idx]])
        self.task_ids = np.concatenate([self.task_ids,
                                        np.full(len(idx), task_id, dtype=np.int64)])

    def sample_batches(self, batch_size, rng) -> list[Batch]:
        """Uniform draw over all exemplars, grouped by task into per-head
        batches in task order; rows keep the order they were drawn in."""
        if not len(self):
            return []
        idx = rng.integers(len(self), size=batch_size)
        tasks = self.task_ids[idx]
        batches = []
        for task_id in sorted(set(tasks.tolist())):
            rows = idx[tasks == task_id]
            batches.append(Batch(self.features[rows], self.labels[rows], task_id))
        return batches


def replay_schedule(step_index, replay_every) -> bool:
    return step_index > 0 and step_index % replay_every == 0
