import numpy as np
import pytest

from flatcl.optim import OptimizerConfig
from flatcl.replay import (ReplayBuffer, replay_schedule, select_exemplars)


def test_schedule_fires_on_multiples_only():
    hits = [s for s in range(1, 61) if replay_schedule(s, 20)]
    assert hits == [20, 40, 60]


def test_schedule_never_fires_at_zero():
    assert not replay_schedule(0, 20)


def test_select_two_separated_clouds():
    # two tight clouds far apart: one exemplar must come from each
    rng = np.random.default_rng(0)
    a = rng.normal(scale=0.05, size=(20, 2))
    b = rng.normal(scale=0.05, size=(20, 2)) + 100.0
    feats = np.vstack([a, b])
    idx = select_exemplars(feats, 2, seed=1)
    assert len(idx) == 2
    assert (idx < 20).sum() == 1 and (idx >= 20).sum() == 1


def test_select_exemplar_is_nearest_to_centroid():
    # single cluster, k=1: pick the point closest to the mean
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(30, 3))
    idx = select_exemplars(feats, 1, seed=2)
    mean = feats.mean(axis=0)
    # k-means with one cluster converges to the global mean
    d = np.sum((feats - mean) ** 2, axis=1)
    assert idx.tolist() == [int(np.argmin(d))]


def test_select_k_at_least_n_returns_all():
    feats = np.arange(6, dtype=float).reshape(3, 2)
    assert select_exemplars(feats, 3, seed=0).tolist() == [0, 1, 2]
    assert select_exemplars(feats, 10, seed=0).tolist() == [0, 1, 2]


def test_select_exact_count_on_degenerate_data():
    # all points identical: clusters collapse, but exactly k rows come back
    feats = np.ones((10, 2))
    idx = select_exemplars(feats, 4, seed=5)
    assert len(idx) == 4
    assert len(np.unique(idx)) == 4


def test_select_deterministic():
    feats = np.random.default_rng(7).normal(size=(40, 3))
    a = select_exemplars(feats, 5, seed=9)
    b = select_exemplars(feats, 5, seed=9)
    assert np.array_equal(a, b)


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        select_exemplars(np.empty((0, 2)), 1, seed=0)


def test_buffer_size_is_floor_of_ratio():
    buf = ReplayBuffer()
    feats = np.random.default_rng(0).normal(size=(250, 2))
    labels = np.zeros(250, int)
    buf.add_task(feats, labels, 0, 0.01, seed=1)
    assert len(buf) == 2  # floor(0.01 * 250)


def test_buffer_minimum_one_exemplar():
    buf = ReplayBuffer()
    buf.add_task(np.ones((5, 2)), np.zeros(5, int), 0, 0.01, seed=1)
    assert len(buf) == 1


def test_buffer_refuses_labels_that_are_not_integers():
    """A stored label is the label given, never a truncated float."""
    buf = ReplayBuffer()
    with pytest.raises(ValueError) as info:
        buf.add_task(np.ones((4, 2)), [0.7, 1.0, 2.0, 0.0], 0, 1.0, seed=1)
    assert str(info.value) == "labels must be integers, got 0.7" and len(buf) == 0
    buf.add_task(np.ones((4, 2)), np.array([0.0, 1.0, 2.0, 0.0]), 0, 1.0, seed=1)
    assert buf.labels.dtype == np.int64 and sorted(buf.labels.tolist()) == [0, 0, 1, 2]


def test_buffer_invalid_args_rejected():
    """The buffer's settings live on OptimizerConfig, which refuses them."""
    for key, value in (("store_ratio", 0.0), ("store_ratio", 1.5), ("replay_every", 0),
                       ("replay_every", 2.0)):
        with pytest.raises(ValueError, match=f"optimizer {key} must be"):
            OptimizerConfig(**{key: value})


def test_sample_empty_buffer_returns_nothing():
    buf = ReplayBuffer()
    assert buf.sample_batches(8, np.random.default_rng(0)) == []


def test_sample_batches_grouped_by_task_with_correct_labels():
    buf = ReplayBuffer()
    buf.add_task(np.zeros((3, 2)), np.array([0, 1, 2]), 0, 1.0, seed=0)
    buf.add_task(np.ones((2, 2)), np.array([0, 1]), 1, 1.0, seed=0)
    batches = buf.sample_batches(16, np.random.default_rng(4))
    assert sum(len(b) for b in batches) == 16
    assert [b.task_id for b in batches] == sorted(b.task_id for b in batches)
    for b in batches:
        # features identify the source task here: task 0 stored zeros, task 1 ones
        expect = 0.0 if b.task_id == 0 else 1.0
        assert np.all(b.features == expect)


def test_sample_uniform_over_exemplars_monte_carlo():
    # 3 exemplars from task 0, 1 from task 1 -> task-0 mass should be 0.75
    buf = ReplayBuffer()
    buf.add_task(np.zeros((3, 2)), np.array([0, 1, 2]), 0, 1.0, seed=0)
    buf.add_task(np.ones((1, 2)), np.array([0]), 1, 1.0, seed=0)
    rng = np.random.default_rng(11)
    total = hits = 0
    for _ in range(2000):
        for b in buf.sample_batches(4, rng):
            total += len(b)
            if b.task_id == 0:
                hits += len(b)
    assert abs(hits / total - 0.75) <= 0.02


def test_sample_deterministic_given_rng_state():
    buf = ReplayBuffer()
    buf.add_task(np.random.default_rng(0).normal(size=(6, 2)),
                 np.arange(6) % 3, 0, 1.0, seed=0)
    a = buf.sample_batches(8, np.random.default_rng(5))
    b = buf.sample_batches(8, np.random.default_rng(5))
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_sample_batches_follow_one_draw_in_draw_order():
    """One uniform draw over all rows; each task's batch holds its drawn rows
    in the order they were drawn, and batches come in task order."""
    buf = ReplayBuffer()
    buf.add_task(np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 0]), 0, 1.0, seed=0)
    buf.add_task(-np.arange(1.0, 7.0).reshape(3, 2), np.array([1, 0, 1]), 1, 1.0, seed=0)
    idx = np.random.default_rng(7).integers(len(buf), size=12)
    batches = buf.sample_batches(12, np.random.default_rng(7))
    assert [b.task_id for b in batches] == sorted(set(buf.task_ids[idx].tolist()))
    for b in batches:
        rows = [i for i in idx if buf.task_ids[i] == b.task_id]
        assert b.features.tobytes() == buf.features[rows].tobytes()
        assert b.labels.tolist() == buf.labels[rows].tolist()


def _kmeans_pp_init_oracle(features, k, rng):
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


def _select_exemplars_oracle(features, k, seed, iters=100):
    """select_exemplars as it was written with np.sum, .mean and
    np.array_equal, recomputing the distances after the last iteration."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if k >= n:
        return np.arange(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _kmeans_pp_init_oracle(features, k, rng)
    assign = None
    for _ in range(iters):
        dists = np.sum((features[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = features[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    dists = np.sum((features[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    picked = []
    for c in range(k):
        members = np.where(assign == c)[0]
        pool = members if len(members) else np.arange(n)
        picked.append(int(pool[np.argmin(dists[pool, c])]))
    picked = list(np.unique(picked))
    for i in range(n):
        if len(picked) == k:
            break
        if i not in picked:
            picked.append(i)
    return np.sort(picked)


@pytest.mark.parametrize("iters", [1, 2, 100])
def test_select_exemplars_equals_former_implementation(monkeypatch, iters):
    """The exemplars are the ones the former implementation picks, on random
    rows, rows with duplicates, rows that are all one point and k >= n,
    whether K-means converges or stops at its iteration cap (which the
    small caps reach)."""
    from flatcl import replay
    monkeypatch.setattr(replay, "KMEANS_ITERS", iters)
    rng = np.random.default_rng(97)
    cases = []
    for trial in range(12):
        n, dim = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        feats = rng.normal(size=(n, dim)) + 4.0 * rng.integers(0, 3, size=(n, 1))
        cases.append((feats, int(rng.integers(1, n + 3))))
        dupes = feats[rng.integers(0, max(1, n // 4), size=n)]
        cases.append((dupes, int(rng.integers(1, n))))
    cases.append((np.ones((9, 3)), 4))
    cases.append((np.arange(6, dtype=float).reshape(3, 2), 3))
    for feats, k in cases:
        for seed in (1, 2):
            got = select_exemplars(feats, k, seed)
            want = _select_exemplars_oracle(feats, k, seed, iters)
            assert got.tobytes() == want.tobytes()
