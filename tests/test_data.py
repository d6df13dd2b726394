import numpy as np
import pytest

from flatcl.data import (TaskDataset, TaskStream, gen_permuted_features,
                         gen_rotated_gaussians, make_order, save_delimited)


def test_rotated_deterministic_and_shapes():
    a = gen_rotated_gaussians(3, 4, 3, 5, 30, 2.0, 0.8)
    b = gen_rotated_gaussians(3, 4, 3, 5, 30, 2.0, 0.8)
    assert len(a) == 4
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.features, tb.features)
        assert np.array_equal(ta.labels, tb.labels)
        assert ta.features.shape == (90, 5)
        assert ta.class_count == 3


def test_rotated_seeds_differ():
    a = gen_rotated_gaussians(1, 2, 3, 4, 20, 2.0, 0.8)
    b = gen_rotated_gaussians(2, 2, 3, 4, 20, 2.0, 0.8)
    assert not np.array_equal(a[0].features, b[0].features)


def test_splits_disjoint_and_cover():
    stream = gen_rotated_gaussians(5, 2, 3, 4, 25, 2.0, 0.8)
    for task in stream:
        idx = np.concatenate([task.splits[s] for s in ("train", "val", "test")])
        assert len(np.unique(idx)) == len(task.labels)
        assert len(task.train_xy()[1]) == round(0.6 * len(task.labels))
        assert len(task.val_xy()[1]) == round(0.2 * len(task.labels))


def test_rotated_class_means_rotate():
    stream = gen_rotated_gaussians(7, 2, 2, 3, 200, 5.0, np.pi / 2)
    # class 0 mean is near (+5, 0) for task 0 and near (0, +5) after a
    # quarter-turn rotation
    m0 = stream[0].features[stream[0].labels == 0].mean(axis=0)
    m1 = stream[1].features[stream[1].labels == 0].mean(axis=0)
    np.testing.assert_allclose(m0[:2], [5.0, 0.0], atol=0.5)
    np.testing.assert_allclose(m1[:2], [0.0, 5.0], atol=0.5)


def test_rotated_high_separation_linearly_separable():
    stream = gen_rotated_gaussians(9, 1, 3, 4, 100, 8.0, 0.0)
    feats, labels = stream[0].train_xy()
    # nearest-class-mean classifier should get >= 99% with separation 8
    means = np.stack([feats[labels == c].mean(axis=0) for c in range(3)])
    d = ((feats[:, None, :] - means[None]) ** 2).sum(axis=2)
    acc = np.mean(np.argmin(d, axis=1) == labels)
    assert acc >= 0.99


def test_rotated_input_validation():
    with pytest.raises(ValueError, match="dim"):
        gen_rotated_gaussians(0, 2, 3, 1, 10, 2.0, 0.5)
    with pytest.raises(ValueError, match="separation"):
        gen_rotated_gaussians(0, 2, 3, 4, 10, 0.0, 0.5)


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), 0.0, "2.0", True])
@pytest.mark.parametrize("generate", [
    lambda sep: gen_rotated_gaussians(0, 2, 3, 4, 10, sep, 0.5),
    lambda sep: gen_permuted_features(0, 2, 3, 4, 10, sep)], ids=["rotated", "permuted"])
def test_generators_refuse_a_separation_that_is_not_a_finite_positive_number(generate,
                                                                              separation):
    with pytest.raises(ValueError, match=f"^separation must be a finite number > 0, "
                                         f"got {separation!r}$"):
        generate(separation)


def test_generators_take_the_number_rule_every_input_shares():
    """A separation or rotation is an int or a float (np.float64 is a
    float); other numpy scalars are refused, as in a config."""
    gen_rotated_gaussians(0, 2, 3, 4, 10, np.float64(2.0), np.float64(0.5))
    for value in (np.float32(2.0), np.int64(2)):
        with pytest.raises(ValueError, match="^separation must be a finite number > 0, got"):
            gen_permuted_features(0, 2, 3, 4, 10, value)
        with pytest.raises(ValueError, match="^rotation_per_task must be a finite number, got"):
            gen_rotated_gaussians(0, 2, 3, 4, 10, 2.0, value)


def test_permuted_first_task_is_identity():
    stream = gen_permuted_features(11, 3, 3, 6, 20, 2.0)
    # every later task is a column permutation of task 0
    base = np.sort(stream[0].features, axis=1)
    for t in range(1, 3):
        assert np.array_equal(np.sort(stream[t].features, axis=1), base)
        assert np.array_equal(stream[t].labels, stream[0].labels)


def test_permuted_tasks_actually_permuted():
    stream = gen_permuted_features(13, 3, 3, 8, 20, 2.0)
    assert not np.array_equal(stream[1].features, stream[0].features)


def test_make_order_renumbers_and_subsets():
    stream = gen_rotated_gaussians(15, 4, 3, 4, 20, 2.0, 0.8)
    sub = make_order(stream, [2, 0])
    assert len(sub) == 2
    assert [t.task_id for t in sub] == [0, 1]
    assert np.array_equal(sub[0].features, stream[2].features)


def test_make_order_invalid_permutation():
    stream = gen_rotated_gaussians(15, 3, 3, 4, 20, 2.0, 0.8)
    with pytest.raises(ValueError, match="permutation"):
        make_order(stream, [0, 0])
    with pytest.raises(ValueError, match="permutation"):
        make_order(stream, [0, 5])
    with pytest.raises(ValueError, match=r"^permutation must be a nonempty list .* got \[True\]$"):
        make_order(stream, [True])


def test_task_dataset_label_range_checked():
    with pytest.raises(ValueError, match="labels"):
        TaskDataset("t", 0, np.ones((2, 2)), np.array([0, 3]), 2)


@pytest.mark.parametrize("labels, splits", [
    # row 0 twice, row 2 never
    ([0, 1, 0], {"train": [0], "val": [0, 1]}),
    # as many distinct indices as rows, but -1 is row 1 again and row 0 is never used
    ([0, 1], {"train": [1], "val": [-1], "test": []}),
    # an index past the last row
    ([0, 1], {"train": [0], "val": [5]}),
])
def test_task_dataset_split_coverage_checked(labels, splits):
    with pytest.raises(ValueError, match="^splits must be disjoint and cover the dataset$"):
        TaskDataset("t", 0, np.ones((len(labels), 2)), np.array(labels), 2,
                    {k: np.array(v, dtype=np.int64) for k, v in splits.items()})


def test_delimited_round_trip_exact(tmp_path):
    """The export reads back bitwise with np.loadtxt, down to extreme exponents."""
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(20, 3)) * 1e-7  # exercise full float precision
    feats[0] = [1.2345678901234567e-300, -9.87654321e299, 5e-324]
    labels = rng.integers(0, 4, size=20)
    path = tmp_path / "data.csv"
    save_delimited(path, feats, labels)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    assert back[:, :-1].tobytes() == feats.tobytes()  # bitwise
    assert np.array_equal(back[:, -1], labels)


def test_task_stream_refuses_task_ids_out_of_order():
    stream = gen_permuted_features(1, 2, 3, 4, 10, 3.0)
    with pytest.raises(ValueError) as info:
        TaskStream([stream[1], stream[0]])
    assert str(info.value) == "task_ids must be 0..T-1 in presented order"
