import numpy as np
import pytest

from flatcl.data import (DelimitedParseError, TaskDataset, gen_permuted_features,
                         gen_rotated_gaussians, load_delimited, make_order,
                         save_delimited)


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
    sub = make_order(stream, [2, 0], order_name="swap")
    assert len(sub) == 2
    assert [t.task_id for t in sub] == [0, 1]
    assert np.array_equal(sub[0].features, stream[2].features)
    assert sub.order_name == "swap"


def test_make_order_invalid_permutation():
    stream = gen_rotated_gaussians(15, 3, 3, 4, 20, 2.0, 0.8)
    with pytest.raises(ValueError, match="permutation"):
        make_order(stream, [0, 0])
    with pytest.raises(ValueError, match="permutation"):
        make_order(stream, [0, 5])


def test_task_dataset_label_range_checked():
    with pytest.raises(ValueError, match="labels"):
        TaskDataset("t", 0, np.ones((2, 2)), np.array([0, 3]), 2)


def test_task_dataset_split_coverage_checked():
    with pytest.raises(ValueError, match="splits"):
        TaskDataset("t", 0, np.ones((3, 2)), np.array([0, 1, 0]), 2,
                    {"train": np.array([0]), "val": np.array([0, 1])})


def test_delimited_round_trip_exact(tmp_path):
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(20, 3)) * 1e-7  # exercise full float precision
    labels = rng.integers(0, 4, size=20)
    path = tmp_path / "data.csv"
    save_delimited(path, feats, labels)
    task = load_delimited(str(path), class_count=4)
    assert np.array_equal(task.features, feats)  # bitwise
    assert np.array_equal(task.labels, labels)


def test_delimited_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DelimitedParseError, match=":2:"):
        load_delimited(str(path))


def test_delimited_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# header\n1.0,2.0,0\nx,2.0,1\n")
    with pytest.raises(DelimitedParseError, match=":3:.*non-numeric"):
        load_delimited(str(path))


def test_delimited_non_integer_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.5\n")
    with pytest.raises(DelimitedParseError, match="non-integer label"):
        load_delimited(str(path))


def test_delimited_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(DelimitedParseError, match="empty"):
        load_delimited(str(path))


def test_delimited_infers_class_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.0,0\n1.0,2\n2.0,1\n")
    task = load_delimited(str(path))
    assert task.class_count == 3


def test_delimited_split_ratios(tmp_path):
    """The split is the permutation of the split seed cut at the given
    ratios; test takes the rest."""
    path = tmp_path / "d.csv"
    save_delimited(path, np.arange(20.0).reshape(10, 2), np.arange(10) % 2)
    task = load_delimited(str(path), split_seed=3, split_ratios=(0.5, 0.3, 0.2))
    perm = np.random.Generator(np.random.PCG64(3)).permutation(10)
    assert task.splits["train"].tolist() == sorted(perm[:5])
    assert task.splits["val"].tolist() == sorted(perm[5:8])
    assert task.splits["test"].tolist() == sorted(perm[8:])
