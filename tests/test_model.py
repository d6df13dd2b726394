import numpy as np
import pytest

from flatcl.autodiff import finite_diff_gradient
from flatcl.model import Batch, MultiHeadClassifier

from conftest import random_batch, random_mlp


def test_same_seed_bitwise_identical():
    a = MultiHeadClassifier(42, 3, [4], [2])
    b = MultiHeadClassifier(42, 3, [4], [2])
    for n in a.parameters():
        assert np.array_equal(a.parameters()[n], b.parameters()[n])


def test_different_seeds_differ():
    a = MultiHeadClassifier(1, 3, [4], [2])
    b = MultiHeadClassifier(2, 3, [4], [2])
    assert any(not np.array_equal(a.parameters()[n], b.parameters()[n])
               for n in a.parameters())


def test_parameter_count():
    m = MultiHeadClassifier(0, 2, [4], [3])
    assert m.parameters().total_size() == 2 * 4 + 4 + 4 * 3 + 3


def test_zero_class_count_rejected():
    with pytest.raises(ValueError):
        MultiHeadClassifier(0, 2, [4], [0])


def test_linear_model_allowed():
    m = MultiHeadClassifier(0, 2, [], [3])
    assert m.parameters().total_size() == 2 * 3 + 3


def test_uniform_logits_loss_is_ln_c():
    m = MultiHeadClassifier(0, 2, [], [4])
    # zero weights force uniform logits
    for n in m.parameters():
        m.parameters()[n][...] = 0.0
    batch = Batch(np.ones((3, 2)), np.array([0, 1, 3]), 0)
    assert abs(m.task_loss(batch) - np.log(4)) <= 1e-12


def test_single_sample_loss_is_neg_log_p():
    m = random_mlp(3, classes=(3,))
    batch = random_batch(5, m, n=1)
    lp = m.logits(batch.features, 0)[0]
    lp = lp - np.log(np.sum(np.exp(lp - lp.max()))) - lp.max()
    assert abs(m.task_loss(batch) + lp[batch.labels[0]]) <= 1e-12


def test_task_loss_matches_straightline_reimplementation():
    m = random_mlp(8, input_dim=3, hidden=(5,), classes=(4,))
    batch = random_batch(9, m, n=6)
    # independent scalar reimplementation with plain numpy
    h = batch.features
    for w, b in m.encoder:
        h = np.tanh(h @ w + b)
    w, b = m.heads[0]
    logits = h @ w + b
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expected = -np.mean(logp[np.arange(len(batch)), batch.labels])
    assert abs(m.task_loss(batch) - expected) <= 1e-12


def test_missing_head_rejected():
    m = random_mlp(1)
    batch = random_batch(2, m)
    for task_id in (5, -1):
        batch.task_id = task_id
        with pytest.raises(ValueError, match=f"no head for task {task_id}"):
            m.task_loss(batch)


def test_log_prob_gradient_is_minus_nll_gradient():
    m = random_mlp(4)
    batch = random_batch(5, m, n=1)
    _, g = m.loss_gradient(batch)
    lg = m.log_prob_gradient(batch.features[0], batch.labels[0], 0)
    for n in g:
        np.testing.assert_array_equal(lg[n], -g[n])


def test_log_prob_gradient_zero_for_unused_head():
    m = MultiHeadClassifier(3, 2, [4], [2])
    m.add_task_head(3)
    lg = m.log_prob_gradient(np.ones(2), 0, 0)
    assert np.all(lg["head1.W"] == 0) and np.all(lg["head1.b"] == 0)


def test_logistic_log_prob_gradient_hand_value():
    """1-feature softmax pair at w=0: grad entries are +/- (1 - p) = 0.5."""
    m = MultiHeadClassifier(0, 1, [], [2])
    for n in m.parameters():
        m.parameters()[n][...] = 0.0
    g = m.log_prob_gradient(np.array([1.0]), 1, 0)
    np.testing.assert_allclose(g["head0.W"], [[-0.5, 0.5]], atol=1e-15)
    np.testing.assert_allclose(g["head0.b"], [-0.5, 0.5], atol=1e-15)
    # cross-check against finite differences of log p
    def logp(ps):
        m.set_parameters(ps)
        return -m.task_loss(Batch(np.array([[1.0]]), np.array([1]), 0))
    ps0 = m.parameters().copy()
    fd = finite_diff_gradient(logp, ps0, h=1e-6)
    m.set_parameters(ps0)
    for n in g:
        np.testing.assert_allclose(g[n], fd[n], atol=1e-9)


def test_add_head_increments_and_preserves_logits():
    m = random_mlp(6)
    x = np.random.default_rng(0).normal(size=(4, m.input_dim))
    before = m.logits(x, 0)
    n_heads = len(m.heads)
    m.add_task_head(5)
    assert len(m.heads) == n_heads + 1
    np.testing.assert_array_equal(m.logits(x, 0), before)


def test_parameters_alias_one_buffer_across_head_addition():
    m = random_mlp(6, hidden=(5, 4), classes=(3,))
    before = m.theta.copy()
    m.add_task_head(2)
    params = m.parameters()
    assert params is m.parameters()
    assert params.flat is m.theta and m.theta.size == before.size + 4 * 2 + 2
    views = [a for layer in m.encoder + m.heads for a in layer]
    assert len(views) == len(params) == 8
    for view, (name, arr) in zip(views, params.items()):
        assert np.shares_memory(view, m.theta) and np.shares_memory(arr, m.theta)
        assert view.shape == arr.shape and np.array_equal(view, arr)
    # earlier weights keep their offsets; the new head sits at the end
    np.testing.assert_array_equal(m.theta[:before.size], before)
    assert np.shares_memory(m.heads[1][0], m.theta[before.size:])
    assert m.constrained_names(1) == params.names()[:6]
    m.heads[0][1][0] = 123.0
    assert params["head0.b"][0] == 123.0 and 123.0 in m.theta


def test_predict_tie_break_lowest_index():
    m = MultiHeadClassifier(0, 2, [], [3])
    for n in m.parameters():
        m.parameters()[n][...] = 0.0
    pred = m.predict(np.ones((2, 2)), 0)
    assert pred.tolist() == [0, 0]


def test_random_two_class_accuracy_monte_carlo():
    rng = np.random.default_rng(123)
    m = MultiHeadClassifier(55, 2, [], [2])
    feats = rng.normal(size=(10000, 2))
    labels = rng.integers(0, 2, size=10000)
    acc = m.accuracy(feats, labels, 0)
    assert abs(acc - 0.5) <= 0.02


def test_task_loss_permutation_invariant():
    m = random_mlp(2)
    batch = random_batch(3, m, n=8)
    perm = np.random.default_rng(1).permutation(8)
    shuffled = Batch(batch.features[perm], batch.labels[perm], 0)
    assert abs(m.task_loss(batch) - m.task_loss(shuffled)) <= 1e-12


def test_batched_log_prob_gradient_identity():
    m = random_mlp(12)
    batch = random_batch(13, m, n=6)
    _, g = m.loss_gradient(batch)
    acc = m.parameters().zeros_like()
    for i in range(len(batch)):
        acc = acc.add(m.log_prob_gradient(batch.features[i], batch.labels[i], 0))
    acc = acc.scale(1.0 / len(batch))
    for n in g:
        np.testing.assert_allclose(acc[n], -g[n], rtol=1e-12, atol=1e-15)


def test_feature_width_mismatch_rejected():
    m = random_mlp(1)
    with pytest.raises(ValueError, match="input_dim"):
        m.loss_gradient(Batch(np.ones((2, m.input_dim + 1)), np.array([0, 1]), 0))


@pytest.mark.parametrize("activation,hidden", [("tanh", (5,)), ("relu", (4, 3)),
                                               ("tanh", ())])
def test_gradient_second_moments_match_per_sample_loop(activation, hidden):
    """Batched squared gradients equal a loop over single-sample gradients."""
    m = random_mlp(30, hidden=hidden, classes=(3, 4), activation=activation)
    batch = random_batch(31, m, n=9, task_id=1)
    sums, sq_norms = m.gradient_second_moments(batch.features, batch.labels, 1)
    ref = m.parameters().zeros_like()
    for i in range(len(batch)):
        g = m.log_prob_gradient(batch.features[i], batch.labels[i], 1)
        for n in ref:
            ref[n] += g[n] * g[n]
        assert abs(sq_norms[i] - g.norm() ** 2) <= 1e-12 * g.norm() ** 2
    assert sums.names() == ref.names()
    for n in ref:
        np.testing.assert_allclose(sums[n], ref[n], rtol=1e-12, atol=0)
