"""The finite-difference oracle, and the model kernel's forward and
gradients checked against it and against hand values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcl.autodiff import finite_diff_gradient
from flatcl.model import Batch, MultiHeadClassifier
from flatcl.optim import find_fisher
from flatcl.params import ParameterSet
from flatcl.probe import fisher_trace_check, hvp, model_objective

from conftest import random_batch, random_mlp


def _set(model, values):
    """Write each layer's (W, b) into its folded block [W; b]."""
    for n, a in model.parameters().items():
        a[:-1], a[-1] = values[n]


def test_matmul_forward():
    m = MultiHeadClassifier(0, 2, [], [1])
    _set(m, {"head0": ([[3.0], [4.0]], [0.5])})
    assert m.logits(np.array([[1.0, 2.0]]), 0).tolist() == [[11.5]]


def test_relu_forward():
    m = MultiHeadClassifier(0, 1, [3], [1], activation="relu")
    _set(m, {"enc0": ([[-1.0, 0.0, 2.0]], [0.0, 0.0, 0.0]),
             "head0": ([[1.0], [1.0], [1.0]], [0.0])})
    # hidden pre-activations (-1, 0, 2) clip to (0, 0, 2)
    assert m.logits(np.array([[1.0]]), 0).tolist() == [[2.0]]


def test_log_softmax_symmetry():
    m = MultiHeadClassifier(0, 2, [], [2])
    _set(m, {"head0": (np.zeros((2, 2)), np.zeros(2))})
    for label in (0, 1):
        loss = m.task_loss(Batch(np.ones((1, 2)), np.array([label]), 0))
        assert abs(loss - np.log(2)) <= 1e-15


def test_bias_broadcast_add():
    """The bias is added to every row, so its gradient is the row mean of
    the per-sample logit adjoints softmax - onehot."""
    m = random_mlp(1, hidden=())
    batch = random_batch(2, m, n=4)
    _, grads = m.loss_gradient(batch)
    logits = m.logits(batch.features, 0)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(4), batch.labels] -= 1.0
    np.testing.assert_allclose(grads["head0"][-1], p.mean(axis=0), rtol=1e-12, atol=1e-15)


def test_nll_loss_label_range():
    """Labels outside [0, classes) raise instead of indexing another class,
    on every path through the kernel."""
    m = random_mlp(3, classes=(3, 2))
    feats = np.random.default_rng(0).normal(size=(2, m.input_dim))
    for task, bad in ((0, -1), (0, 3), (1, -1), (1, 2)):
        labels = np.array([0, bad])
        batch = Batch(feats, labels, task)
        v = m.parameters().zeros_like()
        v[f"head{task}"][-1, 0] = 1.0
        with pytest.raises(ValueError, match="labels"):
            m.loss_gradient(batch)
        with pytest.raises(ValueError, match="labels"):
            find_fisher(m, feats, labels, task, n_samples=2, seed=0)
        with pytest.raises(ValueError, match="labels"):
            fisher_trace_check(m, feats, labels, task)
        with pytest.raises(ValueError, match="labels"):
            hvp(model_objective(m, batch), v)


def test_finite_diff_on_quadratic():
    fd = finite_diff_gradient(lambda p: float(p["w"][0]) ** 2,
                              ParameterSet({"w": [1.0]}), h=1e-5)
    assert abs(fd["w"][0] - 2.0) <= 1e-9


def test_finite_diff_constant_is_zero():
    fd = finite_diff_gradient(lambda p: 7.5, ParameterSet({"w": [1.0, 2.0]}))
    assert fd["w"].tolist() == [0.0, 0.0]


def _max_rel_err(a, b):
    worst = 0.0
    for n in a:
        denom = np.maximum(np.abs(b[n]), 1e-6)
        worst = max(worst, float(np.max(np.abs(a[n] - b[n]) / denom)))
    return worst


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_gradient_matches_finite_differences(activation):
    model = random_mlp(3, input_dim=3, hidden=(5,), classes=(3,),
                      activation=activation)
    batch = random_batch(4, model, n=4)
    _, grads = model.loss_gradient(batch)

    def loss_fn(ps):
        model.set_parameters(ps)
        return model.task_loss(batch)

    ps0 = model.parameters().copy()
    fd = finite_diff_gradient(loss_fn, ps0, h=1e-5)
    model.set_parameters(ps0)
    assert _max_rel_err(grads, fd) <= 1e-6


def test_batch_gradient_linearity():
    """Gradient of the batch mean equals the mean of per-sample gradients."""
    model = random_mlp(5)
    batch = random_batch(6, model, n=4)
    _, batch_grads = model.loss_gradient(batch)
    acc = model.parameters().zeros_like()
    for i in range(len(batch)):
        _, g = model.loss_gradient(
            Batch(batch.features[i:i + 1], batch.labels[i:i + 1], 0))
        acc.flat += g.flat
    acc.flat *= 1.0 / len(batch)
    for n in acc:
        np.testing.assert_allclose(acc[n], batch_grads[n], rtol=1e-12, atol=1e-15)


def test_repeated_evaluation_bitwise_identical():
    model = random_mlp(9)
    batch = random_batch(10, model)
    l1, g1 = model.loss_gradient(batch)
    l2, g2 = model.loss_gradient(batch)
    assert l1 == l2
    for n in g1:
        assert np.array_equal(g1[n], g2[n])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 6))
def test_log_softmax_gradcheck(seed, dim, rows):
    """Linear model (affine layer + log-softmax cross-entropy): kernel
    gradients match central differences."""
    model = random_mlp(seed, input_dim=dim, hidden=(), classes=(3,))
    batch = random_batch(seed, model, n=rows)
    _, grads = model.loss_gradient(batch)

    def loss_fn(ps):
        model.set_parameters(ps)
        return model.task_loss(batch)

    ps0 = model.parameters().copy()
    fd = finite_diff_gradient(loss_fn, ps0, h=1e-6)
    model.set_parameters(ps0)
    for n in grads:
        np.testing.assert_allclose(grads[n], fd[n], rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("loss,h,kind,error", [
    (lambda p: 0.0, 0.0, ValueError, "h must be a finite number > 0, got 0.0"),
    (lambda p: np.log(p.flat[0]), 1e-5, FloatingPointError,
     "non-finite loss while differencing coordinate 0"),
], ids=["zero-step", "non-finite-loss"])
def test_finite_diff_refuses_with_one_line(loss, h, kind, error):
    """The second case steps the coordinate 0 to -h, where log is NaN."""
    with np.errstate(invalid="ignore"), pytest.raises(kind) as info:
        finite_diff_gradient(loss, ParameterSet({"w": [0.0, 1.0]}), h=h)
    assert str(info.value) == error
