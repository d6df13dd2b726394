import numpy as np
import pytest

from flatcl.autodiff import finite_diff_gradient
from flatcl.model import Batch, MultiHeadClassifier
from flatcl.probe import hvp, model_objective

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
    p = m.parameters()
    h = batch.features
    for i in range(len(m.hidden_dims)):
        h = np.tanh(h @ p[f"enc{i}.W"] + p[f"enc{i}.b"])
    logits = h @ p["head0.W"] + p["head0.b"]
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
    n_heads = len(m.head_classes)
    m.add_task_head(5)
    assert len(m.head_classes) == n_heads + 1
    np.testing.assert_array_equal(m.logits(x, 0), before)


def test_parameters_alias_one_buffer_across_head_addition():
    m = random_mlp(6, hidden=(5, 4), classes=(3,))
    before = m.theta.copy()
    m.add_task_head(2)
    params = m.parameters()
    assert params is m.parameters()
    assert params.flat is m.theta and m.theta.size == before.size + 4 * 2 + 2
    views = [params[f"{layer}.{p}"] for layer in ("enc0", "enc1", "head0", "head1")
             for p in "Wb"]
    assert len(views) == len(params) == 8
    for view, (name, arr) in zip(views, params.items()):
        assert np.shares_memory(view, m.theta) and np.shares_memory(arr, m.theta)
        assert view.shape == arr.shape and np.array_equal(view, arr)
    # earlier weights keep their offsets; the new head sits at the end
    np.testing.assert_array_equal(m.theta[:before.size], before)
    assert np.shares_memory(m.parameters()["head1.W"], m.theta[before.size:])
    assert m.constrained_names(1) == params.names()[:6]
    m.parameters()["head0.b"][0] = 123.0
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
    assert sums.shape == m.theta.shape
    np.testing.assert_allclose(sums, ref.flat, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_rows", [1, 3, 8])
@pytest.mark.parametrize("activation,hidden", [("tanh", ()), ("tanh", (5,)),
                                               ("tanh", (4, 3)), ("relu", ()),
                                               ("relu", (5,)), ("relu", (4, 3))])
def test_bound_hvp_operator_equals_loss_hvp_bitwise(activation, hidden, n_rows):
    """One operator bound to the rows and applied to several directions in
    turn gives, for each, the bits of the loss's one-shot HVP
    `hvp(model_objective(...), v)`, on every head."""
    m = random_mlp(40, hidden=hidden, classes=(3, 2, 4), activation=activation)
    rng = np.random.default_rng(41)
    for task_id in range(3):
        batch = random_batch(42 + task_id, m, n=n_rows, task_id=task_id)
        op = m._hvp_operator(*m._check_rows(batch.features, batch.labels, task_id),
                             task_id)
        directions = [rng.normal(size=m.theta.size) for _ in range(3)]
        products = [op(v) for v in directions]
        for v, hv in zip(directions, products):
            ref = hvp(model_objective(m, batch), m.parameters().unflatten(v))
            assert hv.tobytes() == ref.flat.tobytes()
            assert not np.shares_memory(hv, ref.flat)
        assert not np.shares_memory(products[0], products[1])
        # the bound output buffer is copied out: a repeat is equal, not shared
        again = op(directions[0])
        assert again is not products[0] and not np.shares_memory(again, products[0])
        assert again.tobytes() == products[0].tobytes()


@pytest.mark.parametrize("n_rows", [1, 7, 60])
@pytest.mark.parametrize("activation,hidden", [("tanh", ()), ("tanh", (5,)),
                                               ("tanh", (4, 3)), ("relu", ()),
                                               ("relu", (5,)), ("relu", (4, 3))])
def test_stacked_losses_equal_task_loss_bitwise(activation, hidden, n_rows):
    """`_task_losses` over a stack of weight vectors gives, at each row, the
    bits `task_loss` gives with that row as the weights, on every head,
    for a stack of one row too; the model's own weights are not written."""
    m = random_mlp(70, hidden=hidden, classes=(3, 2, 4), activation=activation)
    rng = np.random.default_rng(71)
    thetas = m.theta + rng.normal(scale=0.5, size=(17, m.theta.size))
    twin = m.clone()
    m.theta.flags.writeable = False
    for task_id in range(3):
        batch = random_batch(72 + task_id, m, n=n_rows, task_id=task_id)
        x, y = m._check_rows(batch.features, batch.labels, task_id)
        want = []
        for row in thetas:
            np.copyto(twin.theta, row)
            want.append(twin.task_loss(batch))
        assert m._task_losses(x, y, task_id, thetas).tobytes() == np.array(want).tobytes()
        one = m._task_losses(x, y, task_id, m.theta[None])
        assert one.shape == (1,) and one[0] == m.task_loss(batch)


@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_plan_has_one_form_for_a_vector_and_a_stack(hidden):
    """Each head's plan over a flat vector and over the stack of that one
    vector gives views with the same bytes; the flat views are the stack's
    without its leading axis, so a bias is a (1, cols) row; and a write
    through a flat view lands in the vector, in the layer's slice."""
    m = random_mlp(73, hidden=hidden, classes=(3, 2))
    v = np.random.default_rng(74).normal(size=m.theta.size)
    for task_id in range(2):
        flat, stacked = m._plan(v, task_id), m._plan(v[None], task_id)
        assert len(flat) == len(stacked) == len(hidden) + 1
        for (w, b, wb, sl), (*stack_views, stack_sl) in zip(flat, stacked):
            assert sl == stack_sl
            rows, cols = w.shape
            assert b.shape == (1, cols) and wb.shape == (rows + 1, cols)
            for view, stack_view in zip((w, b, wb), stack_views):
                assert stack_view.shape == (1, *view.shape)
                assert view.tobytes() == stack_view[0].tobytes()
            want = v.copy()
            want[sl] = np.concatenate([np.full(w.size, 1.0 + task_id),
                                       np.full(b.size, -2.0 - task_id)])
            w[...] = 1.0 + task_id
            b[...] = -2.0 - task_id
            assert v.tobytes() == want.tobytes()


def test_one_layout_model_equals_head_by_head():
    """Building every head at once lays out the same weights, bit for bit,
    as building one head and adding the others in order."""
    whole = MultiHeadClassifier(50, 4, [6, 5], [3, 2, 4, 2], activation="relu")
    grown = MultiHeadClassifier(50, 4, [6, 5], [3], activation="relu")
    for classes in (2, 4, 2):
        grown.add_task_head(classes)
    assert whole.parameters().names() == grown.parameters().names()
    assert whole.head_classes == grown.head_classes == [3, 2, 4, 2]
    assert whole.theta.tobytes() == grown.theta.tobytes()
    x = np.random.default_rng(51).normal(size=(5, 4))
    for t in range(4):
        assert whole.logits(x, t).tobytes() == grown.logits(x, t).tobytes()


def test_clone_is_an_equal_independent_model():
    """A grown relu model's clone has its layout and bits, gives the same
    kernels bit for bit, and shares no storage with it."""
    m = MultiHeadClassifier(60, 4, [5, 3], [3], activation="relu")
    m.add_task_head(2)
    rng = np.random.default_rng(61)
    m.theta += rng.normal(scale=0.1, size=m.theta.size)  # nonzero biases too
    c = m.clone()
    assert c.parameters().names() == m.parameters().names()
    assert ([a.shape for _, a in c.parameters().items()]
            == [a.shape for _, a in m.parameters().items()])
    assert (c.activation, c.hidden_dims, c.head_classes) == ("relu", [5, 3], [3, 2])
    assert c.theta.tobytes() == m.theta.tobytes()
    v = m.parameters().unflatten(rng.normal(size=m.theta.size))

    def kernels(model, batch):
        sums, sq_norms = model.gradient_second_moments(batch.features, batch.labels,
                                                       batch.task_id)
        return [model.loss_gradient(batch)[1].flat, sums, sq_norms,
                hvp(model_objective(model, batch), v).flat]

    for t in range(2):
        batch = random_batch(62 + t, m, n=6, task_id=t)
        assert ([a.tobytes() for a in kernels(c, batch)]
                == [a.tobytes() for a in kernels(m, batch)])
    theirs = c.theta.copy()
    m.theta += 1.0
    m.parameters()["head1.b"][...] = 5.0
    assert c.theta.tobytes() == theirs.tobytes()
    ours = m.theta.copy()
    c.theta *= 2.0
    c.parameters()["enc0.W"][...] = 0.0
    c.add_task_head(4)
    assert m.theta.tobytes() == ours.tobytes() and m.head_classes == [3, 2]
    # the clone's new head is the one a freshly built model gets
    fresh = MultiHeadClassifier(60, 4, [5, 3], [3, 2, 4], activation="relu")
    assert c.parameters()["head2.W"].tobytes() == fresh.parameters()["head2.W"].tobytes()


def test_from_weights_refuses_weights_of_another_size():
    """A stored weight vector must fit the described layout exactly; one
    value is not broadcast over every weight."""
    for theta in (np.zeros(1), np.zeros(50), np.zeros((1, 51))):
        with pytest.raises(ValueError, match="do not fit a model of 51 weights"):
            MultiHeadClassifier.from_weights(theta, 1, 4, [6], [3])
    assert MultiHeadClassifier.from_weights(np.ones(51), 1, 4, [6], [3]).theta.sum() == 51


def test_loss_hvp_refuses_misaligned_direction():
    m = random_mlp(52, classes=(3, 2))
    v = random_mlp(52, classes=(3,)).parameters()
    with pytest.raises(ValueError, match="misaligned parameter sets in hvp"):
        hvp(model_objective(m, random_batch(53, m)), v)


def _layer_names(m, task_id):
    """The block names head `task_id` reads, from the input up."""
    encoder = m.parameters().names()[:2 * len(m.hidden_dims)]
    return encoder + [f"head{task_id}.W", f"head{task_id}.b"]


def _reference_kernels(m, x, y, task_id, v, one_hot_hvp=False, split_bias_hvp=False):
    """The per-layer recursion written out once per kernel, each walking the
    layers top-down with its own `delta @ W.T` step: (loss gradient, summed
    squared per-sample gradients, per-sample squared norms, H v), each
    gradient a list of (W, b) blocks for the encoder then head `task_id`.
    H v starts from the gradient's output adjoint `p * (1/n) - onehot / n`,
    or with `one_hot_hvp` from `(p - onehot) / n`, the Hessian bind's own
    form before it shared that adjoint.  It works on each layer's folded
    block `[W; b]` and its input with a ones column, with 1/n folded into
    the softmax; with `split_bias_hvp` (implied by `one_hot_hvp`) it adds
    the bias terms on their own and divides by n last, the operator's form
    before it folded them."""
    ps = m.parameters()
    layers = [(ps[f"enc{i}.W"], ps[f"enc{i}.b"]) for i in range(len(m.hidden_dims))]
    layers.append((ps[f"head{task_id}.W"], ps[f"head{task_id}.b"]))
    tanh = m.activation == "tanh"
    acts, h = [x], x
    for w, b in layers[:-1]:
        z = h @ w
        z += b
        h = np.tanh(z) if tanh else np.maximum(z, 0.0)
        acts.append(h)
    w, b = layers[-1]
    z = h @ w
    z += b
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    n, rows, top = len(y), np.arange(len(y)), len(layers) - 1

    def backward(delta, k):
        d_h = delta @ layers[k][0].T
        return d_h * (1.0 - acts[k] * acts[k]) if tanh else d_h * (acts[k] > 0.0)

    g = np.zeros(logp.shape)
    g[rows, y] = -1.0 / n
    delta = g - np.exp(logp) * g.sum(axis=-1, keepdims=True)
    grad = [None] * len(layers)
    for k in range(top, -1, -1):
        grad[k] = (acts[k].T @ delta, delta.sum(axis=0))
        if k:
            delta = backward(delta, k)

    delta = np.exp(logp)
    delta[rows, y] -= 1.0
    sums, sq_norms = [None] * len(layers), np.zeros(n)
    for k in range(top, -1, -1):
        h2, d2 = acts[k] * acts[k], delta * delta
        sums[k] = (h2.T @ d2, np.sum(d2, axis=0))
        sq_norms += (h2.sum(axis=1) + 1.0) * d2.sum(axis=1)
        if k:
            delta = backward(delta, k)

    p = np.exp(logp)
    slope = [None] + [(1.0 - h * h) if tanh else (h > 0.0) for h in acts[1:]]
    adjoint, curvature = [None] * len(layers), [None] * len(layers)
    if one_hot_hvp:
        delta = p.copy()
        delta[rows, y] -= 1.0
        delta /= n
    else:
        delta = p * (1.0 / n)
        delta[rows, y] -= 1.0 / n
    for k in range(top, 0, -1):
        adjoint[k] = delta
        d_h = delta @ layers[k][0].T
        curvature[k] = 2.0 * d_h * acts[k]
        delta = d_h * slope[k]
    v_blocks = [v[name] for name in _layer_names(m, task_id)]
    v_w, v_b = v_blocks[0::2], v_blocks[1::2]
    hv = [None] * len(layers)
    if one_hot_hvp or split_bias_hvp:
        r_acts = [None]
        for k, (w, _) in enumerate(layers):
            if k:
                r_out = r_acts[k] @ w + acts[k] @ v_w[k] + v_b[k]
            else:
                r_out = acts[0] @ v_w[0] + v_b[0]
            if k < top:
                r_acts.append(r_out * slope[k + 1])
        r_delta = p * (r_out - (p * r_out).sum(axis=1, keepdims=True)) / n
        for k in range(top, -1, -1):
            hv_w = acts[k].T @ r_delta
            hv[k] = (hv_w, np.sum(r_delta, axis=0))
            if k == 0:
                break
            hv_w += r_acts[k].T @ adjoint[k]
            r_delta = (r_delta @ layers[k][0].T + adjoint[k] @ v_w[k].T) * slope[k]
            if tanh:
                r_delta -= curvature[k] * r_acts[k]
        return grad, sums, sq_norms, hv
    aug = [np.hstack([h, np.ones((n, 1))]) for h in acts]
    v_wb = [np.vstack([v_w[k], v_b[k]]) for k in range(len(layers))]
    r_acts = [None]
    for k, (w, _) in enumerate(layers):
        r_out = r_acts[k] @ w + aug[k] @ v_wb[k] if k else aug[0] @ v_wb[0]
        if k < top:
            r_acts.append(r_out * slope[k + 1])
    r_delta = (p * (1.0 / n)) * (r_out - (p * r_out).sum(axis=1, keepdims=True))
    for k in range(top, -1, -1):
        hv_wb = aug[k].T @ r_delta
        hv[k] = (hv_wb[:-1], hv_wb[-1])
        if k == 0:
            break
        hv_wb[:-1] += r_acts[k].T @ adjoint[k]
        r_delta = (r_delta @ layers[k][0].T + adjoint[k] @ v_w[k].T) * slope[k]
        if tanh:
            r_delta -= curvature[k] * r_acts[k]
    return grad, sums, sq_norms, hv


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_kernels_equal_per_layer_reference_bitwise(activation, hidden):
    """The loss gradient, the Fisher pass and the bound HVP, which share one
    backward pass, give the bits of the per-layer recursion written out in
    full for each, on every head."""
    m = random_mlp(90, hidden=hidden, classes=(3, 4), activation=activation)
    for task_id in range(2):
        batch = random_batch(91 + task_id, m, n=6, task_id=task_id)
        x, y = batch.features, batch.labels
        v = m.parameters().unflatten(np.random.default_rng(93).normal(size=m.theta.size))
        grad, sums, sq_norms, hv = _reference_kernels(m, x, y, task_id, v)
        names = _layer_names(m, task_id)
        _, got_grad = m.loss_gradient(batch)
        got_sums, got_sq = m.gradient_second_moments(x, y, task_id)
        got_hv = m._hvp_operator(*m._check_rows(x, y, task_id), task_id)(v.flat)
        for got, ref in [(got_grad.flat, grad), (got_sums, sums), (got_hv, hv)]:
            got = m.parameters().unflatten(got)
            blocks = [a for pair in ref for a in pair]
            assert [got[n].tobytes() for n in names] == [a.tobytes() for a in blocks]
        assert got_sq.tobytes() == sq_norms.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_bound_hvp_within_1e13_of_former_one_hot_adjoint(activation, hidden):
    """Seeding the Hessian bind with the shared `_output_adjoint` moves the
    product's bits, `(p - onehot) / n` becoming `p * (1/n) - onehot / n`,
    but no entry by more than 1e-13 of its block's largest, on every head
    (one entry, 3e-4 of its block's largest, moves by 1.2e-13 of itself)."""
    m = random_mlp(90, hidden=hidden, classes=(3, 4), activation=activation)
    for task_id in range(2):
        batch = random_batch(91 + task_id, m, n=6, task_id=task_id)
        x, y = batch.features, batch.labels
        v = m.parameters().unflatten(np.random.default_rng(93).normal(size=m.theta.size))
        *_, hv = _reference_kernels(m, x, y, task_id, v, one_hot_hvp=True)
        got = m.parameters().unflatten(
            m._hvp_operator(*m._check_rows(x, y, task_id), task_id)(v.flat))
        for name, ref in zip(_layer_names(m, task_id), [a for pair in hv for a in pair]):
            np.testing.assert_allclose(got[name], ref, rtol=0,
                                       atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_bound_hvp_within_1e13_of_split_bias_form(activation, hidden):
    """Folding each bias into its layer's `[W; b]` block and 1/n into the
    softmax moves the product's bits, but no entry by more than 1e-13 of
    its block's largest, on every head."""
    m = random_mlp(90, hidden=hidden, classes=(3, 4), activation=activation)
    for task_id in range(2):
        batch = random_batch(91 + task_id, m, n=6, task_id=task_id)
        x, y = batch.features, batch.labels
        v = m.parameters().unflatten(np.random.default_rng(93).normal(size=m.theta.size))
        *_, hv = _reference_kernels(m, x, y, task_id, v, split_bias_hvp=True)
        got = m.parameters().unflatten(
            m._hvp_operator(*m._check_rows(x, y, task_id), task_id)(v.flat))
        for name, ref in zip(_layer_names(m, task_id), [a for pair in hv for a in pair]):
            np.testing.assert_allclose(got[name], ref, rtol=0,
                                       atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("activation,hidden", [("tanh", (5,)), ("relu", (4, 3))])
def test_bound_hvp_direction_buffer_keeps_no_earlier_direction(activation, hidden):
    """The operator copies each direction into one bound buffer: applied to
    two directions in turn, it gives two distinct arrays, each the product
    a fresh bind gives, and it keeps no reference to the caller's array."""
    m = random_mlp(94, hidden=hidden, classes=(3, 4), activation=activation)
    batch = random_batch(95, m, n=7, task_id=1)
    rows = m._check_rows(batch.features, batch.labels, 1)
    rng = np.random.default_rng(96)
    v1, v2 = rng.normal(size=m.theta.size), rng.normal(size=m.theta.size)
    op = m._hvp_operator(*rows, 1)
    first = op(v1)
    v1[...] = 0.0  # the buffer holds a copy, so this reaches nothing
    second = op(v2)
    assert not np.shares_memory(first, second)
    assert first.tobytes() != second.tobytes()
    assert second.tobytes() == m._hvp_operator(*rows, 1)(v2).tobytes()
    v1 = np.random.default_rng(96).normal(size=m.theta.size)
    assert first.tobytes() == m._hvp_operator(*rows, 1)(v1).tobytes()


def _one_hot_adjoints(logp, labels):
    """The output adjoints `_output_adjoint` replaced: the gradient kernel's
    one-hot `g - exp(logp) * g.sum(-1)` (an autodiff graph's form) and the
    Fisher pass's `exp(logp) - onehot`."""
    n, rows = len(labels), np.arange(len(labels))
    g = np.zeros(logp.shape)
    g[rows, labels] = -1.0 / n
    mean = g - np.exp(logp) * g.sum(axis=-1, keepdims=True)
    per_sample = np.exp(logp)
    per_sample[rows, labels] -= 1.0
    return mean, per_sample


@pytest.mark.parametrize("case", ["random", "one label", "logits of +-800"])
@pytest.mark.parametrize("n", range(1, 18))
def test_output_adjoint_equals_one_hot_forms_bitwise(n, case):
    """Scale 1/n gives the gradient's former adjoint and scale 1 the Fisher
    pass's, bit for bit, for any row count (replay batches are not powers
    of two), one label on every row, and probabilities that underflow."""
    rng = np.random.default_rng(n)
    logits = rng.normal(size=(n, 5)) * 3.0
    labels = rng.integers(0, 5, size=n)
    if case == "one label":
        labels[:] = 2
    elif case == "logits of +-800":
        logits = np.where(rng.random((n, 5)) < 0.5, -800.0, 800.0)
        logits[:, 0], logits[:, 1] = 800.0, -800.0
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    if case == "logits of +-800":
        assert (np.exp(logp) == 0.0).any()
    mean, per_sample = _one_hot_adjoints(logp, labels)
    got_mean = MultiHeadClassifier._output_adjoint(np.exp(logp), labels, 1.0 / n)
    got_per_sample = MultiHeadClassifier._output_adjoint(np.exp(logp), labels, 1.0)
    assert got_mean.tobytes() == mean.tobytes()
    assert got_per_sample.tobytes() == per_sample.tobytes()
