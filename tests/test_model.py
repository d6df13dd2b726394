import tracemalloc
from importlib import resources

import numpy as np
import pytest

from flatcl.autodiff import finite_diff_gradient
from flatcl.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from flatcl.model import Batch, MultiHeadClassifier, _Pass
from flatcl.probe import hvp, model_objective
from flatcl.runner import _build_model, build_stream, load_config

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


@pytest.mark.parametrize("dims", [(np.int64(4), [3]), (4, [np.int64(3)])])
def test_numpy_integer_width_rejected(dims):
    """The widths follow the rule table's integer predicate: a numpy
    integer is refused, as a bool or a float is."""
    with pytest.raises(ValueError, match=r"^input and hidden dims must be integers >= 1, "
                                         r"got \[(np\.int64\(4\)|4), (np\.int64\(3\)|3)\]$"):
        MultiHeadClassifier(0, dims[0], dims[1], [2])


@pytest.mark.parametrize("seed", [True, -1, 1.5, np.int64(1)])
def test_constructor_refuses_a_seed_the_rule_table_refuses(seed):
    """The init seed follows `RULES["seed"]`, naming the argument, before
    any weight is drawn: a bool is not the number 1."""
    with pytest.raises(ValueError) as info:
        MultiHeadClassifier(seed, 4, [3], [2])
    assert str(info.value) == f"seed must be an integer >= 0, got {seed!r}"


@pytest.mark.parametrize("classes", [3, "ab", None])
def test_per_task_classes_must_be_a_list(classes):
    """As hidden_dims is: a count or a string is not a list of heads."""
    with pytest.raises(ValueError) as info:
        MultiHeadClassifier(0, 4, [3], classes)
    assert str(info.value) == f"per_task_classes must be a list, got {classes!r}"


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
        h = np.tanh(h @ p[f"enc{i}"][:-1] + p[f"enc{i}"][-1])
    logits = h @ p["head0"][:-1] + p["head0"][-1]
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
    assert np.all(lg["head1"][:-1] == 0) and np.all(lg["head1"][-1] == 0)


def test_logistic_log_prob_gradient_hand_value():
    """1-feature softmax pair at w=0: grad entries are +/- (1 - p) = 0.5."""
    m = MultiHeadClassifier(0, 1, [], [2])
    for n in m.parameters():
        m.parameters()[n][...] = 0.0
    g = m.log_prob_gradient(np.array([1.0]), 1, 0)
    np.testing.assert_allclose(g["head0"][:-1], [[-0.5, 0.5]], atol=1e-15)
    np.testing.assert_allclose(g["head0"][-1], [-0.5, 0.5], atol=1e-15)
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
    views = [params[layer] for layer in ("enc0", "enc1", "head0", "head1")]
    assert len(views) == len(params) == 4
    for view, (name, arr) in zip(views, params.items()):
        assert np.shares_memory(view, m.theta) and np.shares_memory(arr, m.theta)
        assert view.shape == arr.shape and np.array_equal(view, arr)
    # earlier weights keep their offsets; the new head sits at the end
    np.testing.assert_array_equal(m.theta[:before.size], before)
    assert np.shares_memory(m.parameters()["head1"][:-1], m.theta[before.size:])
    assert m.constrained_names(1) == params.names()[:3]
    m.parameters()["head0"][-1, 0] = 123.0
    assert params["head0"][-1, 0] == 123.0 and 123.0 in m.theta


def test_logits_of_no_rows_are_empty():
    """A forward of zero rows gives zero rows of logits, on a fresh pass and
    after passes of other row counts."""
    m = random_mlp(5, hidden=(4,), classes=(3,))
    assert m.logits(np.zeros((0, m.input_dim)), 0).shape == (0, 3)
    m.loss_gradient(random_batch(6, m, n=4))
    assert m.predict(np.zeros((0, m.input_dim)), 0).shape == (0,)


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


def test_accuracy_checks_its_rows():
    """`accuracy` takes its rows through the one check of rows: a label is
    not broadcast over every row, a label outside the head's classes and a
    label that is not an integer are refused, and integer-valued float
    labels score as their integers."""
    m = random_mlp(14, classes=(3,))
    x = np.random.default_rng(15).normal(size=(5, m.input_dim))
    for labels, message in (([2], "labels of shape (1,) do not match 5 feature rows"),
                            ([0, 1], "labels of shape (2,) do not match 5 feature rows"),
                            ([7] * 5, "labels out of range [0, 3) for task 0"),
                            ([0, 1, 2, 0.5, 1], "labels must be integers, got 0.5")):
        with pytest.raises(ValueError) as info:
            m.accuracy(x, labels, 0)
        assert str(info.value) == message
    y = np.array([0, 1, 2, 0, 1])
    want = float(np.mean(m.predict(x, 0) == y))
    assert m.accuracy(x, y, 0) == m.accuracy(x, y.astype(np.float64), 0) == want


@pytest.mark.parametrize("labels", [[0.7, 1.2], [-0.5, 0.0], [np.nan, 0.0],
                                    [np.inf, 0.0], [1e19, 0.0]])
def test_labels_the_int64_cast_would_change_are_refused(labels):
    """A fractional, NaN, infinite or too large label is refused in one line
    by every entry point that takes labeled rows, before any numpy warning
    of its cast (warnings are errors here), not truncated to an integer."""
    m = random_mlp(16, classes=(3,))
    batch = Batch(np.ones((2, m.input_dim)), labels, 0)
    for call in (lambda: m.loss_gradient(batch), lambda: m.task_loss(batch),
                 lambda: m.accuracy(batch.features, labels, 0),
                 lambda: m.gradient_second_moments(batch.features, labels, 0)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"labels must be integers, got {labels[0]:g}"


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
        acc.flat += m.log_prob_gradient(batch.features[i], batch.labels[i], 0).flat
    acc.flat *= 1.0 / len(batch)
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
            ref[n][...] += g[n] * g[n]
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


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_hvp_bind_writes_the_loss_gradient_bitwise(activation, hidden):
    """Given a gradient output, the Hessian bind writes into it, on every
    head, the bits of `loss_gradient`'s gradient, and nothing outside the
    head's layers; its operator is the one a bind without it returns."""
    m = random_mlp(43, hidden=hidden, classes=(3, 2, 4), activation=activation)
    v = np.random.default_rng(44).normal(size=m.theta.size)
    for task_id in range(3):
        batch = random_batch(45 + task_id, m, n=8, task_id=task_id)
        rows = m._check_rows(batch.features, batch.labels, task_id)
        grads = np.zeros(m.theta.size)
        op = m._hvp_operator(*rows, task_id, grads)
        assert grads.tobytes() == m.loss_gradient(batch)[1].flat.tobytes()
        outside = np.ones(m.theta.size, dtype=bool)
        for name in [f"enc{i}" for i in range(len(hidden))] + [f"head{task_id}"]:
            outside[m.parameters().slice_of(name)] = False
        assert not grads[outside].any() and grads[~outside].any()
        assert op(v).tobytes() == m._hvp_operator(*rows, task_id)(v).tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (16, 8)])
def test_bound_hvp_apply_allocates_only_its_result(activation, hidden):
    """An apply writes every intermediate into buffers bound with the
    operator: over one apply to 512 rows, traced memory peaks less than one
    (rows, widest layer) float64 array above where it started, room for
    the product it returns and for no row-sized intermediate."""
    m = random_mlp(103, hidden=hidden, classes=(3,), activation=activation)
    batch = random_batch(104, m, n=512)
    op = m._hvp_operator(*m._check_rows(batch.features, batch.labels, 0), 0)
    v = np.random.default_rng(105).normal(size=m.theta.size)
    op(v)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        op(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    widest = max(m.input_dim, *hidden, 3)
    assert peak - start < 512 * widest * 8


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


@pytest.mark.parametrize("classes", range(1, 10))
def test_stacked_losses_equal_task_loss_bitwise_on_tied_logits(classes):
    """A stack takes its class max column by column, the flat pass by a
    reduction; each loss of the stack still has the bits `task_loss` gives
    its row when logits tie at the max, when whole rows of logits are
    equal, and for 1 to 9 classes.  A NaN weight gives a NaN loss on both
    paths."""
    m = random_mlp(106, hidden=(), classes=(classes,))
    batch = random_batch(107, m, n=9)
    x, y = m._check_rows(batch.features, batch.labels, 0)
    rng = np.random.default_rng(108)
    thetas = np.repeat(m.theta[None], 6, axis=0)
    heads = [m.parameters().unflatten(row) for row in thetas]  # views into the rows
    heads[0]["head0"][:-1] = 0.0  # every logit 0
    heads[1]["head0"][:-1] = 0.0  # ties within each row, the same for every row
    heads[1]["head0"][-1] = rng.choice([1.5, 1.5, -0.5], size=classes)
    heads[2]["head0"][:-1] = heads[2]["head0"][:-1, :1]  # each row's logits equal
    heads[3]["head0"][:-1, -1] = heads[3]["head0"][:-1, 0]  # the first and last tie
    heads[4]["head0"][-1] = np.where(np.arange(classes) % 2, -0.0, 0.0)
    heads[5]["head0"][-1, 0] = np.nan
    twin = m.clone()
    want = []
    for row in thetas:
        np.copyto(twin.theta, row)
        want.append(twin.task_loss(batch))
    got = m._task_losses(x, y, 0, thetas)
    assert got[:5].tobytes() == np.array(want[:5]).tobytes()
    assert np.isnan(got[5]) and np.isnan(want[5])


@pytest.mark.parametrize("classes", range(1, 10))
def test_stacked_class_max_keeps_the_loss_bits_on_signed_zeros(classes):
    """Logits of +0 and -0 tied at the max, whose sign the column max and
    the reduction may take differently, give each stack entry's loss the
    bits the flat pass gives it alone; a NaN logit gives NaN on both."""
    m = random_mlp(109, hidden=(), classes=(classes,))
    rng = np.random.default_rng(110 + classes)
    z = rng.choice([0.0, -0.0, -1.0, -2.5], size=(12, 7, classes))
    z[0, 0, 0] = np.nan
    labels, index = rng.integers(0, classes, size=7), np.arange(7)
    stack, flat = m._pass(np.zeros((12, m.theta.size)), 0), m._pass(m.theta, 0)
    stacked = z.copy()
    _, s = stack.exp_sum(stacked)
    got = stack.loss(stacked, s, index, labels)
    for entry, loss in zip(z, got):
        alone = entry.copy()
        _, s = flat.exp_sum(alone)
        assert loss.tobytes() == flat.loss(alone, s, index, labels).tobytes()
    assert np.isnan(got[0]) and not np.isnan(got[1:]).any()


@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_plan_has_one_form_for_a_vector_and_a_stack(hidden):
    """Each head's plan, over a flat vector, over the stack of that one
    vector and over a (3, d) stack, is the layout's `block` of each layer's
    name, enc0, ..., head{t}: each block shares memory with it and has its
    shape, led by the stack's k; over the flat vector it is the name's view
    in `unflatten`.  The flat blocks have the one-vector stack's bytes
    without its leading axis; each is the layer's (W, b) pair, its last row
    the bias; and a write through a flat block lands in the vector, in the
    `slice_of` the layer's name."""
    m = random_mlp(73, hidden=hidden, classes=(3, 2, 4))
    params, lay = m.parameters(), m.parameters()._layout
    rng = np.random.default_rng(74)
    v, three = rng.normal(size=m.theta.size), rng.normal(size=(3, m.theta.size))
    for task_id in range(3):
        names = [f"enc{i}" for i in range(len(hidden))] + [f"head{task_id}"]
        for vec in (v, three):
            plan = m._plan(vec, task_id)
            assert len(plan) == len(names)
            for wb, i in zip(plan, map(lay.index.get, names)):
                block = lay.block(vec, i)
                assert wb.shape == block.shape == vec.shape[:-1] + lay.shapes[i]
                assert np.shares_memory(wb, block)
                assert wb.__array_interface__ == block.__array_interface__
                if vec.ndim == 1:
                    assert wb.tobytes() == params.unflatten(vec)[lay.names[i]].tobytes()
        flat, stacked = m._plan(v, task_id), m._plan(v[None], task_id)
        assert len(flat) == len(stacked) == len(hidden) + 1
        for wb, stack_wb, name in zip(flat, stacked, names):
            w = params.unflatten(v)[name][:-1]
            sl = params.slice_of(name)
            assert wb.shape == (w.shape[0] + 1, w.shape[1])
            start = wb.__array_interface__["data"][0] - v.__array_interface__["data"][0]
            assert (start, wb.size) == (8 * sl.start, sl.stop - sl.start)
            assert wb[..., :-1, :].tobytes() == w.tobytes()
            assert stack_wb.shape == (1, *wb.shape)
            assert wb.tobytes() == stack_wb[0].tobytes()
            want = v.copy()
            want[sl] = np.concatenate([np.full(w.size, 1.0 + task_id),
                                       np.full(w.shape[1], -2.0 - task_id)])
            wb[..., :-1, :] = 1.0 + task_id
            wb[..., -1:, :] = -2.0 - task_id
            assert v.tobytes() == want.tobytes()


def test_each_layer_is_one_named_block():
    """The layout names each layer once: a rot5 model grown to its 5 heads
    is enc0 then the heads in task order.  On models with 0-2 hidden
    layers, each block of every head's plan over `theta` is that layer's
    named view, with its shape and start, and lies at the `slice_of` its
    name."""
    with resources.as_file(resources.files("flatcl") / "configs" / "rot5.json") as path:
        cfg = load_config(path)
    stream = build_stream(cfg, 1)
    model = _build_model(cfg, stream, 1)
    for task in list(stream)[1:]:
        model.add_task_head(task.class_count)
    assert model.parameters().names() == ["enc0", "head0", "head1", "head2", "head3", "head4"]
    for hidden in [(), (5,), (4, 3)]:
        m = random_mlp(75, hidden=hidden, classes=(3, 2, 4))
        params = m.parameters()
        for task_id in range(3):
            names = [f"enc{i}" for i in range(len(hidden))] + [f"head{task_id}"]
            plan = m._plan(m.theta, task_id)
            assert len(plan) == len(names)
            for wb, view in zip(plan, map(params.__getitem__, names)):
                assert wb.shape == view.shape and np.shares_memory(wb, view)
                assert wb.__array_interface__["data"] == view.__array_interface__["data"]
            base = m.theta.__array_interface__["data"][0]
            starts = [(wb.__array_interface__["data"][0] - base) // 8 for wb in plan]
            assert ([slice(start, start + wb.size) for start, wb in zip(starts, plan)]
                    == [params.slice_of(n) for n in names])


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


@pytest.mark.parametrize("heads", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_loaded_model_has_the_constructed_layout(tmp_path, depth, heads):
    """A checkpoint load, `from_weights` and a model grown head by head lay
    out the names, shapes and offsets of the model built whole, and the
    same layers per head: one shared layout."""
    hidden, classes = [5, 4][:depth], [2, 3, 4, 1, 3][:heads]
    built = MultiHeadClassifier(111, 6, hidden, classes)
    save_checkpoint(tmp_path / "m.bin", Checkpoint(seed=1, variant="seq", model=built))
    grown = MultiHeadClassifier(111, 6, hidden, classes[:1])
    for c in classes[1:]:
        grown.add_task_head(c)
    want = built.parameters()
    for model in (load_checkpoint(tmp_path / "m.bin").model, grown,
                  MultiHeadClassifier.from_weights(built.theta, 111, 6, hidden, classes)):
        got = model.parameters()
        assert got.names() == want.names()
        assert [got[n].shape for n in got] == [want[n].shape for n in want]
        assert [got.slice_of(n) for n in got] == [want.slice_of(n) for n in want]
        assert got._layout is want._layout
        for t in range(heads):
            assert ([wb.__array_interface__ for wb in model._plan(built.theta, t)]
                    == [wb.__array_interface__ for wb in built._plan(built.theta, t)])
        assert model.theta.tobytes() == built.theta.tobytes()


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_models_of_one_description_share_its_layout(depth):
    """Every model of one description (input dim, hidden dims, head class
    counts) shares one layout, held in tuples, whatever its seed or
    activation, but never its weights or row buffers.  `from_weights`,
    `clone` and a model grown head by head take the layout of a fresh build
    with as many heads: names, shapes, offsets and each head's plan."""
    hidden, classes = [5, 4][:depth], [3, 2, 4]
    fresh = MultiHeadClassifier(70, 6, hidden, classes)
    grown = MultiHeadClassifier(71, 6, hidden, classes[:1], activation="relu")
    for c in classes[1:]:
        grown.add_task_head(c)
    models = [MultiHeadClassifier(72, 6, hidden, classes), fresh.clone(),
              MultiHeadClassifier.from_weights(fresh.theta, 70, 6, hidden, classes), grown]
    want = fresh.parameters()
    assert all(isinstance(getattr(want._layout, k), tuple) for k in ("names", "shapes", "offsets"))
    x = np.random.default_rng(73).normal(size=(5, 6))
    for model in models:
        got = model.parameters()
        assert got._layout is want._layout
        assert got.names() == want.names()
        assert [got[n].shape for n in got] == [want[n].shape for n in want]
        assert [got.slice_of(n) for n in got] == [want.slice_of(n) for n in want]
        for t in range(len(classes)):
            assert ([wb.__array_interface__ for wb in model._plan(fresh.theta, t)]
                    == [wb.__array_interface__ for wb in fresh._plan(fresh.theta, t)])
        assert not np.shares_memory(model.theta, fresh.theta)
        assert model._rows is not fresh._rows
        for m in (model, fresh):
            m.logits(x, 0)
        ours, theirs = (m._rows[((), classes[0])][5].aug for m in (model, fresh))
        assert not any(np.shares_memory(a, b) for a in ours for b in theirs)
    # a model with fewer heads is another description, with a layout of its own
    assert MultiHeadClassifier(70, 6, hidden, classes[:2]).parameters()._layout is not want._layout


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
    m.parameters()["head1"][-1] = 5.0
    assert c.theta.tobytes() == theirs.tobytes()
    ours = m.theta.copy()
    c.theta *= 2.0
    c.parameters()["enc0"][:-1] = 0.0
    c.add_task_head(4)
    assert m.theta.tobytes() == ours.tobytes() and m.head_classes == [3, 2]
    # the clone's new head is the one a freshly built model gets
    fresh = MultiHeadClassifier(60, 4, [5, 3], [3, 2, 4], activation="relu")
    assert c.parameters()["head2"][:-1].tobytes() == fresh.parameters()["head2"][:-1].tobytes()


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
    """The layer names head `task_id` reads, from the input up."""
    return m.parameters().names()[:len(m.hidden_dims)] + [f"head{task_id}"]


def _split(ps, names):
    """Each named folded block [W; b] of `ps` as its (W, b) pair."""
    return [(ps[n][:-1], ps[n][-1]) for n in names]


def _reference_kernels(m, x, y, task_id, v, one_hot_hvp=False, split_bias_hvp=False,
                       unfolded=False):
    """The per-layer recursion written out once per kernel, each walking the
    layers top-down with its own `delta @ W.T` step: (mean loss, loss
    gradient, summed squared per-sample gradients, per-sample squared
    norms, H v), each gradient a list of (W, b) blocks for the encoder then
    head `task_id`.

    Each layer works on its input with a ones column appended and its
    folded block: the forward's `[h, 1] @ [W; b]`, the gradient's
    `[h, 1].T @ delta` and the Fisher sums' `[h^2, 1].T @ delta^2`, each
    split into its W rows and b row.  The softmax is `exp(z - max) / sum`
    and the loss `mean(log(sum) - (z - max)[label])`.  With `unfolded`, the
    former spelling: the forward adds each bias after its matmul, the
    softmax is the exp of the log-softmax, the loss the mean of minus its
    picks, and each bias gradient is a sum of `delta` over the rows.

    H v starts from the gradient's output adjoint `p * (1/n) - onehot / n`,
    or with `one_hot_hvp` from `(p - onehot) / n`, the Hessian bind's own
    form before it shared that adjoint.  It works on each layer's folded
    block `[W; b]` and its input with a ones column, with 1/n folded into
    the softmax; with `split_bias_hvp` (implied by `one_hot_hvp`) it adds
    the bias terms on their own and divides by n last, the operator's form
    before it folded them."""
    ps = m.parameters()
    layers = _split(ps, _layer_names(m, task_id))
    tanh = m.activation == "tanh"
    n, rows, top = len(y), np.arange(len(y)), len(layers) - 1
    ones = np.ones((n, 1))
    acts, aug, h = [x], [np.hstack([x, ones])], x
    for k, (w, b) in enumerate(layers):
        if unfolded:
            z = h @ w
            z += b
        else:
            z = aug[k] @ np.vstack([w, b])
        if k == top:
            break
        h = np.tanh(z) if tanh else np.maximum(z, 0.0)
        acts.append(h)
        aug.append(np.hstack([h, ones]))
    z = z - z.max(axis=-1, keepdims=True)
    if unfolded:
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        p = np.exp(logp)
        loss = -np.mean(logp[rows, y])
    else:
        e = np.exp(z)
        s = e.sum(axis=-1, keepdims=True)
        p = e / s
        loss = np.mean(np.log(s[:, 0]) - z[rows, y])

    def backward(delta, k):
        d_h = delta @ layers[k][0].T
        return d_h * (1.0 - acts[k] * acts[k]) if tanh else d_h * (acts[k] > 0.0)

    def split(wb):
        return wb[:-1], wb[-1]

    g = np.zeros(p.shape)
    g[rows, y] = -1.0 / n
    delta = g - p * g.sum(axis=-1, keepdims=True)
    grad = [None] * len(layers)
    for k in range(top, -1, -1):
        grad[k] = ((acts[k].T @ delta, delta.sum(axis=0)) if unfolded
                   else split(aug[k].T @ delta))
        if k:
            delta = backward(delta, k)

    delta = p.copy()
    delta[rows, y] -= 1.0
    sums, sq_norms = [None] * len(layers), np.zeros(n)
    for k in range(top, -1, -1):
        d2 = delta * delta
        if unfolded:
            h2 = acts[k] * acts[k]
            sums[k] = (h2.T @ d2, np.sum(d2, axis=0))
            sq_norms += (h2.sum(axis=1) + 1.0) * d2.sum(axis=1)
        else:
            a2 = aug[k] * aug[k]
            sums[k] = split(a2.T @ d2)
            sq_norms += a2.sum(axis=1) * d2.sum(axis=1)
        if k:
            delta = backward(delta, k)

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
    v_w, v_b = zip(*_split(v, _layer_names(m, task_id)))
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
        return loss, grad, sums, sq_norms, hv
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
    return loss, grad, sums, sq_norms, hv


def _kernels(m, batch, v):
    """(loss, gradient, Fisher sums, per-sample squared norms, H v) from
    the model's kernel, each a flat vector but the loss."""
    x, y, task_id = batch.features, batch.labels, batch.task_id
    loss, grad = m.loss_gradient(batch)
    sums, sq_norms = m.gradient_second_moments(x, y, task_id)
    hv = m._hvp_operator(*m._check_rows(x, y, task_id), task_id)(v.flat)
    return loss, grad.flat, sums, sq_norms, hv


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_kernels_equal_per_layer_reference_bitwise(activation, hidden):
    """The loss, its gradient, the Fisher pass and the bound HVP, which
    share one forward and one backward pass, give the bits of the per-layer
    recursion written out in full for each, on every head."""
    m = random_mlp(90, hidden=hidden, classes=(3, 4), activation=activation)
    for task_id in range(2):
        for n_rows in (1, 6, 11):
            batch = random_batch(91 + task_id, m, n=n_rows, task_id=task_id)
            v = m.parameters().unflatten(np.random.default_rng(93).normal(size=m.theta.size))
            loss, *refs = _reference_kernels(m, batch.features, batch.labels, task_id, v)
            got_loss, got_grad, got_sums, got_sq, got_hv = _kernels(m, batch, v)
            assert got_loss == loss
            names = _layer_names(m, task_id)
            for got, ref in [(got_grad, refs[0]), (got_sums, refs[1]), (got_hv, refs[3])]:
                got = m.parameters().unflatten(got)
                blocks = [a for pair in ref for a in pair]
                assert ([a.tobytes() for pair in _split(got, names) for a in pair]
                        == [a.tobytes() for a in blocks])
            assert got_sq.tobytes() == refs[2].tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_bound_pass_equals_one_shot_kernel_bitwise(activation, hidden):
    """One pass bound per head over the weights, run for every row count
    from 1 to 16 in a shuffled order and twice over while the weights move
    between calls, gives the loss and gradient bits of the one-shot
    `loss_gradient`, through an output plan with the head's blocks and one
    without them, which leaves them as they were."""
    m = random_mlp(84, hidden=hidden, classes=(3, 2), activation=activation)
    rng = np.random.default_rng(85)
    passes = [m._pass(m.theta, t) for t in range(2)]
    out = np.zeros(m.theta.size)
    for n_rows in [int(r) for r in rng.permutation(np.arange(1, 17))] * 2:
        for task_id in (0, 1):
            batch = random_batch(n_rows * 2 + task_id, m, n=n_rows, task_id=task_id)
            x, y = m._check_rows(batch.features, batch.labels, task_id)
            want_loss, want = m.loss_gradient(batch)
            head = m.parameters().slice_of(f"head{task_id}").start
            views = m._plan(out, task_id)
            out.fill(0.0)
            assert passes[task_id].loss_gradient(x, y, views) == want_loss
            assert out.tobytes() == want.flat.tobytes()
            out.fill(-1.0)
            out[:head] = 0.0
            assert passes[task_id].loss_gradient(x, y, views[:-1], loss=False) is None
            assert out[:head].tobytes() == want.flat[:head].tobytes()
            assert (out[head:] == -1.0).all()
            m.theta += rng.normal(scale=0.01, size=m.theta.size)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_kernels_within_1e13_of_unfolded_form(activation, hidden):
    """Folding each bias into its layer's matmul and taking the softmax as
    exp/sum moves the kernels' bits, but no entry of the loss, the
    gradient, the Fisher sums, the per-sample squared norms or H v by more
    than 1e-13 of its block's largest, on every head."""
    m = random_mlp(90, hidden=hidden, classes=(3, 4), activation=activation)
    for task_id in range(2):
        for n_rows in (1, 6, 11):
            batch = random_batch(91 + task_id, m, n=n_rows, task_id=task_id)
            v = m.parameters().unflatten(np.random.default_rng(93).normal(size=m.theta.size))
            loss, *refs = _reference_kernels(m, batch.features, batch.labels, task_id, v,
                                             unfolded=True)
            got_loss, got_grad, got_sums, got_sq, got_hv = _kernels(m, batch, v)
            assert abs(got_loss - loss) <= 1e-13 * abs(loss)
            np.testing.assert_allclose(got_sq, refs[2], rtol=0,
                                       atol=1e-13 * np.abs(refs[2]).max())
            for got, ref in [(got_grad, refs[0]), (got_sums, refs[1]), (got_hv, refs[3])]:
                got = m.parameters().unflatten(got)
                for pair, ref_pair in zip(_split(got, _layer_names(m, task_id)), ref):
                    for block, want in zip(pair, ref_pair):
                        np.testing.assert_allclose(block, want, rtol=0,
                                                   atol=1e-13 * np.abs(want).max())


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
        for pair, ref_pair in zip(_split(got, _layer_names(m, task_id)), hv):
            for block, ref in zip(pair, ref_pair):
                np.testing.assert_allclose(block, ref, rtol=0,
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
        for pair, ref_pair in zip(_split(got, _layer_names(m, task_id)), hv):
            for block, ref in zip(pair, ref_pair):
                np.testing.assert_allclose(block, ref, rtol=0,
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


def test_row_buffers_outlive_add_task_head(monkeypatch):
    """The model has one row-buffer cache, kept across `add_task_head`: after
    a head is added, a forward of a row count the model has already run, by
    the head's pass, the new head's pass (same class count), a pass over
    another weight vector or the Hessian bind, allocates no `_Rows` set and
    gets the same one; a stack and another class count get sets of their
    own."""
    m = random_mlp(97, hidden=(5,), classes=(3,))
    x = random_batch(98, m, n=6).features
    rows, _ = m._pass(m.theta, 0).forward(x)
    m.add_task_head(3)
    m.add_task_head(2)
    new_rows, made = _Pass._new_rows, []
    monkeypatch.setattr(_Pass, "_new_rows",
                        lambda self, n: made.append(n) or new_rows(self, n))
    assert m._pass(m.theta, 0).forward(x)[0] is rows
    assert m._pass(m.theta, 1).forward(x)[0] is rows
    assert m._pass(np.zeros(m.theta.size), 0).forward(x)[0] is rows
    assert made == []
    others = [m._pass(m.theta, 2).forward(x)[0], m._pass(m.theta[None], 0).forward(x)[0]]
    m._hvp_operator(x, np.zeros(6, dtype=np.int64), 0)
    assert made == [6, 6] and all(o is not rows for o in others)
    assert m._pass(m.theta, 2).forward(x)[0] is others[0]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_bound_hvp_outlives_forwards_of_its_row_count(activation, hidden):
    """The Hessian bind runs the model's pass into the shared row buffers,
    which the next forward of as many rows overwrites: between an
    operator's applies, `loss_gradient` and `logits` run forwards of the
    bound row count on every head, at other rows, and each product stays
    bitwise the one a fresh bind gives."""
    m = random_mlp(99, hidden=hidden, classes=(3, 3), activation=activation)
    batch = random_batch(100, m, n=7, task_id=0)
    rows = m._check_rows(batch.features, batch.labels, 0)
    rng = np.random.default_rng(101)
    directions = rng.normal(size=(3, m.theta.size))
    want = [m._hvp_operator(*rows, 0)(v).tobytes() for v in directions]
    op = m._hvp_operator(*rows, 0)
    for k, v in enumerate(directions):
        for task_id in (0, 1):
            other = random_batch(102 + 2 * k + task_id, m, n=7, task_id=task_id)
            m.loss_gradient(other)
            m.logits(other.features, task_id)
        assert op(v).tobytes() == want[k]


def _one_hot_adjoints(logp, labels):
    """The output adjoints `_Pass.output_adjoint` replaced: the gradient kernel's
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
    got_mean = _Pass.output_adjoint(np.exp(logp), labels, 1.0 / n, np.eye(5) * (1.0 / n))
    got_per_sample = _Pass.output_adjoint(np.exp(logp), labels, 1.0, np.eye(5))
    assert got_mean.tobytes() == mean.tobytes()
    assert got_per_sample.tobytes() == per_sample.tobytes()


@pytest.mark.parametrize("call,error", [
    (lambda m: m.add_task_head(0), "class_count must be an integer >= 1, got 0"),
    (lambda m: m.loss_gradient(Batch(np.zeros((2, 4)), np.array([0, 1, 2]), 0)),
     "labels of shape (3,) do not match 2 feature rows"),
], ids=["no-classes", "labels-misfit"])
def test_model_refuses_with_one_line(call, error):
    with pytest.raises(ValueError) as info:
        call(random_mlp(1))
    assert str(info.value) == error
