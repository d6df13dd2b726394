import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcl.autodiff import finite_diff_gradient
from flatcl.data import TaskStream, gen_rotated_gaussians
from flatcl.model import Batch, MultiHeadClassifier
from flatcl.optim import (FlatRegion, ImportanceMap, OptimizerConfig,
                          OptimizerState, RunState, TaskReport, VariantFlags, _epsilon,
                          accumulate_fisher, base_step, build_sparse_mask,
                          clamp_to_region, compute_perturbation, create_gradient,
                          find_fisher, random_importance, soft_penalty,
                          train_continual, train_multitask, train_task)
from flatcl.params import ParameterSet
from flatcl.probe import (ball_sharpness, create_decomposition_check, first_order_sharpness,
                          hvp, lanczos_lambda_max, model_objective, quadratic_objective)
from flatcl.replay import ReplayBuffer, replay_schedule

from conftest import random_batch, random_mlp


# -- perturbation -----------------------------------------------------------

def test_perturbation_zero_gradient_guard():
    eps = compute_perturbation(ParameterSet({"w": [1.0, 2.0]}),
                               ParameterSet({"w": [0.0, 0.0]}), 0.1)
    assert eps.epsilon_hat["w"].tolist() == [0.0, 0.0]


def test_perturbation_scalar_identity():
    eps = compute_perturbation(ParameterSet({"w": [1.0]}),
                               ParameterSet({"w": [1.0]}), 0.5)
    assert eps.epsilon_hat["w"].tolist() == [0.5]


def test_perturbation_derived_values():
    # w^2 g = [3, 16], ||w g||_2 = sqrt(9 + 64) = sqrt(73)
    eps = compute_perturbation(ParameterSet({"w": [1.0, 2.0]}),
                               ParameterSet({"w": [3.0, 4.0]}), 0.1).epsilon_hat
    np.testing.assert_allclose(eps["w"], [0.3 / np.sqrt(73), 1.6 / np.sqrt(73)],
                               rtol=1e-12)
    np.testing.assert_allclose(eps["w"], [0.035112, 0.187266], atol=1e-6)


def test_perturbation_global_normalizer_across_names():
    split = compute_perturbation(
        ParameterSet({"a": [1.0], "b": [2.0]}),
        ParameterSet({"a": [3.0], "b": [4.0]}), 0.1).epsilon_hat
    joint = compute_perturbation(
        ParameterSet({"w": [1.0, 2.0]}), ParameterSet({"w": [3.0, 4.0]}),
        0.1).epsilon_hat
    np.testing.assert_array_equal(np.r_[split["a"], split["b"]], joint["w"])


def test_perturbation_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        compute_perturbation(ParameterSet({"w": [np.nan]}),
                             ParameterSet({"w": [1.0]}), 0.1)


def _epsilon_reference(w, g, rho):
    """`_epsilon` with its former entry-by-entry finiteness check up front,
    then the refusal of a sum of squares that overflows when rho > 0."""
    if not (np.isfinite(w).all() and np.isfinite(g).all()):
        raise FloatingPointError("non-finite")
    wg = w * g
    denom_sq = float(wg @ wg)
    if not np.isfinite(denom_sq) and rho > 0:
        raise FloatingPointError("overflows")
    if denom_sq == 0.0 or rho == 0.0:
        return np.zeros_like(w)
    out = np.square(w)
    out *= rho / np.sqrt(denom_sq)
    out *= g
    return out


_INF, _NAN = np.inf, np.nan


@pytest.mark.parametrize("rho", [0.0, 0.3])
@pytest.mark.parametrize("w,g", [
    ([_NAN, 1.0], [1.0, 2.0]), ([1.0, 2.0], [3.0, _NAN]),
    ([_INF, 1.0], [1.0, 2.0]), ([1.0, -_INF], [1.0, 2.0]),
    ([1.0, 2.0], [_INF, 1.0]), ([1.0, 2.0], [1.0, -_INF]),
    ([_INF, 1.0], [0.0, 1.0]), ([0.0, 1.0], [-_INF, 1.0]),  # inf x 0 is NaN
    ([_NAN], [0.0]), ([_INF], [_INF]),
    ([1e200, 1.0], [1e200, 1.0]), ([1e155], [-1e155]),  # w g overflows
    ([1e100, 3.0], [1e100, 4.0]),  # (w g)^2 overflows
    ([1e-200, 2.0], [1e-200, 0.0]), ([0.0, 0.0], [1.0, 2.0]),
    ([0.5, -1.5, 2.0], [3.0, 0.25, -1.0]),
])
def test_epsilon_refuses_and_returns_what_the_entrywise_check_did(w, g, rho):
    """One finite sum of squares stands in for the per-entry test: the same
    inputs are refused.  Finite inputs whose sum of squares overflows are
    refused with an error that names the overflow when rho > 0 (they gave
    NaN or a silent zero) and still give zeros when rho is 0."""
    w, g = np.array(w), np.array(g)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = _epsilon_reference(w, g, rho)
        except FloatingPointError as exc:
            with pytest.raises(FloatingPointError, match=str(exc)):
                _epsilon(w, g, rho)
            with pytest.raises(FloatingPointError, match=str(exc)):
                compute_perturbation(ParameterSet({"w": w}), ParameterSet({"w": g}), rho)
            return
        assert _epsilon(w, g, rho).tobytes() == expected.tobytes()
        out = np.full(w.size, 7.0)
        assert _epsilon(w, g, rho, out=out) is out and out.tobytes() == expected.tobytes()


# -- create gradient --------------------------------------------------------

def test_create_rho_zero_is_plain_gradient_bitwise():
    model = random_mlp(21)
    batch = random_batch(22, model)
    _, plain = model.loss_gradient(batch)
    created, _ = create_gradient(model, batch, 0.0)
    for n in plain:
        assert np.array_equal(created[n], plain[n])


def test_create_gradient_matches_copy_model_oracle():
    model = random_mlp(23, input_dim=3, hidden=(6,), classes=(3,))
    batch = random_batch(24, model, n=5)
    before = model.parameters().copy()
    created, create_loss = create_gradient(model, batch, rho=0.2)
    after = model.parameters()
    for n in before:  # weights restored exactly
        assert np.array_equal(before[n], after[n])

    # independently build a copy at w + eps and take its plain gradient
    _, g0 = model.loss_gradient(batch)
    eps = compute_perturbation(model.parameters(), g0, 0.2).epsilon_hat
    twin = model.clone()
    tp = twin.parameters()
    for n in tp:
        np.copyto(tp[n], before[n] + eps[n])
    twin_loss, twin_grads = twin.loss_gradient(batch)
    assert abs(create_loss - twin_loss) <= 1e-12
    for n in created:
        np.testing.assert_allclose(created[n], twin_grads[n], rtol=1e-12, atol=1e-15)


def test_create_gradient_respects_perturb_subset():
    """With the constrained prefix as `perturb_names`, eps is taken from the
    gradient over that prefix alone and head1 keeps its own weights: the
    result is the plain gradient of a twin moved by that eps."""
    model = random_mlp(25)
    model.add_task_head(3)
    batch = random_batch(26, model, n=4, task_id=1)
    names = model.constrained_names(1)
    created, loss = create_gradient(model, batch, 0.3, perturb_names=names)
    _, g0 = model.loss_gradient(batch)
    w = model.parameters().prefix(names)
    wg = w * g0.flat[:w.size]
    twin = model.clone()
    twin.theta[:w.size] += 0.3 * w * w * g0.flat[:w.size] / np.sqrt(wg @ wg)
    assert np.array_equal(twin.parameters()["head1"][:-1], model.parameters()["head1"][:-1])
    twin_loss, twin_grads = twin.loss_gradient(batch)
    assert abs(loss - twin_loss) <= 1e-12
    for n in created:
        np.testing.assert_allclose(created[n], twin_grads[n], rtol=0, atol=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.3])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_bound_training_pass_equals_one_shot_kernel_bitwise(hidden, activation, rho):
    """The create step train_task binds once per task, called for every row
    count from 1 to 16 (a full batch, the last partial one and replay's
    per-head batches) in a shuffled order and twice over, on both heads,
    while the weights move between calls, gives the bits of the one-shot
    `create_gradient` (at rho 0 `loss_gradient`) bound afresh for each
    call."""
    from flatcl.optim import _create_step
    model = MultiHeadClassifier(80, 4, list(hidden), [3, 2], activation=activation)
    rng = np.random.default_rng(81)
    names = model.constrained_names(1)
    step = _create_step(model, model.parameters().prefix(names).size, rho)
    out = np.zeros(model.theta.size)
    for n_rows in [int(r) for r in rng.permutation(np.arange(1, 17))] * 2:
        for task_id in (0, 1):
            batch = random_batch(n_rows * 2 + task_id, model, n=n_rows, task_id=task_id)
            out.fill(0.0)
            loss = step(*model._check_rows(batch.features, batch.labels, task_id), task_id,
                        out, model._plan(out, task_id))
            if rho:
                want, want_loss = create_gradient(model, batch, rho, names)
            else:
                want_loss, want = model.loss_gradient(batch)
            assert loss == want_loss and out.tobytes() == want.flat.tobytes()
            model.theta += rng.normal(scale=0.01, size=model.theta.size)


def test_create_gradient_never_writes_the_weights():
    """The create step scores w + eps in a scratch vector of its own: with
    the weights read-only it returns the bits a writable twin returns, on a
    single head with every weight perturbed and on the second of two heads
    with the constrained prefix perturbed."""
    one, two = random_mlp(27), random_mlp(27, classes=(3, 2))
    for model, task_id, names in ((one, 0, None), (two, 1, two.constrained_names(1))):
        batch = random_batch(28, model, n=6, task_id=task_id)
        twin = model.clone()
        want, want_loss = create_gradient(twin, batch, 0.3, names)
        model.theta.flags.writeable = False
        got, loss = create_gradient(model, batch, 0.3, names)
        assert loss == want_loss and got.flat.tobytes() == want.flat.tobytes()
        assert model.theta.tobytes() == twin.theta.tobytes()


# -- fisher -----------------------------------------------------------------

def test_find_fisher_nonnegative_and_zero_for_unseen_head():
    model = random_mlp(31)
    model.add_task_head(4)
    stream_feats = np.random.default_rng(1).normal(size=(20, model.input_dim))
    labels = np.random.default_rng(2).integers(0, 3, size=20)
    imp = find_fisher(model, stream_feats, labels, 0, 10, seed=5)
    assert imp.values.shape == model.theta.shape
    assert np.all(imp.values >= 0)
    assert np.all(imp.values[model.parameters().slice_of("head1")] == 0)


def test_find_fisher_mean_invariance_under_duplication():
    model = random_mlp(32)
    x = np.ones((1, model.input_dim))
    y = np.array([1])
    once = find_fisher(model, x, y, 0, 1, seed=0)
    twice = find_fisher(model, np.repeat(x, 2, axis=0), np.repeat(y, 2), 0, 2, seed=0)
    np.testing.assert_allclose(once.values, twice.values, rtol=1e-15)


def test_find_fisher_logistic_hand_value():
    model = MultiHeadClassifier(0, 1, [], [2])
    for n in model.parameters():
        model.parameters()[n][...] = 0.0
    imp = find_fisher(model, np.array([[1.0]]), np.array([1]), 0, 1, seed=0)
    params = model.parameters()
    head = params.unflatten(imp.values)["head0"]
    np.testing.assert_allclose(head[:-1].ravel(), [0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(head[-1], [0.25, 0.25], atol=1e-15)


def test_find_fisher_small_dataset_warns():
    model = random_mlp(33)
    with pytest.warns(UserWarning, match="full dataset"):
        find_fisher(model, np.ones((2, model.input_dim)), np.array([0, 1]), 0,
                    10, seed=0)


def test_accumulate_fisher():
    base = ImportanceMap(np.array([1.0]))
    fresh = ImportanceMap(np.array([0.5]))
    assert accumulate_fisher(base, fresh, 0.95).values.tolist() == [1.45]
    assert accumulate_fisher(base, fresh, 0.0).values.tolist() == [0.5]
    zero = ImportanceMap(np.array([0.0]))
    assert accumulate_fisher(base, zero, 1.0).values.tolist() == [1.0]
    first = accumulate_fisher(None, fresh, 0.95)
    assert first.values.tolist() == [0.5] and not np.shares_memory(first.values, fresh.values)


def test_accumulate_fisher_pads_new_heads_and_rejects_non_prefix():
    fresh = ImportanceMap(np.array([1.0, 1.0, 1.0, 3.0, 5.0]))  # enc, head0, head1
    old = ImportanceMap(np.array([1.0, 2.0, 4.0]))  # enc, head0
    merged = accumulate_fisher(old, fresh, 0.5)
    assert merged.values.tolist() == [1.5, 2.0, 3.0, 3.0, 5.0]
    longer = np.array([1.0, 2.0, 4.0, 1.0, 1.0, 1.0])  # enc, head0, head1, head2
    with pytest.raises(ValueError, match="longer"):
        accumulate_fisher(ImportanceMap(longer), fresh, 0.5)


def test_importance_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        ImportanceMap(np.array([-1.0]))


def test_importance_rejects_nan():
    """NaN passes a `< 0` test; a NaN importance would rank as the most
    important coordinate and freeze it under a sparse mask."""
    with pytest.raises(ValueError, match="negative"):
        ImportanceMap(np.array([0.5, np.nan]))


def test_importance_values_are_a_read_only_copy():
    """The map's check holds for its whole life: a write to its values is
    refused, and a write to the array it was built from reaches nothing."""
    source = np.array([0.5, 2.0])
    imp = ImportanceMap(source)
    with pytest.raises(ValueError, match="read-only"):
        imp.values[0] = -1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        imp.values = np.array([-1.0, 0.0])
    source[0] = -1.0
    assert imp.values.tolist() == [0.5, 2.0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0, 10), min_size=1, max_size=5),
       st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_accumulate_stays_nonnegative(values, gammas):
    acc = ImportanceMap(np.array(values))
    fresh = ImportanceMap(np.array(values))
    for g in gammas:
        acc = accumulate_fisher(acc, fresh, g)
        assert np.all(acc.values >= 0)


# -- soft penalty / clamp ---------------------------------------------------

def _region(anchor_vals, rho):
    anchor = ParameterSet({"w": anchor_vals})
    return FlatRegion(anchor, rho, ["w"])


def test_soft_penalty_zero_at_anchor():
    region = _region([1.0, 2.0], 0.5)
    imp = ImportanceMap(np.array([3.0, 4.0]))
    value, grads = soft_penalty(ParameterSet({"w": [1.0, 2.0]}), region, imp)
    assert value == 0.0
    assert np.all(grads["w"] == 0)


def test_soft_penalty_hand_value():
    region = _region([1.0], 0.5)
    imp = ImportanceMap(np.array([2.0]))
    value, grads = soft_penalty(ParameterSet({"w": [1.5]}), region, imp)
    assert abs(value - 0.5) <= 1e-15
    np.testing.assert_allclose(grads["w"], [2.0])


def test_soft_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    anchor = ParameterSet({"a": rng.normal(size=4), "b": rng.normal(size=(2, 3))})
    region = FlatRegion(anchor, 0.5, ["a", "b"])
    imp = ImportanceMap(np.concatenate([rng.uniform(0, 2, 4),
                                        rng.uniform(0, 2, (2, 3)).ravel()]))
    params = ParameterSet({"a": rng.normal(size=4), "b": rng.normal(size=(2, 3))})
    _, grads = soft_penalty(params, region, imp)
    fd = finite_diff_gradient(lambda p: soft_penalty(p, region, imp)[0],
                              params, h=1e-6)
    for n in grads:
        np.testing.assert_allclose(grads[n], fd[n], rtol=1e-8, atol=1e-10)


def test_soft_penalty_rejects_negative_importance():
    region = _region([1.0], 0.5)
    for bad in (-1.0, np.nan):
        imp = ImportanceMap(np.array([1.0]))
        with pytest.raises(ValueError, match="read-only"):
            imp.values[0] = bad  # a breach of the invariant after construction
        assert soft_penalty(ParameterSet({"w": [2.0]}), region, imp)[0] == 1.0


def test_dead_relu_unit_trains_inside_its_region():
    """A relu unit that never fires gets exactly zero Fisher importance.
    The next task's region accepts those zeros (importance must be >= 0,
    not > 0) and trains; the unit's weights stay where they were."""
    model = MultiHeadClassifier(5, 4, [6], [3], activation="relu")
    model.parameters()["enc0"][:-1, 2] = 0.0
    model.parameters()["enc0"][-1, 2] = -1.0  # pre-activation -1 on every row
    cfg = _config(variant=VariantFlags(create=True, find=True, clamp=True, l2=True))
    seen = []
    train_continual(model, _tiny_stream(60, n_tasks=2), cfg, seed=3, epochs=1,
                    after_task=lambda state, report: seen.append(state.importance.values))
    params = model.parameters()  # task 0's importance is a prefix of its layout
    dead = {name: seen[0][params.slice_of(name)].reshape(params[name].shape)
            for name in ("enc0", "head0")}
    assert np.all(dead["enc0"][:-1, 2] == 0.0) and dead["enc0"][-1, 2] == 0.0
    assert np.all(dead["head0"][:-1][2] == 0.0) and np.all(seen[1] >= 0)
    assert np.all(params["enc0"][:-1, 2] == 0.0) and params["enc0"][-1, 2] < 0.0


def test_clamp_inside_region_unchanged():
    params = ParameterSet({"w": [1.9, 2.1]})
    assert clamp_to_region(params, _region([2.0, 2.0], 0.5)) == 0
    assert params["w"].tolist() == [1.9, 2.1]


def test_clamp_positive_anchor():
    params = ParameterSet({"w": [3.4]})
    assert clamp_to_region(params, _region([2.0], 0.5)) == 1
    assert params["w"].tolist() == [3.0]


def test_clamp_negative_anchor_uses_abs():
    params = ParameterSet({"w": [-0.5]})
    assert clamp_to_region(params, _region([-2.0], 0.5)) == 1
    assert params["w"].tolist() == [-1.0]


def test_clamp_zero_anchor_pins_to_zero():
    params = ParameterSet({"w": [0.7]})
    clamp_to_region(params, _region([0.0], 0.5))
    assert params["w"].tolist() == [0.0]


def test_clamp_equals_np_clip_reference():
    """The clamp gives np.clip's bits and counts the coordinates it changes,
    a NaN one included, on boxes with zero anchors (of either sign), NaN
    weights and weights exactly on a bound, call after call through the
    region's buffers."""
    rng = np.random.default_rng(96)
    anchor = rng.normal(size=40)
    anchor[:6] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
    region = _region(anchor, 0.3)
    for trial in range(20):
        w = anchor + rng.normal(scale=0.4, size=40)
        w[rng.integers(0, 40, size=3)] = np.nan
        w[:6] = [0.7, -0.7, -0.0, 0.0, np.nan, 0.0]
        w[6], w[7] = region.lo[6], region.hi[7]
        want = np.clip(w, region.lo, region.hi)
        params = ParameterSet({"w": w.copy()})
        count = clamp_to_region(params, region)
        assert params["w"].tobytes() == want.tobytes()
        assert count == int(np.count_nonzero(want != w))
        assert count > 0 and np.isnan(params["w"]).any()


def test_flat_region_requires_prefix_names():
    model = random_mlp(70)
    model.add_task_head(3)
    anchor = model.parameters().copy()
    region = FlatRegion(anchor, 0.5, model.constrained_names(1))
    assert region.lo.size == anchor.total_size() - model.parameters()["head1"][:-1].size - 3
    for names in (["head0"], ["enc0", "head1"], ["head1"]):
        with pytest.raises(ValueError, match="prefix"):
            FlatRegion(anchor, 0.5, names)


# -- base step --------------------------------------------------------------

def test_sgd_step():
    cfg = OptimizerConfig(learning_rate=0.1, base_optimizer="sgd", weight_decay=0.0)
    params = ParameterSet({"w": [1.0]})
    state = OptimizerState(params)
    base_step(state, params, ParameterSet({"w": [2.0]}), cfg)
    assert abs(params["w"][0] - 0.8) <= 1e-15


def test_zero_grads_zero_decay_unchanged():
    cfg = OptimizerConfig(learning_rate=0.1, weight_decay=0.0)
    params = ParameterSet({"w": [1.0, -2.0]})
    state = OptimizerState(params)
    base_step(state, params, params.zeros_like(), cfg)
    assert params["w"].tolist() == [1.0, -2.0]


def test_adam_first_step_direction():
    cfg = OptimizerConfig(learning_rate=0.01, weight_decay=0.0)
    params = ParameterSet({"w": np.zeros(3)})
    state = OptimizerState(params)
    base_step(state, params, ParameterSet({"w": np.ones(3)}), cfg)
    # bias-corrected moments are both 1 at step 1: update = -lr / (1 + eps)
    np.testing.assert_allclose(params["w"], -0.01 / (1 + 1e-8), rtol=1e-12)


def test_base_step_rejects_nonfinite():
    cfg = OptimizerConfig()
    params = ParameterSet({"w": [1.0]})
    state = OptimizerState(params)
    with pytest.raises(FloatingPointError):
        base_step(state, params, ParameterSet({"w": [np.inf]}), cfg)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_step_equals_the_per_vector_form_bitwise(weight_decay):
    """`base_step` updates both moments as rows of one array; each entry
    takes the per-vector form's operations in its order, so the weights and
    moments match it bit for bit, zero gradient coordinates included."""
    cfg = OptimizerConfig(learning_rate=0.01, weight_decay=weight_decay)
    rng = np.random.default_rng(41)
    w0 = rng.normal(size=23)
    params = ParameterSet({"a": w0[:20].reshape(4, 5), "b": w0[20:]})
    state = OptimizerState(params)
    w, m, v = w0.copy(), np.zeros(23), np.zeros(23)
    b1, b2, lr = 0.9, 0.999, cfg.learning_rate
    for t in range(1, 8):
        g = rng.normal(size=23) * 10.0 ** rng.integers(-6, 3, size=23)
        g[rng.random(23) < 0.3] = 0.0
        base_step(state, params, params.unflatten(g), cfg)
        m *= b1
        m += g * (1 - b1)
        v *= b2
        v += (g * (1 - b2)) * g
        m_hat = m / (1.0 - b1 ** t)
        denom = np.sqrt(v / (1.0 - b2 ** t))
        denom += 1e-8
        m_hat *= lr
        w -= m_hat / denom
        if weight_decay:
            w -= w * (lr * weight_decay)
        assert [a.tobytes() for a in (params.flat, state.m, state.v)] == [
            a.tobytes() for a in (w, m, v)]
    assert state.t == 7


@pytest.mark.parametrize("base_optimizer", ["sgd", "adam_decoupled"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_base_step_refusal_moves_no_state(bad, base_optimizer):
    cfg = OptimizerConfig(base_optimizer=base_optimizer)
    params = ParameterSet({"w": [1.0, -2.0, 0.5]})
    state = OptimizerState(params)
    base_step(state, params, ParameterSet({"w": [0.1, -0.2, 0.3]}), cfg)
    before = [a.tobytes() for a in (state.m, state.v, params.flat)]
    with pytest.raises(FloatingPointError):
        base_step(state, params, ParameterSet({"w": [0.1, bad, 0.3]}), cfg)
    assert state.t == 1
    assert [a.tobytes() for a in (state.m, state.v, params.flat)] == before


@pytest.mark.parametrize("base_optimizer", ["sgd", "adam_decoupled"])
def test_base_step_takes_finite_gradient_whose_square_overflows(base_optimizer):
    """g @ g overflows for g = 1e200, yet every entry is finite: the step
    runs, as it did when each entry was tested on its own."""
    cfg = OptimizerConfig(learning_rate=0.1, weight_decay=0.0, base_optimizer=base_optimizer)
    params = ParameterSet({"w": [1.0, -2.0]})
    state = OptimizerState(params)
    with np.errstate(over="ignore", invalid="ignore"):
        base_step(state, params, ParameterSet({"w": [1e200, 1.0]}), cfg)
    assert state.t == 1
    if base_optimizer == "sgd":
        assert params.flat.tobytes() == np.array([1.0 - 1e200 * 0.1, -2.0 - 1.0 * 0.1]).tobytes()
    else:  # v overflows to inf, so the first coordinate's update is 0
        assert params.flat[0] == 1.0 and params.flat[1] < -2.0


@pytest.mark.parametrize("call", [
    lambda: base_step(OptimizerState(ParameterSet({"w": [1.0, -2.0]})),
                      ParameterSet({"w": [1.0, -2.0]}), ParameterSet({"w": [1e200, 1.0]}),
                      OptimizerConfig(base_optimizer="sgd")),
    lambda: hvp(quadratic_objective(np.diag([1e200, 1.0]), [0.0, 0.0]),
                ParameterSet({"w": [1.0, 1.0]})),
    lambda: compute_perturbation(ParameterSet({"w": [1e200, -3e180]}),
                                 ParameterSet({"w": [1.0, 2.0]}), 0.0),
], ids=["base_step", "hvp", "compute_perturbation"])
def test_finite_vector_whose_squares_overflow_warns_nothing(call):
    """The one finiteness test, `all_finite`, accepts finite entries near
    1e200 without the overflow RuntimeWarning a sum of squares by `@` prints."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


def test_optimizer_config_refuses_out_of_range_settings():
    # inf passes `>= 0`, and an int too large for a float is inf in float ops
    for key, value in (("learning_rate", float("nan")), ("weight_decay", -0.1),
                       ("lam", -1.0), ("rho", -0.5), ("gamma", 1.5),
                       ("sparse_update_ratio", 0.0), ("batch_size", "8"),
                       ("learning_rate", float("inf")), ("weight_decay", float("inf")),
                       ("lam", float("inf")), ("rho", float("inf")), ("lam", 10 ** 400),
                       ("learning_rate", 0.0), ("gamma", math.nextafter(1.0, 2.0))):
        with pytest.raises(ValueError, match=f"optimizer {key} must be") as info:
            OptimizerConfig(**{key: value})
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("lr,wd", [(1e6, 1e6), (100, 0.01), (1.0, 1.0), (0.5, 2.0),
                                   (1e308, 1e308)])
def test_optimizer_config_refuses_decay_that_flips_or_zeroes_the_weights(lr, wd):
    """Decoupled decay scales the weights by 1 - lr * wd each step; a
    product of 1 or more is refused on one line naming both keys."""
    with pytest.raises(ValueError) as info:
        OptimizerConfig(learning_rate=lr, weight_decay=wd)
    assert str(info.value) == ("optimizer learning_rate * weight_decay must be < 1, "
                               f"got {lr!r} * {wd!r}")


def test_optimizer_config_accepts_decay_below_one_and_no_decay():
    for lr, wd in ((0.99, 1.0), (1e308, 0.0), (1.0, math.nextafter(1.0, 0.0))):
        config = OptimizerConfig(learning_rate=lr, weight_decay=wd)
        assert (config.learning_rate, config.weight_decay) == (lr, wd)


def _create_gradient_at_huge_rho():
    model = random_mlp(3)
    return create_gradient(model, random_batch(4, model), 1e308)


@pytest.mark.parametrize("call,kind,error", [
    (lambda: OptimizerConfig(base_optimizer="adam"), ValueError,
     "unknown base_optimizer 'adam'"),
    (_create_gradient_at_huge_rho, FloatingPointError,
     "non-finite loss at perturbed point (task 0)"),
    (lambda: find_fisher(random_mlp(3), np.zeros((4, 4)), [0, 1, 2, 0], 0, 0, 1),
     ValueError, "n_samples must be an integer >= 1, got 0"),
    (lambda: find_fisher(random_mlp(3), np.zeros((4, 4)), [0, 1, 2, 0], 0, 2, -3),
     ValueError, "seed must be an integer >= 0, got -3"),
    (lambda: find_fisher(random_mlp(3), np.zeros((4, 4)), [0, 1, 2, 0], 0, 2, [1, 2, True]),
     ValueError, "seed must be an integer >= 0, got True"),
    (lambda: build_sparse_mask(ImportanceMap(np.ones(3)), 0.0, [slice(0, 3)]), ValueError,
     "ratio must be a number in (0, 1], got 0.0"),
], ids=["base-optimizer", "create-step-overflow", "no-fisher-samples", "negative-fisher-seed",
        "bool-in-derived-fisher-seed", "zero-mask-ratio"])
def test_optim_refuses_with_one_line(call, kind, error):
    """The create step at rho 1e308 moves the weights to where the loss is
    not finite; it names the task rather than return that loss."""
    with np.errstate(all="ignore"), pytest.raises(kind) as info:
        call()
    assert str(info.value) == error


def test_optimizer_config_accepts_range_ends():
    """The closed ends of the ranges: a zero penalty, no or full importance
    decay, and storing every row."""
    for key, value in (("lam", 0.0), ("gamma", 0.0), ("gamma", 1.0), ("store_ratio", 1.0)):
        assert getattr(OptimizerConfig(**{key: value}), key) == value


@pytest.mark.parametrize("key", ["batch_size", "fisher_sample_count",
                                 "validate_every_steps", "replay_every", "lam", "rho"])
def test_optimizer_config_refuses_bool(key):
    """bool is an int subclass, but a JSON true is not the number 1."""
    with pytest.raises(ValueError, match=f"^optimizer {key} must be .*, got True$"):
        OptimizerConfig(**{key: True})


def _quad():
    return quadratic_objective([[1.0]], [1.0])


_NAN, _INF = float("nan"), float("inf")
# Per rule a routed argument takes: its phrase, and the values it refuses
# among True, 2.5, np.int64(2), 0, -1, NaN and inf.
_RHO = ("a finite number >= 0", (True, np.int64(2), -1, _NAN, _INF))
_COUNT = ("an integer >= 1", (True, 2.5, np.int64(2), 0, -1, _NAN, _INF))
_FRACTION = ("a number in (0, 1]", (True, 2.5, np.int64(2), 0, -1, _NAN, _INF))
_POSITIVE = ("a finite number > 0", (True, np.int64(2), 0, -1, _NAN, _INF))
# Each library argument the rule table checks: the name it is refused
# under, its rule, and a call passing a value as it, given a model and a
# batch for it.
LIBRARY_ARGUMENTS = {
    "FlatRegion-rho": ("rho", _RHO, lambda m, b, v: FlatRegion(m.parameters().copy(), v,
                                                              ["enc0"])),
    "compute_perturbation-rho": ("rho", _RHO, lambda m, b, v: compute_perturbation(
        m.parameters(), m.parameters().copy(), v)),
    "create_gradient-rho": ("rho", _RHO, lambda m, b, v: create_gradient(m, b, v)),
    "ball_sharpness-rho": ("rho", _RHO, lambda m, b, v: ball_sharpness(_quad(), v, 4, 0)),
    "first_order_sharpness-rho": ("rho", _RHO,
                                  lambda m, b, v: first_order_sharpness(_quad(), v)),
    "create_decomposition_check-rho": ("rho", _RHO,
                                       lambda m, b, v: create_decomposition_check(_quad(), v)),
    "find_fisher-n_samples": ("n_samples", _COUNT, lambda m, b, v: find_fisher(
        m, b.features, b.labels, 0, v, 1)),
    "ball_sharpness-n_directions": ("n_directions", _COUNT,
                                    lambda m, b, v: ball_sharpness(_quad(), 0.1, v, 0)),
    "lanczos_lambda_max-iters": ("iters", _COUNT, lambda m, b, v: lanczos_lambda_max(_quad(), v)),
    "add_task_head-class_count": ("class_count", _COUNT, lambda m, b, v: m.add_task_head(v)),
    "MultiHeadClassifier-class_count": ("class_count", _COUNT,
                                        lambda m, b, v: MultiHeadClassifier(0, 4, [6], [3, v])),
    "build_sparse_mask-ratio": ("ratio", _FRACTION, lambda m, b, v: build_sparse_mask(
        ImportanceMap(np.ones(3)), v, [slice(0, 3)])),
    "finite_diff_gradient-h": ("h", _POSITIVE, lambda m, b, v: finite_diff_gradient(
        lambda p: 0.0, m.parameters(), v)),
}


@pytest.mark.parametrize("site,value", [(site, v) for site, (_, (_, bad), _) in
                                        LIBRARY_ARGUMENTS.items() for v in bad],
                         ids=lambda x: x if isinstance(x, str) else repr(x))
def test_library_arguments_refused_through_the_rule_table(site, value):
    """Every range-checked library argument is refused with the table's one
    text, naming the argument, before any state moves: a refused
    `add_task_head` leaves the heads and the weights as they were, and the
    model still predicts and takes a head."""
    name, (phrase, _), call = LIBRARY_ARGUMENTS[site]
    model = random_mlp(3)
    batch = random_batch(4, model)
    heads, theta = list(model.head_classes), model.theta.copy()
    logits = model.logits(batch.features, 0)
    with pytest.raises(ValueError) as info:
        call(model, batch, value)
    assert str(info.value) == f"{name} must be {phrase}, got {value!r}"
    assert model.head_classes == heads and model.theta.tobytes() == theta.tobytes()
    assert model.logits(batch.features, 0).tobytes() == logits.tobytes()
    assert model.add_task_head(2) == 1
    assert model.logits(batch.features, 1).shape == (len(batch), 2)


# -- sparse mask ------------------------------------------------------------

def test_sparse_mask_full_ratio_all_ones():
    imp = ImportanceMap(np.array([5.0, 1.0, 3.0, 2.0]))
    mask = build_sparse_mask(imp, 1.0, [slice(0, 4)])
    assert mask.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_sparse_mask_half_ratio_keeps_flattest():
    imp = ImportanceMap(np.array([5.0, 1.0, 3.0, 2.0]))
    mask = build_sparse_mask(imp, 0.5, [slice(0, 4)])
    assert mask.tolist() == [0.0, 1.0, 0.0, 1.0]


def test_sparse_mask_minimum_one_per_layer():
    imp = ImportanceMap(np.array([5.0, 1.0, 3.0]))
    mask = build_sparse_mask(imp, 0.01, [slice(0, 3)])
    assert mask.sum() == 1.0
    assert mask[1] == 1.0


def test_sparse_mask_tie_break_by_index():
    imp = ImportanceMap(np.array([2.0, 2.0, 2.0, 2.0]))
    mask = build_sparse_mask(imp, 0.5, [slice(0, 4)])
    assert mask.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_sparse_mask_empty_layer_rejected():
    imp = ImportanceMap(np.array([1.0]))
    with pytest.raises(ValueError, match="empty layer"):
        build_sparse_mask(imp, 0.5, [slice(0, 0)])


def _layer_slices(params, names):
    """The layers `names` as slices of `params.flat`, one per name."""
    return [params.slice_of(n) for n in names]


def _plan_slices(model, task_id):
    """Where each block of head `task_id`'s plan over `theta` lies in it."""
    base = model.theta.__array_interface__["data"][0]
    return [slice(start := (wb.__array_interface__["data"][0] - base) // 8, start + wb.size)
            for wb in model._plan(model.theta, task_id)]


def _sparse_mask_by_names(values: ParameterSet, ratio, layer_partition):
    """build_sparse_mask as it was over a partition of a set's names into
    layers: the reference the slice form is held to, bit for bit."""
    mask = values.zeros_like()
    for group in layer_partition:
        layer_values = np.concatenate([values[n].ravel() for n in group])
        size = layer_values.size
        k = size if ratio == 1.0 else max(1, int(np.floor(size * ratio)))
        layer = np.zeros(size)
        layer[np.argsort(layer_values, kind="stable")[:k]] = 1.0
        offset = 0
        for n in group:
            size = mask[n].size
            mask[n][...] = layer[offset:offset + size].reshape(mask[n].shape)
            offset += size
    return mask


@pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_sparse_mask_over_plan_slices_equals_name_partition_bitwise(activation, ratio):
    """On models with 0-2 hidden layers and 1-3 heads, the mask over the
    layer plan's slices, as train_task builds them for each task's
    constrained layers and for every layer, has the bits of the former mask
    over the (W, b) name pairs, with distinct, tied and all-equal values."""
    rng = np.random.default_rng(94)
    for hidden in [(), (5,), (4, 3)]:
        for heads in [(3,), (3, 2), (2, 4, 3)]:
            model = MultiHeadClassifier(95, 4, list(hidden), list(heads),
                                        activation=activation)
            params = model.parameters()
            plans = [_plan_slices(model, t) for t in range(len(heads))]
            n = model.theta.size
            for values in (rng.uniform(0.0, 1.0, n), rng.integers(0, 3, n) * 0.5,
                           np.full(n, 0.25)):
                imp = ImportanceMap(values)
                names = params.names()
                cases = [(plans[t][:-1] + [p[-1] for p in plans[:t]],
                          model.constrained_names(t)) for t in range(len(heads))]
                cases.append((plans[0][:-1] + [p[-1] for p in plans], names))
                for slices, partition in cases:
                    assert slices == _layer_slices(params, partition)
                    got = build_sparse_mask(imp, ratio, slices)
                    ref = _sparse_mask_by_names(params.unflatten(values), ratio,
                                                [[n] for n in partition])
                    assert got.tobytes() == ref.flat.tobytes()


# -- training loops ---------------------------------------------------------

def _tiny_stream(seed, n_tasks=3):
    return gen_rotated_gaussians(seed, n_tasks, 3, 4, 40, 3.0, 1.5)


def _config(**kw):
    base = dict(learning_rate=0.03, batch_size=8, validate_every_steps=10,
                lam=2.0, rho=0.65, gamma=0.95, store_ratio=0.05,
                fisher_sample_count=32)
    base.update(kw)
    return OptimizerConfig(**base)


def test_variant_all_off_single_task_matches_plain_sgd_trace():
    stream = _tiny_stream(50, n_tasks=1)
    cfg = _config(base_optimizer="sgd", weight_decay=0.0,
                  variant=VariantFlags())
    model = MultiHeadClassifier(5, 4, [6], [3])
    twin = model.clone()
    res = train_continual(model, stream, cfg, seed=9, epochs=1)

    # replicate manually: identical rng stream, plain SGD, best-snapshot
    rng = np.random.Generator(np.random.PCG64([9, 1]))
    feats, labels = stream[0].train_xy()
    params = twin.parameters()
    vx, vy = stream[0].val_xy()
    best, best_params = -1.0, None
    n, step = len(labels), 0
    perm = rng.permutation(n)
    for start in range(0, n, cfg.batch_size):
        idx = perm[start:start + cfg.batch_size]
        _, g = twin.loss_gradient(Batch(feats[idx], labels[idx], 0))
        for nm in params:
            params[nm][...] -= cfg.learning_rate * g[nm]
        step += 1
        if step % cfg.validate_every_steps == 0:
            acc = twin.accuracy(vx, vy, 0)
            if acc > best:
                best, best_params = acc, params.copy()
    acc = twin.accuracy(vx, vy, 0)
    if acc > best:
        best, best_params = acc, params.copy()
    twin.set_parameters(best_params)
    for nm in params:
        assert np.array_equal(model.parameters()[nm], twin.parameters()[nm])


def test_multitask_matches_hand_written_joint_schedule():
    """train_multitask replayed by hand: each epoch one permutation per task
    in task order, then the tasks' minibatches round-robin (the shorter task
    drops out when it runs out), plain SGD, and the best pooled-validation
    snapshot restored at the end."""
    _check_joint_schedule(short_rows=45)


def test_multitask_schedule_short_task_of_whole_batches():
    """The shorter task holds a multiple of the batch size: it drops out
    exactly when its rows run out, with no empty minibatch after its last."""
    _check_joint_schedule(short_rows=40)


def _check_joint_schedule(short_rows):
    stream = _tiny_stream(58, n_tasks=2)
    short = stream[1]
    train = short.splits["train"]
    stream = TaskStream([stream[0], dataclasses.replace(short, splits={
        "train": train[:short_rows], "val": short.splits["val"],
        "test": np.concatenate([short.splits["test"], train[short_rows:]])})])
    cfg = _config(base_optimizer="sgd", weight_decay=0.0, learning_rate=0.3)
    model = MultiHeadClassifier(13, 4, [6], [3, 3])
    twin = model.clone()
    reference = train_multitask(model, stream, cfg, seed=4, epochs=3)

    rng = np.random.Generator(np.random.PCG64([4, 9]))
    data = [task.train_xy() for task in stream]
    val = [task.val_xy() for task in stream]
    params = twin.parameters()
    best, best_step, best_params, step = -1.0, -1, None, 0

    def validate():
        nonlocal best, best_step, best_params
        correct = sum(int(np.sum(twin.predict(x, t) == y)) for t, (x, y) in enumerate(val))
        acc = correct / sum(len(y) for _, y in val)
        if acc > best:
            best, best_step, best_params = acc, step, params.copy()

    for _ in range(3):
        chunks = []
        for _, y in data:
            perm = rng.permutation(len(y))
            chunks.append([perm[s:s + cfg.batch_size]
                           for s in range(0, len(y), cfg.batch_size)])
        assert [len(c) for c in chunks] == [9, -(-short_rows // cfg.batch_size)]
        for i in range(9):
            for t, (x, y) in enumerate(data):
                if i >= len(chunks[t]):
                    continue
                idx = chunks[t][i]
                _, g = twin.loss_gradient(Batch(x[idx], y[idx], t))
                for nm in params:
                    params[nm][...] -= cfg.learning_rate * g[nm]
                step += 1
                if step % cfg.validate_every_steps == 0:
                    validate()
    validate()
    assert 0 < best_step < step  # the restored snapshot is not the last step
    twin.set_parameters(best_params)
    assert np.array_equal(model.theta, twin.theta)
    assert reference.tolist() == [twin.accuracy(*task.test_xy(), t)
                                  for t, task in enumerate(stream)]


def test_clamp_invariant_throughout_run():
    stream = _tiny_stream(51, n_tasks=2)
    cfg = _config(variant=VariantFlags(create=True, find=True, clamp=True,
                                       l2=True, replay=True))
    model = MultiHeadClassifier(6, 4, [6], [3])
    violations = []

    def monitor(m, region):
        if region is None:
            return
        params = m.parameters()
        for nm in region.constrained_names:
            anchor = region.anchor[nm]
            half = region.rho * np.abs(anchor)
            over = np.abs(params[nm] - anchor) - half
            if np.any(over > 1e-12):
                violations.append(nm)

    train_continual(model, stream, cfg, seed=3, epochs=2, step_hook=monitor)
    assert violations == []


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 16), st.floats(0.0, 1.0),
       st.sampled_from(["adam_decoupled", "sgd"]))
def test_clamp_box_holds_after_every_train_task_step(seed, rho, base_optimizer):
    """Every constrained coordinate lies in anchor +/- rho |anchor| after
    every step, checked from a step hook against the anchor itself."""
    stream = _tiny_stream(seed % 7, n_tasks=2)
    model = MultiHeadClassifier(seed, 4, [6], [3, 3])
    region = FlatRegion(model.parameters().copy(), rho, model.constrained_names(1))
    cfg = _config(rho=rho, base_optimizer=base_optimizer,
                  variant=VariantFlags(create=True, clamp=True))
    inside = []

    def hook(m, reg):
        anchor = reg.anchor.prefix(reg.constrained_names)
        half = reg.rho * np.abs(anchor)
        w = m.parameters().prefix(reg.constrained_names)
        inside.append(bool(np.all((w >= anchor - half) & (w <= anchor + half))))

    report = train_task(model, [stream[1]], region, None, None, cfg,
                        np.random.Generator(np.random.PCG64(seed)), 1,
                        [(*stream[1].val_xy(), 1)], step_hook=hook)
    assert inside and all(inside)
    assert len(inside) == len(report.clamp_counts)


@pytest.mark.parametrize("flags", [VariantFlags(),
                                   VariantFlags(create=True, clamp=True, replay=True)])
def test_sparse_mask_applies_without_l2(flags):
    """Without the l2 penalty the accumulated Fisher still builds the sparse
    mask: under Adam with no weight decay, the constrained coordinates
    outside the mask keep their anchor values bitwise through task 1."""
    stream = _tiny_stream(57, n_tasks=2)
    cfg = _config(variant=flags, sparse_update_ratio=0.5, weight_decay=0.0)
    model = MultiHeadClassifier(12, 4, [6], [3])
    accumulated, frozen = {}, []

    def keep(state, report):
        accumulated[report.task_id] = state.importance

    def hook(m, region):
        if region is None:
            return
        names = region.constrained_names
        layers = _layer_slices(m.parameters(), names)
        out = build_sparse_mask(accumulated[0], 0.5, layers)[:layers[-1].stop] == 0.0
        assert 0 < np.count_nonzero(out) < out.size
        w, anchor = m.parameters().prefix(names), region.anchor.prefix(names)
        frozen.append(w[out].tobytes() == anchor[out].tobytes())

    train_continual(model, stream, cfg, seed=11, epochs=1, after_task=keep,
                    step_hook=hook)
    assert frozen and all(frozen)


def test_lambda_zero_matches_find_disabled_trace():
    stream = _tiny_stream(52, n_tasks=2)
    flags_on = VariantFlags(create=True, find=True, clamp=True, l2=True)
    flags_off = VariantFlags(create=True, find=True, clamp=True, l2=False)
    m1 = MultiHeadClassifier(7, 4, [6], [3])
    m2 = m1.clone()
    r1 = train_continual(m1, stream, _config(lam=0.0, variant=flags_on),
                         seed=4, epochs=1)
    r2 = train_continual(m2, stream, _config(lam=0.0, variant=flags_off),
                         seed=4, epochs=1)
    assert np.array_equal(r1.matrix_rows, r2.matrix_rows,
                          equal_nan=True)
    for nm in m1.parameters():
        assert np.array_equal(m1.parameters()[nm], m2.parameters()[nm])


@pytest.mark.parametrize("create,clamp,replay", list(itertools.product((False, True), repeat=3)))
def test_find_without_l2_changes_no_byte(create, clamp, replay):
    """With sparse_update_ratio 1 and `l2` off nothing reads the
    importance: `find` acts only through the penalty and the sparse mask,
    so turning it on changes no byte of the accuracy matrix or of the final
    weights, for every setting of `create`, `clamp` and `replay`."""
    stream = _tiny_stream(58, n_tasks=3)
    runs = []
    for find in (False, True):
        flags = VariantFlags(create=create, find=find, clamp=clamp, replay=replay)
        model = MultiHeadClassifier(14, 4, [6], [3])
        state = train_continual(model, stream, _config(variant=flags), seed=6, epochs=1)
        assert (state.importance is not None) == find  # the Fisher pass ran
        runs.append((state.matrix_rows.tobytes(), model.theta.tobytes()))
    assert runs[0] == runs[1]


def test_best_snapshot_at_least_final_accuracy():
    stream = _tiny_stream(53, n_tasks=2)
    cfg = _config(variant=VariantFlags())
    model = MultiHeadClassifier(8, 4, [6], [3])
    reports = []
    train_continual(model, stream, cfg, seed=5, epochs=2,
                    after_task=lambda state, report: reports.append(report))
    report = reports[-1]
    # returned model achieves the best recorded validation accuracy
    assert report.best_accuracy == max(a for _, a in report.validation_curve)


def test_single_task_matrix_shape():
    stream = _tiny_stream(54, n_tasks=1)
    model = MultiHeadClassifier(9, 4, [6], [3])
    reports = []
    res = train_continual(model, stream, _config(variant=VariantFlags()),
                          seed=6, epochs=1,
                          after_task=lambda state, report: reports.append(report))
    assert res.matrix_rows.shape == (1, 1)
    assert np.isfinite(res.matrix_rows[0, 0])
    assert all(c == 0 for c in reports[0].clamp_counts)


def test_continual_determinism_bitwise():
    cfg = _config(variant=VariantFlags(create=True, find=True, clamp=True,
                                       l2=True, replay=True))
    mats = []
    for _ in range(2):
        stream = _tiny_stream(55, n_tasks=3)
        model = MultiHeadClassifier(10, 4, [6], [3])
        res = train_continual(model, stream, cfg, seed=7, epochs=2)
        mats.append(res.matrix_rows)
    assert np.array_equal(mats[0], mats[1], equal_nan=True)


def test_train_continual_refuses_a_state_of_another_model():
    """A state carries its model: training `model` from another model's
    state would move weights the state does not hold."""
    stream = _tiny_stream(55, n_tasks=2)
    model = MultiHeadClassifier(10, 4, [6], [3])
    before = model.theta.tobytes()
    with pytest.raises(ValueError) as info:
        train_continual(model, stream, _config(), seed=7, epochs=1,
                        state=RunState(model.clone()))
    assert str(info.value) == "state holds another model than the one to train"
    assert model.theta.tobytes() == before


def test_fisher_trace_identity_after_training():
    from flatcl.probe import fisher_trace_check
    stream = _tiny_stream(56, n_tasks=1)
    model = MultiHeadClassifier(11, 4, [6], [3])
    train_continual(model, stream, _config(variant=VariantFlags()), seed=8, epochs=1)
    feats, labels = stream[0].train_xy()
    _, _, gap = fisher_trace_check(model, feats[:16], labels[:16], 0)
    assert gap <= 1e-10


def test_random_importance_nonnegative_and_deterministic():
    model = random_mlp(60)
    a = random_importance(model, [1, 2, 3])
    b = random_importance(model, [1, 2, 3])
    assert a.values.shape == model.theta.shape
    assert np.all(a.values >= 0)
    assert np.array_equal(a.values, b.values)


# -- train_task against the public per-step functions ----------------------

def _reference_train_task(model, tasks, region, importance, replay_buffer, config,
                          rng, epochs, val_sets):
    """train_task written out step by step over the public functions: one
    Batch per minibatch, create_gradient or loss_gradient, lam * soft_penalty,
    the sparse mask from build_sparse_mask, base_step and clamp_to_region."""
    flags = config.variant
    task_id = tasks[-1].task_id
    params = model.parameters()
    state = OptimizerState(params)
    report = TaskReport(task_id=task_id)
    names = model.constrained_names(task_id)
    if region is not None:
        report.frozen_zero_anchor_coords = int(np.count_nonzero(
            region.anchor.prefix(region.constrained_names) == 0.0))
    mask = None
    if config.sparse_update_ratio < 1.0 and importance is not None and names:
        layers = _layer_slices(params, names)
        mask = build_sparse_mask(importance, config.sparse_update_ratio,
                                 layers)[:params.prefix(names).size]
    best_theta, step = None, 0

    def validate():
        nonlocal best_theta
        correct = sum(int(np.sum(model.predict(x, t) == y)) for x, y, t in val_sets)
        acc = correct / sum(len(y) for _, y, _ in val_sets)
        report.validation_curve.append((step, acc))
        if best_theta is None or acc > report.best_accuracy:
            report.best_step, report.best_accuracy = step, acc
            best_theta = model.theta.copy()

    def update(batches):
        nonlocal step
        total_weight = sum(len(b) for b in batches)
        summed, loss_val = None, 0.0
        for b in batches:
            if flags.create:
                g, loss = create_gradient(model, b, config.rho, names or None)
            else:
                loss, g = model.loss_gradient(b)
            w = len(b) / total_weight
            loss_val += w * loss
            summed = g.flat * w if summed is None else summed + g.flat * w
        if flags.l2 and region is not None and importance is not None:
            summed = summed + soft_penalty(params, region, importance)[1].flat * config.lam
        if mask is not None:
            summed[:mask.size] *= mask
        base_step(state, params, params.unflatten(summed), config)
        clamped = (clamp_to_region(params, region)
                   if flags.clamp and region is not None else 0)
        report.step_losses.append(loss_val)
        report.clamp_counts.append(clamped)
        step += 1
        if step % config.validate_every_steps == 0:
            validate()

    data = [(task.task_id, *task.train_xy()) for task in tasks]
    for _ in range(epochs):
        perms = [rng.permutation(len(y)) for _, _, y in data]
        for start in range(0, max(len(y) for _, _, y in data), config.batch_size):
            for (t, x, y), perm in zip(data, perms):
                idx = perm[start:start + config.batch_size]
                if idx.size:
                    update([Batch(x[idx], y[idx], t)])
                    if (flags.replay and len(replay_buffer)
                            and replay_schedule(step, config.replay_every)):
                        update(replay_buffer.sample_batches(config.batch_size, rng))
    validate()
    np.copyto(model.theta, best_theta)
    return report


def _two_task_setup(seed, activation, hidden):
    """A model with heads for tasks 0 and 1, a flat region and Fisher
    importance around its current weights, and a replay store of task 0."""
    stream = _tiny_stream(seed, n_tasks=2)
    model = MultiHeadClassifier(seed, 4, list(hidden), [3, 3], activation=activation)
    region = FlatRegion(model.parameters().copy(), 0.3, model.constrained_names(1))
    importance = find_fisher(model, *stream[0].train_xy(), 0, 32, seed)
    store = ReplayBuffer()
    store.add_task(*stream[0].train_xy(), 0, 0.2, seed)
    return stream, model, region, importance, store


@pytest.mark.parametrize("n_tasks", [1, 2])
@pytest.mark.parametrize("base_optimizer", ["sgd", "adam_decoupled"])
@pytest.mark.parametrize("activation,hidden", [("tanh", ()), ("relu", (6,)),
                                               ("tanh", (6, 5)), ("relu", (5, 4))])
def test_train_task_matches_public_step_functions(activation, hidden, base_optimizer,
                                                  n_tasks):
    """train_task runs its steps on checked rows with loop-owned buffers;
    its weights and report are bitwise those of the same loop written over
    the public per-step functions, with every other cf mechanism on (the
    l2 penalty, the clamp, replay and a sparse mask) and create on and off."""
    for create in (True, False):
        stream, model, region, importance, store = _two_task_setup(71, activation, hidden)
        cfg = _config(base_optimizer=base_optimizer, sparse_update_ratio=0.5,
                      replay_every=3, variant=VariantFlags(create=create, find=True,
                                                           clamp=True, l2=True, replay=True))
        tasks = [stream[0], stream[1]][-n_tasks:]
        val_sets = [(*task.val_xy(), task.task_id) for task in tasks]
        twin = model.clone()
        report = train_task(model, tasks, region, importance, store, cfg,
                            np.random.Generator(np.random.PCG64(5)), 2, val_sets)
        expected = _reference_train_task(twin, tasks, region, importance, store, cfg,
                                         np.random.Generator(np.random.PCG64(5)), 2,
                                         val_sets)
        assert model.theta.tobytes() == twin.theta.tobytes()
        assert dataclasses.asdict(report) == dataclasses.asdict(expected)
        batches = 2 * sum(-(-len(task.train_xy()[1]) // cfg.batch_size) for task in tasks)
        assert len(report.step_losses) > batches  # replay steps ran
        assert sum(report.clamp_counts) > 0


def test_train_task_matches_public_step_functions_on_two_head_replay():
    """A replay step over a store of two tasks draws one batch per head, the
    path of a step that weights each batch by its share of the rows."""
    stream, model, region, importance, store = _two_task_setup(73, "tanh", (6,))
    store.add_task(*stream[1].train_xy(), 1, 0.2, 73)
    cfg = _config(replay_every=2, variant=VariantFlags(create=True, clamp=True, l2=True,
                                                       replay=True))
    val_sets = [(*stream[1].val_xy(), 1)]
    twin = model.clone()
    draws = []

    def sample_batches(size, rng):
        batches = ReplayBuffer.sample_batches(store, size, rng)
        draws.append(len(batches))
        return batches

    store.sample_batches = sample_batches
    report = train_task(model, [stream[1]], region, importance, store, cfg,
                        np.random.Generator(np.random.PCG64(6)), 2, val_sets)
    del store.sample_batches
    expected = _reference_train_task(twin, [stream[1]], region, importance, store, cfg,
                                     np.random.Generator(np.random.PCG64(6)), 2, val_sets)
    assert 2 in draws
    assert model.theta.tobytes() == twin.theta.tobytes()
    assert dataclasses.asdict(report) == dataclasses.asdict(expected)


# -- input checks that run once per call, not once per step ----------------

class _Rows:
    """A task as train_task reads it: a task id and training rows."""

    def __init__(self, task_id, features, labels):
        self.task_id = task_id
        self._xy = (features, labels)

    def train_xy(self):
        return self._xy


def _bad_rows(model, task_id):
    """(name, features, labels) with one fault each: a label below 0, a label
    equal to the head's class count, and one feature column too many.  The
    bad label sits in the row that train_task's first epoch, drawn from
    PCG64(0), reaches last."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, model.input_dim))
    y = rng.integers(0, model.head_classes[task_id], size=40)
    last = np.random.Generator(np.random.PCG64(0)).permutation(40)[-1]
    low, high = y.copy(), y.copy()
    low[last], high[last] = -1, model.head_classes[task_id]
    return [("label -1", x, low), ("label == classes", x, high),
            ("wide features", np.hstack([x, x[:, :1]]), y)]


def _entry_points(model, x, y, task_id):
    batch = Batch(x, y, task_id)
    cfg = _config(variant=VariantFlags(create=True, replay=True))
    val = [(x[:, :model.input_dim], np.zeros(len(y), dtype=int), task_id)]
    return {
        "loss_gradient": lambda: model.loss_gradient(batch),
        "task_loss": lambda: model.task_loss(batch),
        "create_gradient": lambda: create_gradient(model, batch, 0.3),
        "find_fisher": lambda: find_fisher(model, x, y, task_id, 4, seed=0),
        "loss_hvp": lambda: hvp(model_objective(model, batch), model.parameters().copy()),
        "train_task": lambda: train_task(
            model, [_Rows(task_id, x, y)], None, None, None, cfg,
            np.random.Generator(np.random.PCG64(0)), 1, val),
    }


@pytest.mark.parametrize("fault", range(3))
@pytest.mark.parametrize("entry", ["loss_gradient", "task_loss", "create_gradient",
                                   "find_fisher", "loss_hvp", "train_task"])
def test_bad_rows_refused_by_every_entry_point(entry, fault):
    """A bad label or feature width raises ValueError before any weight
    moves, wherever the row enters; train_task checks all of a task's rows
    before its first step, so a bad row late in the task still leaves
    theta untouched."""
    model = random_mlp(80, classes=(3, 4))
    _, x, y = _bad_rows(model, 1)[fault]
    before = model.theta.tobytes()
    with pytest.raises(ValueError, match="labels|input_dim"):
        _entry_points(model, x, y, 1)[entry]()
    assert model.theta.tobytes() == before


@pytest.mark.parametrize("fault", ["label -1", "label == classes", "wide features",
                                   "task id"])
def test_bad_replay_row_refused_before_training(fault):
    """The replay store may come from a checkpoint, so train_task checks its
    rows against their heads before the first step."""
    stream, model, region, importance, store = _two_task_setup(72, "tanh", (6,))
    if fault == "task id":
        store.task_ids[-1] = 2
    elif fault == "wide features":
        store.features = np.hstack([store.features, store.features[:, :1]])
    else:
        store.labels[-1] = -1 if fault == "label -1" else model.head_classes[0]
    cfg = _config(variant=VariantFlags(create=True, l2=True, clamp=True, replay=True))
    before = model.theta.tobytes()
    with pytest.raises(ValueError, match="labels out of range|input_dim|no head for task 2"):
        train_task(model, [stream[1]], region, importance, store, cfg,
                   np.random.Generator(np.random.PCG64(0)), 1,
                   [(*stream[1].val_xy(), 1)])
    assert model.theta.tobytes() == before


@pytest.mark.filterwarnings("ignore:dataset has 0 samples")
@pytest.mark.parametrize("entry", ["loss_gradient", "task_loss", "create_gradient",
                                   "find_fisher", "loss_hvp", "train_task"])
def test_zero_rows_refused_by_every_entry_point_with_one_message(entry):
    """Rows are checked in one place, the model's `_check_rows`, which
    every labeled entry point runs; zero labeled rows get its one message."""
    model = random_mlp(83, classes=(3, 4))
    x, y = np.empty((0, model.input_dim)), np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^need at least one sample$"):
        _entry_points(model, x, y, 1)[entry]()


def test_public_gradients_never_share_a_buffer():
    """loss_gradient and create_gradient hand out fresh sets: none aliases
    model.theta, another call's result, or each other, so comparing two of
    them (as the rho = 0 identity does) compares two computations."""
    model = random_mlp(81, hidden=(5, 4), classes=(3, 3))
    batch = random_batch(82, model, n=6, task_id=1)
    flats = [model.theta]
    for _ in range(2):
        flats.append(model.loss_gradient(batch)[1].flat)
        flats.append(create_gradient(model, batch, 0.0)[0].flat)
        flats.append(create_gradient(model, batch, 0.3, model.constrained_names(1))[0].flat)
    for i, a in enumerate(flats):
        for b in flats[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(flats[1], flats[2]) and np.array_equal(flats[1], flats[4])
