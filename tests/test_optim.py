import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcl.autodiff import finite_diff_gradient
from flatcl.data import TaskStream, gen_rotated_gaussians
from flatcl.model import Batch, MultiHeadClassifier
from flatcl.optim import (FlatRegion, ImportanceMap, OptimizerConfig,
                          OptimizerState, VariantFlags, accumulate_fisher,
                          base_step, build_sparse_mask, clamp_to_region,
                          compute_perturbation, create_gradient, find_fisher,
                          random_importance, soft_penalty, train_continual,
                          train_multitask, train_task)
from flatcl.params import ParameterSet

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
    model = random_mlp(25)
    model.add_task_head(3)
    batch = random_batch(26, model, n=4, task_id=1)
    names = model.constrained_names(1)
    created, _ = create_gradient(model, batch, 0.3, perturb_names=names)
    # current head must receive the gradient evaluated with its own weights
    # unperturbed; just check the call runs and weights restore
    assert "head1.W" in created


# -- fisher -----------------------------------------------------------------

def test_find_fisher_nonnegative_and_zero_for_unseen_head():
    model = random_mlp(31)
    model.add_task_head(4)
    stream_feats = np.random.default_rng(1).normal(size=(20, model.input_dim))
    labels = np.random.default_rng(2).integers(0, 3, size=20)
    imp = find_fisher(model, stream_feats, labels, 0, 10, seed=5)
    for n in imp.values:
        assert np.all(imp.values[n] >= 0)
    assert np.all(imp.values["head1.W"] == 0)


def test_find_fisher_mean_invariance_under_duplication():
    model = random_mlp(32)
    x = np.ones((1, model.input_dim))
    y = np.array([1])
    once = find_fisher(model, x, y, 0, 1, seed=0)
    twice = find_fisher(model, np.repeat(x, 2, axis=0), np.repeat(y, 2), 0, 2, seed=0)
    for n in once.values:
        np.testing.assert_allclose(once.values[n], twice.values[n], rtol=1e-15)


def test_find_fisher_logistic_hand_value():
    model = MultiHeadClassifier(0, 1, [], [2])
    for n in model.parameters():
        model.parameters()[n][...] = 0.0
    imp = find_fisher(model, np.array([[1.0]]), np.array([1]), 0, 1, seed=0)
    np.testing.assert_allclose(imp.values["head0.W"], [[0.25, 0.25]], atol=1e-15)
    np.testing.assert_allclose(imp.values["head0.b"], [0.25, 0.25], atol=1e-15)


def test_find_fisher_small_dataset_warns():
    model = random_mlp(33)
    with pytest.warns(UserWarning, match="full dataset"):
        find_fisher(model, np.ones((2, model.input_dim)), np.array([0, 1]), 0,
                    10, seed=0)


def test_accumulate_fisher():
    base = ImportanceMap(ParameterSet({"w": [1.0]}))
    fresh = ImportanceMap(ParameterSet({"w": [0.5]}))
    assert accumulate_fisher(base, fresh, 0.95).values["w"].tolist() == [1.45]
    assert accumulate_fisher(base, fresh, 0.0).values["w"].tolist() == [0.5]
    zero = ImportanceMap(ParameterSet({"w": [0.0]}))
    assert accumulate_fisher(base, zero, 1.0).values["w"].tolist() == [1.0]
    first = accumulate_fisher(None, fresh, 0.95)
    assert first.values["w"].tolist() == [0.5] and first.values.flat is not fresh.values.flat


def test_accumulate_fisher_pads_new_heads_and_rejects_non_prefix():
    fresh = ImportanceMap(ParameterSet({"enc": [1.0, 1.0], "head0": [1.0],
                                        "head1": [3.0, 5.0]}))
    old = ImportanceMap(ParameterSet({"enc": [1.0, 2.0], "head0": [4.0]}))
    merged = accumulate_fisher(old, fresh, 0.5)
    assert merged.values.names() == ["enc", "head0", "head1"]
    assert merged.values.flat.tolist() == [1.5, 2.0, 3.0, 3.0, 5.0]
    for bad in ({"head0": [4.0], "enc": [1.0, 2.0]},          # reordered
                {"enc": [1.0], "head0": [4.0, 1.0]},          # reshaped
                {"enc": [1.0, 2.0], "head0": [4.0], "head1": [1.0, 1.0],
                 "head2": [1.0]}):                            # longer
        with pytest.raises(ValueError, match="prefix"):
            accumulate_fisher(ImportanceMap(ParameterSet(bad)), fresh, 0.5)


def test_importance_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        ImportanceMap(ParameterSet({"w": [-1.0]}))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0, 10), min_size=1, max_size=5),
       st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_accumulate_stays_nonnegative(values, gammas):
    acc = ImportanceMap(ParameterSet({"w": values}))
    fresh = ImportanceMap(ParameterSet({"w": values}))
    for g in gammas:
        acc = accumulate_fisher(acc, fresh, g)
        assert np.all(acc.values["w"] >= 0)


# -- soft penalty / clamp ---------------------------------------------------

def _region(anchor_vals, rho):
    anchor = ParameterSet({"w": anchor_vals})
    return FlatRegion(anchor, rho, ["w"])


def test_soft_penalty_zero_at_anchor():
    region = _region([1.0, 2.0], 0.5)
    imp = ImportanceMap(ParameterSet({"w": [3.0, 4.0]}))
    value, grads = soft_penalty(ParameterSet({"w": [1.0, 2.0]}), region, imp)
    assert value == 0.0
    assert np.all(grads["w"] == 0)


def test_soft_penalty_hand_value():
    region = _region([1.0], 0.5)
    imp = ImportanceMap(ParameterSet({"w": [2.0]}))
    value, grads = soft_penalty(ParameterSet({"w": [1.5]}), region, imp)
    assert abs(value - 0.5) <= 1e-15
    np.testing.assert_allclose(grads["w"], [2.0])


def test_soft_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    anchor = ParameterSet({"a": rng.normal(size=4), "b": rng.normal(size=(2, 3))})
    region = FlatRegion(anchor, 0.5, ["a", "b"])
    imp = ImportanceMap(ParameterSet(
        {"a": rng.uniform(0, 2, 4), "b": rng.uniform(0, 2, (2, 3))}))
    params = ParameterSet({"a": rng.normal(size=4), "b": rng.normal(size=(2, 3))})
    _, grads = soft_penalty(params, region, imp)
    fd = finite_diff_gradient(lambda p: soft_penalty(p, region, imp)[0],
                              params, h=1e-6)
    for n in grads:
        np.testing.assert_allclose(grads[n], fd[n], rtol=1e-8, atol=1e-10)


def test_soft_penalty_rejects_negative_importance():
    region = _region([1.0], 0.5)
    imp = ImportanceMap(ParameterSet({"w": [1.0]}))
    imp.values["w"][0] = -1.0  # breach the invariant after construction
    with pytest.raises(ValueError, match="negative"):
        soft_penalty(ParameterSet({"w": [2.0]}), region, imp)


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


def test_flat_region_requires_prefix_names():
    model = random_mlp(70)
    model.add_task_head(3)
    anchor = model.parameters().copy()
    region = FlatRegion(anchor, 0.5, model.constrained_names(1))
    assert region.lo.size == anchor.total_size() - model.heads[1][0].size - 3
    for names in (["head0.W", "head0.b"], ["enc0.W", "head0.W"], model.head_names(1)):
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


# -- sparse mask ------------------------------------------------------------

def test_sparse_mask_full_ratio_all_ones():
    imp = ImportanceMap(ParameterSet({"w": [5.0, 1.0, 3.0, 2.0]}))
    mask = build_sparse_mask(imp, 1.0, [["w"]])
    assert mask["w"].tolist() == [1.0, 1.0, 1.0, 1.0]


def test_sparse_mask_half_ratio_keeps_flattest():
    imp = ImportanceMap(ParameterSet({"w": [5.0, 1.0, 3.0, 2.0]}))
    mask = build_sparse_mask(imp, 0.5, [["w"]])
    assert mask["w"].tolist() == [0.0, 1.0, 0.0, 1.0]


def test_sparse_mask_minimum_one_per_layer():
    imp = ImportanceMap(ParameterSet({"w": [5.0, 1.0, 3.0]}))
    mask = build_sparse_mask(imp, 0.01, [["w"]])
    assert mask["w"].sum() == 1.0
    assert mask["w"][1] == 1.0


def test_sparse_mask_tie_break_by_index():
    imp = ImportanceMap(ParameterSet({"w": [2.0, 2.0, 2.0, 2.0]}))
    mask = build_sparse_mask(imp, 0.5, [["w"]])
    assert mask["w"].tolist() == [1.0, 1.0, 0.0, 0.0]


def test_sparse_mask_empty_layer_rejected():
    imp = ImportanceMap(ParameterSet({"w": [1.0]}))
    with pytest.raises(ValueError, match="empty layer"):
        build_sparse_mask(imp, 0.5, [[]])


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
            params[nm] -= cfg.learning_rate * g[nm]
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
    stream = _tiny_stream(58, n_tasks=2)
    short = stream[1]
    train = short.splits["train"]
    stream = TaskStream([stream[0], dataclasses.replace(short, splits={
        "train": train[:45], "val": short.splits["val"],
        "test": np.concatenate([short.splits["test"], train[45:]])})])
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
        assert [len(c) for c in chunks] == [9, 6]
        for i in range(9):
            for t, (x, y) in enumerate(data):
                if i >= len(chunks[t]):
                    continue
                idx = chunks[t][i]
                _, g = twin.loss_gradient(Batch(x[idx], y[idx], t))
                for nm in params:
                    params[nm] -= cfg.learning_rate * g[nm]
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

    def keep(t, importance, **state):
        accumulated[t] = importance

    def hook(m, region):
        if region is None:
            return
        names = region.constrained_names
        layers = [names[i:i + 2] for i in range(0, len(names), 2)]
        out = build_sparse_mask(accumulated[0], 0.5, layers).prefix(names) == 0.0
        assert 0 < np.count_nonzero(out) < out.size
        w, anchor = m.parameters().prefix(names), region.anchor.prefix(names)
        frozen.append(w[out].tobytes() == anchor[out].tobytes())

    train_continual(model, stream, cfg, seed=11, epochs=1, checkpoint_fn=keep,
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
    assert np.array_equal(r1.accuracy_matrix, r2.accuracy_matrix,
                          equal_nan=True)
    for nm in m1.parameters():
        assert np.array_equal(m1.parameters()[nm], m2.parameters()[nm])


def test_best_snapshot_at_least_final_accuracy():
    stream = _tiny_stream(53, n_tasks=2)
    cfg = _config(variant=VariantFlags())
    model = MultiHeadClassifier(8, 4, [6], [3])
    res = train_continual(model, stream, cfg, seed=5, epochs=2)
    report = res.reports[-1]
    # returned model achieves the best recorded validation accuracy
    assert report.best_accuracy == max(a for _, a in report.validation_curve)


def test_single_task_matrix_shape():
    stream = _tiny_stream(54, n_tasks=1)
    model = MultiHeadClassifier(9, 4, [6], [3])
    res = train_continual(model, stream, _config(variant=VariantFlags()),
                          seed=6, epochs=1)
    assert res.accuracy_matrix.shape == (1, 1)
    assert np.isfinite(res.accuracy_matrix[0, 0])
    assert all(c == 0 for c in res.reports[0].clamp_counts)


def test_continual_determinism_bitwise():
    cfg = _config(variant=VariantFlags(create=True, find=True, clamp=True,
                                       l2=True, replay=True))
    mats = []
    for _ in range(2):
        stream = _tiny_stream(55, n_tasks=3)
        model = MultiHeadClassifier(10, 4, [6], [3])
        res = train_continual(model, stream, cfg, seed=7, epochs=2)
        mats.append(res.accuracy_matrix)
    assert np.array_equal(mats[0], mats[1], equal_nan=True)


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
    for n in a.values:
        assert np.all(a.values[n] >= 0)
        assert np.array_equal(a.values[n], b.values[n])
