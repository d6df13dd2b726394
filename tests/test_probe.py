import dataclasses
import sys
import warnings

import numpy as np
import pytest

from flatcl.model import Batch
from flatcl.optim import compute_perturbation
from flatcl.params import ParameterSet
from flatcl.probe import (Objective, ball_sharpness, create_decomposition_check,
                          first_order_sharpness, fisher_trace_check, hvp,
                          lanczos_lambda_max, model_objective,
                          quadratic_objective, sharpness_report)

from conftest import random_batch, random_mlp


def _quad_1d(a, w0):
    """L(w) = a/2 * w^2 on one scalar coordinate."""
    return quadratic_objective([[a]], [w0])


# -- ball / first-order sharpness -------------------------------------------

def test_ball_sharpness_quadratic_hand_value():
    # L = w^2 / 2 at w=1, rho=0.1: worst case is w -> 1.1,
    # increase = (1.21 - 1) / 2 = 0.105; in 1-d every direction is +/- rho
    obj = _quad_1d(1.0, 1.0)
    val = ball_sharpness(obj, rho=0.1, n_directions=8, seed=0)
    assert abs(val - 0.105) <= 1e-12


def test_ball_sharpness_small_rho_matches_first_order():
    obj = _quad_1d(2.0, 1.5)
    rho = 1e-4
    ball = ball_sharpness(obj, rho, n_directions=4, seed=0)
    first = first_order_sharpness(obj, rho)
    assert first == rho * 3.0  # rho * |L'(1.5)| = rho * a * w
    assert abs(ball - first) / first <= 1e-3


def test_ball_sharpness_nonnegative_at_minimum():
    obj = _quad_1d(1.0, 0.0)  # gradient is zero at the minimum
    val = ball_sharpness(obj, rho=0.5, n_directions=4, seed=1)
    assert val >= 0.0


@pytest.mark.parametrize("rho", [1e308, sys.float_info.max])
def test_ball_sharpness_refuses_a_radius_no_direction_can_be_scaled_to(rho):
    """A gradient of norm below 1 scaled onto a sphere of radius near the
    largest float overflows: the radius is refused naming rho, with no
    numpy error or warning."""
    obj = _quad_1d(1.0, 0.5)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=r"^rho .* past the float range$"):
            ball_sharpness(obj, rho, n_directions=4, seed=0)


def test_ball_sharpness_restores_weights_bitwise():
    model = random_mlp(14)
    batch = random_batch(15, model)
    before = model.parameters().copy()
    ball_sharpness(model_objective(model, batch), 0.3, 6, seed=2)
    for n in before:
        assert np.array_equal(model.parameters()[n], before[n])


def test_probes_do_not_write_the_weights():
    """Ball sharpness and the decomposition run on read-only weights: the
    perturbed losses are scored at a stack of weight vectors."""
    model = random_mlp(22, hidden=(5, 4), classes=(3, 2))
    batch = random_batch(23, model, n=9, task_id=1)
    model.theta.flags.writeable = False
    obj = model_objective(model, batch)
    assert ball_sharpness(obj, 0.3, 6, seed=2) > 0
    perturbed, excess, base = create_decomposition_check(obj, 0.3)
    assert perturbed == excess + base and excess > 0


def test_ball_sharpness_equals_one_direction_at_a_time_bitwise():
    """The reference: draw each direction alone, scale it onto the sphere,
    and score the loss with the scaled direction added to a copy of the
    weights.  Ball sharpness gives those bits."""
    model = random_mlp(24, hidden=(5,), classes=(3,), activation="relu")
    batch = random_batch(25, model, n=7)
    obj = model_objective(model, batch)
    rng = np.random.Generator(np.random.PCG64(3))
    directions = [obj.gradient().flat] + [rng.normal(size=model.theta.size)
                                          for _ in range(8)]
    twin, base, best = model.clone(), model.task_loss(batch), -np.inf
    for d in directions:
        np.copyto(twin.theta, model.theta + d * (0.2 / np.sqrt(d @ d)))
        best = max(best, twin.task_loss(batch) - base)
    assert ball_sharpness(obj, 0.2, 8, seed=3) == best


def test_ball_sharpness_rejects_zero_directions():
    with pytest.raises(ValueError, match="n_directions"):
        ball_sharpness(_quad_1d(1.0, 1.0), 0.1, 0, seed=0)


def test_ball_sharpness_skips_zero_norm_directions():
    """A zero gradient is not scaled onto the sphere; with no weights every
    direction has zero norm, none is left, and the sharpness is 0.0."""
    val = ball_sharpness(_quad_1d(1.0, 0.0), rho=0.5, n_directions=4, seed=1)
    assert abs(val - 0.125) <= 1e-15  # every random direction is +/- rho
    empty = quadratic_objective(np.zeros((0, 0)), np.zeros(0))
    assert ball_sharpness(empty, rho=0.5, n_directions=4, seed=1) == 0.0


# -- decomposition ----------------------------------------------------------

def test_decomposition_quadratic_hand_values():
    # L = w^2/2 at w=1: eps_hat = rho * w^2 g / |w g| = 0.1, so the
    # perturbed loss is 1.21/2 = 0.605, base 0.5, excess 0.105
    perturbed, excess, base = create_decomposition_check(_quad_1d(1.0, 1.0), 0.1)
    assert abs(perturbed - 0.605) <= 1e-12
    assert abs(base - 0.5) <= 1e-12
    assert abs(excess - 0.105) <= 1e-12


def test_decomposition_identity_on_model():
    model = random_mlp(16)
    batch = random_batch(17, model)
    perturbed, excess, base = create_decomposition_check(
        model_objective(model, batch), 0.65)
    assert perturbed == excess + base  # exact by construction
    assert abs(base - model.task_loss(batch)) <= 1e-15


def test_decomposition_rho_zero_has_no_excess():
    perturbed, excess, base = create_decomposition_check(_quad_1d(3.0, 2.0), 0.0)
    assert excess == 0.0 and perturbed == base


def _two_pass_decomposition(obj, rho):
    """create_decomposition_check in its former form: the base loss scored
    alone at w, then the perturbed loss alone at w + eps_hat."""
    base = float(obj.values(obj.params.flat[None])[0])
    eps = compute_perturbation(obj.params, obj.gradient(), rho).epsilon_hat
    perturbed = float(obj.values(obj.params.flat + eps.flat[None])[0])
    return perturbed, perturbed - base, base


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_decomposition_equals_two_pass_form_bitwise(activation, hidden):
    """Scoring w and w + eps_hat in one stack gives the triple's bits of
    scoring each alone, on every head, at small and large rho."""
    for seed in range(3):
        model = random_mlp(30 + seed, hidden=hidden, classes=(3, 2), activation=activation)
        for task_id in (0, 1):
            obj = model_objective(model, random_batch(40 + seed, model, n=6 + seed,
                                                      task_id=task_id))
            for rho in (0.05, 0.65):
                got = create_decomposition_check(obj, rho)
                assert np.array(got).tobytes() == np.array(
                    _two_pass_decomposition(obj, rho)).tobytes()


@pytest.mark.parametrize("probe", [lambda obj: ball_sharpness(obj, 0.2, 5, seed=1),
                                   lambda obj: create_decomposition_check(obj, 0.2)],
                         ids=["ball_sharpness", "create_decomposition_check"])
def test_each_probe_scores_its_losses_in_one_stack(probe):
    """A probe scores the loss at w and at every perturbed point in one
    `values` call, on a stack whose row 0 is w itself, not w + 0: a -0.0
    weight keeps its sign."""
    model = random_mlp(26, hidden=(5,))
    model.theta[0] = -0.0
    obj = model_objective(model, random_batch(27, model, n=6))
    stacks = []
    counted = dataclasses.replace(obj, values=lambda t: stacks.append(t.copy()) or obj.values(t))
    probe(counted)
    assert len(stacks) == 1
    assert stacks[0][0].tobytes() == model.theta.tobytes()


def test_only_a_perturbed_loss_must_be_finite():
    """Each probe refuses a non-finite loss at a perturbed point, with one
    message, and scores the loss at w unchecked."""
    params = ParameterSet({"w": [1.0]})

    def objective(base, perturbed):
        return Objective(params, lambda t: np.r_[base, np.full(len(t) - 1, perturbed)],
                         lambda: ParameterSet({"w": [1.0]}), None)

    for probe in (lambda obj: ball_sharpness(obj, 0.1, 2, seed=0),
                  lambda obj: create_decomposition_check(obj, 0.1)):
        with pytest.raises(FloatingPointError, match="^non-finite loss at perturbed point$"):
            probe(objective(0.0, np.inf))
        assert np.isnan(probe(objective(np.nan, 1.0))).any()


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_ball_sharpness_refuses_a_radius_whose_probe_points_overflow_naming_it(state):
    """At rho 1e307 every probe direction is finite, but the sum of the
    losses of 60 rows at a probe point overflows: the radius is refused by
    name, with no warning, whatever numpy's error state; 1e306 is scored."""
    model = random_mlp(26, hidden=(5,))
    obj = model_objective(model, random_batch(27, model, n=60))
    with np.errstate(all=state), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^rho 1e\+307 puts a probe point where the loss "
                                             r"overflows$"):
            ball_sharpness(obj, 1e307, 4, seed=1)
    assert np.isfinite(ball_sharpness(obj, 1e306, 4, seed=1))


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
@pytest.mark.parametrize("probe", [lambda obj, rho: ball_sharpness(obj, rho, 2, seed=0),
                                   create_decomposition_check],
                         ids=["ball_sharpness", "create_decomposition_check"])
def test_an_overflow_names_rho_only_when_the_loss_at_w_scores_cleanly(probe, state):
    """L(w) = w * 1e307 on one weight with gradient 1.  At w = 1, rho 100
    puts a probe point past the float range and is refused naming rho,
    while rho 0.05 is scored; at w = 100 the loss at w itself overflows, and
    every radius, 0 included, is refused naming w, not rho."""
    def objective(w):
        return Objective(ParameterSet({"w": [w]}), lambda t: t[:, 0] * 1e307,
                         lambda: ParameterSet({"w": [1.0]}), None)

    with np.errstate(all=state), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^rho 100\.0 puts a probe point where the loss "
                                             r"overflows$"):
            probe(objective(1.0), 100.0)
        assert np.isfinite(probe(objective(1.0), 0.05)).all()
        for rho in (0.0, 0.05):
            with pytest.raises(FloatingPointError, match="^the loss at w overflows$"):
                probe(objective(100.0), rho)


# -- fisher trace identity --------------------------------------------------

def test_fisher_trace_identity_small_gap():
    model = random_mlp(18)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(12, model.input_dim))
    labels = rng.integers(0, 3, size=12)
    trace, mean_sq, gap = fisher_trace_check(model, feats, labels, 0)
    assert trace > 0 and mean_sq > 0
    assert gap <= 1e-12


def test_fisher_trace_rejects_empty():
    model = random_mlp(19)
    with pytest.raises(ValueError, match="sample"):
        fisher_trace_check(model, np.empty((0, 4)), np.empty(0, int), 0)


# -- hessian-vector products ------------------------------------------------

def test_hvp_diagonal_quadratic():
    obj = quadratic_objective(np.diag([1.0, 3.0]), [0.5, -0.2])
    out = hvp(obj, ParameterSet({"w": [0.0, 1.0]}))
    np.testing.assert_allclose(out["w"], [0.0, 3.0], atol=1e-9)


def test_hvp_linearity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4))
    obj = quadratic_objective(a + a.T, rng.normal(size=4))
    v1 = ParameterSet({"w": rng.normal(size=4)})
    v2 = ParameterSet({"w": rng.normal(size=4)})
    lhs = hvp(obj, v1.unflatten(v1.flat + v2.flat))
    rhs = hvp(obj, v1).flat + hvp(obj, v2).flat
    np.testing.assert_allclose(lhs["w"], rhs, rtol=1e-6, atol=1e-8)


def test_hvp_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        hvp(_quad_1d(1.0, 1.0), ParameterSet({"w": [0.0]}))


def test_hvp_takes_a_direction_whose_sum_of_squares_underflows():
    """Entries near 1e-170 square to 0, but the direction is not zero: its
    product is returned; an all-zero direction is still refused."""
    obj = quadratic_objective(np.eye(2), [0, 0])
    tiny = hvp(obj, ParameterSet({"w": [1e-170, 1e-170]}))
    assert tiny["w"].tolist() == [1e-170, 1e-170]
    with pytest.raises(ValueError, match="^direction must be nonzero$"):
        hvp(obj, ParameterSet({"w": [0.0, -0.0]}))


def test_hvp_restores_weights_bitwise():
    model = random_mlp(20)
    batch = random_batch(21, model)
    obj = model_objective(model, batch)
    before = model.parameters().copy()
    v = ParameterSet((n, np.ones_like(a)) for n, a in before.items())
    hvp(obj, v)
    for n in before:
        assert np.array_equal(model.parameters()[n], before[n])


@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_hvp_matches_central_differences_of_gradient(hidden):
    """Exact R-operator HVP vs (g(w+rv) - g(w-rv)) / 2r on tanh MLPs."""
    model = random_mlp(24, hidden=hidden, classes=(3,))
    batch = random_batch(25, model, n=7)
    params = model.parameters()
    rng = np.random.default_rng(3)
    v = ParameterSet((n, rng.normal(size=a.shape)) for n, a in params.items())
    exact = hvp(model_objective(model, batch), v).flatten()
    r = 1e-5
    saved = params.copy()
    for n in params:
        params[n][...] += r * v[n]
    g_plus = model.loss_gradient(batch)[1].flatten()
    for n in params:
        np.copyto(params[n], saved[n] - r * v[n])
    g_minus = model.loss_gradient(batch)[1].flatten()
    model.set_parameters(saved)
    fd = (g_plus - g_minus) / (2 * r)
    assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)


# -- lanczos ----------------------------------------------------------------

def test_lanczos_recovers_top_eigenvalue():
    obj = quadratic_objective(np.diag([1.0, 2.0, 3.0]), [0.3, -0.4, 0.5])
    res = lanczos_lambda_max(obj, iters=10, seed=0)
    assert abs(res.lambda_max - 3.0) <= 1e-6
    assert abs(res.log_lambda_max - np.log(3.0)) <= 1e-6


def test_lanczos_exact_after_dim_iters():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5))
    sym = a + a.T
    obj = quadratic_objective(sym, rng.normal(size=5))
    res = lanczos_lambda_max(obj, iters=5, seed=1)
    expected = float(np.max(np.linalg.eigvalsh(sym)))
    assert abs(res.lambda_max - expected) <= 1e-5


def test_lanczos_estimate_monotone_in_iterations():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8))
    obj = quadratic_objective(a + a.T, rng.normal(size=8))
    prev = -np.inf
    for iters in (1, 2, 4, 8):
        cur = lanczos_lambda_max(obj, iters=iters, seed=2).lambda_max
        assert cur >= prev - 1e-8
        prev = cur


def test_lanczos_breakdown_on_scaled_identity():
    # H = 2I maps every Krylov vector onto the start vector: beta -> 0
    obj = quadratic_objective(2.0 * np.eye(3), [1.0, 0.0, 0.0])
    res = lanczos_lambda_max(obj, iters=10, seed=0)
    assert res.breakdown
    assert res.iters_run < 10
    assert abs(res.lambda_max - 2.0) <= 1e-6


def test_lanczos_deterministic():
    obj = quadratic_objective(np.diag([1.0, 4.0]), [1.0, 1.0])
    a = lanczos_lambda_max(obj, iters=6, seed=3)
    b = lanczos_lambda_max(obj, iters=6, seed=3)
    assert a.lambda_max == b.lambda_max


def test_lanczos_rejects_bad_iters():
    with pytest.raises(ValueError, match="iters"):
        lanczos_lambda_max(_quad_1d(1.0, 1.0), iters=0)


# -- report -----------------------------------------------------------------

def test_sharpness_report_fields_and_restoration():
    model = random_mlp(22)
    batch = random_batch(23, model, n=8)
    before = model.parameters().copy()
    rep = sharpness_report(model, batch, rho=0.2, n_directions=4,
                           lanczos_iters=5, seed=0)
    for n in before:
        assert np.array_equal(model.parameters()[n], before[n])
    d = dataclasses.asdict(rep)
    assert set(d) == {"ball_sharpness", "first_order_sharpness", "lambda_max",
                      "log_lambda_max", "rho_used", "n_directions",
                      "lanczos_iters"}
    assert d["ball_sharpness"] >= 0.0
    assert d["rho_used"] == 0.2
    assert np.isfinite(d["lambda_max"])


# -- the bound Hessian and the checks around it ------------------------------

def _hand_lanczos(obj, iters, seed, three_term=False):
    """lanczos_lambda_max written out over the public `hvp` on named sets.
    Each step orthogonalizes by classical Gram-Schmidt applied twice, or
    with `three_term` by the three-term recurrence followed by one full
    reorthogonalization, the loop's form before it took CGS2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    q = rng.normal(size=obj.params.total_size())
    basis = np.zeros((iters, q.size))
    basis[0] = q / np.sqrt(q @ q)
    alphas, betas = [], []
    for j in range(iters):
        w = hvp(obj, obj.params.unflatten(basis[j])).flatten()
        done = basis[:j + 1]
        if three_term:
            alphas.append(float(w @ basis[j]))
            w -= alphas[-1] * basis[j]
            if j > 0:
                w -= betas[-1] * basis[j - 1]
            w -= done.T @ (done @ w)
        else:
            first = done @ w
            w -= first @ done
            second = done @ w
            w -= second @ done
            alphas.append(float(first[j] + second[j]))
        beta = float(np.sqrt(w @ w))
        if j + 1 == iters or beta < 1e-12:
            break
        betas.append(beta)
        basis[j + 1] = w / beta
    tri = np.diag(alphas)
    for i, b in enumerate(betas[:len(alphas) - 1]):
        tri[i, i + 1] = tri[i + 1, i] = b
    return float(np.max(np.linalg.eigvalsh(tri))), len(alphas)


@pytest.mark.parametrize("activation,hidden", [("tanh", ()), ("tanh", (5,)),
                                               ("tanh", (4, 3)), ("relu", (5,)),
                                               ("relu", (4, 3))])
def test_lanczos_equals_hand_loop_over_public_hvp(activation, hidden):
    """Binding the Hessian once per run changes no bit of lambda_max."""
    model = random_mlp(60, hidden=hidden, classes=(3, 4), activation=activation)
    batch = random_batch(61, model, n=8, task_id=1)
    obj = model_objective(model, batch)
    res = lanczos_lambda_max(obj, iters=12, seed=5)
    assert (res.lambda_max, res.iters_run) == _hand_lanczos(obj, 12, 5)
    _assert_within_1e12_of_three_term_loop(res, obj, 12, 5)


def test_lanczos_equals_hand_loop_on_quadratic():
    rng = np.random.default_rng(62)
    a = rng.normal(size=(6, 6))
    obj = quadratic_objective(a + a.T, rng.normal(size=6))
    res = lanczos_lambda_max(obj, iters=6, seed=1)
    assert (res.lambda_max, res.iters_run) == _hand_lanczos(obj, 6, 1)
    _assert_within_1e12_of_three_term_loop(res, obj, 6, 1)


def _assert_within_1e12_of_three_term_loop(res, obj, iters, seed):
    """Taking each step by two projections moves lambda_max's bits, but by
    no more than 1e-12 of itself, and runs as many iterations."""
    lam, ran = _hand_lanczos(obj, iters, seed, three_term=True)
    assert res.iters_run == ran
    assert abs(res.lambda_max - lam) <= 1e-12 * abs(lam)


def _bad_batches(model):
    rng = np.random.default_rng(63)
    x = rng.normal(size=(6, model.input_dim))
    y = rng.integers(0, 3, size=6)
    low, high = y.copy(), y.copy()
    low[-1], high[-1] = -1, 3
    return {"label -1": Batch(x, low, 0), "label == classes": Batch(x, high, 0),
            "wide features": Batch(np.hstack([x, x[:, :1]]), y, 0)}


@pytest.mark.parametrize("fault", ["label -1", "label == classes", "wide features"])
@pytest.mark.parametrize("entry", ["model_objective", "ball_sharpness",
                                   "lanczos_lambda_max", "loss_hvp"])
def test_bad_rows_refused_by_probes(entry, fault):
    """The objective checks its rows when it is built, so a bad label or
    feature width raises before any probe perturbs the weights."""
    model = random_mlp(64, classes=(3,))
    batch = _bad_batches(model)[fault]
    calls = {
        "model_objective": lambda: model_objective(model, batch),
        "ball_sharpness": lambda: ball_sharpness(model_objective(model, batch),
                                                 0.1, 4, seed=0),
        "lanczos_lambda_max": lambda: lanczos_lambda_max(model_objective(model, batch), 5),
        "loss_hvp": lambda: hvp(model_objective(model, batch), model.parameters().copy()),
    }
    before = model.theta.tobytes()
    with pytest.raises(ValueError, match="labels|input_dim"):
        calls[entry]()
    assert model.theta.tobytes() == before


def test_sharpness_report_checks_rows_once(monkeypatch):
    model = random_mlp(65)
    batch = random_batch(66, model, n=8)
    seen = []
    check = type(model)._check_rows
    monkeypatch.setattr(type(model), "_check_rows",
                        lambda self, *a: seen.append(1) or check(self, *a))
    sharpness_report(model, batch, rho=0.1, n_directions=4, lanczos_iters=5, seed=0)
    assert len(seen) == 1


def test_sharpness_report_makes_one_pass_at_w(monkeypatch):
    """A report binds the Hessian once, and that bind's gradient serves
    ball and first-order sharpness: no gradient pass runs.  The report is
    the one each probe gives with its own gradient and its own bind."""
    model = random_mlp(67, hidden=(5,))
    batch = random_batch(68, model, n=8)
    obj = model_objective(model, batch)
    want = (ball_sharpness(obj, 0.1, 4, 0), first_order_sharpness(obj, 0.1),
            lanczos_lambda_max(obj, 5, 0).lambda_max)
    seen = {"_loss_gradient": 0, "_hvp_operator": 0}

    def counted(name, kernel):
        def call(self, *args):
            seen[name] += 1
            return kernel(self, *args)
        return call
    for name in seen:
        monkeypatch.setattr(type(model), name, counted(name, getattr(type(model), name)))
    rep = sharpness_report(model, batch, rho=0.1, n_directions=4, lanczos_iters=5, seed=0)
    assert seen == {"_loss_gradient": 0, "_hvp_operator": 1}
    assert (rep.ball_sharpness, rep.first_order_sharpness, rep.lambda_max) == want


@pytest.mark.parametrize("entry,refused", [(float("nan"), True), (float("inf"), True),
                                           (-float("inf"), True), (1e200, False),
                                           (-3e180, False)])
def test_hvp_refuses_exactly_the_non_finite_products(entry, refused):
    """A product with a NaN or infinite entry is refused; a finite one is
    returned as it is, also when its sum of squares overflows."""
    obj = quadratic_objective(np.diag([entry, 1.0]), [0.0, 0.0])
    v = ParameterSet({"w": [1.0, 1.0]})
    if refused:
        with pytest.raises(FloatingPointError, match="non-finite Hessian-vector product"):
            hvp(obj, v)
    else:
        with np.errstate(over="ignore"):  # the sum of squares overflows
            assert hvp(obj, v)["w"].tolist() == [entry, 1.0]


RHO_ENTRY_POINTS = {
    "ball_sharpness": lambda obj, rho: ball_sharpness(obj, rho, 4, seed=0),
    "first_order_sharpness": first_order_sharpness,
    "create_decomposition_check": create_decomposition_check,
    "compute_perturbation": lambda obj, rho: compute_perturbation(obj.params,
                                                                  obj.gradient(), rho),
}


SEED_ENTRY_POINTS = {
    "ball_sharpness": lambda obj, seed: ball_sharpness(obj, 0.1, 2, seed),
    "lanczos_lambda_max": lambda obj, seed: lanczos_lambda_max(obj, 2, seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_bad_seed_refused_naming_it(entry, seed):
    """A probe's seed follows `RULES["seed"]`, not numpy's words."""
    obj = _quad_1d(1.0, 1.0)
    with pytest.raises(ValueError) as info:
        SEED_ENTRY_POINTS[entry](obj, seed)
    assert str(info.value) == f"seed must be an integer >= 0, got {seed!r}"
    assert obj.params["w"][0] == 1.0


@pytest.mark.parametrize("rho", [-0.05, float("nan")])
@pytest.mark.parametrize("entry", list(RHO_ENTRY_POINTS))
def test_negative_rho_refused(entry, rho):
    obj = _quad_1d(1.0, 1.0)
    with pytest.raises(ValueError) as info:
        RHO_ENTRY_POINTS[entry](obj, rho)
    assert str(info.value) == f"rho must be a finite number >= 0, got {rho!r}"
    assert obj.params["w"][0] == 1.0


@pytest.mark.parametrize("entry", list(RHO_ENTRY_POINTS))
def test_infinite_rho_refused(entry):
    """An infinite radius passes `>= 0` but perturbs to a non-finite loss."""
    obj = _quad_1d(1.0, 1.0)
    with pytest.raises(ValueError) as info:
        RHO_ENTRY_POINTS[entry](obj, float("inf"))
    assert str(info.value) == "rho must be a finite number >= 0, got inf"
    assert obj.params["w"][0] == 1.0
