"""Flatness measurement suite.

Ball sharpness (max loss increase over a rho-ball), its first-order
approximation rho * ||grad||, the additive decomposition of the perturbed
loss, the Fisher trace identity, and a largest-Hessian-eigenvalue estimate
via Lanczos on exact Hessian-vector products.

Every probe perturbs weights through a save/restore window and leaves them
bitwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch, MultiHeadClassifier
from .optim import check_rho, compute_perturbation
from .params import ParameterSet


class Objective:
    """Scalar objective over a live ParameterSet.

    Probes mutate `params` in place (and restore them), so `value` and
    `gradient` must read the current array contents on every call.
    `bind_hvp` binds the Hessian at the current weights: it returns an
    operator from a flat v to a fresh flat H v that is valid while the
    weights do not move, so a Lanczos run binds once and applies many times.
    """

    def __init__(self, params: ParameterSet, value_fn, gradient_fn=None,
                 bind_hvp_fn=None):
        self.params = params
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._bind_hvp_fn = bind_hvp_fn

    def value(self) -> float:
        return float(self._value_fn(self.params))

    def gradient(self) -> ParameterSet:
        if self._gradient_fn is None:
            raise NotImplementedError("objective has no gradient")
        return self._gradient_fn(self.params)

    def bind_hvp(self):
        if self._bind_hvp_fn is None:
            raise NotImplementedError("objective has no Hessian-vector product")
        return self._bind_hvp_fn()


def model_objective(model: MultiHeadClassifier, batch: Batch) -> Objective:
    """The batch's mean cross-entropy.  The rows are checked here, once;
    the objective's methods call the model's unchecked forms."""
    features, labels = model._check_rows(batch.features, batch.labels, batch.task_id)
    task_id = batch.task_id
    return Objective(
        model.parameters(),
        lambda _: model._task_loss(features, labels, task_id),
        lambda _: model._loss_gradient(features, labels, task_id)[1],
        lambda: model._hvp_operator(features, labels, task_id),
    )


def quadratic_objective(matrix, w0) -> Objective:
    """L(w) = 1/2 w^T A w on a single parameter named 'w' (test surrogate)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    params = ParameterSet({"w": np.asarray(w0, dtype=np.float64)})
    return Objective(
        params,
        lambda p: 0.5 * float(p["w"] @ matrix @ p["w"]),
        lambda p: ParameterSet({"w": matrix @ p["w"]}),
        lambda: lambda v: matrix @ v,
    )


def _perturbed_value(obj: Objective, direction: np.ndarray) -> float:
    """L(w + direction) for a flat direction; the weights are restored."""
    w = obj.params.flat
    saved = w.copy()
    try:
        w += direction
        val = obj.value()
    finally:
        np.copyto(w, saved)
    if not np.isfinite(val):
        raise FloatingPointError("non-finite loss at perturbed point")
    return val


def ball_sharpness(obj: Objective, rho: float, n_directions: int, seed: int) -> float:
    """Max of L(w+eps) - L(w) over random rho-sphere directions plus the
    non-adaptive gradient-ascent direction rho * g / ||g||."""
    check_rho(rho)
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1")
    base = obj.value()
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = [obj.gradient().flat]
    directions += [rng.normal(size=obj.params.total_size()) for _ in range(n_directions)]
    # each direction scaled onto the rho-sphere; a zero one is skipped
    directions = [d * (rho / np.sqrt(d @ d)) for d in directions if d @ d > 0]
    best = 0.0 if not directions else -np.inf
    for d in directions:
        best = max(best, _perturbed_value(obj, d) - base)
    return float(best)


def first_order_sharpness(obj: Objective, rho: float) -> float:
    """First-order Taylor estimate of ball sharpness: rho * ||grad||_2."""
    check_rho(rho)
    return rho * obj.gradient().norm()


def create_decomposition_check(obj: Objective, rho: float):
    """(loss at w+eps_hat, its excess over the base loss, base loss).

    The excess term is the sharpness contribution; the three values satisfy
    perturbed = excess + base exactly by construction.
    """
    check_rho(rho)
    base = obj.value()
    grads = obj.gradient()
    eps = compute_perturbation(obj.params, grads, rho).epsilon_hat
    perturbed = _perturbed_value(obj, eps.flat)
    return perturbed, perturbed - base, base


def fisher_trace_check(model: MultiHeadClassifier, features, labels, task_id: int):
    """Trace of the diagonal empirical Fisher vs mean squared gradient norm
    over the same samples: (trace, mean_sq_grad_norm, rel_gap)."""
    labels = np.asarray(labels)
    if len(labels) < 1:
        raise ValueError("need at least one sample")
    # Two reduction orders: the trace sums per-coordinate Fisher values that
    # were each averaged over samples; the other side averages per-sample
    # squared gradient norms.  Algebraically equal.
    sums, sq_norms = model.gradient_second_moments(features, labels, task_id)
    trace = float(np.sum(sums)) / len(labels)
    mean_sq = float(np.mean(sq_norms))
    denom = max(abs(mean_sq), 1e-300)
    return trace, mean_sq, abs(trace - mean_sq) / denom


def hvp(obj, v):
    """Exact Hessian-vector product H v at the objective's current weights.

    `obj` is an Objective and `v` a ParameterSet, or `obj` is an operator
    from `Objective.bind_hvp` and `v` a flat vector; H v has the form of
    `v`.  Either way a zero direction and a non-finite product are refused.
    """
    if isinstance(obj, Objective):  # bind at the current weights, apply once
        obj.params.require_aligned(v, "hvp")
        return obj.params.unflatten(_checked_product(obj.bind_hvp(), v.flat))
    return _checked_product(obj, v)


def _checked_product(op, v: np.ndarray) -> np.ndarray:
    if v @ v == 0:
        raise ValueError("direction must be nonzero")
    out = op(v)
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite Hessian-vector product")
    return out


@dataclass
class LanczosResult:
    lambda_max: float
    log_lambda_max: float
    iters_run: int
    breakdown: bool


def lanczos_lambda_max(obj: Objective, iters: int = 30, seed: int = 0) -> LanczosResult:
    """Largest Hessian eigenvalue via Lanczos with full reorthogonalization,
    using exact Hessian-vector products as the operator.  The Hessian is
    bound once at the start and each basis row, a flat vector of the one
    (iters, d) basis array, goes through `hvp` as it is."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    op = obj.bind_hvp()  # the weights do not move during the run
    rng = np.random.Generator(np.random.PCG64(seed))
    q = rng.normal(size=obj.params.total_size())
    basis = np.zeros((iters, q.size))
    basis[0] = q / np.sqrt(q @ q)
    alphas, betas = [], []
    breakdown = False
    for j in range(iters):
        w = hvp(op, basis[j])
        alpha = float(w @ basis[j])
        alphas.append(alpha)
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[-1] * basis[j - 1]
        done = basis[:j + 1]
        w -= done.T @ (done @ w)  # full reorthogonalization
        beta = float(np.sqrt(w @ w))
        if j + 1 == iters:
            break
        if beta < 1e-12:
            breakdown = True
            break
        betas.append(beta)
        basis[j + 1] = w / beta
    k = len(alphas)
    tri = np.diag(alphas)
    for i, b in enumerate(betas[:k - 1]):
        tri[i, i + 1] = tri[i + 1, i] = b
    lam = float(np.max(np.linalg.eigvalsh(tri)))
    return LanczosResult(lam, float(np.log(max(lam, 1e-30))), k, breakdown)


@dataclass
class SharpnessReport:
    ball_sharpness: float
    first_order_sharpness: float
    lambda_max: float
    log_lambda_max: float
    rho_used: float
    n_directions: int
    lanczos_iters: int


def sharpness_report(model: MultiHeadClassifier, batch: Batch, rho: float,
                     n_directions: int = 16, lanczos_iters: int = 30,
                     seed: int = 0) -> SharpnessReport:
    obj = model_objective(model, batch)
    ball = ball_sharpness(obj, rho, n_directions, seed)
    first = first_order_sharpness(obj, rho)
    lres = lanczos_lambda_max(obj, lanczos_iters, seed)
    return SharpnessReport(ball, first, lres.lambda_max, lres.log_lambda_max,
                           rho, n_directions, lres.iters_run)
