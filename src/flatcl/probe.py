"""Flatness measurement suite.

Ball sharpness (max loss increase over a rho-ball), its first-order
approximation rho * ||grad||, the additive decomposition of the perturbed
loss, the Fisher trace identity, and a largest-Hessian-eigenvalue estimate
via Lanczos on exact Hessian-vector products.

No probe writes the weights.  A probe's losses, at w and at each perturbed
point, are scored in one pass through the model's plan over a stack of
weight vectors, as the create step scores w + eps through its plan over a
scratch vector; the Hessian operator only reads the weights.  A report
makes one pass at w: its Hessian bind also writes the gradient, which both
sharpness estimates read, and Lanczos applies the operator it bound.

Lanczos binds the Hessian once per run.  The bound operator works on each
layer's folded `[W; b]` block and copies each direction into one bound
buffer, so an apply builds no views; it writes every intermediate into
buffers bound with it and allocates only the product it returns.  Each
step then orthogonalizes the product against the whole basis by classical
Gram-Schmidt applied twice, writing its projections into two vectors made
once per run.  The stacked pass of the ball-sharpness losses takes its
class max, and under 8 classes its class sum, column by column,
elementwise (see `model._Pass`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .model import Batch, MultiHeadClassifier
from .optim import all_finite, compute_perturbation
from .params import ParameterSet
from .rules import check, generator


@dataclass(frozen=True)
class Objective:
    """Scalar objective over a live ParameterSet: the weights and three
    functions of them.

    `values(thetas)` scores the objective at each row of a (k, d) stack of
    weight vectors laid out like `params.flat`, in one call.  `gradient()`
    reads the current weights on every call.  `bind_hvp()` binds the Hessian at the current weights:
    it returns an operator from a flat v to a fresh flat H v that is valid
    while the weights do not move, so a Lanczos run binds once and applies
    many times.  A model objective's `bind_hvp(grads)` also writes the
    gradient into `grads`, a zero flat vector laid out like `params.flat`.
    """
    params: ParameterSet
    values: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[], ParameterSet]
    bind_hvp: Callable[..., Callable[[np.ndarray], np.ndarray]]


def model_objective(model: MultiHeadClassifier, batch: Batch) -> Objective:
    """The batch's mean cross-entropy.  The rows are checked here, once;
    the objective's methods call the model's unchecked forms."""
    features, labels = model._check_rows(batch.features, batch.labels, batch.task_id)
    task_id = batch.task_id
    return Objective(
        model.parameters(),
        lambda thetas: model._task_losses(features, labels, task_id, thetas),
        lambda: model._loss_gradient(features, labels, task_id)[1],
        lambda grads=None: model._hvp_operator(features, labels, task_id, grads),
    )


def quadratic_objective(matrix, w0) -> Objective:
    """L(w) = 1/2 w^T A w on a single parameter named 'w' (test surrogate)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    params = ParameterSet({"w": np.asarray(w0, dtype=np.float64)})
    return Objective(
        params,
        lambda thetas: np.array([0.5 * float(w @ matrix @ w) for w in thetas]),
        lambda: ParameterSet({"w": matrix @ params["w"]}),
        lambda: lambda v: matrix @ v,
    )


def _losses_around(obj: Objective, directions: np.ndarray, rho: float):
    """[L(w), L(w + e_1), ...] for the rows e_i of a (k, d) stack of flat
    directions, scored in one call on the stack [w; w + e_1; ...]; the
    weights are read, not written.  Row 0 is w itself, not w + 0, so a -0.0
    weight keeps its sign.  Only a perturbed loss must be finite: a
    non-finite loss the objective returns at w is kept.  An overflow or
    invalid operation while scoring, whatever the caller's numpy error
    state, is refused naming `rho`, the radius the directions were scaled
    to, unless the loss at w alone overflows, which is refused as such; an
    underflow is neither."""
    w = obj.params.flat
    thetas = np.empty((len(directions) + 1, w.size))
    thetas[0] = w
    np.add(w, directions, out=thetas[1:])
    try:
        vals = _guarded_values(obj, thetas)
    except FloatingPointError:
        try:  # only on the refusal path: is w itself at fault?
            _guarded_values(obj, thetas[:1])
        except FloatingPointError:
            raise FloatingPointError("the loss at w overflows") from None
        raise ValueError(f"rho {rho!r} puts a probe point where the loss "
                         "overflows") from None
    if not np.isfinite(vals[1:]).all():
        raise FloatingPointError("non-finite loss at perturbed point")
    return vals


def _guarded_values(obj: Objective, thetas: np.ndarray) -> np.ndarray:
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        return obj.values(thetas)


def ball_sharpness(obj: Objective, rho: float, n_directions: int, seed: int) -> float:
    """Max of L(w+eps) - L(w) over random rho-sphere directions plus the
    non-adaptive gradient-ascent direction rho * g / ||g||."""
    check("nonnegative", rho, "rho")
    check("count", n_directions, "n_directions")
    rng = generator(seed)
    directions = np.vstack([obj.gradient().flat,
                            rng.normal(size=(n_directions, obj.params.total_size()))])
    # each direction scaled onto the rho-sphere; a zero one is skipped.  The
    # stacked matmul takes each row's d @ d with the product `d @ d` runs.
    sq = np.matmul(directions[:, None, :], directions[:, :, None])[:, 0, 0]
    keep = sq > 0
    if not keep.any():
        return 0.0
    # a radius past what a float can scale is refused here, naming it, not
    # where numpy's overflow would stop the probe
    with np.errstate(over="ignore", invalid="ignore"):
        directions = directions[keep] * (rho / np.sqrt(sq[keep]))[:, None]
    if not np.isfinite(directions).all():
        raise ValueError(f"rho {rho!r} scales a probe direction past the float range")
    losses = _losses_around(obj, directions, rho)
    return float(np.max(losses[1:] - losses[0]))


def first_order_sharpness(obj: Objective, rho: float) -> float:
    """First-order Taylor estimate of ball sharpness: rho * ||grad||_2."""
    check("nonnegative", rho, "rho")
    return rho * obj.gradient().norm()


def create_decomposition_check(obj: Objective, rho: float):
    """(loss at w+eps_hat, its excess over the base loss, base loss).

    The excess term is the sharpness contribution; the three values satisfy
    perturbed = excess + base exactly by construction.
    """
    check("nonnegative", rho, "rho")
    eps = compute_perturbation(obj.params, obj.gradient(), rho).epsilon_hat
    base, perturbed = map(float, _losses_around(obj, eps.flat[None], rho))
    return perturbed, perturbed - base, base


def fisher_trace_check(model: MultiHeadClassifier, features, labels, task_id: int):
    """Trace of the diagonal empirical Fisher vs mean squared gradient norm
    over the same samples: (trace, mean_sq_grad_norm, rel_gap)."""
    # Two reduction orders: the trace sums per-coordinate Fisher values that
    # were each averaged over samples; the other side averages per-sample
    # squared gradient norms.  Algebraically equal.
    sums, sq_norms = model.gradient_second_moments(features, labels, task_id)
    trace = float(np.sum(sums)) / len(sq_norms)
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
    if not np.count_nonzero(v):  # exact: a sum of squares can underflow to 0
        raise ValueError("direction must be nonzero")
    out = op(v)
    if not all_finite(out):
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
    (iters, d) basis array, goes through `hvp` as it is.  Each step
    orthogonalizes H q_j against the whole basis by classical Gram-Schmidt
    applied twice (CGS2; Giraud, Langou & Rozloznik 2005), which stands in
    for the three-term recurrence plus one reorthogonalization: alpha_j is
    the sum of the two projections' q_j coefficients and beta_j the norm of
    what is left.  The four projections, `Q @ w` and `h @ Q`, are flat
    products and go through `np.dot`, which calls the BLAS routine
    `np.matmul` calls and gives its bits without the ufunc dispatch;
    `np.matmul` is the entry point for stacks, on which `np.dot` means
    another product.  They write, with `out=`, into two vectors made once
    per run, the coefficients `h` and the product `h @ Q`, so a step
    allocates only the product H q_j the operator returns."""
    check("count", iters, "iters")
    rng = generator(seed)
    op = obj.bind_hvp()  # the weights do not move during the run
    q = rng.normal(size=obj.params.total_size())
    basis = np.zeros((iters, q.size))
    basis[0] = q / np.sqrt(q @ q)
    # the coefficients h of each projection and its product h @ Q
    h, projection = np.empty(iters), np.empty(q.size)
    alphas, betas = [], []
    breakdown = False
    for j in range(iters):
        w = hvp(op, basis[j])
        done, h_j = basis[:j + 1], h[:j + 1]
        np.dot(done, w, out=h_j)
        w -= np.dot(h_j, done, out=projection)
        alpha = h_j[j]
        np.dot(done, w, out=h_j)
        w -= np.dot(h_j, done, out=projection)
        alphas.append(float(alpha + h_j[j]))
        beta = math.sqrt(w @ w)
        if j + 1 == iters:
            break
        if beta < 1e-12:
            breakdown = True
            break
        betas.append(beta)
        np.divide(w, beta, out=basis[j + 1])
    k = len(alphas)  # one more than the betas
    tri = np.diag(alphas)
    i = np.arange(k - 1)
    tri[i, i + 1] = tri[i + 1, i] = betas
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
    # the weights do not move during a report, so one bind at w serves all
    # three probes: its gradient both sharpness estimates, its operator Lanczos
    grads = obj.params.zeros_like()
    op = obj.bind_hvp(grads.flat)
    fixed = replace(obj, gradient=lambda: grads, bind_hvp=lambda: op)
    ball = ball_sharpness(fixed, rho, n_directions, seed)
    first = first_order_sharpness(fixed, rho)
    lres = lanczos_lambda_max(fixed, lanczos_iters, seed)
    return SharpnessReport(ball, first, lres.lambda_max, lres.log_lambda_max,
                           rho, n_directions, lres.iters_run)
