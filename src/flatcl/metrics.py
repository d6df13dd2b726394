"""Continual-learning scoring from the accuracy matrix.

a[l][j] is accuracy on task j's test set after training through task l
(0-based, lower-triangular).  Intransigence compares against a jointly
trained reference; forgetting compares each task's current accuracy to the
best it ever had.
"""

from __future__ import annotations

import numpy as np

from .optim import _number


def _check_matrix(matrix):
    """The matrix as float64, after a one-line ValueError for a matrix that
    is not square or a lower-triangle cell that is NaN (incomplete) or
    outside [0, 1], inf included."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("accuracy matrix must be square")
    t = matrix.shape[0]
    for l in range(t):
        for j in range(l + 1):
            value = float(matrix[l, j])
            if np.isnan(value):
                raise ValueError(f"incomplete accuracy matrix at [{l}][{j}]")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"accuracy matrix cell [{l}][{j}] is {value!r}, "
                                 "outside [0, 1]")
    return matrix


def _check_reference(reference, tasks: int):
    """The joint reference's accuracies as float64, after a one-line
    ValueError for a reference that does not hold one number per task or
    holds one that the rule table's number predicate refuses (a bool, a
    string, a numpy scalar other than float64), NaN or outside [0, 1], inf
    included."""
    given = reference
    try:
        reference = np.asarray(reference, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("reference accuracies must be a list of numbers") from None
    if reference.shape != (tasks,):
        raise ValueError(f"reference must cover every task: {tasks} accuracies, "
                         f"got shape {reference.shape}")
    for k, (value, item) in enumerate(zip(reference.tolist(), given)):
        if not _number(item):
            raise ValueError(f"reference accuracy [{k}] is {item!r}, not a number")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"reference accuracy [{k}] is {value!r}, outside [0, 1]")
    return reference


def avg_accuracy_after_last(matrix) -> float:
    """Mean accuracy over all tasks after training on the last one."""
    matrix = _check_matrix(matrix)
    return float(matrix[-1, :].mean())


def intransigence(matrix, reference):
    """Per-task I_k = reference_k - a[k][k]; returns (per-task, mean).

    Lower is better; negative means the sequential run beat the joint
    reference on that task.
    """
    matrix = _check_matrix(matrix)
    reference = _check_reference(reference, matrix.shape[0])
    per_task = reference - np.diag(matrix)
    return per_task, float(per_task.mean())


def forgetting(matrix):
    """Forgetting after each task k >= 2 (0-based k >= 1).

    f_j^k = max over l < k of a[l][j], minus a[k][j]; F_k averages f_j^k
    over previously seen tasks j < k.  Returns (per-step F_k array of
    length T-1, mean over those steps).  Undefined for a single task.
    """
    matrix = _check_matrix(matrix)
    t = matrix.shape[0]
    if t < 2:
        return None, None
    per_step = []
    for k in range(1, t):
        # a[l][j] exists only for l >= j, so the max over l < k runs l = j..k-1
        f_vals = [np.max(matrix[j:k, j]) - matrix[k, j] for j in range(k)]
        per_step.append(float(np.mean(f_vals)))
    return np.array(per_step), float(np.mean(per_step))


def summarize(matrix, reference=None) -> dict:
    """JSON-friendly summary of all metrics for one run."""
    matrix = _check_matrix(matrix)
    out = {"avg_accuracy_after_last": avg_accuracy_after_last(matrix)}
    per_step, mean_f = forgetting(matrix)
    out["forgetting_per_step"] = None if per_step is None else per_step.tolist()
    out["forgetting"] = mean_f
    if reference is not None:
        per_task, mean_i = intransigence(matrix, reference)
        out["intransigence_per_task"] = per_task.tolist()
        out["intransigence"] = mean_i
    return out
