"""Central-difference gradient oracle.

The model computes its gradients with a hand-written batched kernel
(`MultiHeadClassifier.loss_gradient`); this module keeps the independent
finite-difference check those gradients are tested against.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterSet
from .rules import check


def finite_diff_gradient(loss_fn, params: ParameterSet, h: float = 1e-5) -> ParameterSet:
    """Central-difference gradient oracle: (f(w+h e_i) - f(w-h e_i)) / 2h."""
    check("positive", h, "h")
    work = params.copy()
    out = work.zeros_like()
    w = work.flat
    for i in range(w.size):
        orig = w[i]
        w[i] = orig + h
        f_plus = float(loss_fn(work))
        w[i] = orig - h
        f_minus = float(loss_fn(work))
        w[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite loss while differencing coordinate {i}")
        out.flat[i] = (f_plus - f_minus) / (2.0 * h)
    return out
