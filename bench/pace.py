"""Host-speed reference for the benchmark.

The virtual machines this benchmark runs on slow their vCPUs by 20% to over
100%, in spells that last from under a second to over ten minutes, and CPU
time rises with wall time, so neither clock alone is steady from run to run.  `Pacer`
runs a fixed chunk of the benchmark's own work after every timed interval
and scales the interval by REF_S over the mean chunk time on either side of
it.  That gives the interval's time at one fixed host speed: REF_S is the
chunk's wall time in a quiet spell on a 2-vCPU 2.0 GHz Xeon VM, so there the
scaled times read as seconds.

The chunk is made of what flatcl's ops are made of, and of none of flatcl's
code, so no change to the library moves it: a small MLP trained through a
few lines of reverse-mode autodiff, that is Python objects, closures and
dicts around small matrix products and elementwise numpy.  Its slowdown in a
slow spell matched that of a `rot5_cf` op; a sweep over 8 MB of matrices,
tried as well, slowed less than the ops did.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.012     # wall time of one chunk at the fixed host speed
REF_SHARE = 0.25  # chunks after an interval run for at least this share of it
STEPS = 230       # autodiff steps per chunk

_rng = np.random.Generator(np.random.PCG64(0))
_X = [_rng.standard_normal((16, 20)) for _ in range(8)]
_Y = [_rng.integers(0, 3, 16) for _ in range(8)]
_W0 = {"w1": _rng.standard_normal((20, 16)) * 0.3, "w2": _rng.standard_normal((16, 3)) * 0.3}


class _Node:
    __slots__ = ("value", "parents", "backward", "grad")

    def __init__(self, value, parents=(), backward=None):
        self.value, self.parents, self.backward, self.grad = value, parents, backward, None


def _matmul(a, b):
    return _Node(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def _tanh(a):
    y = np.tanh(a.value)
    return _Node(y, (a,), lambda g: ((1.0 - y * y) * g,))


def _softmax_xent(a, labels):
    z = a.value - a.value.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    loss = -np.log(p[np.arange(len(labels)), labels]).mean()

    def backward(g):
        d = p.copy()
        d[np.arange(len(labels)), labels] -= 1.0
        return (d * (g / len(labels)),)

    return _Node(loss, (a,), backward)


def _backprop(out):
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for parent in node.parents:
                visit(parent)
            order.append(node)

    visit(out)
    out.grad = 1.0
    for node in reversed(order):
        if node.backward is not None:
            for parent, g in zip(node.parents, node.backward(node.grad)):
                parent.grad = g if parent.grad is None else parent.grad + g


def chunk_s() -> float:
    """Wall time of one chunk of reference work."""
    t = time.perf_counter()
    params = dict(_W0)
    for i in range(STEPS):
        leaves = {k: _Node(v) for k, v in params.items()}
        hidden = _tanh(_matmul(_Node(_X[i % 8]), leaves["w1"]))
        _backprop(_softmax_xent(_matmul(hidden, leaves["w2"]), _Y[i % 8]))
        params = {k: v - 0.05 * leaves[k].grad for k, v in params.items()}
    return time.perf_counter() - t


def sample_s(wall: float = 0.0) -> float:
    """Mean chunk time over chunks run for at least REF_SHARE of `wall`."""
    times = [chunk_s()]
    while sum(times) < REF_SHARE * wall:
        times.append(chunk_s())
    return statistics.fmean(times)


class Pacer:
    """Scales the wall times of consecutive intervals to the fixed host speed."""

    def __init__(self):
        chunk_s()  # warm-up
        self.before = sample_s()

    def factor(self, wall: float) -> float:
        """Scale factor for the interval of `wall` seconds that just ended."""
        after = sample_s(wall)
        factor = 2 * REF_S / (self.before + after)
        self.before = after
        return factor
