"""Per-layer tracing for the benchmark, applied from outside the package.

`Tracer.install()` replaces flatcl's layer functions with timing wrappers in
the namespace where each is looked up at call time, and `restore()` puts the
originals back.  Nothing under src/ is edited.  For each span the tracer
keeps calls, busy time (wall time inside the call), self time (busy time
minus the time covered by child spans) and errors (calls that raised, or for
`optim.clamp_to_region` calls that left a weight outside its box).  Spans
are aggregated in memory; no per-call record is kept, which holds the
tracing cost to two clock reads and a few additions per call.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from flatcl import checkpoint, model, optim, params, probe, replay, runner

# (owner, attribute, span name).  Functions are wrapped where they are looked
# up at call time: runner imports train_continual, lanczos_lambda_max and
# save_checkpoint by name, train_task and train_continual read optim's module
# globals, and methods are looked up on their class.
_SPANS = [
    (runner, "run_single_seed", "runner.run_single_seed"),
    (runner, "build_stream", "runner.build_stream"),
    (runner, "train_continual", "optim.train_continual"),
    (optim, "train_task", "optim.train_task"),
    (model.MultiHeadClassifier, "loss_gradient", "model.loss_gradient"),
    (model.MultiHeadClassifier, "log_prob_gradient", "model.log_prob_gradient"),
    (optim, "base_step", "optim.base_step"),
    (optim, "create_gradient", "optim.create_gradient"),
    (optim, "soft_penalty", "optim.soft_penalty"),
    (optim, "clamp_to_region", "optim.clamp_to_region"),
    (optim, "find_fisher", "optim.find_fisher"),
    (replay, "select_exemplars", "replay.select_exemplars"),
    (replay.ReplayBuffer, "sample_batches", "replay.ReplayBuffer.sample_batches"),
    (runner, "lanczos_lambda_max", "probe.lanczos_lambda_max"),
    (probe, "lanczos_lambda_max", "probe.lanczos_lambda_max"),
    (probe, "hvp", "probe.hvp"),
    (probe, "ball_sharpness", "probe.ball_sharpness"),
    (probe, "fisher_trace_check", "probe.fisher_trace_check"),
    (runner, "save_checkpoint", "checkpoint.save_checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in _SPANS))
SPAN_FIELDS = (("calls", "count/op"), ("busy_s", "s/op"), ("self_s", "s/op"),
               ("errors", "count/op"))
COUNTS = {
    "params.ParameterSet.constructed": "count/op",
    "optim.clamp_to_region.clamped": "count/op",
    "probe.lanczos_lambda_max.iters": "count/op",
    "probe.lanczos_lambda_max.breakdowns": "count/op",
    "checkpoint.save_checkpoint.bytes": "B/op",
    "checkpoint.load_checkpoint.bytes": "B/op",
}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[float] = []  # child time covered, one slot per open span
        self._patched: list[tuple[object, str, object]] = []
        self._after = {
            "optim.clamp_to_region": self._after_clamp,
            "probe.lanczos_lambda_max": self._after_lanczos,
            "checkpoint.save_checkpoint": self._after_file("checkpoint.save_checkpoint.bytes"),
            "checkpoint.load_checkpoint": self._after_file("checkpoint.load_checkpoint.bytes"),
        }

    def install(self):
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        init = params.ParameterSet.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            counts["params.ParameterSet.constructed"] += 1
            init(*args, **kwargs)

        self._patch(params.ParameterSet, "__init__", counted_init)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0, 0]
        for name in self.counts:
            self.counts[name] = 0

    def error_total(self) -> int:
        return sum(s[3] for s in self.stats.values())

    def snapshot(self):
        return ({n: list(s) for n, s in self.stats.items()}, dict(self.counts))

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        after = self._after.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                busy = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - child
                if stack:
                    stack[-1] += busy
            if after is not None:
                start = clock()
                after(result, *args, **kwargs)
                # Checks are benchmark work: keep them out of the caller's self time.
                if stack:
                    stack[-1] += clock() - start
            return result

        return wrapper

    def _after_clamp(self, clamped, params_, region):
        self.counts["optim.clamp_to_region.clamped"] += clamped
        for name in region.constrained_names:
            anchor = region.anchor[name]
            half = region.rho * np.abs(anchor)
            w = params_[name]
            if not np.all((w >= anchor - half) & (w <= anchor + half)):
                self.stats["optim.clamp_to_region"][3] += 1
                return

    def _after_lanczos(self, result, *args, **kwargs):
        self.counts["probe.lanczos_lambda_max.iters"] += result.iters_run
        self.counts["probe.lanczos_lambda_max.breakdowns"] += int(result.breakdown)

    def _after_file(self, counter):
        def after(result, path, *args, **kwargs):
            self.counts[counter] += os.path.getsize(path)
        return after


def per_op_metrics(snapshot, ops: int) -> dict:
    """Per-layer metrics as {name: (value per op, unit)}."""
    stats, counts = snapshot
    out = {}
    for name in SPAN_NAMES:
        for (field, unit), value in zip(SPAN_FIELDS, stats[name]):
            out[f"{name}.{field}"] = (value / ops, unit)
    for name, unit in COUNTS.items():
        out[name] = (counts[name] / ops, unit)
    return out
