"""Command-line interface: run experiments, probe sharpness, recompute
metrics, and emit benchmark data files."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import load_checkpoint
from .data import save_delimited
from .optim import OPTIMIZER_RULES, OptimizerConfig, check
from .probe import lanczos_lambda_max, quadratic_objective, sharpness_report
from .runner import (VARIANT_FLAGS, build_stream, load_config, probe_batch,
                     read_json, read_matrix_csv, run_experiment, run_hash)


# (`run` flag, optimizer config key) of each hyperparameter override.
_OVERRIDES = (("--rho", "rho"), ("--lambda", "lam"), ("--gamma", "gamma"),
              ("--sparse-ratio", "sparse_update_ratio"), ("--replay-every", "replay_every"),
              ("--store-ratio", "store_ratio"))


def _apply_overrides(cfg, args):
    """Write each given override, checked by its key's rule under the flag's
    name, into the optimizer section, added only for one, so a run without
    overrides hashes the config file as written and `flatcl probe` takes it."""
    for flag, key in _OVERRIDES:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            check(OPTIMIZER_RULES[key], value, flag)
            cfg.setdefault("optimizer", {})[key] = value


def _cmd_run(args):
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if args.order is not None:
        cfg["order"] = args.order
    seeds = [args.seed] if args.seed is not None else None
    rows = run_experiment(cfg, args.variant, args.out, seeds=seeds)
    if not rows:
        raise RuntimeError("all seeds failed; see failures.json")
    for row in rows:
        line = f"seed {row['seed']}: avg_accuracy={row['avg_accuracy_after_last']:.4f}"
        if row.get("forgetting") is not None:  # an mtl row has none
            line += f" forgetting={row['forgetting']}"
        print(line)
    return 0


def _is_finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _cmd_probe(args):
    if args.seed is not None:
        check("seed", args.seed, "--seed")
    # the library's refusal, `iters must be >= 1`, names no flag
    if args.lanczos_iters < 1:
        raise ValueError(f"--lanczos-iters must be >= 1, got {args.lanczos_iters}")
    if args.quadratic is not None:
        # the surrogate reads no checkpoint, config, task or radius
        for flag in ("checkpoint", "config", "task", "rho"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply to --quadratic")
        entries = args.quadratic.split(",")
        if not all(map(_is_finite_number, entries)):
            raise ValueError("--quadratic must be comma-separated finite numbers, "
                             f"got {args.quadratic!r}")
        diag = np.array([float(x) for x in entries])
        obj = quadratic_objective(np.diag(diag), np.zeros(len(diag)))
        res = lanczos_lambda_max(obj, args.lanczos_iters, args.seed or 0)
        print(json.dumps({"lambda_max": res.lambda_max,
                          "log_lambda_max": res.log_lambda_max}))
        return 0
    if args.checkpoint is None or args.config is None:
        raise ValueError("probe needs --checkpoint and --config (or --quadratic)")
    cfg = load_config(args.config)
    ckpt = load_checkpoint(args.checkpoint)
    if (ckpt.variant is not None
            and ckpt.config_hash != run_hash(cfg, ckpt.variant, ckpt.seed)):
        raise ValueError(f"{args.checkpoint}: checkpoint was written under a different "
                         "config, variant or seed; refusing to probe")
    seed = args.seed if args.seed is not None else ckpt.seed
    if seed is None:
        raise ValueError(f"{args.checkpoint} records no run seed; pass --seed")
    stream = build_stream(cfg, seed)
    task = 0 if args.task is None else args.task
    if not 0 <= task < len(stream):
        raise ValueError(f"--task {task} is out of range: the config has "
                         f"{len(stream)} tasks")
    rho = 0.05 if args.rho is None else args.rho
    report = sharpness_report(ckpt.model, probe_batch(cfg, stream, task), rho=rho,
                              lanczos_iters=args.lanczos_iters, seed=seed)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def _cmd_metrics(args):
    matrix = read_matrix_csv(args.matrix)
    try:
        metrics_mod._check_matrix(matrix)
    except ValueError as exc:
        raise ValueError(f"{args.matrix}: {exc}") from None
    reference = None
    if args.reference is not None:
        ref = read_json(args.reference)
        if not isinstance(ref, dict) or "reference_accuracies" not in ref:
            raise ValueError(f"{args.reference} holds no reference_accuracies; "
                             "--reference needs the metrics.json of an mtl run")
        try:
            reference = metrics_mod._check_reference(ref["reference_accuracies"],
                                                     matrix.shape[0])
        except ValueError as exc:
            raise ValueError(f"{args.reference}: {exc}") from None
    print(json.dumps(metrics_mod.summarize(matrix, reference), indent=2))
    return 0


def _cmd_gen_data(args):
    check("seed", args.seed, "--seed")
    cfg = load_config(args.config)
    stream = build_stream(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for task in stream:
        path = os.path.join(args.out, f"{task.name}.csv")
        save_delimited(path, task.features, task.labels)
        print(path)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="flatcl",
                                description="Continual learning in flat training spaces")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment variant over seeds")
    run.add_argument("--config", required=True)
    run.add_argument("--variant", required=True, choices=sorted(VARIANT_FLAGS))
    run.add_argument("--order", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", required=True)
    for flag, key in _OVERRIDES:  # each parses as its field's default does
        run.add_argument(flag, type=type(getattr(OptimizerConfig, key)), default=None)
    run.set_defaults(fn=_cmd_run)

    probe = sub.add_parser("probe", help="sharpness report for a checkpoint")
    probe.add_argument("--checkpoint", default=None)
    probe.add_argument("--config", default=None)
    probe.add_argument("--task", type=int, default=None, help="task to probe (default: 0)")
    probe.add_argument("--seed", type=int, default=None,
                       help="run seed of the probe's stream (default: the checkpoint's; "
                            "0 for --quadratic)")
    probe.add_argument("--rho", type=float, default=None,
                       help="ball-sharpness radius (default: 0.05)")
    probe.add_argument("--lanczos-iters", type=int, default=30)
    probe.add_argument("--quadratic", default=None,
                       help="comma-separated Hessian diagonal for a surrogate probe")
    probe.set_defaults(fn=_cmd_probe)

    met = sub.add_parser("metrics", help="recompute metrics from a stored matrix")
    met.add_argument("--matrix", required=True)
    met.add_argument("--reference", default=None,
                     help="metrics.json of an mtl run, for intransigence")
    met.set_defaults(fn=_cmd_metrics)

    gen = sub.add_parser("gen-data", help="emit delimited files for a benchmark")
    gen.add_argument("--config", required=True)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_gen_data)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow or invalid operation fails the subcommand where it
        # happens, with the one error line, where numpy would warn and go on
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
