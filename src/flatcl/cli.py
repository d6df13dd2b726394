"""Command-line interface: run experiments, probe sharpness, recompute
metrics, and emit benchmark data files."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import load_checkpoint
from .data import save_delimited
from .probe import lanczos_lambda_max, quadratic_objective, sharpness_report
from .runner import (VARIANT_FLAGS, build_stream, load_config, read_matrix_csv,
                     run_experiment)
from .model import Batch


# (`run` argument, optimizer config key) for the hyperparameter overrides.
_OVERRIDES = (("rho", "rho"), ("lam", "lam"), ("gamma", "gamma"),
              ("sparse_ratio", "sparse_update_ratio"), ("replay_every", "replay_every"),
              ("store_ratio", "store_ratio"))


def _apply_overrides(cfg, args):
    opt = cfg.setdefault("optimizer", {})
    for arg, key in _OVERRIDES:
        if getattr(args, arg) is not None:
            opt[key] = getattr(args, arg)


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
        acc = row.get("avg_accuracy_after_last")
        print(f"seed {row['seed']}: avg_accuracy={acc:.4f} "
              f"forgetting={row.get('forgetting')}")
    return 0


def _cmd_probe(args):
    if args.quadratic is not None:
        diag = np.array([float(x) for x in args.quadratic.split(",")])
        obj = quadratic_objective(np.diag(diag), np.zeros(len(diag)))
        res = lanczos_lambda_max(obj, args.lanczos_iters, args.seed)
        print(json.dumps({"lambda_max": res.lambda_max,
                          "log_lambda_max": res.log_lambda_max}))
        return 0
    if args.checkpoint is None or args.config is None:
        raise ValueError("probe needs --checkpoint and --config (or --quadratic)")
    cfg = load_config(args.config)
    ckpt = load_checkpoint(args.checkpoint)
    stream = build_stream(cfg, args.seed)
    if not 0 <= args.task < len(stream):
        raise ValueError(f"--task {args.task} is out of range: the config has "
                         f"{len(stream)} tasks")
    feats, labels = stream[args.task].val_xy()
    size = cfg.get("probe", {}).get("batch_size", 64)
    batch = Batch(feats[:size], labels[:size], args.task)
    report = sharpness_report(ckpt.model, batch, rho=args.rho,
                              lanczos_iters=args.lanczos_iters, seed=args.seed)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def _cmd_metrics(args):
    matrix = read_matrix_csv(args.matrix)
    reference = None
    if args.reference is not None:
        with open(args.reference) as f:
            reference = json.load(f)["reference_accuracies"]
    print(json.dumps(metrics_mod.summarize(matrix, reference), indent=2))
    return 0


def _cmd_gen_data(args):
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
    run.add_argument("--rho", type=float, default=None)
    run.add_argument("--lambda", dest="lam", type=float, default=None)
    run.add_argument("--gamma", type=float, default=None)
    run.add_argument("--sparse-ratio", type=float, default=None)
    run.add_argument("--replay-every", type=int, default=None)
    run.add_argument("--store-ratio", type=float, default=None)
    run.set_defaults(fn=_cmd_run)

    probe = sub.add_parser("probe", help="sharpness report for a checkpoint")
    probe.add_argument("--checkpoint", default=None)
    probe.add_argument("--config", default=None)
    probe.add_argument("--task", type=int, default=0)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--rho", type=float, default=0.05)
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
        return args.fn(args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
