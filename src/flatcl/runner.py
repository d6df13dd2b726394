"""Experiment orchestration: config loading, variant runs over seeds,
checkpointing, and CSV/JSON result emission."""

from __future__ import annotations

import dataclasses
import json
import os
import traceback

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import Checkpoint, config_hash, load_checkpoint, save_checkpoint
from .data import TaskStream, gen_permuted_features, gen_rotated_gaussians, make_order
from .model import Batch, MultiHeadClassifier
from .optim import OptimizerConfig, VariantFlags, train_continual, train_multitask
from .probe import lanczos_lambda_max, model_objective

VARIANT_FLAGS = {
    "seq": VariantFlags(),
    "replay": VariantFlags(replay=True),
    "cf": VariantFlags(create=True, find=True, clamp=True, l2=True, replay=True),
    "cf_minus_clamp": VariantFlags(create=True, find=True, l2=True, replay=True),
    "cf_minus_find": VariantFlags(create=True, l2=True, clamp=True, replay=True),
    "cf_minus_l2": VariantFlags(create=True, clamp=True, replay=True),
    "cf_minus_create": VariantFlags(find=True, l2=True, clamp=True, replay=True),
    "mtl": VariantFlags(),
}
# The paper's names for two ablations: random importance in place of Fisher
# is cf without find, and create alone is cf without the l2 penalty.
VARIANT_FLAGS["random_indicator"] = VARIANT_FLAGS["cf_minus_find"]
VARIANT_FLAGS["create_only"] = VARIANT_FLAGS["cf_minus_l2"]


# Keys a config may hold, per section; keys starting with "_" are comments.
CONFIG_KEYS = {
    "": "name benchmark orders order seeds epochs_per_task model optimizer probe",
    "benchmark": "kind n_tasks classes_per_task dim samples_per_class separation "
                 "rotation_per_task data_seed_offset",
    "model": "hidden_dims activation init_seed_offset",
    "optimizer": " ".join(f.name for f in dataclasses.fields(OptimizerConfig)
                          if f.name != "variant"),
    "probe": "enabled batch_size lanczos_iters",
}
# Keys read without a default, per section.
REQUIRED_KEYS = {
    "": "benchmark epochs_per_task model",
    "benchmark": "kind n_tasks classes_per_task dim samples_per_class separation",
    "model": "hidden_dims",
}


def check_config_keys(cfg: dict):
    """Raise a one-line ValueError naming the first unknown or missing key."""
    for section, allowed in CONFIG_KEYS.items():
        body = cfg.get(section, {}) if section else cfg
        where = f" in {section!r}" if section else ""
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key in body:
            if key not in allowed.split() and not key.startswith("_"):
                raise ValueError(f"unknown config key {key!r}{where}; "
                                 f"expected one of: {allowed}")
        required = REQUIRED_KEYS.get(section, "").split()
        if section == "benchmark" and body.get("kind") == "rotated_gaussians":
            required.append("rotation_per_task")
        for key in required:
            if key not in body:
                raise ValueError(f"missing config key {key!r}{where}")


def load_config(path) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    check_config_keys(cfg)
    return cfg


def build_stream(cfg: dict, seed: int) -> TaskStream:
    bench = cfg["benchmark"]
    data_seed = bench.get("data_seed_offset", 0) + seed
    kind = bench["kind"]
    if kind == "rotated_gaussians":
        stream = gen_rotated_gaussians(
            data_seed, bench["n_tasks"], bench["classes_per_task"], bench["dim"],
            bench["samples_per_class"], bench["separation"], bench["rotation_per_task"])
    elif kind == "permuted_features":
        stream = gen_permuted_features(
            data_seed, bench["n_tasks"], bench["classes_per_task"], bench["dim"],
            bench["samples_per_class"], bench["separation"])
    else:
        raise ValueError(f"unknown benchmark kind {kind!r}")
    order_name = cfg.get("order", "identity")
    orders = cfg.get("orders", {})
    if order_name != "identity":
        if order_name not in orders:
            raise ValueError(f"unknown order {order_name!r}")
        stream = make_order(stream, orders[order_name], order_name)
    return stream


def build_optimizer_config(cfg: dict, variant: str) -> OptimizerConfig:
    if variant not in VARIANT_FLAGS:
        raise ValueError(f"unknown variant {variant!r}; choose from "
                         f"{sorted(VARIANT_FLAGS)}")
    opt = {k: v for k, v in cfg.get("optimizer", {}).items()
           if not k.startswith("_")}
    return OptimizerConfig(variant=VARIANT_FLAGS[variant], **opt)


def _build_model(cfg: dict, stream: TaskStream, seed: int, all_heads=False):
    m = cfg["model"]
    classes = ([t.class_count for t in stream] if all_heads
               else [stream[0].class_count])
    return MultiHeadClassifier(seed + m.get("init_seed_offset", 0),
                               stream[0].features.shape[1], m["hidden_dims"],
                               classes, activation=m.get("activation", "tanh"))


def _probe_batch(stream: TaskStream, size: int) -> Batch:
    feats, labels = stream[0].val_xy()
    return Batch(feats[:size], labels[:size], 0)


def _fresh_dir(path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    os.makedirs(path, exist_ok=False)
    return path


def write_matrix_csv(path, matrix):
    t = matrix.shape[0]
    with open(path, "w") as f:
        f.write(",".join(f"task{j}" for j in range(t)) + "\n")
        for l in range(t):
            cells = ["" if np.isnan(matrix[l, j]) else repr(float(matrix[l, j]))
                     for j in range(t)]
            f.write(",".join(cells) + "\n")


def read_matrix_csv(path):
    with open(path) as f:
        header = f.readline()
        t = len(header.strip().split(","))
        matrix = np.full((t, t), np.nan)
        for l, line in enumerate(f):
            for j, cell in enumerate(line.rstrip("\n").split(",")):
                if cell:
                    matrix[l, j] = float(cell)
    return matrix


def run_single_seed(cfg: dict, variant: str, seed: int, out_dir: str,
                    resume_from: str | None = None) -> dict:
    """One (variant, seed) run; writes matrix.csv, metrics.json and per-task
    checkpoints into a fresh directory.  Returns the metrics dict."""
    check_config_keys(cfg)
    chash = config_hash({"config": {k: v for k, v in cfg.items() if k != "seeds"},
                         "variant": variant, "seed": seed})
    loaded = None
    if resume_from is not None:
        loaded = load_checkpoint(resume_from)
        if loaded.config_hash != chash:
            raise ValueError(f"{resume_from}: checkpoint was written under a different "
                             "config, variant or seed; refusing to resume")
    # Everything that can refuse the config runs before out_dir exists.
    stream = build_stream(cfg, seed)
    opt_config = build_optimizer_config(cfg, variant)
    epochs = cfg["epochs_per_task"]

    if variant == "mtl":
        model = _build_model(cfg, stream, seed, all_heads=True)
        _fresh_dir(out_dir)
        reference = train_multitask(model, stream, opt_config, seed, epochs)
        result_metrics = {"variant": variant, "seed": seed,
                          "reference_accuracies": reference.tolist(),
                          "avg_accuracy_after_last": float(reference.mean())}
        with open(os.path.join(out_dir, "metrics.json"), "w") as f:
            json.dump(result_metrics, f, indent=2)
        save_checkpoint(os.path.join(out_dir, "ckpt_final.bin"),
                        Checkpoint(model=model, config_hash=chash))
        return result_metrics

    probe_cfg = cfg.get("probe", {})
    probe_fn = None
    if probe_cfg.get("enabled", False):
        batch = _probe_batch(stream, probe_cfg.get("batch_size", 64))
        iters = probe_cfg.get("lanczos_iters", 20)

        def probe_fn(model, task_idx):
            res = lanczos_lambda_max(model_objective(model, batch), iters, seed)
            return {"task": task_idx, "lambda_max": res.lambda_max,
                    "log_lambda_max": res.log_lambda_max}

    def checkpoint_fn(task_idx, **state):
        save_checkpoint(os.path.join(out_dir, f"ckpt_task{task_idx}.bin"),
                        Checkpoint(model=model, config_hash=chash, **state))

    model = _build_model(cfg, stream, seed) if loaded is None else loaded.model
    _fresh_dir(out_dir)
    result = train_continual(model, stream, opt_config, seed, epochs,
                             probe_fn=probe_fn, resume=loaded,
                             checkpoint_fn=checkpoint_fn)

    write_matrix_csv(os.path.join(out_dir, "matrix.csv"), result.accuracy_matrix)
    result_metrics = metrics_mod.summarize(result.accuracy_matrix)
    result_metrics.update({"variant": variant, "seed": seed,
                           "config_hash": chash,
                           "sharpness_trace": result.probe_values})
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(result_metrics, f, indent=2)
    return result_metrics


def aggregate(rows: list[dict], path):
    """Mean +/- sample std (n-1 denominator) over seeds for scalar metrics."""
    keys = ["avg_accuracy_after_last", "forgetting"]
    with open(path, "w") as f:
        f.write("metric,mean,std,n\n")
        for key in keys:
            vals = [r[key] for r in rows if r.get(key) is not None]
            if not vals:
                f.write(f"{key},,,0\n")
                continue
            mean = float(np.mean(vals))
            std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            f.write(f"{key},{mean!r},{std!r},{len(vals)}\n")


def run_experiment(cfg: dict, variant: str, out_root: str, seeds=None) -> list[dict]:
    """Run every seed, recording a failed seed's error and traceback in
    failures.json and going on with the others."""
    check_config_keys(cfg)
    if seeds is None and "seeds" not in cfg:
        raise ValueError("config has no 'seeds' and no seed was given")
    seeds = list(seeds if seeds is not None else cfg["seeds"])
    if not seeds:
        raise ValueError("seeds must be nonempty")
    name = cfg.get("name", "experiment")
    rows = []
    failures = []
    for seed in seeds:
        out_dir = os.path.join(out_root, name, variant, f"seed{seed}")
        try:
            rows.append(run_single_seed(cfg, variant, seed, out_dir))
        except Exception as exc:  # record and continue with other seeds
            failures.append({"seed": seed, "type": type(exc).__name__,
                             "error": str(exc), "traceback": traceback.format_exc()})
    agg_dir = os.path.join(out_root, name, variant)
    os.makedirs(agg_dir, exist_ok=True)
    aggregate(rows, os.path.join(agg_dir, "aggregate.csv"))
    if failures:
        with open(os.path.join(agg_dir, "failures.json"), "w") as f:
            json.dump(failures, f, indent=2)
    return rows
