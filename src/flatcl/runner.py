"""Experiment orchestration: config loading, variant runs over seeds,
checkpointing, and CSV/JSON result emission."""

from __future__ import annotations

import io
import json
import os
import traceback

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import (Checkpoint, config_hash, load_checkpoint, save_checkpoint,
                         write_atomic)
from .data import TaskStream, gen_permuted_features, gen_rotated_gaussians, make_order
from .model import Batch, MultiHeadClassifier
from .optim import OPTIMIZER_RULES, OptimizerConfig, VariantFlags, train_continual, train_multitask
from .probe import lanczos_lambda_max, model_objective
from .rules import RULES, check

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


# Every key a config may hold, per section, with its rule in `RULES`, after
# "required" for a key read without a default; keys starting with "_" are
# comments.  A "count" is of epochs, task rows or probe rows and iterations;
# an "offset" is added to the run seed, and numpy seeds only from integers
# >= 0.  The code that reads a key checks what its rule does not.
CONFIG_RULES = {
    "": {"name": "", "benchmark": "required", "orders": "", "order": "", "seeds": "",
         "epochs_per_task": "required count", "model": "required", "optimizer": "",
         "probe": ""},
    "benchmark": {"kind": "required", "n_tasks": "required count",
                  "classes_per_task": "required count", "dim": "required count",
                  "samples_per_class": "required count", "separation": "required",
                  "rotation_per_task": "", "data_seed_offset": "offset"},
    "model": {"hidden_dims": "required", "activation": "", "init_seed_offset": "offset"},
    "optimizer": OPTIMIZER_RULES,
    "probe": {"enabled": "flag", "batch_size": "count", "lanczos_iters": "count"},
}


def check_config_keys(cfg: dict):
    """Raise a one-line ValueError naming the first unknown or missing key,
    or the first value that breaks its key's rule in `CONFIG_RULES`."""
    for section, rules in CONFIG_RULES.items():
        body = cfg.get(section, {}) if section else cfg
        where, prefix = (f" in {section!r}", f"{section} ") if section else ("", "")
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key in body:
            if key not in rules and not key.startswith("_"):
                raise ValueError(f"unknown config key {key!r}{where}; "
                                 f"expected one of: {' '.join(rules)}")
        for key, rule in rules.items():
            if key in body:
                check(rule.removeprefix("required").lstrip(), body[key], f"{prefix}{key}")
            # the rotation is read only for the rotated benchmark
            elif rule.startswith("required") or (key == "rotation_per_task"
                                                 and body.get("kind") == "rotated_gaussians"):
                raise ValueError(f"missing config key {key!r}{where}")


def _read_text(path) -> str:
    """The UTF-8 text of file `path`; one that is not UTF-8 raises a
    one-line ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_json(path):
    """The JSON value in file `path`; one that is not UTF-8 text, not JSON
    or nested past what the parser recurses into raises a one-line
    ValueError naming it."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def load_config(path) -> dict:
    cfg = read_json(path)
    check_config_keys(cfg)
    return cfg


def build_stream(cfg: dict, seed: int) -> TaskStream:
    """The benchmark's tasks for `seed`, in the config's order."""
    bench = cfg["benchmark"]
    args = (bench.get("data_seed_offset", 0) + seed, bench["n_tasks"],
            bench["classes_per_task"], bench["dim"], bench["samples_per_class"],
            bench["separation"])
    if bench["kind"] == "rotated_gaussians":
        stream = gen_rotated_gaussians(*args, bench["rotation_per_task"])
    elif bench["kind"] == "permuted_features":
        stream = gen_permuted_features(*args)
    else:
        raise ValueError(f"unknown benchmark kind {bench['kind']!r}")
    order_name = cfg.get("order", "identity")
    if not isinstance(order_name, str):
        raise ValueError(f"order must be a string naming an order, got {order_name!r}")
    if order_name == "identity":
        return stream
    orders = cfg.get("orders", {})
    if not isinstance(orders, dict):
        raise ValueError(f"orders must be an object of named orders, got {orders!r}")
    if order_name not in orders:
        raise ValueError(f"unknown order {order_name!r}")
    return make_order(stream, orders[order_name], f"order {order_name!r}")


def build_optimizer_config(cfg: dict, variant: str) -> OptimizerConfig:
    if variant not in VARIANT_FLAGS:
        raise ValueError(f"unknown variant {variant!r}; choose from "
                         f"{sorted(VARIANT_FLAGS)}")
    opt = {k: v for k, v in cfg.get("optimizer", {}).items()
           if not k.startswith("_")}
    return OptimizerConfig(variant=VARIANT_FLAGS[variant], **opt)


def _build_model(cfg: dict, stream: TaskStream, seed: int):
    """The model with the first task's head; training adds the others."""
    m = cfg["model"]
    return MultiHeadClassifier(seed + m.get("init_seed_offset", 0),
                               stream[0].features.shape[1], m["hidden_dims"],
                               [stream[0].class_count], activation=m.get("activation", "tanh"))


def probe_batch(cfg: dict, stream: TaskStream, task_id: int = 0) -> Batch:
    """The probe's rows: the first `probe.batch_size` (default 64)
    validation rows of task `task_id`."""
    feats, labels = stream[task_id].val_xy()
    size = cfg.get("probe", {}).get("batch_size", 64)
    return Batch(feats[:size], labels[:size], task_id)


def _fresh_dir(path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    os.makedirs(path, exist_ok=False)
    return path


def write_matrix_csv(path, matrix):
    """Write the accuracy matrix, NaN cells empty, after `metrics`' one
    check of a matrix, so no shape is truncated into the file."""
    matrix = metrics_mod._check_matrix(matrix)
    t = matrix.shape[0]
    lines = [",".join(f"task{j}" for j in range(t))]
    for l in range(t):
        lines.append(",".join("" if np.isnan(matrix[l, j]) else repr(float(matrix[l, j]))
                              for j in range(t)))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_matrix_csv(path):
    """The matrix `write_matrix_csv` wrote; a row past the header's task
    count, with more cells than it, or with a cell that is not a number
    raises a one-line ValueError, as does a file that is not UTF-8 text."""
    with io.StringIO(_read_text(path)) as f:
        header = f.readline()
        t = len(header.strip().split(","))
        matrix = np.full((t, t), np.nan)
        for l, line in enumerate(f):
            cells = line.rstrip("\n").split(",")
            if l >= t:
                raise ValueError(f"{path}: line {l + 2}: more rows than the {t} tasks "
                                 "the header names")
            if len(cells) > t:
                raise ValueError(f"{path}: line {l + 2}: {len(cells)} cells for the {t} "
                                 "tasks the header names")
            for j, cell in enumerate(cells):
                try:
                    matrix[l, j] = float(cell) if cell else np.nan
                except ValueError:
                    raise ValueError(f"{path}: line {l + 2}: cell {j + 1} is not a "
                                     f"number: {cell!r}") from None
    return matrix


def run_hash(cfg: dict, variant: str, seed: int) -> str:
    """The hash a run's checkpoints record: its config (less the seed
    list), variant and seed."""
    return config_hash({"config": {k: v for k, v in cfg.items() if k != "seeds"},
                        "variant": variant, "seed": seed})


def run_single_seed(cfg: dict, variant: str, seed: int, out_dir: str,
                    resume_from: str | None = None) -> dict:
    """One (variant, seed) run into a fresh directory: per-task checkpoints
    and matrix.csv (for mtl, ckpt_final.bin alone), then metrics.json, the
    last file written, each through `write_atomic`'s temporary file renamed
    into place.  Returns the metrics dict; the first floating-point overflow
    or invalid operation after the directory is made raises
    FloatingPointError."""
    check_config_keys(cfg)
    if variant == "mtl" and resume_from is not None:
        raise ValueError("mtl trains all tasks jointly and cannot resume from a checkpoint")
    chash = run_hash(cfg, variant, seed)
    state = None if resume_from is None else load_checkpoint(resume_from)
    if state is not None and state.config_hash != chash:
        raise ValueError(f"{resume_from}: checkpoint was written under a different "
                         "config, variant or seed; refusing to resume")
    # Everything that can refuse the config runs before out_dir exists.
    stream = build_stream(cfg, seed)
    opt_config = build_optimizer_config(cfg, variant)
    epochs = cfg["epochs_per_task"]
    probe_cfg = cfg.get("probe", {})
    batch = probe_batch(cfg, stream) if probe_cfg.get("enabled", False) else None
    if state is None:  # a fresh run starts from its model alone
        state = Checkpoint(model=_build_model(cfg, stream, seed), config_hash=chash,
                           seed=seed, variant=variant)
    _fresh_dir(out_dir)

    # The seed's training, probe and writes run under one rule: an overflow
    # or invalid operation raises where it happens, failing the seed, where
    # numpy would warn and go on with inf or NaN weights.
    with np.errstate(over="raise", invalid="raise"):
        if variant == "mtl":
            reference = train_multitask(state.model, stream, opt_config, seed, epochs)
            save_checkpoint(os.path.join(out_dir, "ckpt_final.bin"), state)
            result_metrics = {"variant": variant, "seed": seed,
                              "reference_accuracies": reference.tolist(),
                              "avg_accuracy_after_last": float(reference.mean())}
        else:
            # the finished tasks' probe values; each checkpoint carries them, so
            # a resumed run's trace is the uninterrupted run's (a state saved
            # outside a run may hold none, and traces the remaining tasks)
            state.probe_values = state.probe_values or []

            def after_task(state, report):
                if batch is not None:
                    res = lanczos_lambda_max(model_objective(state.model, batch),
                                             probe_cfg.get("lanczos_iters", 20), seed)
                    state.probe_values.append({"task": report.task_id, "lambda_max": res.lambda_max,
                                               "log_lambda_max": res.log_lambda_max})
                save_checkpoint(os.path.join(out_dir, f"ckpt_task{report.task_id}.bin"), state)

            state = train_continual(state.model, stream, opt_config, seed, epochs, state,
                                    after_task)
            write_matrix_csv(os.path.join(out_dir, "matrix.csv"), state.matrix_rows)
            result_metrics = metrics_mod.summarize(state.matrix_rows)
            result_metrics.update({"variant": variant, "seed": seed,
                                   "config_hash": chash,
                                   "sharpness_trace": state.probe_values})
        write_atomic(os.path.join(out_dir, "metrics.json"),
                     json.dumps(result_metrics, indent=2).encode())
    return result_metrics


def aggregate(rows: list[dict], path):
    """Mean +/- sample std (n-1 denominator) over seeds for scalar metrics."""
    lines = ["metric,mean,std,n"]
    for key in ["avg_accuracy_after_last", "forgetting"]:
        vals = [r[key] for r in rows if r.get(key) is not None]
        if not vals:
            lines.append(f"{key},,,0")
            continue
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        lines.append(f"{key},{mean!r},{std!r},{len(vals)}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def run_experiment(cfg: dict, variant: str, out_root: str, seeds=None) -> list[dict]:
    """Run every seed, recording a failed seed's error and traceback in
    failures.json and going on with the others.  A repeated seed, or a
    seed directory that already exists, is refused before anything is
    written, so a rerun into the same `out_root` leaves the earlier results
    as they are."""
    check_config_keys(cfg)
    build_optimizer_config(cfg, variant)  # a bad setting fails once, not per seed
    if seeds is None and "seeds" not in cfg:
        raise ValueError("config has no 'seeds' and no seed was given")
    seeds = seeds if seeds is not None else cfg["seeds"]
    if not isinstance(seeds, list) or not all(ok(s) for s in seeds for _, ok in RULES["seed"]):
        raise ValueError(f"seeds must be a list of integers >= 0, got {seeds!r}")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds {seeds} name a seed more than once")
    # the first seed's tasks and model, built here, run the generators', the
    # order's and the model's checks once, before anything is written
    _build_model(cfg, build_stream(cfg, seeds[0]), seeds[0])
    name = cfg.get("name", "experiment")
    # one directory under out_root: never beside it, above it or two levels down
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in ("/", os.sep, "\0"))):
        raise ValueError(f"name must be one directory name (no '/', not '.' or '..'), "
                         f"got {name!r}")
    out_dirs = [os.path.join(out_root, name, variant, f"seed{seed}") for seed in seeds]
    for out_dir in out_dirs:
        if os.path.lexists(out_dir):
            raise ValueError(f"{out_dir} already exists; choose a new --out")
    rows = []
    failures = []
    for seed, out_dir in zip(seeds, out_dirs):
        try:
            rows.append(run_single_seed(cfg, variant, seed, out_dir))
        except Exception as exc:  # record and continue with other seeds
            failures.append({"seed": seed, "type": type(exc).__name__,
                             "error": str(exc), "traceback": traceback.format_exc()})
    agg_dir = os.path.join(out_root, name, variant)
    os.makedirs(agg_dir, exist_ok=True)
    aggregate(rows, os.path.join(agg_dir, "aggregate.csv"))
    if failures:
        write_atomic(os.path.join(agg_dir, "failures.json"),
                     json.dumps(failures, indent=2).encode())
    return rows
