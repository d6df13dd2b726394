import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import warnings
from importlib import resources

import numpy as np
import pytest

from flatcl import runner
from flatcl.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from flatcl.cli import main
from flatcl.model import MultiHeadClassifier
from flatcl.optim import (OPTIMIZER_RULES, RULES, OptimizerConfig, train_continual,
                          train_multitask)
from flatcl.probe import lanczos_lambda_max, model_objective
from flatcl.runner import (VARIANT_FLAGS, build_optimizer_config, build_stream,
                           load_config, probe_batch, read_matrix_csv, run_experiment,
                           run_single_seed, write_matrix_csv)


def small_cfg():
    return {
        "name": "tiny",
        "benchmark": {"kind": "rotated_gaussians", "n_tasks": 2,
                      "classes_per_task": 3, "dim": 4, "samples_per_class": 30,
                      "separation": 3.0, "rotation_per_task": 1.5,
                      "data_seed_offset": 100},
        "orders": {"reversed": [1, 0]},
        "seeds": [1],
        "epochs_per_task": 1,
        "model": {"hidden_dims": [6], "activation": "tanh"},
        "optimizer": {"learning_rate": 0.05, "batch_size": 8, "lam": 2.0,
                      "validate_every_steps": 10, "fisher_sample_count": 16,
                      "store_ratio": 0.05},
    }


def write_cfg(tmp_path, cfg=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg or small_cfg()))
    return str(path)


# -- matrix csv -------------------------------------------------------------

def test_matrix_csv_round_trip_exact(tmp_path):
    matrix = np.array([[0.123456789012345678, np.nan],
                       [1 / 3, 0.9]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix)
    back = read_matrix_csv(path)
    assert np.array_equal(back, matrix, equal_nan=True)  # bitwise via repr


@pytest.mark.parametrize("text,error", [
    ("task0,task1\n0.9,,0.5\n0.7,0.8\n", "line 2: 3 cells for the 2 tasks the header names"),
    ("task0,task1\n0.9,\n0.7,0.8\n0.6,0.5\n",
     "line 4: more rows than the 2 tasks the header names"),
    ("task0,task1\n0.9,\n0.7,abc\n", "line 3: cell 2 is not a number: 'abc'"),
    ("task0,task1\n1.9,\n-0.7,0.8\n", "accuracy matrix cell [0][0] is 1.9, outside [0, 1]"),
    ("task0,task1\n0.9,\n0.7,inf\n", "accuracy matrix cell [1][1] is inf, outside [0, 1]"),
], ids=["extra-cell", "extra-row", "not-a-number", "above-one", "inf"])
def test_cli_metrics_refuses_malformed_matrix(tmp_path, capsys, text, error):
    """A cell or a row past the header's task count, a cell that is not a
    number, or an accuracy outside [0, 1] is refused with a one-line error
    naming the file and the line or cell, not an IndexError, a bare float()
    error or a forgetting computed from it."""
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert main(["metrics", "--matrix", str(path)]) == 1
    assert capsys.readouterr().err == f"error: ValueError: {path}: {error}\n"


# -- run_single_seed --------------------------------------------------------

def test_run_single_seed_outputs(tmp_path):
    out = str(tmp_path / "run")
    row = run_single_seed(small_cfg(), "cf", 1, out)
    assert os.path.exists(os.path.join(out, "matrix.csv"))
    assert os.path.exists(os.path.join(out, "metrics.json"))
    assert os.path.exists(os.path.join(out, "ckpt_task0.bin"))
    assert os.path.exists(os.path.join(out, "ckpt_task1.bin"))
    matrix = read_matrix_csv(os.path.join(out, "matrix.csv"))
    assert matrix.shape == (2, 2)
    assert np.isnan(matrix[0, 1]) and np.isfinite(matrix[1, 1])
    with open(os.path.join(out, "metrics.json")) as f:
        saved = json.load(f)
    assert saved["avg_accuracy_after_last"] == row["avg_accuracy_after_last"]
    assert saved["variant"] == "cf" and saved["seed"] == 1


def test_failed_metrics_write_leaves_no_file(tmp_path, monkeypatch):
    """metrics.json is written to a temporary file that is renamed into
    place: a write that raises midway leaves neither a partial metrics.json
    nor the temporary file."""
    summarize = runner.metrics_mod.summarize
    monkeypatch.setattr(runner.metrics_mod, "summarize",
                        lambda matrix: {**summarize(matrix), "unwritable": object()})
    out = tmp_path / "run"
    with pytest.raises(TypeError, match="not JSON serializable"):
        run_single_seed(small_cfg(), "seq", 1, str(out))
    assert sorted(os.listdir(out)) == ["ckpt_task0.bin", "ckpt_task1.bin", "matrix.csv"]


def test_resume_under_different_config_rejected(tmp_path):
    first = str(tmp_path / "first")
    run_single_seed(small_cfg(), "cf", 1, first)
    ckpt = os.path.join(first, "ckpt_task0.bin")
    changed = small_cfg()
    changed["optimizer"]["lam"] = 3.0
    for cfg, variant, seed in ((changed, "cf", 1), (small_cfg(), "replay", 1),
                               (small_cfg(), "cf", 2)):
        out = str(tmp_path / f"resume_{variant}_{seed}_{cfg['optimizer']['lam']}")
        with pytest.raises(ValueError, match="different config") as info:
            run_single_seed(cfg, variant, seed, out, resume_from=ckpt)
        assert "\n" not in str(info.value)
        assert not os.path.exists(out)



def test_refused_config_leaves_no_directory(tmp_path):
    out = str(tmp_path / "run")
    bad = small_cfg()
    bad["benchmark"]["kind"] = "nope"
    with pytest.raises(ValueError, match="nope"):
        run_single_seed(bad, "seq", 1, out)
    assert not os.path.exists(out)
    run_single_seed(small_cfg(), "seq", 1, out)  # the fixed config reruns in place
    assert os.path.exists(os.path.join(out, "matrix.csv"))


# Optimizer settings, each with a variant that used to fail only inside the
# seed, after its directory existed (or, for store_ratio on seq, ran).
REFUSED_SETTINGS = [("validate_every_steps", 0, "seq"), ("batch_size", 2.5, "seq"),
                    ("fisher_sample_count", 0, "cf"), ("store_ratio", 0, "cf"),
                    ("replay_every", 0, "replay"), ("store_ratio", 0, "seq"),
                    ("lam", float("inf"), "cf"), ("rho", float("inf"), "cf"),
                    ("learning_rate", float("inf"), "seq")]


@pytest.mark.parametrize("key,value,variant", REFUSED_SETTINGS)
def test_refused_optimizer_setting_leaves_no_directory(tmp_path, key, value, variant):
    out = str(tmp_path / "run")
    bad = small_cfg()
    bad["optimizer"][key] = value
    with pytest.raises(ValueError, match=f"optimizer {key} must be") as info:
        run_single_seed(bad, variant, 1, out)
    assert "\n" not in str(info.value)
    assert not os.path.exists(out)
    run_single_seed(small_cfg(), variant, 1, out)  # the fixed config reruns in place
    assert os.path.exists(os.path.join(out, "metrics.json"))


# Counts outside `optimizer`, each with a variant that used to fail only
# inside the seed, after its directory existed: as a TypeError (a float
# epoch count), a ZeroDivisionError (cf on empty tasks), an incomplete
# matrix (seq on empty tasks) or a probe error.
REFUSED_COUNTS = [(None, "epochs_per_task", 1.5, "cf"), (None, "epochs_per_task", 0, "seq"),
                  ("benchmark", "samples_per_class", 0, "cf"),
                  ("benchmark", "samples_per_class", 0, "seq"),
                  ("benchmark", "n_tasks", 0, "seq"), ("benchmark", "classes_per_task", 0, "seq"),
                  ("benchmark", "dim", 4.0, "seq"), ("probe", "lanczos_iters", 0, "cf"),
                  ("probe", "batch_size", 0, "cf")]


@pytest.mark.parametrize("section,key,value,variant", REFUSED_COUNTS)
def test_refused_count_leaves_no_directory(tmp_path, section, key, value, variant):
    out = str(tmp_path / "run")
    bad = small_cfg()
    bad["probe"] = {"enabled": True, "batch_size": 8, "lanczos_iters": 3}
    (bad if section is None else bad[section])[key] = value
    name = key if section is None else f"{section} {key}"
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, "
                                         f"got {value!r}$"):
        run_single_seed(bad, variant, 1, out)
    assert not os.path.exists(out)
    run_single_seed(small_cfg(), variant, 1, out)  # the fixed config reruns in place
    assert os.path.exists(os.path.join(out, "metrics.json"))


@pytest.mark.parametrize("section,key", [(None, "epochs_per_task"),
                                         ("benchmark", "n_tasks"), ("probe", "lanczos_iters")])
def test_refused_bool_count_leaves_no_directory(tmp_path, section, key):
    """A JSON true is not the count 1."""
    out = str(tmp_path / "run")
    bad = small_cfg()
    bad["probe"] = {"enabled": True, "batch_size": 8, "lanczos_iters": 3}
    (bad if section is None else bad[section])[key] = True
    name = key if section is None else f"{section} {key}"
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got True$"):
        run_single_seed(bad, "cf", 1, out)
    assert not os.path.exists(out)


# Config values the key checks let through, which then ran as something else
# (the probe for "false", the offset 1 for true), failed every seed into
# failures.json or failed in numpy's seeding naming no key (a negative
# offset), each with the text of its one-line error.
REFUSED_VALUES = [
    ("probe", "enabled", "false", "probe enabled must be true or false, got 'false'"),
    ("benchmark", "data_seed_offset", True,
     "benchmark data_seed_offset must be an integer, got True"),
    ("model", "hidden_dims", [8.5], "input and hidden dims must be integers >= 1, got [4, 8.5]"),
    ("model", "hidden_dims", [True], "input and hidden dims must be integers >= 1, got [4, True]"),
    ("model", "activation", "Tanh", "unknown activation 'Tanh'"),
    ("model", "init_seed_offset", 0.5, "model init_seed_offset must be an integer, got 0.5"),
    ("benchmark", "data_seed_offset", -5, "benchmark data_seed_offset must be >= 0, got -5"),
    ("model", "init_seed_offset", -5, "model init_seed_offset must be >= 0, got -5"),
    ("benchmark", "separation", float("nan"), "separation must be a finite number > 0, got nan"),
    ("benchmark", "separation", "3.0", "separation must be a finite number > 0, got '3.0'")]


@pytest.mark.parametrize("section,key,value,error", REFUSED_VALUES,
                         ids=["probe-enabled-string", "data-seed-offset-bool",
                              "hidden-dims-float", "hidden-dims-bool", "activation-case",
                              "init-seed-offset-float", "data-seed-offset-negative",
                              "init-seed-offset-negative", "separation-nan",
                              "separation-string"])
def test_cli_run_refuses_bad_config_value_before_writing(tmp_path, capsys, section, key,
                                                         value, error):
    """Refused once with a one-line error, before `--out` exists: not a run
    that exits 0, and not a failures.json and an aggregate.csv of no rows."""
    cfg = small_cfg()
    cfg.setdefault(section, {})[key] = value
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: ValueError: {error}\n"
    assert not out.exists()


# Values that ran as something else (`{}` as no hidden layer, true as the
# angle 1), failed every seed into failures.json (NaN, inf) or were refused
# by an error that named no key.
BAD_SHAPE_OR_ROTATION = [
    ("model", "hidden_dims", 8, "hidden_dims must be a list, got 8"),
    ("model", "hidden_dims", {}, "hidden_dims must be a list, got {}"),
    *[("benchmark", "rotation_per_task", value,
       f"rotation_per_task must be a finite number, got {value!r}")
      for value in (float("nan"), float("inf"), -float("inf"), True, "x", [], None)]]


@pytest.mark.parametrize("section,key,value,error", BAD_SHAPE_OR_ROTATION,
                         ids=["hidden-dims-int", "hidden-dims-dict", "rotation-nan",
                              "rotation-inf", "rotation-minus-inf", "rotation-bool",
                              "rotation-string", "rotation-list", "rotation-null"])
def test_cli_run_refuses_bad_hidden_dims_or_rotation_before_writing(tmp_path, capsys, section,
                                                                    key, value, error):
    """Refused once, by the model or the generator, with a one-line error
    that names the key, before `--out` exists."""
    test_cli_run_refuses_bad_config_value_before_writing(tmp_path, capsys, section, key,
                                                         value, error)


@pytest.mark.parametrize("kind", ["rotated_gaussians", "permuted_features"])
def test_cli_run_refuses_a_benchmark_too_small_for_its_splits(tmp_path, capsys, kind):
    """One class of one sample leaves the val and test splits empty: refused
    once, by the generator, with one line naming both keys, before `--out`
    exists, not run into a failed seed, an aggregate.csv and a
    failures.json."""
    cfg = small_cfg()
    cfg["benchmark"].update(kind=kind, classes_per_task=1, samples_per_class=1)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: classes_per_task * samples_per_class must give every "
        "train/val/test split a row (at least 4 rows), got 1 * 1\n")
    assert not out.exists()
    cfg["benchmark"]["samples_per_class"] = 4  # the smallest benchmark that splits
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(out)]) == 0


def test_cli_run_refuses_a_separation_too_large_for_a_float(tmp_path, capsys):
    """A JSON integer no float holds is refused as a `separation` that is
    not a finite number, on one line, before `--out` exists."""
    with resources.as_file(resources.files("flatcl") / "configs" / "perm5.json") as path:
        cfg = load_config(path)
    cfg["benchmark"]["separation"] = 10 ** 400
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: ValueError: separation must be a finite number > 0, got {10 ** 400}\n"
    assert not out.exists()


@pytest.mark.parametrize("section,key", [(None, "optimzer"), ("benchmark", "dims"),
                                         ("model", "hiden_dims"), ("probe", "enable"),
                                         ("optimizer", "learnig_rate"),
                                         ("optimizer", "warmup_steps")])
def test_unknown_config_key_rejected(tmp_path, section, key):
    cfg = small_cfg()
    cfg.setdefault("probe", {})
    (cfg if section is None else cfg[section])[key] = 1
    out = str(tmp_path / "run")
    with pytest.raises(ValueError, match=repr(key)) as info:
        run_single_seed(cfg, "seq", 1, out)
    assert "\n" not in str(info.value)
    assert not os.path.exists(out)
    with pytest.raises(ValueError, match=repr(key)):
        load_config(write_cfg(tmp_path, cfg))


MISSING_KEYS = [(None, "benchmark"), (None, "epochs_per_task"), (None, "model"),
                ("benchmark", "kind"), ("benchmark", "n_tasks"),
                ("benchmark", "classes_per_task"), ("benchmark", "dim"),
                ("benchmark", "samples_per_class"), ("benchmark", "separation"),
                ("benchmark", "rotation_per_task"), ("model", "hidden_dims")]


@pytest.mark.parametrize("section,key", MISSING_KEYS)
def test_missing_config_key_rejected(tmp_path, section, key):
    cfg = small_cfg()
    del (cfg if section is None else cfg[section])[key]
    out = str(tmp_path / "run")
    with pytest.raises(ValueError, match=f"missing config key {key!r}") as info:
        run_single_seed(cfg, "seq", 1, out)
    assert "\n" not in str(info.value)
    if section is not None:
        assert repr(section) in str(info.value)
    assert not os.path.exists(out)


def test_rotation_only_required_for_rotated_benchmark(tmp_path):
    cfg = small_cfg()
    cfg["benchmark"]["kind"] = "permuted_features"
    del cfg["benchmark"]["rotation_per_task"]
    run_single_seed(cfg, "seq", 1, str(tmp_path / "run"))


def test_comment_keys_and_shipped_configs_accepted(tmp_path):
    for name in ("rot5.json", "perm5.json"):
        with resources.as_file(resources.files("flatcl") / "configs" / name) as path:
            assert load_config(path)["name"] == name[:-5]
    cfg = small_cfg()
    for body in (cfg, cfg["benchmark"], cfg["model"], cfg["optimizer"]):
        body["_comment"] = "ignored"
    assert load_config(write_cfg(tmp_path, cfg))["_comment"] == "ignored"
    run_single_seed(cfg, "seq", 1, str(tmp_path / "run"))


def test_existing_out_dir_rejected(tmp_path):
    out = str(tmp_path / "run")
    run_single_seed(small_cfg(), "seq", 1, out)
    with pytest.raises(FileExistsError):
        run_single_seed(small_cfg(), "seq", 1, out)


def test_run_deterministic_across_invocations(tmp_path):
    r1 = run_single_seed(small_cfg(), "cf", 2, str(tmp_path / "a"))
    r2 = run_single_seed(small_cfg(), "cf", 2, str(tmp_path / "b"))
    m1 = read_matrix_csv(tmp_path / "a" / "matrix.csv")
    m2 = read_matrix_csv(tmp_path / "b" / "matrix.csv")
    assert np.array_equal(m1, m2, equal_nan=True)
    assert r1["config_hash"] == r2["config_hash"]


def test_resume_from_checkpoint_matches_uninterrupted(tmp_path):
    full = str(tmp_path / "full")
    run_single_seed(small_cfg(), "cf", 1, full)
    resumed = str(tmp_path / "resumed")
    run_single_seed(small_cfg(), "cf", 1, resumed,
                    resume_from=os.path.join(full, "ckpt_task0.bin"))
    m_full = read_matrix_csv(os.path.join(full, "matrix.csv"))
    m_res = read_matrix_csv(os.path.join(resumed, "matrix.csv"))
    assert np.array_equal(m_full, m_res, equal_nan=True)  # bitwise


def test_resume_across_head_addition_bitwise(tmp_path):
    """Resuming from a checkpoint written before two heads were added gives
    the same weights and importance, bit for bit."""
    cfg = small_cfg()
    cfg["benchmark"]["n_tasks"] = 3
    full, resumed = str(tmp_path / "full"), str(tmp_path / "resumed")
    run_single_seed(cfg, "cf", 1, full)
    run_single_seed(cfg, "cf", 1, resumed, resume_from=os.path.join(full, "ckpt_task0.bin"))
    a = load_checkpoint(os.path.join(full, "ckpt_task2.bin"))
    b = load_checkpoint(os.path.join(resumed, "ckpt_task2.bin"))
    assert len(a.model.head_classes) == len(b.model.head_classes) == 3
    assert a.model.parameters().names() == b.model.parameters().names()
    assert a.model.theta.tobytes() == b.model.theta.tobytes()
    assert a.importance.values.tobytes() == b.importance.values.tobytes()


def _rewrite_checkpoint(path, edit):
    """Reseal the checkpoint at `path` after `edit(manifest, raw)` changes its
    manifest and its raw blocks (bytes by block name), as an older writer
    would have sealed it."""
    from flatcl.checkpoint import _MAGIC, _digest
    data = path.read_bytes()
    head = len(_MAGIC) + 8
    mlen = int.from_bytes(data[len(_MAGIC):head], "little")
    manifest = json.loads(data[head:head + mlen])
    raw, offset = {}, head + mlen
    for block in manifest["blocks"]:
        raw[block["name"]] = data[offset:offset + block["bytes"]]
        offset += block["bytes"]
    edit(manifest, raw)
    payload = b"".join(raw[block["name"]] for block in manifest["blocks"])
    manifest["sha256"] = _digest(manifest, payload)
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(_MAGIC + len(mbytes).to_bytes(8, "little") + mbytes + payload)


def _add_anchor_block(manifest, raw):
    """The checkpoint as written before the flat region was rebuilt from the
    weights: an `anchor` block, equal to `param`, after the importance
    block."""
    blocks = manifest["blocks"]
    names = [block["name"] for block in blocks]
    blocks.insert(names.index("importance") + 1, dict(blocks[0], name="anchor"))
    raw["anchor"] = raw["param"]


def test_resume_from_checkpoint_with_anchor_block(tmp_path):
    """A v3 file written before the region was rebuilt from the weights
    still loads, and resuming from it reproduces the uninterrupted run."""
    full = tmp_path / "full"
    run_single_seed(small_cfg(), "cf", 1, str(full))
    legacy = tmp_path / "legacy.bin"
    legacy.write_bytes((full / "ckpt_task0.bin").read_bytes())
    _rewrite_checkpoint(legacy, _add_anchor_block)
    assert legacy.stat().st_size > (full / "ckpt_task0.bin").stat().st_size
    old, new = load_checkpoint(legacy), load_checkpoint(full / "ckpt_task0.bin")
    assert old.model.theta.tobytes() == new.model.theta.tobytes()
    assert old.importance.values.tobytes() == new.importance.values.tobytes()
    resumed = tmp_path / "resumed"
    run_single_seed(small_cfg(), "cf", 1, str(resumed), resume_from=str(legacy))
    for name in ("matrix.csv", "metrics.json"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes()


def _probed_cfg():
    cfg = small_cfg()
    cfg["probe"] = {"enabled": True, "batch_size": 8, "lanczos_iters": 3}
    return cfg


def test_resume_keeps_the_whole_probe_trace(tmp_path):
    """Resumed from each task's checkpoint, a probed run writes the
    uninterrupted run's metrics.json byte for byte: its sharpness trace
    holds the tasks trained before the resume too."""
    cfg = _probed_cfg()
    full = tmp_path / "full"
    run_single_seed(cfg, "cf", 1, str(full))
    trace = json.loads((full / "metrics.json").read_text())["sharpness_trace"]
    assert [p["task"] for p in trace] == [0, 1]
    for k in range(2):
        resumed = tmp_path / f"resumed{k}"
        run_single_seed(cfg, "cf", 1, str(resumed),
                        resume_from=str(full / f"ckpt_task{k}.bin"))
        for name in ("matrix.csv", "metrics.json"):
            assert (resumed / name).read_bytes() == (full / name).read_bytes()


def test_resume_from_checkpoint_without_probe_values(tmp_path):
    """A v3 file written before the probe values were kept loads with none,
    and a run resumed from it traces only the tasks it trains."""
    cfg = _probed_cfg()
    full = tmp_path / "full"
    run_single_seed(cfg, "cf", 1, str(full))
    legacy = tmp_path / "legacy.bin"
    legacy.write_bytes((full / "ckpt_task0.bin").read_bytes())
    _rewrite_checkpoint(legacy, lambda manifest, _: manifest.pop("probe_values"))
    assert load_checkpoint(legacy).probe_values is None
    resumed = tmp_path / "resumed"
    run_single_seed(cfg, "cf", 1, str(resumed), resume_from=str(legacy))
    assert (resumed / "matrix.csv").read_bytes() == (full / "matrix.csv").read_bytes()
    trace = json.loads((full / "metrics.json").read_text())["sharpness_trace"]
    assert (json.loads((resumed / "metrics.json").read_text())["sharpness_trace"]
            == trace[1:])


def test_each_task_starts_from_the_weights_the_last_one_ended_with(tmp_path):
    """Nothing between two tasks moves the weights: not the Fisher pass, the
    exemplar selection, the accuracy pass, the probe or the checkpoint. So
    the region a task trains in, built from the weights it starts with, is
    centred on the previous task's solution."""
    cfg = small_cfg()
    cfg["benchmark"]["n_tasks"] = 3
    stream = build_stream(cfg, 1)
    model = MultiHeadClassifier(1, 4, [6], [3])
    batch = probe_batch(cfg, stream)
    ended, anchors, probe_values = {}, {}, []

    def after_task(t, **state):
        probe_values.append(lanczos_lambda_max(model_objective(model, batch), 5, 1).lambda_max)
        save_checkpoint(tmp_path / f"ckpt_task{t}.bin",
                        Checkpoint(model=model, probe_values=probe_values, **state))
        ended[t] = model.theta.tobytes()

    def step_hook(m, region):
        t = len(m.head_classes) - 1
        if region is not None and t not in anchors:
            anchors[t] = region.anchor.prefix(region.constrained_names).tobytes()

    train_continual(model, stream, build_optimizer_config(cfg, "cf"), 1, 1,
                    after_task=after_task, step_hook=step_hook)
    assert len(probe_values) == 3 and sorted(ended) == [0, 1, 2]
    assert sorted(anchors) == [1, 2]
    for t in (1, 2):
        assert anchors[t] == ended[t - 1]


def test_order_applied(tmp_path):
    cfg = small_cfg()
    cfg["order"] = "reversed"
    row = run_single_seed(cfg, "seq", 1, str(tmp_path / "rev"))
    base = run_single_seed(small_cfg(), "seq", 1, str(tmp_path / "fwd"))
    assert row["avg_accuracy_after_last"] != base["avg_accuracy_after_last"]


def test_ablation_aliases_share_flags():
    assert VARIANT_FLAGS["random_indicator"] is VARIANT_FLAGS["cf_minus_find"]
    assert VARIANT_FLAGS["create_only"] is VARIANT_FLAGS["cf_minus_l2"]


def test_unknown_variant_rejected(tmp_path):
    with pytest.raises(ValueError, match="variant"):
        run_single_seed(small_cfg(), "nope", 1, str(tmp_path / "x"))


def test_mtl_writes_reference(tmp_path):
    """mtl's checkpoint holds the weights of `train_multitask` run on a model
    built with every head at once, bit for bit."""
    cfg = small_cfg()
    out = str(tmp_path / "mtl")
    row = run_single_seed(cfg, "mtl", 1, out)
    assert len(row["reference_accuracies"]) == 2
    stream = build_stream(cfg, 1)
    model = MultiHeadClassifier(1, 4, [6], [task.class_count for task in stream])
    reference = train_multitask(model, stream, build_optimizer_config(cfg, "mtl"), 1,
                                cfg["epochs_per_task"])
    saved = load_checkpoint(os.path.join(out, "ckpt_final.bin"))
    assert saved.model.parameters().names() == model.parameters().names()
    assert saved.model.theta.tobytes() == model.theta.tobytes()
    assert row["reference_accuracies"] == reference.tolist()


@pytest.mark.parametrize("variant", ["mtl", "cf"])
def test_failed_checkpoint_leaves_no_metrics(tmp_path, monkeypatch, variant):
    """metrics.json is written after every checkpoint, so a run whose
    checkpoint write fails leaves none to mark the seed complete."""
    def fail(path, ckpt):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr("flatcl.runner.save_checkpoint", fail)
    out = str(tmp_path / variant)
    with pytest.raises(OSError, match="cannot write"):
        run_single_seed(small_cfg(), variant, 1, out)
    assert os.path.isdir(out)
    assert not os.path.exists(os.path.join(out, "metrics.json"))


def test_mtl_refuses_resume(tmp_path):
    """mtl trains every task jointly from the start, so it refuses a
    checkpoint before reading it or making a directory."""
    first = str(tmp_path / "mtl")
    run_single_seed(small_cfg(), "mtl", 1, first)
    out = str(tmp_path / "resumed")
    for ckpt in (os.path.join(first, "ckpt_final.bin"), str(tmp_path / "missing.bin")):
        with pytest.raises(ValueError, match="mtl .*cannot resume") as info:
            run_single_seed(small_cfg(), "mtl", 1, out, resume_from=ckpt)
        assert "\n" not in str(info.value)
        assert not os.path.exists(out)


# -- run_experiment ---------------------------------------------------------

def test_run_experiment_aggregate(tmp_path):
    cfg = small_cfg()
    cfg["seeds"] = [1, 2]
    rows = run_experiment(cfg, "seq", str(tmp_path))
    assert len(rows) == 2
    agg = (tmp_path / "tiny" / "seq" / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "metric,mean,std,n"
    fields = agg[1].split(",")
    assert fields[0] == "avg_accuracy_after_last" and fields[3] == "2"
    accs = [r["avg_accuracy_after_last"] for r in rows]
    assert float(fields[1]) == pytest.approx(np.mean(accs))
    assert float(fields[2]) == pytest.approx(np.std(accs, ddof=1))


def test_run_experiment_refuses_existing_seed_dir_before_writing(tmp_path):
    run_experiment(small_cfg(), "seq", str(tmp_path), seeds=[2])
    variant_dir = tmp_path / "tiny" / "seq"
    before = {p.name: p.read_bytes() for p in variant_dir.iterdir() if p.is_file()}
    with pytest.raises(ValueError, match="seed2 already exists; choose a new --out"):
        run_experiment(small_cfg(), "seq", str(tmp_path), seeds=[1, 2])
    assert not (variant_dir / "seed1").exists()  # seed 1 came first, yet nothing ran
    assert {p.name: p.read_bytes() for p in variant_dir.iterdir() if p.is_file()} == before


def test_run_experiment_refuses_repeated_seed_before_writing(tmp_path):
    cfg = small_cfg()
    cfg["seeds"] = [1, 1]
    with pytest.raises(ValueError, match=r"seeds \[1, 1\] name a seed more than once"):
        run_experiment(cfg, "seq", str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_refuses_unknown_order_before_writing(tmp_path):
    """The order is looked up once, up front, not by each seed's run."""
    cfg = small_cfg()
    cfg["order"] = "missing-order"
    with pytest.raises(ValueError, match="^unknown order 'missing-order'$"):
        run_experiment(cfg, "seq", str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", [[True, False], [], [0.5], "10"],
                         ids=["bools", "empty", "float", "string"])
def test_cli_run_refuses_a_malformed_order_before_writing(tmp_path, capsys, order):
    """An order that is not a nonempty list of distinct integer task
    indices (a JSON true is not the index 1) is refused with one line
    naming it, before anything is written."""
    cfg = small_cfg()
    cfg["orders"]["x"] = order
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--seed", "1", "--order", "x", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: order 'x' must be a nonempty list of distinct task "
        f"indices in [0, 2), got {order!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("orders", ["xyz", ["x"], None, 3],
                         ids=["string", "list", "null", "number"])
def test_cli_run_refuses_orders_that_are_not_an_object_before_writing(tmp_path, capsys,
                                                                     orders):
    """`orders` must be an object of named orders; a string or a list used
    to fail as a TypeError that named no key."""
    cfg = small_cfg()
    cfg["orders"] = orders
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--seed", "1", "--order", "x", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: orders must be an object of named orders, got {orders!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("lr,wd", [(1e6, 1e6), (100, 0.01)])
def test_cli_run_refuses_decay_that_flips_or_zeroes_the_weights_before_writing(
        tmp_path, capsys, lr, wd):
    """A product of 1e12 used to overflow into a failed seed and an empty
    seed directory; one of 1 ran, zeroing the weights on every step."""
    cfg = small_cfg()
    cfg["optimizer"].update(learning_rate=lr, weight_decay=wd)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: optimizer learning_rate * weight_decay must be < 1, "
        f"got {lr!r} * {wd!r}\n")
    assert not out.exists()


def test_cli_run_fails_every_seed_of_a_setting_that_cannot_train(tmp_path, capsys):
    """A finite setting that passes every check but cannot train, a learning
    rate of 1e308 with no decay, fails each seed at its first overflow into
    failures.json, and `flatcl run` ends with one line and exit 1."""
    cfg = small_cfg()
    cfg["optimizer"].update(learning_rate=1e308, weight_decay=0.0)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: all seeds failed; see failures.json\n"
    failures = json.loads((out / "tiny" / "seq" / "failures.json").read_text())
    assert [(f["seed"], f["type"], f["error"]) for f in failures] == [
        (1, "FloatingPointError", "overflow encountered in dot")]


def test_cli_run_fails_a_seed_at_its_first_overflow_without_a_warning(tmp_path, capsys):
    """A lam of 1e308 overflowed Adam's second moment to inf: numpy printed
    a RuntimeWarning and the run exited 0 with the weights it had frozen."""
    cfg = small_cfg()
    cfg["optimizer"]["lam"] = 1e308
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as `flatcl run` prints them
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "cf",
                     "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: RuntimeError: all seeds failed; see failures.json\n"
    failures = json.loads((out / "tiny" / "cf" / "failures.json").read_text())
    assert [(f["seed"], f["type"]) for f in failures] == [(1, "FloatingPointError")]


def test_cli_run_refuses_a_rotation_whose_last_angle_is_not_finite(tmp_path, capsys):
    """A finite rotation_per_task whose angle for the last task overflows
    gave every feature NaN through cos(inf); the rule is on that angle."""
    cfg = small_cfg()
    cfg["benchmark"].update(n_tasks=3, rotation_per_task=1e308)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: rotation_per_task must give the last of 3 tasks a finite angle, "
        "got 1e+308\n")
    assert not out.exists()
    cfg["benchmark"]["n_tasks"] = 2  # the last angle is 1e308 itself
    assert np.isfinite(build_stream(cfg, 1)[1].features).all()


# A `name`, `seeds` or `order` that wrote outside --out ("../esc" and ".."
# beside it, "" and "." without the name level, "a/b" two levels down), left
# an empty --out (a NUL byte), ran as another seed ([true] as seed 1, under
# another run hash) or failed with an error that named no key.
NAME_ERROR = "name must be one directory name (no '/', not '.' or '..'), got "
BAD_NAME_SEEDS_OR_ORDER = [
    *[("name", value, f"{NAME_ERROR}{value!r}")
      for value in ("../esc", "..", "", ".", "a/b", "a\0b", 3)],
    *[("seeds", value, f"seeds must be a list of integers >= 0, got {value!r}")
      for value in ([True], float("nan"), True, None, 0.5, -1, ["a"], [1.5], [-1])],
    *[("order", value, f"order must be a string naming an order, got {value!r}")
      for value in ([], {})]]


@pytest.mark.parametrize("key,value,error", BAD_NAME_SEEDS_OR_ORDER,
                         ids=[f"{key}-{value!r}" for key, value, _ in BAD_NAME_SEEDS_OR_ORDER])
def test_cli_run_refuses_a_bad_name_seed_list_or_order_before_writing(tmp_path, capsys, key,
                                                                     value, error):
    cfg = small_cfg()
    cfg[key] = value
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: ValueError: {error}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]  # nothing in or beside --out


def test_cli_run_refuses_a_negative_seed_before_writing(tmp_path, capsys):
    """`--seed -1` failed inside numpy's seeding, naming no key."""
    assert main(["run", "--config", write_cfg(tmp_path), "--variant", "seq", "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: seeds must be a list of integers >= 0, got [-1]\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _run_argv(tmp_path, **changes):
    cfg = small_cfg()
    cfg.update(changes)
    return ["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
            "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("argv,error", [
    (lambda tmp: ["probe", "--checkpoint", str(tmp / "ckpt_task0.bin")],
     "probe needs --checkpoint and --config (or --quadratic)"),
    (lambda tmp: _run_argv(tmp, model=8), "config section 'model' must be an object"),
    (lambda tmp: _run_argv(tmp, seeds=[]), "seeds must be nonempty"),
], ids=["probe-without-config", "section-not-an-object", "no-seeds"])
def test_cli_refuses_with_one_line_before_writing(tmp_path, capsys, argv, error):
    assert main(argv(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: ValueError: {error}\n"
    assert not (tmp_path / "out").exists()


def test_run_files_get_the_mode_open_gives_under_the_umask(tmp_path):
    """Checkpoints and metrics.json, written through a temporary file and
    renamed, get the mode matrix.csv gets from a plain `open`."""
    old = os.umask(0o022)
    try:
        run_single_seed(small_cfg(), "seq", 1, str(tmp_path / "r"))
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "r").iterdir()}
    assert {"ckpt_task0.bin", "ckpt_task1.bin", "metrics.json", "matrix.csv"} <= set(modes)
    assert set(modes.values()) == {0o644}


def test_run_experiment_records_per_seed_failures(tmp_path, monkeypatch):
    cfg = small_cfg()

    def failing_training(*args, **kwargs):  # fails inside each per-seed run
        raise ValueError("training failed on purpose")

    monkeypatch.setattr(runner, "train_continual", failing_training)
    rows = run_experiment(cfg, "seq", str(tmp_path))
    assert rows == []
    with open(tmp_path / "tiny" / "seq" / "failures.json") as f:
        failures = json.load(f)
    assert [f["seed"] for f in failures] == [1]
    assert "training failed on purpose" in failures[0]["error"]
    assert failures[0]["type"] == "ValueError"
    assert failures[0]["traceback"].startswith("Traceback")
    assert "failing_training" in failures[0]["traceback"]


# -- CLI --------------------------------------------------------------------

def test_cli_run_prints_summary(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    rc = main(["run", "--config", cfg_path, "--variant", "seq",
               "--seed", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed 1: avg_accuracy=" in out


def test_cli_run_prints_forgetting_only_when_the_row_has_one(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    for variant in ("mtl", "seq"):
        assert main(["run", "--config", cfg_path, "--variant", variant,
                     "--seed", "1", "--out", str(tmp_path / "out")]) == 0
    mtl, seq = capsys.readouterr().out.splitlines()
    assert mtl.startswith("seed 1: avg_accuracy=") and "forgetting" not in mtl
    assert seq.startswith("seed 1: avg_accuracy=") and " forgetting=" in seq


def test_cli_run_overrides_change_hash(tmp_path):
    cfg_path = write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--variant", "cf", "--seed", "1",
                 "--out", str(tmp_path / "a"), "--rho", "0.3",
                 "--lambda", "1.0"]) == 0
    assert main(["run", "--config", cfg_path, "--variant", "cf", "--seed", "1",
                 "--out", str(tmp_path / "b")]) == 0
    ha, hb = (json.loads((tmp_path / d / "tiny" / "cf" / "seed1" / "metrics.json").read_text())
              for d in ("a", "b"))
    assert ha["config_hash"] != hb["config_hash"]


def test_cli_probe_quadratic_surrogate(capsys):
    rc = main(["probe", "--quadratic", "1,3", "--lanczos-iters", "10"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["lambda_max"] - 3.0) <= 1e-6
    assert abs(out["log_lambda_max"] - np.log(3.0)) <= 1e-6


def test_cli_probe_checkpoint(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--variant", "seq", "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()  # drop the run command's own output
    ckpt = str(tmp_path / "out" / "tiny" / "seq" / "seed1" / "ckpt_task1.bin")
    rc = main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
               "--task", "0", "--rho", "0.1", "--lanczos-iters", "5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ball_sharpness"] >= 0
    assert np.isfinite(report["lambda_max"])
    assert report["rho_used"] == 0.1
    for argv, rho in ((["--rho", "0"], 0.0), ([], 0.05)):
        assert main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
                     "--lanczos-iters", "5", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rho_used"] == rho
    assert report["ball_sharpness"] >= 0


def test_cli_metrics_recomputes_from_csv(tmp_path, capsys):
    matrix = np.array([[0.9, np.nan], [0.7, 0.8]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix)
    rc = main(["metrics", "--matrix", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["avg_accuracy_after_last"] == pytest.approx(0.75)
    assert out["forgetting"] == pytest.approx(0.2)


def test_cli_metrics_with_reference(tmp_path, capsys):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"reference_accuracies": [0.95, 0.85]}))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[0.9, np.nan], [0.7, 0.8]]))
    assert main(["metrics", "--matrix", str(path),
                 "--reference", str(ref)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["intransigence"] == pytest.approx((0.05 + 0.05) / 2)


@pytest.mark.parametrize("reference,error", [
    ("[1.9, NaN]", "reference accuracy [0] is 1.9, outside [0, 1]"),
    ("[0.5, NaN]", "reference accuracy [1] is nan, outside [0, 1]"),
    ("[0.5, -Infinity]", "reference accuracy [1] is -inf, outside [0, 1]"),
    ("[0.5]", "reference must cover every task: 2 accuracies, got shape (1,)"),
    ('[0.5, "a"]', "reference accuracies must be a list of numbers"),
], ids=["above-one", "nan", "inf", "short", "not-a-number"])
def test_cli_metrics_refuses_bad_reference(tmp_path, capsys, reference, error):
    """A reference accuracy that is not a number in [0, 1] is refused with a
    one-line error naming the file and the index, not printed as a NaN
    intransigence, which is not valid JSON."""
    ref = tmp_path / "ref.json"
    ref.write_text('{"reference_accuracies": %s}' % reference)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[0.9, np.nan], [0.7, 0.8]]))
    assert main(["metrics", "--matrix", str(path), "--reference", str(ref)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {ref}: {error}\n"


def test_cli_metrics_refuses_reference_without_accuracies(tmp_path, capsys):
    out = str(tmp_path / "cf")
    run_single_seed(small_cfg(), "cf", 1, out)
    ref = os.path.join(out, "metrics.json")
    assert main(["metrics", "--matrix", os.path.join(out, "matrix.csv"),
                 "--reference", ref]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {ref} holds no reference_accuracies; "
        "--reference needs the metrics.json of an mtl run\n")


def test_cli_gen_data_round_trip(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--seed", "1",
                 "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == ["rot0.csv", "rot1.csv"]
    rows = np.loadtxt(os.path.join(out, "rot0.csv"), delimiter=",", ndmin=2)
    task = build_stream(load_config(cfg_path), 1)[0]
    assert rows[:, :-1].tobytes() == task.features.tobytes()  # bitwise
    assert np.array_equal(rows[:, -1], task.labels)


def test_cli_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = small_cfg()
    cfg["optimzer"] = cfg.pop("optimizer")
    rc = main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: unknown config key 'optimzer'")
    assert err.strip().count("\n") == 0
    assert not os.path.exists(tmp_path / "o")


def test_cli_run_rejects_missing_config_key(tmp_path, capsys):
    cfg = small_cfg()
    del cfg["epochs_per_task"]
    rc = main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: ValueError: missing config key 'epochs_per_task'\n"
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("key,value,variant", REFUSED_SETTINGS)
def test_cli_run_rejects_optimizer_setting(tmp_path, capsys, key, value, variant):
    cfg = small_cfg()
    cfg["optimizer"][key] = value
    rc = main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", variant,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: optimizer {key} must be")
    assert err.strip().count("\n") == 0
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("flag", ["--lambda", "--rho"])
def test_cli_run_rejects_infinite_override(tmp_path, capsys, flag):
    rc = main(["run", "--config", write_cfg(tmp_path), "--variant", "cf", "--seed", "1",
               flag, "inf", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {flag} must be a finite number >= 0, got inf\n")
    assert not os.path.exists(tmp_path / "o")


def test_every_rule_is_in_the_one_table():
    """Every optimizer field a config sets has its rule in OPTIMIZER_RULES,
    in field order, and every rule a config key names is one of RULES."""
    fields = [f.name for f in dataclasses.fields(OptimizerConfig) if f.name != "variant"]
    assert list(OPTIMIZER_RULES) == fields
    assert all(OPTIMIZER_RULES[name] in RULES and RULES[OPTIMIZER_RULES[name]]
               for name in fields if name != "base_optimizer")
    named = {rule.removeprefix("required").lstrip()
             for rules in runner.CONFIG_RULES.values() for rule in rules.values()}
    assert named <= set(RULES)


def test_cli_run_rejects_fractional_epochs(tmp_path, capsys):
    cfg = small_cfg()
    cfg["epochs_per_task"] = 1.5
    rc = main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "cf",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: epochs_per_task must be an integer >= 1, got 1.5\n")
    assert not os.path.exists(tmp_path / "o")


def test_cli_run_rejects_config_without_seeds(tmp_path, capsys):
    cfg = small_cfg()
    del cfg["seeds"]
    rc = main(["run", "--config", write_cfg(tmp_path, cfg), "--variant", "seq",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValueError: config has no 'seeds' and no seed was given\n")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("task", [2, 7, -1])
def test_cli_probe_rejects_task_out_of_range(tmp_path, capsys, task):
    cfg_path = write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--variant", "seq", "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    ckpt = str(tmp_path / "out" / "tiny" / "seq" / "seed1" / "ckpt_task1.bin")
    rc = main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
               "--task", str(task), "--lanczos-iters", "5"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: --task {task} is out of range: the config has 2 tasks\n")


def test_cli_error_is_single_line_and_nonzero(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "missing.json"),
               "--variant", "seq", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


def test_cli_rerun_into_same_out_is_refused_and_keeps_results(tmp_path, capsys):
    args = ["run", "--config", write_cfg(tmp_path), "--variant", "seq", "--seed", "1",
            "--out", str(tmp_path / "out")]
    assert main(args) == 0
    variant_dir = tmp_path / "out" / "tiny" / "seq"
    aggregate = (variant_dir / "aggregate.csv").read_bytes()
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1
    assert err.rstrip().endswith("already exists; choose a new --out")
    assert (variant_dir / "aggregate.csv").read_bytes() == aggregate
    assert not (variant_dir / "failures.json").exists()


def _seq_run(tmp_path, seed=2):
    cfg_path = write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--variant", "seq", "--seed", str(seed),
                 "--out", str(tmp_path / "out")]) == 0
    return cfg_path, str(tmp_path / "out" / "tiny" / "seq" / f"seed{seed}" / "ckpt_task1.bin")


def _drop_manifest_keys(path, *keys):
    """Rewrite a checkpoint as one written before the manifest had `keys`."""
    from flatcl.checkpoint import _MAGIC, _digest
    with open(path, "rb") as f:
        data = f.read()
    head = len(_MAGIC) + 8
    mlen = int.from_bytes(data[len(_MAGIC):head], "little")
    manifest = json.loads(data[head:head + mlen])
    for key in keys:
        del manifest[key]
    payload = data[head + mlen:]
    manifest["sha256"] = _digest(manifest, payload)
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC + len(mbytes).to_bytes(8, "little") + mbytes + payload)


def test_cli_probe_takes_seed_from_checkpoint(tmp_path, capsys):
    cfg_path, ckpt = _seq_run(tmp_path, seed=2)
    assert load_checkpoint(ckpt).seed == 2
    capsys.readouterr()
    reports = []
    for argv in ([], ["--seed", "2"], ["--seed", "0"]):
        assert main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
                     "--lanczos-iters", "5", *argv]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert reports[0] != reports[2]


def test_cli_probe_refuses_checkpoint_without_seed(tmp_path, capsys):
    cfg_path, ckpt = _seq_run(tmp_path)
    _drop_manifest_keys(ckpt, "seed", "variant")  # the variant was recorded after the seed
    assert load_checkpoint(ckpt).seed is None  # an older file still loads
    capsys.readouterr()
    assert main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
                 "--lanczos-iters", "5"]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {ckpt} records no run seed; pass --seed\n")
    assert main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
                 "--lanczos-iters", "5", "--seed", "2"]) == 0


def test_run_writes_seed_into_every_checkpoint(tmp_path):
    cfg = small_cfg()
    run_single_seed(cfg, "cf", 3, str(tmp_path / "cf"))
    run_single_seed(cfg, "mtl", 3, str(tmp_path / "mtl"))
    for path in ("cf/ckpt_task0.bin", "cf/ckpt_task1.bin", "mtl/ckpt_final.bin"):
        ckpt = load_checkpoint(str(tmp_path / path))
        assert ckpt.seed == 3
        assert ckpt.variant == path.split("/")[0]


def _other_cfg(tmp_path):
    """A config file for a run with other data but the same model shape."""
    cfg = small_cfg()
    cfg["benchmark"]["rotation_per_task"] = 0.5
    path = tmp_path / "other.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_probe_refuses_config_of_another_run(tmp_path, capsys):
    _, ckpt = _seq_run(tmp_path)
    capsys.readouterr()
    for argv in ([], ["--seed", "2"]):
        assert main(["probe", "--checkpoint", ckpt, "--config", _other_cfg(tmp_path),
                     "--lanczos-iters", "5", *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {ckpt}: checkpoint was written under a different "
            "config, variant or seed; refusing to probe\n")


def test_cli_probe_checkpoint_without_variant_is_not_checked(tmp_path, capsys):
    _, ckpt = _seq_run(tmp_path)
    _drop_manifest_keys(ckpt, "variant")
    assert load_checkpoint(ckpt).variant is None  # an older file still loads
    capsys.readouterr()
    assert main(["probe", "--checkpoint", ckpt, "--config", _other_cfg(tmp_path),
                 "--lanczos-iters", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["rho_used"] == 0.05


def test_cli_probe_accepts_config_without_optimizer_section(tmp_path, capsys):
    """`flatcl run` without overrides hashes the config file as it is, so the
    same file passes the probe's check."""
    cfg = small_cfg()
    del cfg["optimizer"]
    cfg_path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", cfg_path, "--variant", "seq", "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    ckpt = str(tmp_path / "out" / "tiny" / "seq" / "seed1" / "ckpt_task1.bin")
    assert main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
                 "--lanczos-iters", "5"]) == 0


def test_cli_probe_refuses_negative_rho(tmp_path, capsys):
    cfg_path, ckpt = _seq_run(tmp_path)
    capsys.readouterr()
    assert main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
                 "--rho", "-0.05", "--lanczos-iters", "5"]) == 1
    assert capsys.readouterr().err == "error: ValueError: rho must be >= 0\n"


def test_cli_probe_refuses_infinite_rho(tmp_path, capsys):
    cfg_path, ckpt = _seq_run(tmp_path)
    capsys.readouterr()
    assert main(["probe", "--checkpoint", ckpt, "--config", cfg_path,
                 "--rho", "inf", "--lanczos-iters", "5"]) == 1
    assert capsys.readouterr().err == "error: ValueError: rho must be finite\n"


# Each subcommand in turn, in one fresh interpreter; the script prints
# whether `import numpy` alone loaded numpy.ma, then whether it is loaded
# after every subcommand has run.
_NO_MA_SCRIPT = textwrap.dedent("""
    import contextlib, io, os, sys
    import numpy
    print("numpy.ma" in sys.modules)
    from flatcl.cli import main
    config, out = sys.argv[1], sys.argv[2]
    seed_dir = os.path.join(out, "rot5", "{}", "seed1")
    argvs = [
        ["run", "--config", config, "--variant", "cf", "--seed", "1", "--out", out],
        ["run", "--config", config, "--variant", "mtl", "--seed", "1", "--out", out],
        ["probe", "--config", config,
         "--checkpoint", os.path.join(seed_dir.format("cf"), "ckpt_task4.bin")],
        ["probe", "--quadratic", "1,3"],
        ["metrics", "--matrix", os.path.join(seed_dir.format("cf"), "matrix.csv"),
         "--reference", os.path.join(seed_dir.format("mtl"), "metrics.json")],
        ["gen-data", "--config", config, "--seed", "1", "--out", os.path.join(out, "d")],
    ]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    print("numpy.ma" in sys.modules)
""")


def test_no_subcommand_imports_numpy_ma(tmp_path):
    """`np.unique` makes numpy 2.x import numpy.ma (1.28 MB resident), which
    no run, probe or subcommand needs; the run path calls none."""
    config = tmp_path / "rot5.json"
    config.write_text((resources.files("flatcl") / "configs" / "rot5.json").read_text())
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_MA_SCRIPT, str(config),
                           str(tmp_path / "out")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    with_numpy, after = proc.stdout.split()
    if with_numpy == "True":
        pytest.skip("`import numpy` alone loads numpy.ma (numpy 1.x)")
    assert after == "False"
