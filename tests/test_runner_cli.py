import json
import os

import numpy as np
import pytest

from flatcl.checkpoint import load_checkpoint
from flatcl.cli import main
from flatcl.runner import (VARIANT_FLAGS, load_config, read_matrix_csv,
                           run_experiment, run_single_seed, write_matrix_csv)


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
    from importlib import resources
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
    the same weights, importance and anchor, bit for bit."""
    cfg = small_cfg()
    cfg["benchmark"]["n_tasks"] = 3
    full, resumed = str(tmp_path / "full"), str(tmp_path / "resumed")
    run_single_seed(cfg, "cf", 1, full)
    run_single_seed(cfg, "cf", 1, resumed, resume_from=os.path.join(full, "ckpt_task0.bin"))
    a = load_checkpoint(os.path.join(full, "ckpt_task2.bin"))
    b = load_checkpoint(os.path.join(resumed, "ckpt_task2.bin"))
    assert len(a.model.heads) == len(b.model.heads) == 3
    for x, y in ((a.model.parameters(), b.model.parameters()),
                 (a.importance.values, b.importance.values), (a.anchor, b.anchor)):
        assert x.names() == y.names()
        assert x.flat.tobytes() == y.flat.tobytes()


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
    out = str(tmp_path / "mtl")
    row = run_single_seed(small_cfg(), "mtl", 1, out)
    assert len(row["reference_accuracies"]) == 2
    assert os.path.exists(os.path.join(out, "ckpt_final.bin"))


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


def test_run_experiment_records_per_seed_failures(tmp_path):
    cfg = small_cfg()
    cfg["order"] = "missing-order"  # fails inside each per-seed run
    rows = run_experiment(cfg, "seq", str(tmp_path))
    assert rows == []
    with open(tmp_path / "tiny" / "seq" / "failures.json") as f:
        failures = json.load(f)
    assert [f["seed"] for f in failures] == [1]
    assert "missing-order" in failures[0]["error"]
    assert failures[0]["type"] == "ValueError"
    assert failures[0]["traceback"].startswith("Traceback")
    assert "build_stream" in failures[0]["traceback"]


# -- CLI --------------------------------------------------------------------

def test_cli_run_prints_summary(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    rc = main(["run", "--config", cfg_path, "--variant", "seq",
               "--seed", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed 1: avg_accuracy=" in out


def test_cli_run_overrides_change_hash(tmp_path):
    cfg_path = write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--variant", "cf", "--seed", "1",
                 "--out", str(tmp_path / "a"), "--rho", "0.3",
                 "--lambda", "1.0"]) == 0
    assert main(["run", "--config", cfg_path, "--variant", "cf", "--seed", "1",
                 "--out", str(tmp_path / "b")]) == 0
    ha = json.load(open(tmp_path / "a" / "tiny" / "cf" / "seed1" / "metrics.json"))
    hb = json.load(open(tmp_path / "b" / "tiny" / "cf" / "seed1" / "metrics.json"))
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


def test_cli_gen_data_round_trip(tmp_path, capsys):
    from flatcl.data import load_delimited
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg_path, "--seed", "1",
                 "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == ["rot0.csv", "rot1.csv"]
    task = load_delimited(os.path.join(out, "rot0.csv"), class_count=3)
    assert task.features.shape == (90, 4)


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
