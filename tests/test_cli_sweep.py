"""The flag contract of `flatcl probe`, `flatcl gen-data` and `flatcl
metrics`, case by case, beside tests/test_config_sweep.py's contract of the
config.  Each flag in `FLAGS` is set in turn to each value in `VALUES` and
run in process; `probe`'s flags run on one rot5 `cf` checkpoint, written
once per module, except `--quadratic`, which probes its surrogate alone.
Every case ends in one of three ways: it runs; it is refused with one
`error:` line that names the flag; or argparse refuses it (exit 2) naming
the flag.  The files a subcommand reads (`metrics`' `--matrix` and
`--reference`, and every `--config`) are swept the same way over the
files in `FILES`: each bad one is refused with one line naming it.  No case
prints a RuntimeWarning, and a refused `run` or `gen-data` writes
nothing."""

import json
import re
import warnings
from importlib import resources

import pytest

from flatcl.cli import main

# never 10**6 for --lanczos-iters: its basis would hold 10**6 x d floats
VALUES = ["nan", "inf", "-inf", "-1", "0", "0.5", "", "x", "1e308"]
FLAGS = [("probe", "--seed"), ("probe", "--task"), ("probe", "--rho"),
         ("probe", "--lanczos-iters"), ("probe", "--quadratic"), ("gen-data", "--seed")]
# a Hessian diagonal of several entries, one of them bad
QUADRATIC = ["1,nan", "1,inf", "1,", "1,x"]

CASES = [(command, flag, value) for command, flag in FLAGS for value in VALUES]
CASES += [("probe", "--quadratic", value) for value in QUADRATIC]
# a radius whose probe directions are finite but whose probe points overflow the loss
CASES += [("probe", "--rho", "1e307")]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """rot5's config and its `cf` seed 1 checkpoint after the last task."""
    root = tmp_path_factory.mktemp("cli_sweep")
    config = root / "rot5.json"
    config.write_text((resources.files("flatcl") / "configs" / "rot5.json").read_text())
    assert main(["run", "--config", str(config), "--variant", "cf", "--seed", "1",
                 "--out", str(root / "r")]) == 0
    return config, root / "r" / json.loads(config.read_text())["name"] / "cf" / "seed1"


def _argv(command, flag, value, config, checkpoint, out):
    if command == "gen-data":
        return ["gen-data", "--config", str(config), f"{flag}={value}", "--out", str(out)]
    if flag == "--quadratic":
        return ["probe", f"{flag}={value}"]
    return ["probe", "--config", str(config), "--checkpoint", str(checkpoint),
            f"{flag}={value}"]


def _main(argv):
    """(exit status, RuntimeWarnings) of an in-process `flatcl` call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as `flatcl` prints them
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's refusal
            rc = exc.code
    return rc, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command,flag,value", CASES,
                         ids=[f"{c}{f}={v!r}" for c, f, v in CASES])
def test_flag_value_runs_or_is_refused_naming_its_flag(tmp_path, capsys, run_dir, command,
                                                       flag, value):
    config, seed_dir = run_dir
    out = tmp_path / "out"
    rc, caught = _main(_argv(command, flag, value, config, seed_dir / "ckpt_task4.bin", out))
    err = capsys.readouterr().err
    assert caught == []
    assert "Warning" not in err
    if rc == 0:
        assert err == ""
        return
    if command == "gen-data":
        assert not out.exists()
    name = re.escape(flag.lstrip("-"))
    if rc == 2:
        assert re.search(rf"error: argument {re.escape(flag)}\b", err), err
    else:
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert re.search(rf"(?<![\w-])(--)?{name}\b", err), err


@pytest.mark.parametrize("command", ["run", "probe", "probe --quadratic", "gen-data"])
def test_negative_seed_is_refused_by_every_subcommand(tmp_path, capsys, run_dir, command):
    """One seed rule, an integer >= 0: each subcommand refuses `--seed -1`
    with one line naming the seed, before it writes anything."""
    config, seed_dir = run_dir
    out = tmp_path / "out"
    argv = {"run": ["run", "--config", str(config), "--variant", "seq", "--out", str(out)],
            "probe": ["probe", "--config", str(config),
                      "--checkpoint", str(seed_dir / "ckpt_task4.bin")],
            "probe --quadratic": ["probe", "--quadratic", "1,2"],
            "gen-data": ["gen-data", "--config", str(config), "--out", str(out)]}[command]
    assert _main([*argv, "--seed", "-1"]) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err, err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--checkpoint", "nosuch.bin"),
                                        ("--config", "nosuch.json"), ("--task", "99"),
                                        ("--task", "0"), ("--rho", "-5"), ("--rho", "0.05")])
def test_quadratic_refuses_the_checkpoint_flags(capsys, flag, value):
    """`--quadratic` probes its surrogate alone: a checkpoint flag given with
    it, even at its default, is refused with one line naming the flag, before
    any file is read."""
    assert _main(["probe", "--quadratic", "1,2", flag, value]) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(rf"{flag}\b", err), err


# a 2-task accuracy matrix, and the files `metrics` may be given to read
MATRIX = "task0,task1\n0.9,\n0.8,0.7\n"
MISSING, DIRECTORY = object(), object()
FILES = {"undecodable": b"\xff\xfe\n", "not_json": "task0\n{\n", "missing": MISSING,
         "directory": DIRECTORY, "true": '{"reference_accuracies": [true, 0.5]}',
         "nan": '{"reference_accuracies": [NaN, 0.5]}',
         "short": '{"reference_accuracies": [0.5]}',
         "too_deep": "[" * 100000 + "]" * 100000,
         "reference": '{"reference_accuracies": [0.95, 0.9]}'}
METRICS_CASES = [("--matrix", kind) for kind in ("undecodable", "not_json", "missing",
                                                 "directory")]
METRICS_CASES += [("--reference", kind) for kind in FILES]


def _write(path, content):
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not MISSING:
        path.write_text(content)
    return path


@pytest.mark.parametrize("flag,kind", METRICS_CASES, ids=[f"{f}={k}" for f, k in METRICS_CASES])
def test_metrics_file_runs_or_is_refused_naming_it(tmp_path, capsys, flag, kind):
    """`metrics` reads its matrix and its reference: a file that is missing,
    a directory, not UTF-8 text, not JSON, JSON nested too deeply for the
    parser, or a reference holding a bool, a NaN or too few accuracies is
    refused with one line naming the file."""
    bad = _write(tmp_path / kind, FILES[kind])
    matrix = _write(tmp_path / "matrix.csv", MATRIX) if flag == "--reference" else bad
    argv = ["metrics", "--matrix", str(matrix)]
    if flag == "--reference":
        argv += ["--reference", str(bad)]
    rc, caught = _main(argv)
    err = capsys.readouterr().err
    assert caught == [] and "Warning" not in err
    if kind == "reference":
        assert rc == 0 and err == ""
        return
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert str(bad) in err, err


@pytest.mark.parametrize("kind", ["undecodable", "not_json", "too_deep"])
@pytest.mark.parametrize("command", ["run", "probe", "gen-data"])
def test_config_that_is_not_json_text_is_refused_naming_it(tmp_path, capsys, run_dir,
                                                           command, kind):
    """Every `--config` is read as UTF-8 JSON: a file that is not, or whose
    nesting is too deep for the parser, is refused with one line naming it,
    and nothing is written."""
    _, seed_dir = run_dir
    config, out = _write(tmp_path / kind, FILES[kind]), tmp_path / "out"
    argv = {"run": ["run", "--variant", "seq", "--seed", "1", "--out", str(out)],
            "probe": ["probe", "--checkpoint", str(seed_dir / "ckpt_task4.bin")],
            "gen-data": ["gen-data", "--out", str(out)]}[command]
    assert _main([*argv, "--config", str(config)]) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(config) in err, err
    assert not out.exists()
