"""The config contract, case by case.  Each leaf key of the shipped configs
is set in turn to each value in `VALUES` and run through an in-process
`flatcl run --variant cf --seed 1` (the `seeds` cases run without
`--seed`).  Every case ends in one of three ways: it runs; it is refused,
before anything is written, with one `error:` line that names the key; or
it is one of the finite but hopeless settings in `HOPELESS`, each of whose
seeds fails at its first overflow.  No case prints a RuntimeWarning, and
each refusal's full text is the one tests/refusals.json holds for its id."""

import json
import math
import re
import warnings
from importlib import resources

import pytest

from flatcl.cli import main

VALUES = [math.nan, math.inf, -math.inf, -1, 0, 0.5, True, "x", [], {}, None, 1e308, 10 ** 6]
# counts that set the run's size, which 10**6 would keep running for a long time
SIZES = {"epochs_per_task", "n_tasks", "classes_per_task", "dim", "samples_per_class",
         "lanczos_iters"}
# (section, key) whose value 1e308 passes every check and cannot train; a
# case leaves this list only by being refused or by running
HOPELESS = {("benchmark", "separation"), ("optimizer", "lam"), ("optimizer", "rho")}
ALL_SEEDS_FAILED = "error: RuntimeError: all seeds failed; see failures.json\n"


def _config(name):
    return json.loads((resources.files("flatcl") / "configs" / f"{name}.json").read_text())


def _cases(name):
    """(config, section, key, value) of each case; `section` is None at the
    top level, and `orders` is one leaf."""
    cfg = _config(name)
    leaves = [(None, key) for key in cfg if not isinstance(cfg[key], dict) or key == "orders"]
    leaves += [(section, key) for section, body in cfg.items()
               if isinstance(body, dict) and section != "orders" for key in body]
    cases = [(name, section, key, value) for section, key in leaves if not key.startswith("_")
             for value in VALUES if not (key in SIZES and value == 10 ** 6)]
    cases += [(name, None, "seeds", value) for value in ([True], ["a"], [1.5], [-1], [1, 1])]
    cases += [(name, None, "order", value) for value in ("identity", *cfg["orders"])]
    return cases


CASES = _cases("rot5") + _cases("perm5")


@pytest.mark.parametrize("config,section,key,value", CASES, ids=[
    f"{config}-{section + '.' if section else ''}{key}-{value!r}"
    for config, section, key, value in CASES])
def test_config_value_runs_or_is_refused_naming_its_key(tmp_path, capsys, refusal, config,
                                                        section, key, value):
    cfg = _config(config)
    (cfg[section] if section else cfg)[key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    seed = [] if key == "seeds" else ["--seed", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as `flatcl run` prints them
        rc = main(["run", "--config", str(tmp_path / "cfg.json"), "--variant", "cf", *seed,
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    refusal(err)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if value == 1e308 and (section, key) in HOPELESS:
        assert (rc, err) == (1, ALL_SEEDS_FAILED)
    elif rc == 0:
        assert err == ""
    else:
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert err != ALL_SEEDS_FAILED
        assert re.search(rf"\b{key}\b", err), err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
