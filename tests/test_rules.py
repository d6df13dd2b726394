import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import flatcl
from flatcl.data import gen_permuted_features, gen_rotated_gaussians
from flatcl.optim import (OptimizerConfig, VariantFlags, random_importance, train_continual,
                          train_multitask)
from flatcl.replay import ReplayBuffer, select_exemplars

from conftest import random_mlp

_STREAM = gen_rotated_gaussians(0, 2, 2, 2, 4, 3.0, 0.5)
_CF = OptimizerConfig(variant=VariantFlags(create=True, find=True, clamp=True, l2=True,
                                           replay=True))

# Each library entry point that takes a seed, called on a one-head model of
# two inputs; the two training loops derive their own list from the seed.
_CALLS = {
    "random_importance": lambda model, seed: random_importance(model, seed),
    "add_task": lambda model, seed: ReplayBuffer().add_task(np.eye(4), np.arange(4) % 2, 0,
                                                            0.5, seed),
    "select_exemplars": lambda model, seed: select_exemplars(np.eye(4), 2, seed),
    "gen_rotated_gaussians": lambda model, seed: gen_rotated_gaussians(seed, 2, 2, 2, 4,
                                                                       3.0, 0.5),
    "gen_permuted_features": lambda model, seed: gen_permuted_features(seed, 2, 2, 2, 4, 3.0),
    "train_continual": lambda model, seed: train_continual(model, _STREAM, _CF, seed, 1),
    "train_multitask": lambda model, seed: train_multitask(model, _STREAM, _CF, seed, 1),
}
_LOOPS = ("train_continual", "train_multitask")


@pytest.mark.parametrize("seed", [-1, 1.5, True, [-1, 2, 0]],
                         ids=["negative", "float", "bool", "derived-list"])
@pytest.mark.parametrize("name", _CALLS)
def test_every_library_seed_goes_through_the_seed_rule(name, seed):
    """A seed the rule table refuses, or a run's derived list with a part
    it refuses, is refused in its words before anything moves: the loops
    leave the weights and the heads as they were."""
    model = random_mlp(0, input_dim=2, hidden=(3,), classes=(2,))
    theta = model.theta.copy()
    refused = seed if name in _LOOPS or not isinstance(seed, list) else seed[0]
    with pytest.raises(ValueError) as info:
        _CALLS[name](model, seed)
    assert str(info.value) == f"seed must be an integer >= 0, got {refused!r}"
    assert model.theta.tobytes() == theta.tobytes() and model.head_classes == [2]


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(flatcl.__file__)))
_LOADED = ("import sys; print(' '.join(sorted(m for m in sys.modules "
           "if m.startswith(('flatcl', 'numpy.random')))))")


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(flatcl.__path__)))
def test_each_module_imports_alone(module):
    """Every module imports first in a fresh interpreter, so no import
    leans on another module having been imported; `rules` loads no other
    flatcl module, which is what lets every module import it at the top.
    No import loads numpy's lazy `numpy.random` (2.7 MB) before a generator
    is built."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"import flatcl.{module}; {_LOADED}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "numpy.random" not in proc.stdout.split()
    if module == "rules":
        assert proc.stdout.split() == ["flatcl", "flatcl.rules"]
