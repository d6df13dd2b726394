import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from flatcl.checkpoint import _MAGIC, frame
from flatcl.model import Batch, MultiHeadClassifier


def random_mlp(seed, input_dim=4, hidden=(6,), classes=(3,), activation="tanh"):
    return MultiHeadClassifier(seed, input_dim, list(hidden), list(classes),
                               activation=activation)


def random_batch(seed, model, n=5, task_id=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, model.input_dim))
    labels = rng.integers(0, model.head_classes[task_id], size=n)
    return Batch(feats, labels, task_id)


@pytest.fixture
def mlp_and_batch():
    model = random_mlp(7)
    return model, random_batch(11, model)


def resign_checkpoint(path, edit):
    """Reseal the checkpoint at `path` with a valid digest after
    `edit(manifest, raw)` changes its manifest and `raw`, the list of its
    blocks' bytes in file order, as a writer that skipped the checks would;
    `checkpoint.frame`, which every save calls, writes its bytes.  CI calls
    this too, with tests/ on PYTHONPATH."""
    path = Path(path)
    data = path.read_bytes()
    head = len(_MAGIC) + 8
    mlen = int.from_bytes(data[len(_MAGIC):head], "little")
    manifest, raw, offset = json.loads(data[head:head + mlen]), [], head + mlen
    for block in manifest["blocks"]:
        raw.append(data[offset:offset + block["bytes"]])
        offset += block["bytes"]
    edit(manifest, raw)
    path.write_bytes(frame(manifest, b"".join(raw)))


def pytest_terminal_summary(terminalreporter):
    """Echo one pass/fail line per acceptance criterion after the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


# Every refusal the sweeps pin, by test id: the full stderr with each
# temporary directory masked as <tmp>.  A case absent from the table must
# print nothing.  `FLATCL_RECORD_REFUSALS=1 pytest tests/test_config_sweep.py
# tests/test_cli_sweep.py` rewrites the entries of the cases it runs.
REFUSALS = Path(__file__).with_name("refusals.json")
_TABLE = json.loads(REFUSALS.read_text()) if REFUSALS.exists() else {}
_RECORDING = bool(os.environ.get("FLATCL_RECORD_REFUSALS"))


@pytest.fixture
def refusal(request, tmp_path_factory):
    """`refusal(err)` asserts `err`, masked, is the table's text for this
    test, or is empty for a test the table does not hold."""
    base = re.escape(str(tmp_path_factory.getbasetemp()))

    def check(err):
        text = re.sub(base + r"/[^/\s']+", "<tmp>", err)
        if _RECORDING:
            _TABLE[request.node.name] = text
        else:
            assert text == _TABLE.get(request.node.name, ""), text
    return check


def pytest_sessionfinish(session):
    if _RECORDING:
        REFUSALS.write_text(json.dumps({k: v for k, v in sorted(_TABLE.items()) if v},
                                       indent=1, ensure_ascii=False) + "\n")
