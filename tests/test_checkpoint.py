import functools
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flatcl.checkpoint import (Checkpoint, config_hash, load_checkpoint,
                               save_checkpoint)
from flatcl.model import MultiHeadClassifier
from flatcl.optim import ImportanceMap
from flatcl.replay import ReplayBuffer

from conftest import random_mlp


def test_config_hash_stable_and_order_insensitive():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 64
    assert config_hash({"x": 2, "y": [1, 2]}) != a


def test_model_round_trip_bitwise(tmp_path):
    model = random_mlp(31, input_dim=3, hidden=(5, 4), classes=(3, 2))
    # make the weights non-trivial relative to the init
    model.parameters()["enc0.W"][0, 0] = np.pi
    path = tmp_path / "m.bin"
    save_checkpoint(path, Checkpoint(model=model, config_hash="abc", seed=17))
    loaded = load_checkpoint(path)
    assert loaded.config_hash == "abc" and loaded.seed == 17
    assert loaded.model.hidden_dims == [5, 4]
    assert loaded.model.parameters().names() == model.parameters().names()
    assert loaded.model.theta.tobytes() == model.theta.tobytes()
    # a head added after the load is the one the saved model would get
    for m in (model, loaded.model):
        m.add_task_head(4)
    assert loaded.model.theta.tobytes() == model.theta.tobytes()


def test_full_state_round_trip(tmp_path):
    model = random_mlp(32)
    rng = np.random.Generator(np.random.PCG64(5))
    rng.normal(size=100)  # advance away from the fresh state
    imp = ImportanceMap(np.abs(model.theta) + 1.0)
    matrix = np.array([[0.5, np.nan], [0.4, 0.6]])
    buf = ReplayBuffer()
    buf.add_task(np.random.default_rng(0).normal(size=(8, model.input_dim)),
                 np.arange(8) % 3, 0, 0.5, seed=1)

    # probe values keep their key order and float bits through the
    # sorted-key manifest
    probes = [{"task": t, "lambda_max": 1 / 3 + t, "log_lambda_max": -0.1 * t}
              for t in range(2)]

    path = tmp_path / "full.bin"
    save_checkpoint(path, Checkpoint(
        model=model, config_hash="h", rng_state=rng.bit_generator.state,
        next_task=2, importance=imp, matrix_rows=matrix, probe_values=probes,
        replay_buffer=buf))
    loaded = load_checkpoint(path)

    assert loaded.next_task == 2
    assert json.dumps(loaded.probe_values) == json.dumps(probes)
    assert np.array_equal(loaded.importance.values, imp.values)
    assert np.array_equal(loaded.matrix_rows, matrix, equal_nan=True)
    assert len(loaded.replay_buffer) == len(buf)

    # the restored rng state continues the exact same stream
    rng2 = np.random.Generator(np.random.PCG64(0))
    rng2.bit_generator.state = loaded.rng_state
    assert np.array_equal(rng.normal(size=10), rng2.normal(size=10))


@pytest.mark.parametrize("n_tasks", [0, 1, 3])
def test_replay_arrays_round_trip(tmp_path, n_tasks):
    """The replay store's three arrays come back bitwise, with their dtypes
    and shapes, including an empty store."""
    model = random_mlp(39)
    buf = ReplayBuffer()
    rng = np.random.default_rng(3)
    for t in range(n_tasks):
        buf.add_task(rng.normal(size=(10, model.input_dim)), np.arange(10) % 3, t, 0.3,
                     seed=t)
    path = tmp_path / "replay.bin"
    save_checkpoint(path, Checkpoint(model=model, replay_buffer=buf))
    loaded = load_checkpoint(path).replay_buffer
    for name in ("features", "labels", "task_ids"):
        a, b = getattr(loaded, name), getattr(buf, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert loaded.task_ids.tolist() == sorted(loaded.task_ids.tolist())
    draw = [loaded.sample_batches(8, np.random.default_rng(1)),
            buf.sample_batches(8, np.random.default_rng(1))]
    for x, y in zip(*draw):
        assert x.task_id == y.task_id
        assert x.features.tobytes() == y.features.tobytes()
        assert x.labels.tobytes() == y.labels.tobytes()


def _floats(shape, **kw):
    return arrays(np.float64, shape, elements=st.floats(width=64, **kw))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checkpoint_round_trip_property(data):
    """Any layout (0-2 hidden layers, 1-4 heads, arbitrary widths) with any
    mix of optional state comes back bitwise."""
    hidden = data.draw(st.lists(st.integers(1, 5), max_size=2), label="hidden")
    heads = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="heads")
    d = data.draw(st.integers(1, 4), label="input_dim")
    model = MultiHeadClassifier(data.draw(st.integers(0, 2**32 - 1)), d, hidden, heads)
    model.theta[:] = data.draw(_floats(model.theta.shape, allow_nan=False), label="theta")
    imp = data.draw(st.none() | _floats(model.theta.size, min_value=0.0).map(ImportanceMap),
                    label="importance")
    t = len(heads)
    rows = data.draw(st.none() | st.integers(1, t).flatmap(
        lambda k: _floats((k, t))), label="matrix_rows")
    buf = data.draw(st.none() | st.just(ReplayBuffer()), label="replay")
    n = data.draw(st.integers(0, 6), label="stored") if buf is not None else 0
    if n:
        buf.features = data.draw(_floats((n, d)), label="replay_features")
        buf.labels = np.array(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
                              dtype=np.int64)
        buf.task_ids = np.sort(np.array(data.draw(st.lists(
            st.integers(0, t - 1), min_size=n, max_size=n)), dtype=np.int64))
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**64 - 1))))
    rng.integers(2, size=data.draw(st.integers(0, 3)))
    next_task = data.draw(st.none() | st.integers(0, t))
    ckpt = Checkpoint(model=model, config_hash="h", rng_state=rng.bit_generator.state,
                      next_task=next_task, importance=imp, matrix_rows=rows, replay_buffer=buf)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.bin")
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)

    assert back.model.hidden_dims == hidden and back.model.head_classes == heads
    assert back.model.theta.tobytes() == model.theta.tobytes()
    assert (imp is None) == (back.importance is None)
    assert imp is None or back.importance.values.tobytes() == imp.values.tobytes()
    assert (rows is None) == (back.matrix_rows is None)
    assert rows is None or back.matrix_rows.tobytes() == rows.tobytes()
    assert (buf is None) == (back.replay_buffer is None)
    if buf is not None:
        for field in ("features", "labels", "task_ids"):
            a, b = getattr(buf, field), getattr(back.replay_buffer, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert back.rng_state == rng.bit_generator.state
    assert back.next_task == next_task


@pytest.mark.parametrize("field", ["importance"])
def test_save_rejects_misaligned_state(tmp_path, field):
    """Importance is stored as a block over the model's layout, so importance
    laid out for another model is refused before anything is written."""
    model = random_mlp(40, classes=(3, 2))
    state = ImportanceMap(np.abs(random_mlp(40, classes=(3,)).theta))
    path = tmp_path / "bad.bin"
    with pytest.raises(ValueError, match="misaligned"):
        save_checkpoint(path, Checkpoint(model=model, **{field: state}))
    assert not path.exists()


def _rewrite_block(path, name, array):
    """Replace the block `name` of the checkpoint at `path` by `array` and
    reseal the file, as a writer that skipped the checks would."""
    from flatcl.checkpoint import _MAGIC, _digest
    data = path.read_bytes()
    head = len(_MAGIC) + 8
    mlen = int.from_bytes(data[len(_MAGIC):head], "little")
    manifest = json.loads(data[head:head + mlen])
    payload, offset, blocks = b"", head + mlen, manifest["blocks"]
    for block in blocks:
        raw = data[offset:offset + block["bytes"]]
        offset += block["bytes"]
        if block["name"] == name:
            raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
            block["shape"], block["bytes"] = list(np.shape(array)), len(raw)
        payload += raw
    manifest["sha256"] = _digest(manifest, payload)
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(_MAGIC + len(mbytes).to_bytes(8, "little") + mbytes + payload)


def test_load_rejects_misaligned_importance(tmp_path):
    """An intact file whose importance block is not laid out like the
    weights is refused with the same one-line error as a save, naming the
    file like the loader's other refusals."""
    model = random_mlp(42, classes=(3, 2))
    path = tmp_path / "c.bin"
    imp = ImportanceMap(np.abs(model.theta))
    save_checkpoint(path, Checkpoint(model=model, importance=imp))
    assert load_checkpoint(path).importance.values.tobytes() == imp.values.tobytes()
    _rewrite_block(path, "importance", np.abs(model.theta[:-1]))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: misaligned importance") as info:
        load_checkpoint(path)
    assert "\n" not in str(info.value)


def test_load_rejects_nan_importance(tmp_path):
    """A NaN importance entry would rank as the most important coordinate
    and, in a resumed sparse-mask run, freeze it; the file is refused by
    name."""
    model = random_mlp(41)
    path = tmp_path / "nan.bin"
    save_checkpoint(path, Checkpoint(model=model, importance=ImportanceMap(np.abs(model.theta))))
    bad = np.abs(model.theta)
    bad[3] = np.nan  # a file written by a writer that skipped the check
    _rewrite_block(path, "importance", bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: negative or NaN importance"):
        load_checkpoint(path)


def test_load_rejects_replay_store_with_a_label_short(tmp_path):
    """The replay store's row, label and task-id counts are checked where a
    store comes from outside: a re-signed file whose labels list is one
    entry short is refused by name, not left for training to trip over."""
    from flatcl.checkpoint import _digest
    model = random_mlp(44)
    store = ReplayBuffer()
    rng = np.random.default_rng(0)
    store.add_task(rng.normal(size=(20, 4)), rng.integers(0, 3, size=20), 0, 0.25, seed=1)
    path = tmp_path / "short.bin"
    save_checkpoint(path, Checkpoint(model=model, replay_buffer=store))
    assert load_checkpoint(path).replay_buffer.labels.tolist() == store.labels.tolist()
    data = path.read_bytes()
    mlen = int.from_bytes(data[8:16], "little")
    manifest, payload = json.loads(data[16:16 + mlen]), data[16 + mlen:]
    manifest["replay"]["labels"].pop()
    manifest["sha256"] = _digest(manifest, payload)
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(data[:8] + len(mbytes).to_bytes(8, "little") + mbytes + payload)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*replay store holds "
                                         "5 feature rows, 4 labels and 5 task ids$"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda m: m["blocks"][0].update(name="weights"),
    lambda m: m.pop("model"),
    lambda m: m.pop("rng_state"),
    lambda m: m["model"].update(hidden_dims=[7]),
    lambda m: m["blocks"][0].update(bytes=m["blocks"][0]["bytes"] - 8),
    lambda m: m["blocks"][0].update(shape=[m["blocks"][0]["shape"][0] + 1]),
    lambda m: m["model"].update(activation="sigmoid"),
], ids=["no-param-block", "no-model", "no-rng-state", "hidden-dims-misfit",
        "bytes-misfit", "shape-misfit", "unknown-activation"])
def test_load_refuses_resigned_manifest_that_misdescribes_its_data(tmp_path, edit):
    """A manifest edited and re-signed with a valid digest passes the
    checksum; one that lacks an entry or block, or describes a model or a
    block the data does not fit, is refused with a one-line ValueError
    that names the file."""
    from flatcl.checkpoint import _digest
    path = tmp_path / "c.bin"
    save_checkpoint(path, Checkpoint(model=random_mlp(43)))
    data = path.read_bytes()
    mlen = int.from_bytes(data[8:16], "little")
    manifest, payload = json.loads(data[16:16 + mlen]), data[16 + mlen:]
    edit(manifest)
    manifest["sha256"] = _digest(manifest, payload)
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(data[:8] + len(mbytes).to_bytes(8, "little") + mbytes + payload)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPTxxxx")
    with pytest.raises(ValueError, match="not a flatcl checkpoint"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    model = random_mlp(33)
    path = tmp_path / "trunc.bin"
    save_checkpoint(path, Checkpoint(model=model))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="payload length"):
        load_checkpoint(path)


def test_save_is_deterministic(tmp_path):
    model = random_mlp(34)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, Checkpoint(model=model, config_hash="h"))
    save_checkpoint(p2, Checkpoint(model=model, config_hash="h"))
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "old.bin"
    save_checkpoint(path, Checkpoint(model=random_mlp(35)))
    data = path.read_bytes()
    mlen = int.from_bytes(data[8:16], "little")
    manifest = json.loads(data[16:16 + mlen])
    manifest["format"] = "flatcl-checkpoint-v2"
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(data[:8] + len(mbytes).to_bytes(8, "little") + mbytes
                     + data[16 + mlen:])
    with pytest.raises(ValueError, match="flatcl-checkpoint-v3"):
        load_checkpoint(path)


def test_save_replaces_atomically(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, Checkpoint(model=random_mlp(36), config_hash="a"))
    save_checkpoint(path, Checkpoint(model=random_mlp(37), config_hash="b"))
    assert os.listdir(tmp_path) == ["ckpt.bin"]  # no temporary file left
    assert load_checkpoint(path).config_hash == "b"


@functools.cache
def _intact_checkpoint() -> bytes:
    model = random_mlp(38, hidden=(3,), classes=(3, 2))
    imp = ImportanceMap(np.abs(model.theta))
    buf = ReplayBuffer()
    buf.add_task(np.eye(4), np.arange(4) % 3, 0, 0.5, seed=1)
    ckpt = Checkpoint(model=model, config_hash="h", next_task=1, importance=imp,
                      matrix_rows=np.array([[0.5, np.nan]]), replay_buffer=buf,
                      rng_state=np.random.Generator(np.random.PCG64(1)).bit_generator.state)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.bin")
        save_checkpoint(path, ckpt)
        with open(path, "rb") as f:
            return f.read()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncated_or_bit_flipped_checkpoint_rejected(data):
    """Any truncation or single bit flip gives a one-line ValueError, never
    a model."""
    blob = bytearray(_intact_checkpoint())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="byte")
        blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.bin")
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
    assert "\n" not in str(info.value)
