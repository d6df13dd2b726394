"""Binary checkpoints: a JSON manifest plus raw little-endian float64 blocks.

Layout: the magic bytes, the manifest length (8 bytes, little-endian), the
manifest (sorted-key JSON) and the data blocks.  The manifest's `sha256` is
the SHA-256 of the manifest serialized without that field, followed by the
data blocks, so any truncated or corrupted file is refused.  A save writes a
temporary file next to the target and renames it over the target, so a
crash never leaves a partial checkpoint under the final name.

Round-trips are bitwise exact.  Besides model weights, a checkpoint can
carry everything needed to resume a continual run at a task boundary: the
importance accumulator, the region anchor, the rng state, finished accuracy
rows and the replay buffer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .model import MultiHeadClassifier
from .optim import ImportanceMap
from .params import ParameterSet
from .replay import ReplayBuffer

_MAGIC = b"FLATCKPT"
_FORMAT = "flatcl-checkpoint-v2"


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Checkpoint:
    model: MultiHeadClassifier
    config_hash: str | None = None
    rng_state: dict | None = None
    next_task: int | None = None
    importance: ImportanceMap | None = None
    anchor: ParameterSet | None = None
    matrix_rows: np.ndarray | None = None
    replay_buffer: ReplayBuffer | None = None


def _le64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(path, ckpt: Checkpoint):
    model = ckpt.model
    blocks: list[tuple[str, np.ndarray]] = []
    for name, arr in model.parameters().items():
        blocks.append((f"param/{name}", arr))
    if ckpt.importance is not None:
        for name, arr in ckpt.importance.values.items():
            blocks.append((f"importance/{name}", arr))
    if ckpt.anchor is not None:
        for name, arr in ckpt.anchor.items():
            blocks.append((f"anchor/{name}", arr))
    if ckpt.matrix_rows is not None:
        blocks.append(("matrix", np.asarray(ckpt.matrix_rows, dtype=np.float64)))
    replay_meta = None
    if ckpt.replay_buffer is not None:
        buf = ckpt.replay_buffer
        feats = (np.stack([e[0] for e in buf.exemplars])
                 if buf.exemplars else np.zeros((0, 0)))
        blocks.append(("replay_features", feats))
        replay_meta = {
            "store_ratio": buf.store_ratio,
            "replay_every": buf.replay_every,
            "labels": [e[1] for e in buf.exemplars],
            "task_ids": [e[2] for e in buf.exemplars],
        }
    manifest = {
        "format": _FORMAT,
        "model": {
            "init_seed": model.init_seed,
            "input_dim": model.input_dim,
            "hidden_dims": model.hidden_dims,
            "activation": model.activation,
            "head_classes": model.head_classes,
        },
        "blocks": [{"name": n, "shape": list(a.shape), "bytes": a.size * 8}
                   for n, a in blocks],
        "config_hash": ckpt.config_hash,
        "rng_state": _jsonable(ckpt.rng_state),
        "next_task": ckpt.next_task,
        "importance_gamma": None if ckpt.importance is None else ckpt.importance.gamma,
        "replay": replay_meta,
    }
    payload = b"".join(_le64(arr) for _, arr in blocks)
    manifest["sha256"] = _digest(manifest, payload)
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_MAGIC)
            f.write(len(mbytes).to_bytes(8, "little"))
            f.write(mbytes)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _digest(manifest: dict, payload: bytes) -> str:
    """SHA-256 of the manifest without its `sha256` field, then the payload."""
    core = {k: v for k, v in manifest.items() if k != "sha256"}
    h = hashlib.sha256(json.dumps(core, sort_keys=True).encode())
    h.update(payload)
    return h.hexdigest()


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file that is not an intact checkpoint of this
    format raises a one-line ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    head = len(_MAGIC) + 8
    mlen = int.from_bytes(data[len(_MAGIC):head], "little")
    if data[:len(_MAGIC)] != _MAGIC or len(data) < head + mlen:
        raise ValueError(f"{path}: not a flatcl checkpoint, or truncated")
    try:
        manifest = json.loads(data[head:head + mlen].decode())
    except ValueError:  # bad UTF-8 or JSON
        raise ValueError(f"{path}: corrupt manifest") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a {_FORMAT} manifest")
    payload = data[head + mlen:]
    if manifest.get("sha256") != _digest(manifest, payload):
        raise ValueError(f"{path}: checksum mismatch (payload length {len(payload)}); "
                         "the checkpoint is truncated or corrupt")
    arrays = {}
    offset = 0
    for b in manifest["blocks"]:
        n = b["bytes"]
        arr = np.frombuffer(payload[offset:offset + n], dtype="<f8").astype(
            np.float64).reshape(b["shape"])
        arrays[b["name"]] = arr.copy()
        offset += n

    minfo = manifest["model"]
    model = MultiHeadClassifier(minfo["init_seed"], minfo["input_dim"],
                                minfo["hidden_dims"], minfo["head_classes"],
                                activation=minfo["activation"])
    params = model.parameters()
    for name in params:
        np.copyto(params[name], arrays[f"param/{name}"])

    importance = None
    imp_items = [(k.split("/", 1)[1], v) for k, v in arrays.items()
                 if k.startswith("importance/")]
    if imp_items:
        importance = ImportanceMap(ParameterSet(imp_items),
                                   gamma=manifest["importance_gamma"])
    anchor = None
    anc_items = [(k.split("/", 1)[1], v) for k, v in arrays.items()
                 if k.startswith("anchor/")]
    if anc_items:
        anchor = ParameterSet(anc_items)

    buffer = None
    if manifest["replay"] is not None:
        r = manifest["replay"]
        buffer = ReplayBuffer(store_ratio=r["store_ratio"],
                              replay_every=r["replay_every"])
        feats = arrays.get("replay_features", np.zeros((0, 0)))
        for i, (label, task_id) in enumerate(zip(r["labels"], r["task_ids"])):
            buffer.exemplars.append((feats[i].copy(), int(label), int(task_id)))

    return Checkpoint(
        model=model,
        config_hash=manifest["config_hash"],
        rng_state=manifest["rng_state"],  # PCG64 state: plain ints, JSON-exact
        next_task=manifest["next_task"],
        importance=importance,
        anchor=anchor,
        matrix_rows=arrays.get("matrix"),
        replay_buffer=buffer,
    )

