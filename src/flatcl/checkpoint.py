"""Binary checkpoints: a JSON manifest plus raw little-endian float64 blocks.

Round-trips are bitwise exact.  Besides model weights, a checkpoint can
carry everything needed to resume a continual run at a task boundary: the
importance accumulator, the region anchor, the rng state, finished accuracy
rows and the replay buffer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .model import MultiHeadClassifier
from .optim import ImportanceMap
from .params import ParameterSet
from .replay import ReplayBuffer

_MAGIC = b"FLATCKPT"


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
        "format": "flatcl-checkpoint-v1",
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
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(len(mbytes).to_bytes(8, "little"))
        f.write(mbytes)
        for _, arr in blocks:
            f.write(_le64(arr))


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
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a flatcl checkpoint")
        mlen = int.from_bytes(f.read(8), "little")
        manifest = json.loads(f.read(mlen).decode())
        payload = f.read()
    expected = sum(b["bytes"] for b in manifest["blocks"])
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload length {len(payload)} != manifest total {expected}")
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

