"""Binary checkpoints: a JSON manifest plus raw little-endian float64 blocks.

Layout: the magic bytes, the manifest length (8 bytes, little-endian), the
manifest (sorted-key JSON) and the data blocks.  The manifest's `sha256` is
the SHA-256 of the manifest serialized without that field, followed by the
data blocks, so any truncated or corrupted file is refused.  A save builds
the file's bytes first and hands them to `write_atomic`, which writes a
temporary file next to the target and renames it over the target, so a
crash never leaves a partial checkpoint under the final name.  Every other
file flatcl writes goes through `write_atomic` too.

Round-trips are bitwise exact.  Besides model weights, a checkpoint can
carry the run seed and variant (absent from files written before each was
recorded) and the rest of the `optim.RunState` a continual run resumes
from at a task boundary: the next task, the importance accumulator, the rng
state, finished accuracy rows, the finished tasks' probe values and the
replay buffer.  The next task's flat region is rebuilt from the weights, so
it is not stored; the `anchor` block of earlier v3 files, always equal to
`param`, is not read.  The weights and the importance are each one block
over the model's flat parameter layout; the replay buffer's features are
one (n, d) block and its labels and task ids manifest lists.  The probe
values are one manifest string of JSON text, so each entry keeps its key
order through the sorted-key manifest; files written before they were kept
have none.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .model import MultiHeadClassifier
from .optim import ImportanceMap, RunState
from .replay import ReplayBuffer

_MAGIC = b"FLATCKPT"
_FORMAT = "flatcl-checkpoint-v3"


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Checkpoint(RunState):
    """A task-boundary `RunState`, which `optim.train_continual` moves and
    resumes from, plus what identifies its run."""
    config_hash: str | None = None
    seed: int | None = None  # the run seed: `flatcl probe` rebuilds its stream from it
    variant: str | None = None  # the run variant: `flatcl probe` rechecks the hash with it


def save_checkpoint(path, ckpt: Checkpoint):
    model = ckpt.model
    blocks: list[tuple[str, np.ndarray]] = [("param", model.theta)]
    if ckpt.importance is not None:
        blocks.append(("importance", ckpt.importance.values))
    if ckpt.matrix_rows is not None:
        blocks.append(("matrix", np.asarray(ckpt.matrix_rows, dtype=np.float64)))
    replay_meta = None
    if ckpt.replay_buffer is not None:
        buf = ckpt.replay_buffer
        blocks.append(("replay_features", buf.features))
        replay_meta = {"labels": buf.labels.tolist(), "task_ids": buf.task_ids.tolist()}
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
        "seed": ckpt.seed,
        "variant": ckpt.variant,
        "rng_state": ckpt.rng_state,  # PCG64 state: plain ints, JSON-exact
        "next_task": ckpt.next_task,
        "probe_values": None if ckpt.probe_values is None else json.dumps(ckpt.probe_values),
        "replay": replay_meta,
    }
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in blocks)
    manifest["sha256"] = _digest(manifest, payload)
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    write_atomic(path, _MAGIC + len(mbytes).to_bytes(8, "little") + mbytes + payload)


def write_atomic(path, data: bytes):
    """Write `data`, a file's finished bytes, to a new temporary file next
    to `path` and rename it over `path`.  Every file flatcl writes goes
    through here, so a write that raises leaves neither a partial file under
    the final name nor the temporary file.  The temporary file is created by
    `open(tmp, "xb")`, so it gets the mode a plain `open(path, "w")` would
    under the process umask."""
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
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


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file that is not an intact checkpoint of this
    format raises a one-line ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    head = len(_MAGIC) + 8
    mlen = int.from_bytes(data[len(_MAGIC):head], "little")
    # `<=` here would refuse the same files: one that ends at its manifest
    # has no payload, and every checkpoint a save writes has one (the
    # weights), so its checksum fails below; only the message differs.
    if data[:len(_MAGIC)] != _MAGIC or len(data) < head + mlen:
        raise ValueError(f"{path}: not a flatcl checkpoint, or truncated")
    try:
        manifest = json.loads(data[head:head + mlen].decode())
    except (ValueError, RecursionError):  # bad UTF-8 or JSON, or JSON nested too deeply
        raise ValueError(f"{path}: corrupt manifest") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a {_FORMAT} manifest")
    payload = data[head + mlen:]
    if manifest.get("sha256") != _digest(manifest, payload):
        raise ValueError(f"{path}: checksum mismatch (payload length {len(payload)}); "
                         "the checkpoint is truncated or corrupt")
    # an intact manifest may still describe its data wrongly, or not at all
    try:
        arrays, offset = {}, 0
        for b in manifest["blocks"]:
            raw, offset = payload[offset:offset + b["bytes"]], offset + b["bytes"]
            arrays[b["name"]] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(b["shape"])
        minfo = manifest["model"]
        model = MultiHeadClassifier.from_weights(arrays["param"], minfo["init_seed"],
                                                 minfo["input_dim"], minfo["hidden_dims"],
                                                 minfo["head_classes"], minfo["activation"])
        buffer = None
        if (r := manifest["replay"]) is not None:  # earlier v3 files also hold replay settings; unread
            buffer = ReplayBuffer()
            buffer.features = arrays["replay_features"]
            buffer.labels = np.array(r["labels"], dtype=np.int64)
            buffer.task_ids = np.array(r["task_ids"], dtype=np.int64)
            if not len(buffer.features) == len(buffer.labels) == len(buffer.task_ids):
                raise ValueError(f"replay store holds {len(buffer.features)} feature rows, "
                                 f"{len(buffer.labels)} labels and {len(buffer.task_ids)} task ids")
        fields = {k: manifest[k] for k in ("config_hash", "rng_state", "next_task")}
        if (probe_values := manifest.get("probe_values")) is not None:
            fields["probe_values"] = json.loads(probe_values)
    except KeyError as e:
        raise ValueError(f"{path}: manifest has no {e} entry or block") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: manifest does not describe its data: {e}") from None
    importance = arrays.get("importance")
    try:  # a misaligned importance block, or a negative or NaN entry
        return Checkpoint(
            model=model,
            seed=manifest.get("seed"),  # files written before these keys have none
            variant=manifest.get("variant"),
            importance=None if importance is None else ImportanceMap(importance),
            matrix_rows=arrays.get("matrix"),
            replay_buffer=buffer,
            **fields,
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
