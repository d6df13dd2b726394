"""Binary checkpoints: a JSON manifest plus raw little-endian float64 blocks.

Layout: the magic bytes, the manifest length (8 bytes, little-endian), the
manifest (sorted-key JSON), the data blocks and the 32-byte SHA-256 of
every byte before it, so any truncated or corrupted file is refused; files
of the earlier formats (v1-v3) are refused by name.  A save builds the
file's bytes first and hands them to `write_atomic`, which writes a
temporary file next to the target and renames it over the target, so a
crash never leaves a partial checkpoint under the final name.  Every other
file flatcl writes goes through `write_atomic` too.

Round-trips are bitwise exact.  Besides model weights, a checkpoint
carries the run seed and variant, both required, and the rest of the
`optim.RunState` a continual run resumes from at a task boundary: the next
task, the importance accumulator, the rng state, finished accuracy rows,
the finished tasks' probe values and the replay buffer.  The next task's
flat region is rebuilt from the weights, so it is not stored.  The weights
and the importance are each one block over the model's flat parameter
layout; the replay buffer's features are one (n, d) block and its labels
and task ids manifest lists.  The probe values are one manifest string of
JSON text, so each entry keeps its key order through the sorted-key
manifest.
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
from .rules import check, int_labels

_MAGIC = b"FLATCKPT"
_FORMAT = "flatcl-checkpoint-v4"
_DIGEST = 32  # bytes of the SHA-256 trailer


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(kw_only=True)
class Checkpoint(RunState):
    """A task-boundary `RunState`, which `optim.train_continual` moves and
    resumes from, plus what identifies its run.  A seed that breaks
    `RULES["seed"]` or a variant that is not a nonempty string is refused,
    on save and on load."""
    seed: int  # the run seed: `flatcl probe` rebuilds its stream from it
    variant: str  # the run variant: `flatcl probe` rechecks the hash with it
    config_hash: str | None = None

    def __post_init__(self):
        super().__post_init__()
        check("seed", self.seed, "seed")
        if not (isinstance(self.variant, str) and self.variant):
            raise ValueError(f"variant must be a nonempty string, got {self.variant!r}")


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
    write_atomic(path, frame(manifest, payload))


def frame(manifest: dict, payload: bytes) -> bytes:
    """A checkpoint file's bytes: the magic, the manifest's length, the
    manifest as sorted-key JSON, the payload and the SHA-256 of all of them.
    The one writer of the framing `load_checkpoint` reads."""
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    data = _MAGIC + len(mbytes).to_bytes(8, "little") + mbytes + payload
    return data + hashlib.sha256(data).digest()


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


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file that is not an intact checkpoint of this
    format raises a one-line ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    head = len(_MAGIC) + 8
    mlen = int.from_bytes(data[len(_MAGIC):head], "little")
    # `<=` here would refuse the same files: one that ends at its manifest
    # has no payload or digest, so its checksum fails below; only the
    # message differs.
    if data[:len(_MAGIC)] != _MAGIC or len(data) < head + mlen:
        raise ValueError(f"{path}: not a flatcl checkpoint, or truncated")
    try:
        manifest = json.loads(data[head:head + mlen].decode())
    except (ValueError, RecursionError):  # bad UTF-8 or JSON, or JSON nested too deeply
        raise ValueError(f"{path}: corrupt manifest") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a {_FORMAT} manifest")
    payload = data[head + mlen:len(data) - _DIGEST]
    if hashlib.sha256(data[:-_DIGEST]).digest() != data[-_DIGEST:]:
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
        if (r := manifest["replay"]) is not None:
            buffer = ReplayBuffer()
            buffer.features = arrays["replay_features"]
            buffer.labels = int_labels(r["labels"])
            buffer.task_ids = np.array(r["task_ids"], dtype=np.int64)
            if not len(buffer.features) == len(buffer.labels) == len(buffer.task_ids):
                raise ValueError(f"replay store holds {len(buffer.features)} feature rows, "
                                 f"{len(buffer.labels)} labels and {len(buffer.task_ids)} task ids")
        fields = {k: manifest[k]
                  for k in ("config_hash", "seed", "variant", "rng_state", "next_task")}
        if (probe_values := manifest["probe_values"]) is not None:
            fields["probe_values"] = json.loads(probe_values)
    except KeyError as e:
        raise ValueError(f"{path}: manifest has no {e} entry or block") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: manifest does not describe its data: {e}") from None
    importance = arrays.get("importance")
    try:  # a misaligned importance block, a negative or NaN entry, a bad seed or variant
        return Checkpoint(
            model=model,
            importance=None if importance is None else ImportanceMap(importance),
            matrix_rows=arrays.get("matrix"),
            replay_buffer=buffer,
            **fields,
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
