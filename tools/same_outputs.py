"""Check that a tree writes every output byte a reference tree wrote.

    PYTHONPATH=src python3 tools/same_outputs.py --write manifest.json
    PYTHONPATH=src python3 tools/same_outputs.py --check manifest.json
    PYTHONPATH=src python3 tools/same_outputs.py --against REV

Each runs a fixed set of flatcl runs in a fresh interpreter that imports
flatcl from PYTHONPATH, into a temporary directory:

- rot5 and perm5, each of the eight variants, seeds 1-3 (`flatcl run`'s
  `run_experiment`, so each variant's aggregate.csv is written too);
- rot5 and perm5 with sparse_update_ratio 0.5 (`flatcl run --sparse-ratio
  0.5`), variants cf, cf_minus_l2 and seq, seeds 1-2;
- rot5 cf seed 1 resumed from its ckpt_task2.bin, perm5 replay seed 1 from
  its ckpt_task1.bin and rot5 seq seed 1 from its ckpt_task3.bin, so a
  resume that carries a replay store and one that carries no importance
  are checked too;
- `flatcl probe` on rot5 cf seed 1's ckpt_task4.bin and on perm5 cf seed
  1's ckpt_task2.bin, with the run seed taken from the checkpoint;
- `flatcl gen-data` on rot5 and perm5, seed 1.

A failed seed's failures.json is not in the set: its traceback carries file
paths and line numbers, which change with any edit.

`--write` records each output file's SHA-256 and, per file, its parts in
order: a checkpoint's manifest keys, data blocks and digest, a CSV file's
cells, a JSON file's keys (nested keys as paths).  It also records the
Python and numpy versions the runs used and the commit of the tree flatcl
came from.
`--check` reruns the set and names each file that differs, is missing or is
new, with the first part that differs.  `--against REV` takes its
reference from commit REV instead of a manifest: it exports REV's tree with
`git archive`, as tools/bench_pairs.py does, runs the set with flatcl
imported from that export's `src/`, then checks the tree on PYTHONPATH
against it, all in one command (run it from a checkout).  After those lines
the check tallies every differing part across the files by label, with
list indices shown as `[*]`, and gives the largest relative change of a
label whose old and new records both read as finite numbers.  It refuses to compare runs made
under another Python or numpy version, whose bits may differ for reasons no
commit controls.  Exit status: 0 when every file is the same, 1 when one
differs, 2 when the comparison is refused or REV cannot be exported.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # tools/, for bench_pairs
from bench_pairs import ROOT, export_commit

CONFIGS = ("rot5", "perm5")
VARIANTS = ("seq", "replay", "cf", "cf_minus_clamp", "cf_minus_find", "cf_minus_l2",
            "cf_minus_create", "mtl")

FIXED_SET = (
    [{"kind": "run", "config": c, "variant": v, "seeds": [1, 2, 3]}
     for c in CONFIGS for v in VARIANTS]
    + [{"kind": "run", "config": c, "variant": v, "seeds": [1, 2], "sparse_ratio": 0.5}
       for c in CONFIGS for v in ("cf", "cf_minus_l2", "seq")]
    + [{"kind": "resume", "config": "rot5", "variant": "cf", "seed": 1, "task": 2},
       {"kind": "resume", "config": "perm5", "variant": "replay", "seed": 1, "task": 1},
       {"kind": "resume", "config": "rot5", "variant": "seq", "seed": 1, "task": 3},
       {"kind": "probe", "config": "rot5", "variant": "cf", "seed": 1, "task": 4},
       {"kind": "probe", "config": "perm5", "variant": "cf", "seed": 1, "task": 2}]
    + [{"kind": "gen-data", "config": c, "seed": 1} for c in CONFIGS]
)

# Runs in the child interpreter: reads {"runs": [...], "out": dir} on stdin,
# writes the outputs under `out` and prints the versions it ran under.  A
# resume or a probe reads the checkpoint of the plain run listed before it.
_CHILD = r'''
import contextlib, io, json, os, platform, sys
import numpy as np
import flatcl
from flatcl import cli, runner

job = json.load(sys.stdin)
out = job["out"]
configs = os.path.join(os.path.dirname(flatcl.__file__), "configs")

def config(spec):
    cfg = runner.load_config(os.path.join(configs, spec["config"] + ".json"))
    if "sparse_ratio" in spec:  # as `flatcl run --sparse-ratio` writes it
        cfg.setdefault("optimizer", {})["sparse_update_ratio"] = spec["sparse_ratio"]
    return cfg

def seed_dir(spec):
    return os.path.join(out, "runs", spec["config"], spec["variant"], f"seed{spec['seed']}")

for spec in job["runs"]:
    kind, cfg = spec["kind"], config(spec)
    if kind == "run":
        root = os.path.join(out, "sparse" if "sparse_ratio" in spec else "runs")
        runner.run_experiment(cfg, spec["variant"], root, seeds=spec["seeds"])
    elif kind == "resume":
        name = f"{spec['config']}-{spec['variant']}-seed{spec['seed']}-from-task{spec['task']}"
        runner.run_single_seed(cfg, spec["variant"], spec["seed"],
                               os.path.join(out, "resume", name),
                               resume_from=os.path.join(seed_dir(spec),
                                                        f"ckpt_task{spec['task']}.bin"))
    elif kind == "probe":
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["probe", "--config", os.path.join(configs, spec["config"] + ".json"),
                             "--checkpoint", os.path.join(seed_dir(spec),
                                                          f"ckpt_task{spec['task']}.bin")])
        if code != 0:
            sys.exit(f"flatcl probe exited {code}")
        name = f"{spec['config']}-{spec['variant']}-seed{spec['seed']}-task{spec['task']}.json"
        os.makedirs(os.path.join(out, "probe"), exist_ok=True)
        with open(os.path.join(out, "probe", name), "w") as f:
            f.write(text.getvalue())
    elif kind == "gen-data":
        data_dir = os.path.join(out, "data", f"{spec['config']}-seed{spec['seed']}")
        with contextlib.redirect_stdout(io.StringIO()):  # the paths it prints
            code = cli.main(["gen-data", "--config", os.path.join(configs, spec["config"] + ".json"),
                             "--seed", str(spec["seed"]), "--out", data_dir])
        if code != 0:
            sys.exit(f"flatcl gen-data exited {code}")
    else:
        sys.exit(f"unknown run kind {kind!r}")
print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                  "flatcl": os.path.dirname(os.path.abspath(flatcl.__file__))}))
'''


def produce(runs, out_dir, src=None) -> dict:
    """Run `runs` in a fresh interpreter that imports flatcl from `src`, or
    from PYTHONPATH without it, writing under `out_dir`; returns the Python
    and numpy versions it ran under and the commit of the tree flatcl came
    from."""
    env = None if src is None else {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _CHILD],
                          input=json.dumps({"runs": runs, "out": out_dir}),
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"the runs failed:\n{proc.stderr.strip()}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    git = subprocess.run(["git", "-C", info.pop("flatcl"), "describe", "--always",
                          "--dirty", "--abbrev=12"], capture_output=True, text=True)
    info["commit"] = git.stdout.strip() if git.returncode == 0 else None
    return info


def _resolve(rev: str) -> str:
    """The 12-digit commit hash `rev` names in the checkout."""
    return subprocess.run(["git", "rev-parse", "--short=12", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def _short(text: str) -> str:
    """A part's record: its text when short, else the text's SHA-256."""
    if len(text) <= 40:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _json_parts(value, path=""):
    """(key path, record) for each leaf of a JSON value, in document order."""
    if isinstance(value, dict) and value:
        for k, v in value.items():
            yield from _json_parts(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from _json_parts(v, f"{path}[{i}]")
    else:
        yield f"key {path or '(root)'}", _short(json.dumps(value))


def _checkpoint_parts(data: bytes):
    """A checkpoint's header, manifest keys, data blocks and the digest
    that ends it: the 32-byte SHA-256 trailer.  It parses the framing
    itself, not through `checkpoint.unframe`: the files it reads were
    written by other trees, whose framing or format may not be the one the
    imported flatcl reads, and a part-by-part diff of such a file is what
    it is for."""
    head = 16
    mlen = int.from_bytes(data[8:head], "little")
    manifest = json.loads(data[head:head + mlen])
    yield "header", _short(data[:head].hex())
    for k in sorted(manifest):
        yield f"manifest key {k}", _short(json.dumps(manifest[k], sort_keys=True))
    offset = head + mlen
    for block in manifest["blocks"]:
        end = offset + block["bytes"]
        yield f"block {block['name']}", "sha256:" + hashlib.sha256(data[offset:end]).hexdigest()
        offset = end
    yield "digest", _short(data[offset:].hex())


def file_parts(name: str, data: bytes) -> list:
    """[label, record] for each part of an output file, in file order; a
    file that does not parse as its kind is one part, its whole bytes."""
    try:
        if name.endswith(".bin"):
            return [list(p) for p in _checkpoint_parts(data)]
        if name.endswith(".json"):
            return [list(p) for p in _json_parts(json.loads(data))]
        if name.endswith(".csv"):
            rows = csv.reader(io.StringIO(data.decode()))
            return [[f"line {i} cell {j}", _short(cell)]
                    for i, row in enumerate(rows, 1) for j, cell in enumerate(row, 1)]
    except (ValueError, KeyError, TypeError):
        pass
    return [["bytes", "sha256:" + hashlib.sha256(data).hexdigest()]]


def manifest(runs=FIXED_SET, src=None) -> dict:
    """Run `runs`, importing flatcl as `produce` does, and record every
    output file."""
    with tempfile.TemporaryDirectory(prefix="same_outputs.") as out:
        info = produce(runs, out, src)
        files = {}
        for root, _, names in os.walk(out):
            for n in names:
                path = os.path.join(root, n)
                rel = os.path.relpath(path, out).replace(os.sep, "/")
                with open(path, "rb") as f:
                    data = f.read()
                files[rel] = {"sha256": hashlib.sha256(data).hexdigest(),
                              "parts": file_parts(rel, data)}
    return {**info, "runs": runs, "files": dict(sorted(files.items()))}


def compare(expected: dict, actual: dict) -> list[str]:
    """One line per file that differs, is missing or is new."""
    lines = []
    old, new = expected["files"], actual["files"]
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"{name}: missing")
        elif name not in old:
            lines.append(f"{name}: new")
        elif old[name]["sha256"] != new[name]["sha256"]:
            lines.append(f"{name}: differs at {_first_difference(old[name], new[name])}")
    return lines


def tally(expected: dict, actual: dict) -> list[str]:
    """One line per part label, list indices shown as `[*]`, that differs
    in a file present on both sides: how many such parts and files, and,
    where both records read as finite numbers, the largest relative
    change."""
    parts, files, largest = {}, {}, {}
    for name in sorted(expected["files"].keys() & actual["files"].keys()):
        old, new = expected["files"][name], actual["files"][name]
        if old["sha256"] == new["sha256"]:
            continue
        a, b = dict(map(tuple, old["parts"])), dict(map(tuple, new["parts"]))
        for label in dict.fromkeys([*a, *b]):
            if a.get(label) == b.get(label):
                continue
            key = re.sub(r"\[\d+\]", "[*]", label)
            parts[key] = parts.get(key, 0) + 1
            files.setdefault(key, set()).add(name)
            x, y = _number(a.get(label)), _number(b.get(label))
            if x is not None and y is not None:
                change = abs(y - x) / abs(x) if x else math.inf
                largest[key] = max(largest.get(key, 0.0), change)
    lines = []
    for key in sorted(parts):
        line = f"{key}: {parts[key]} parts in {len(files[key])} files"
        if key in largest:
            line += f", largest relative change {largest[key]:.3g}"
        lines.append(line)
    return lines


def _number(record):
    """A part's record as a finite float, or None."""
    try:
        value = float(record)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _first_difference(old: dict, new: dict) -> str:
    a, b = old["parts"], new["parts"]
    for (label_a, rec_a), (label_b, rec_b) in zip(a, b):
        if label_a != label_b:
            return f"{label_a} (now {label_b})"
        if rec_a != rec_b:
            return f"{label_a}: {rec_a} -> {rec_b}"
    if len(a) != len(b):
        return f"part {min(len(a), len(b)) + 1} of {len(a)} -> {len(b)} parts"
    return "bytes outside the recorded parts"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="MANIFEST", help="run the set and record its outputs")
    mode.add_argument("--check", metavar="MANIFEST", help="rerun the set and compare")
    mode.add_argument("--against", metavar="REV",
                      help="run the set from commit REV's tree, then rerun it and compare")
    args = p.parse_args(argv)
    if args.write:
        record = manifest()
        with open(args.write, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print(f"{len(record['files'])} files recorded (python {record['python']}, "
              f"numpy {record['numpy']}, commit {record['commit']})")
        return 0
    if args.against:
        reference = f"the run of {args.against}"
        with tempfile.TemporaryDirectory(prefix="same_outputs.") as tree:
            try:
                export_commit(args.against, tree)
            except subprocess.CalledProcessError as exc:
                print(f"error: cannot export {args.against}: {exc.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
            expected = manifest(FIXED_SET, os.path.join(tree, "src"))
        expected["commit"] = _resolve(args.against)
    else:
        reference = args.check
        with open(args.check) as f:
            expected = json.load(f)
    actual = manifest(expected["runs"])
    for key in ("python", "numpy"):
        if actual[key] != expected[key]:
            print(f"error: {reference} was written under {key} {expected[key]}, this run "
                  f"used {actual[key]}; refusing to compare", file=sys.stderr)
            return 2
    lines = compare(expected, actual)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(expected['files'])} files differ "
          f"(recorded at commit {expected['commit']}, checked at {actual['commit']})")
    for line in tally(expected, actual):
        print(f"  {line}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
