"""Compare a change with its parent commit on one benchmark workload.

    python3 tools/bench_pairs.py --workload rot5_cf --seed 9101 --pairs 10 \
        --out BENCH_name.json --about "what the change is"

Run from the root of a checkout.  The parent tree (`--parent`, default
HEAD) is exported with `git archive` into a temporary directory, and the
change, the working tree's tracked and untracked files that git does not
ignore, is copied next to it.  Each of `--pairs`
pairs runs `python3 bench/run.py --workload W --seed S --seconds T --trace
R` once in each tree, from that tree's own `bench/`, the parent first in
odd pairs and the change first in even ones.

For every metric the runs report (the end-to-end metrics with `--trace
0`, the per-layer ones with `--trace 1`) it prints each side's median and
quartiles (`statistics.quantiles(values, n=4)`), the pairs the change
wins, the gap between the medians, whether that gap exceeds the parent's
quartile spread, and a verdict: `gain` when the change wins at least 9 in
10 pairs (ties count for neither side) and its median is better by more
than the parent's spread; `worse` when the parent wins like that, or when
an end-to-end metric worsens by more than its bound; otherwise `no
change`.  Whether lower or higher is better, and an end-to-end metric's
bound, come from `BENCHMARK.json`.  With `--out` it writes these figures,
every run's values and the run order as one workload entry of a
`BENCH_*.json` file, merged into the file when it exists.  The temporary
directory is removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_commit(rev: str, dest: str):
    """The tree of commit `rev` under `dest`, by `git archive`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12+ and 3.11.4+
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def export_working_tree(dest: str):
    """The working tree's tracked and untracked, not ignored, files under `dest`."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, check=True).stdout
    for rel in filter(None, listed.decode().split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted in the working tree is left out
            os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run in `tree`: its result object (the last line)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent: list, change: list, higher_is_better: bool, bound=None) -> dict:
    """The figures of one metric over paired runs."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    better = (lambda c, p: c > p) if higher_is_better else (lambda c, p: c < p)
    worsening = (c_med - p_med) / p_med if p_med else 0.0
    if higher_is_better:
        worsening = -worsening
    past_spread = abs(c_med - p_med) > q3 - q1
    change_wins = sum(better(c, p) for p, c in zip(parent, change))
    parent_wins = sum(better(p, c) for p, c in zip(parent, change))  # ties count for neither

    def settled(wins, winner_med, loser_med):
        """`wins` of the pairs are 9 in 10 or more, and the medians' gap is past the spread."""
        return 10 * wins >= 9 * len(parent) and better(winner_med, loser_med) and past_spread

    if settled(change_wins, c_med, p_med):
        verdict = "gain"
    elif settled(parent_wins, p_med, c_med) or (bound is not None and worsening > bound):
        verdict = "worse"
    else:
        verdict = "no change"
    out = {
        "parent": parent, "change": change,
        "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": [q1, q3],
        "change_quartiles": (list(statistics.quantiles(change, n=4)[::2])
                             if len(change) > 1 else change * 2),
        "relative_worsening": round(worsening, 4),
        "change_better": change_wins,
        "median_gap": abs(c_med - p_med),
        "parent_quartile_spread": q3 - q1,
        "gap_exceeds_parent_spread": past_spread,
        "verdict": verdict,
    }
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="the workload seed of every run")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    p.add_argument("--out", help="BENCH_*.json file to write or merge this workload into")
    p.add_argument("--about", default="", help="the file's _about text, when it is new")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export_commit(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        values = {"parent": {}, "change": {}}
        failed = {"parent": 0, "change": 0}
        order = []
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(list(sides))
            for side in sides:
                result = run_once(trees[side], args.workload, args.seed, args.seconds,
                                  args.trace)
                failed[side] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    entry = {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "failed": failed, "run_order": order}
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, trace {args.trace}, "
          f"failed ops parent {failed['parent']} change {failed['change']}")
    for name in values["parent"]:
        spec = declared.get(name, {"better": "lower"})
        fig = summarize(values["parent"][name], values["change"].get(name, []),
                        spec["better"] == "higher", spec.get("bound"))
        entry[name] = fig
        print(f"  {name}: parent {fig['parent_median']:.6g} [{fig['parent_quartiles'][0]:.6g}, "
              f"{fig['parent_quartiles'][1]:.6g}]  change {fig['change_median']:.6g} "
              f"[{fig['change_quartiles'][0]:.6g}, {fig['change_quartiles'][1]:.6g}]  "
              f"wins {fig['change_better']}/{args.pairs}  gap {fig['median_gap']:.3g} "
              f"{'>' if fig['gap_exceeds_parent_spread'] else '<='} spread "
              f"{fig['parent_quartile_spread']:.3g}  {fig['verdict']}")

    if args.out:
        doc = {"_about": args.about, "host": {"python": platform.python_version(),
                                              "numpy": np.__version__,
                                              "cores": os.cpu_count()},
               "workloads": {}}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        key = args.workload if not args.trace else f"{args.workload}_traced"
        doc.setdefault("workloads", {})[key] = entry
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
