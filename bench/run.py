"""flatcl benchmark: one run of one workload.

    python3 bench/run.py --workload rot5_cf --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; flatcl is imported from its src/ directory.
One process runs one op at a time (a closed loop with one client).  Times
are scaled to a fixed host speed, measured by reference work run between
timed intervals (see pace.py); the wall times are in the meta line.  The
untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) wraps the library's layer functions (see spans.py) and reports
per-layer calls, busy time, self time, errors and counts per op.  Every op's
output is checked; an op that raises or fails a check counts as failed and
the run goes on.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See NOTES.md for why each
workload exists and which layer moves which metric.
"""

import os

# The models have ~200 weights, so extra BLAS threads only add contention and
# noise.  Pin before numpy is imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "flatcl", "__init__.py")):
    sys.exit(f"error: flatcl sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from flatcl import checkpoint, probe, runner  # noqa: E402
from flatcl.model import Batch  # noqa: E402

import pace  # noqa: E402
import spans  # noqa: E402

CONFIG_DIR = os.path.join(SRC, "flatcl", "configs")
MIN_OPS = 48          # six cycles over the run seeds; p75 needs ten samples beyond it
SETUP_REPEATS = 5     # setup_s is the median of this many set-ups
MAX_TIMED_S = 120.0   # the timed phase stops here even if MIN_OPS is not reached
RATE_WINDOWS = 10     # ops_per_s is the median over up to this many windows of ops
PROBE_ROWS = 60
PROBE_RHO = 0.05
PROBE_LANCZOS_ITERS = 30
FISHER_GAP_MAX = 1e-10
TRAIN_SEEDS = 8       # training ops cycle over this many run seeds


class OpFailed(Exception):
    pass


def run_seeds(seed: int, n: int) -> list[int]:
    """Training seeds for one benchmark run, derived from --seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Training:
    """One op is one runner.run_single_seed call (the `flatcl run` unit,
    with per-task checkpoints and CSV/JSON output)."""

    def __init__(self, config: str, variant: str, accuracy_floor: float):
        self.config, self.variant = config, variant
        self.accuracy_floor = accuracy_floor

    def setup(self, seed: int, work_dir: str):
        self.cfg = runner.load_config(os.path.join(CONFIG_DIR, self.config))
        self.seeds = run_seeds(seed, TRAIN_SEEDS)
        self.reference = {}  # run seed -> accuracy matrix of its first op
        self.out_dirs = (os.path.join(work_dir, f"op{n}") for n in itertools.count())
        self.check(0, self.op(0))  # warm-up

    def cycle(self) -> int:
        return len(self.seeds)

    def op(self, i: int):
        out_dir = next(self.out_dirs)
        return out_dir, runner.run_single_seed(
            self.cfg, self.variant, self.seeds[i % len(self.seeds)], out_dir)

    def check(self, i: int, output):
        out_dir, result = output
        matrix = runner.read_matrix_csv(os.path.join(out_dir, "matrix.csv"))
        lower = np.tril(np.ones(matrix.shape, dtype=bool))
        if not (np.all(np.isfinite(matrix[lower])) and np.all(np.isnan(matrix[~lower]))):
            raise OpFailed("accuracy matrix is not finite-lower / NaN-upper")
        ref = self.reference.setdefault(self.seeds[i % len(self.seeds)], matrix)
        if matrix.tobytes() != ref.tobytes():
            raise OpFailed("accuracy matrix differs from the first run of its seed")
        if not result["avg_accuracy_after_last"] >= self.accuracy_floor:
            raise OpFailed(f"avg_accuracy_after_last {result['avg_accuracy_after_last']} "
                           f"< floor {self.accuracy_floor}")


class ProbeSweep:
    """Set-up trains rot5 `cf` once and keeps its per-task checkpoints; one op
    loads a checkpoint and probes it as `flatcl probe` does, but on the
    validation rows of the checkpoint's own training stream (see NOTES.md)."""

    def setup(self, seed: int, work_dir: str):
        cfg = runner.load_config(os.path.join(CONFIG_DIR, "rot5.json"))
        self.seed = run_seeds(seed, 1)[0]
        train_dir = os.path.join(work_dir, "train")
        runner.run_single_seed(cfg, "cf", self.seed, train_dir)
        self.paths = [os.path.join(train_dir, f"ckpt_task{t}.bin")
                      for t in range(cfg["benchmark"]["n_tasks"])]
        self.weights = [checkpoint.load_checkpoint(p).model.parameters().flatten()
                        for p in self.paths]
        feats, labels = runner.build_stream(cfg, self.seed)[0].val_xy()
        self.batch = Batch(feats[:PROBE_ROWS], labels[:PROBE_ROWS], 0)
        self.check(0, self.op(0))  # warm-up

    def cycle(self) -> int:
        return len(self.paths)

    def op(self, i: int):
        ckpt = checkpoint.load_checkpoint(self.paths[i % len(self.paths)])
        report = probe.sharpness_report(ckpt.model, self.batch, rho=PROBE_RHO,
                                        lanczos_iters=PROBE_LANCZOS_ITERS,
                                        seed=self.seed)
        gap = probe.fisher_trace_check(ckpt.model, self.batch.features,
                                       self.batch.labels, 0)[2]
        return ckpt.model, report, gap

    def check(self, i: int, output):
        model, report, gap = output
        if model.parameters().flatten().tobytes() != self.weights[i % len(self.paths)].tobytes():
            raise OpFailed("probing changed the model weights")
        if not (np.isfinite(report.lambda_max) and report.lambda_max > 0):
            raise OpFailed(f"lambda_max {report.lambda_max} is not finite and positive")
        if not report.ball_sharpness >= 0:
            raise OpFailed(f"ball_sharpness {report.ball_sharpness} < 0")
        if not gap <= FISHER_GAP_MAX:
            raise OpFailed(f"fisher trace relative gap {gap} > {FISHER_GAP_MAX}")


# Accuracy floors sit well below the lowest avg_accuracy_after_last seen over
# 200 run seeds at the seed commit (NOTES.md); chance is 1/3.
WORKLOADS = {
    "rot5_cf": lambda: Training("rot5.json", "cf", accuracy_floor=0.8),
    "perm5_seq": lambda: Training("perm5.json", "seq", accuracy_floor=0.5),
    "probe_sweep": ProbeSweep,
}

END_TO_END_UNITS = {"op_s_p50": "s", "op_s_p75": "s", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


COLD_START = ("import time; t = time.perf_counter(); import flatcl.runner, flatcl.probe; "
              "wall = time.perf_counter() - t; import pace; pace.chunk_s(); "
              "print(wall, pace.sample_s(wall))")


def cold_start_s() -> tuple[float, float]:
    """Time for a fresh interpreter to import the library, as each `flatcl`
    command pays it: (scaled by the child's own reference chunks, since the
    child may run on another vCPU than this process; wall)."""
    child = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True,
                           text=True, check=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR])))
    wall, ref = map(float, child.stdout.split())
    return wall * pace.REF_S / ref, wall


def measure(workload, seconds: float, min_ops: int, tracer):
    """Closed-loop timed phase.  Returns (scaled op latencies, scaled op
    cycle times with their output checks, wall latencies, failed, trace
    snapshot over whole cycles of the workload's inputs, ops in it)."""
    latencies, cycles, walls, failed = [], [], [], 0
    snapshot, snapshot_ops = None, 0
    pacer = pace.Pacer()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= min_ops) or elapsed >= MAX_TIMED_S:
            break
        errors_before = tracer.error_total() if tracer else 0
        latency = None
        t = time.perf_counter()
        try:
            output = workload.op(i)
            latency = time.perf_counter() - t
            workload.check(i, output)
            if tracer and tracer.error_total() != errors_before:
                raise OpFailed("a traced layer recorded an error")
        except Exception:  # count the failure and keep measuring
            if latency is None:
                latency = time.perf_counter() - t
            if failed == 0:
                traceback.print_exc(file=sys.stderr)
            failed += 1
        cycle = time.perf_counter() - t
        i += 1
        if tracer and (i % workload.cycle() == 0 or snapshot is None):
            snapshot, snapshot_ops = tracer.snapshot(), i
        scale = pacer.factor(cycle)
        latencies.append(latency * scale)
        cycles.append(cycle * scale)
        walls.append(latency)
    return latencies, cycles, walls, failed, snapshot, snapshot_ops


def ops_per_s(cycles, inputs: int) -> float:
    """Median over consecutive windows of ops completed per scaled second of
    op and check time.  Each window holds whole cycles over the workload's
    `inputs` inputs, so the mix of inputs is the same in every window.  A slow
    spell of the host that the reference chunks miss, and that covers fewer
    than half the windows, does not move it."""
    k = inputs * max(1, len(cycles) // (inputs * RATE_WINDOWS))
    k = min(k, len(cycles))  # a run shorter than one cycle is one window
    return statistics.median(k / sum(cycles[i:i + k])
                             for i in range(0, len(cycles) - k + 1, k))


def run(name: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS,
        setup_repeats: int = SETUP_REPEATS):
    """One benchmark run; returns (result JSON object, metadata)."""
    work_dir = tempfile.mkdtemp(prefix=f".work-{name}-", dir=BENCH_DIR)
    tracer = spans.Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        pacer = pace.Pacer()
        setup_times, setup_walls = [], []
        for r in range(setup_repeats):
            t = time.perf_counter()
            workload = WORKLOADS[name]()
            workload.setup(seed, os.path.join(work_dir, f"setup{r}"))
            wall = time.perf_counter() - t
            scaled = wall * pacer.factor(wall)
            cold, cold_wall = cold_start_s()
            setup_times.append(scaled + cold)
            setup_walls.append(wall + cold_wall)
        if tracer:
            tracer.reset()
        latencies, cycles, walls, failed, snapshot, snapshot_ops = measure(
            workload, seconds, min_ops, tracer)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = len(latencies)
    p50, _, p75 = statistics.quantiles(latencies, n=4) if ops > 1 else latencies * 3
    if trace:
        metrics = spans.per_op_metrics(snapshot, snapshot_ops)
        metrics["traced.ops_per_s"] = (ops_per_s(cycles, workload.cycle()), "1/s")
    else:
        metrics = {
            "op_s_p50": p50, "op_s_p75": p75, "ops_per_s": ops_per_s(cycles, workload.cycle()),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    meta = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "ops": ops, "ops_in_trace": snapshot_ops if trace else None,
        "fail_ratio": failed / ops,
        "wall_op_s_p50": statistics.median(walls),
        "wall_setup_s": statistics.median(setup_walls),
        "setup_samples_s": setup_times,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
    }
    return result, meta


def main(argv=None, **run_kwargs) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace),
                       **run_kwargs)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {meta['fail_ratio']:.6g} ({result['failed']}/{result['attempted']} ops)")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
