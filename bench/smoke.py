"""Smoke check of bench/run.py: one op per workload, untraced and
traced.  Asserts that every metric BENCHMARK.json names is emitted with its
unit, that no op fails, and that spans NOTES.md predicts absent on a
workload read zero calls.  It makes no timing assertion.

    python3 bench/smoke.py
"""

import contextlib
import io
import json
import os
import sys

import run

# Spans that never run on a workload (NOTES.md, "Layer to metric map").
ABSENT = {
    "perm5_seq": ["optim.create_gradient", "optim.soft_penalty", "optim.clamp_to_region",
                  "optim.find_fisher", "replay.select_exemplars",
                  "replay.ReplayBuffer.sample_batches", "probe.lanczos_lambda_max",
                  "probe.hvp", "probe.ball_sharpness", "probe.fisher_trace_check",
                  "checkpoint.load_checkpoint"],
    "rot5_cf": ["probe.ball_sharpness", "probe.fisher_trace_check",
                "checkpoint.load_checkpoint"],
    "probe_sweep": ["runner.run_single_seed", "optim.train_task", "optim.base_step",
                    "optim.create_gradient", "checkpoint.save_checkpoint"],
}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                                 "--trace", str(trace)], min_ops=1, setup_repeats=1)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            assert code == 0
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
            expected = {m["name"]: m["unit"] for m in bench[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == expected, (workload, trace, set(emitted) ^ set(expected))
            if trace:
                for span in ABSENT[workload]:
                    calls = result["metrics"][f"{span}.calls"]["value"]
                    assert calls == 0, (workload, span, calls)
            print(f"ok {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
