"""tools/same_outputs.py on a two-run subset of its fixed set."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNS = [{"kind": "run", "config": "rot5", "variant": "seq", "seeds": [1]},
        {"kind": "run", "config": "perm5", "variant": "seq", "seeds": [1]}]


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "tools" / "same_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_manifest_checks_clean_and_names_an_edited_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    tool = _tool()
    first, second = tool.manifest(RUNS), tool.manifest(RUNS)
    assert {"python", "numpy", "commit"} <= first.keys()
    assert "perm5/seq/aggregate.csv" in "\n".join(first["files"])
    assert len(first["files"]) == 2 * 8  # 5 checkpoints, matrix, metrics, aggregate
    assert tool.compare(first, second) == []

    name = "runs/perm5/seq/seed1/ckpt_task4.bin"
    record = first["files"][name]
    record["sha256"] = "0" * 64
    part = next(p for p in record["parts"] if p[0] == "block param")
    block, part[1] = part[1], "sha256:" + "0" * 64
    assert tool.compare(first, second) == [
        f"{name}: differs at block param: sha256:{'0' * 64} -> {block}"]

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(first))
    assert tool.main(["--check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{name}: differs at block param")
    assert out[1].startswith("1 of 16 files differ")


def test_check_tallies_differing_parts_and_their_largest_change(tmp_path, monkeypatch, capsys):
    """Two edited numeric records of one label are tallied under it, list
    indices shown as `[*]`, with the larger relative change; the exit
    status stays 1."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    tool = _tool()
    first = tool.manifest(RUNS)
    second = json.loads(json.dumps(first))
    name = "runs/rot5/seq/seed1/metrics.json"
    record = first["files"][name]
    record["sha256"] = "0" * 64
    for task, scale in ((1, 1.5), (3, 1.25)):  # relative changes 1/3 and 1/5
        part = next(p for p in record["parts"]
                    if p[0] == f"key sharpness_trace[{task}].lambda_max")
        part[1] = repr(float(part[1]) * scale)
    assert tool.tally(first, second) == [
        f"key sharpness_trace[*].lambda_max: 2 parts in 1 files, "
        f"largest relative change {1 / 3:.3g}"]

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(first))
    assert tool.main(["--check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{name}: differs at key sharpness_trace[1].lambda_max")
    assert out[1].startswith("1 of 16 files differ")
    assert out[2:] == [f"  {line}" for line in tool.tally(first, second)]
