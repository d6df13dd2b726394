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
