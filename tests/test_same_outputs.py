"""tools/same_outputs.py on a two-run subset of its fixed set."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

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


def test_manifest_records_gen_data_files_cell_by_cell(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    record = _tool().manifest([{"kind": "gen-data", "config": "perm5", "seed": 1}])
    assert sorted(record["files"]) == [f"data/perm5-seed1/perm{t}.csv" for t in range(5)]
    parts = record["files"]["data/perm5-seed1/perm0.csv"]["parts"]
    assert parts[0] == ["line 1 cell 1", "# columns: features..."]
    assert parts[-1][0].startswith("line ") and parts[-1][1].isdigit()  # the last label


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


def _in_git_checkout():
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="--against exports a commit of the checkout")
def test_against_runs_the_reference_from_the_commit_and_checks_pythonpath(
        tmp_path, monkeypatch, capsys):
    """`--against HEAD` runs the reference from HEAD's export and the
    checked side from PYTHONPATH: HEAD's own export reads 0 files
    differing, recorded at HEAD's commit, and a copy of it whose weight
    init differs has every file named."""
    tool = _tool()
    monkeypatch.setattr(tool, "FIXED_SET", RUNS)
    tree = tmp_path / "tree"
    tool.export_commit("HEAD", str(tree))
    monkeypatch.setenv("PYTHONPATH", str(tree / "src"))
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert tool.main(["--against", "HEAD"]) == 0
    assert capsys.readouterr().out.startswith(
        f"0 of 16 files differ (recorded at commit {head}, checked at ")

    model = tree / "src" / "flatcl" / "model.py"
    text = model.read_text()
    assert text.count("np.sqrt(6.0 /") == 1
    model.write_text(text.replace("np.sqrt(6.0 /", "np.sqrt(6.5 /"))
    assert tool.main(["--against", "HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("runs/perm5/seq/aggregate.csv: differs at ")
    assert out[16].startswith(f"16 of 16 files differ (recorded at commit {head}, ")


@pytest.mark.skipif(not _in_git_checkout(), reason="--against exports a commit of the checkout")
def test_against_refuses_another_numpy_and_an_unknown_rev(monkeypatch, capsys):
    """As `--check` does, `--against` refuses to compare runs made under
    another numpy version; a name that is no commit is refused too."""
    tool = _tool()
    monkeypatch.setattr(tool, "FIXED_SET", RUNS)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    produce = tool.produce

    def reference_under_numpy_0(runs, out_dir, src=None):
        info = produce(runs, out_dir, src)
        return {**info, "numpy": "0.0"} if src is not None else info

    monkeypatch.setattr(tool, "produce", reference_under_numpy_0)
    assert tool.main(["--against", "HEAD"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the run of HEAD was written under numpy 0.0, this run used ")
    assert err.endswith("; refusing to compare\n")
    assert tool.main(["--against", "no-such-rev"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot export no-such-rev: ")
