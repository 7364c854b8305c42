"""Golden digests: byte-reproducibility across commits.

Each of the four benchmark workloads is generated at its smoke scale
(bench/gen.py, seed 5, the workload's config), and one corpus at the
paper's scale (`CorpusParams()`, seed 7, the default config, entry
"full"), and run through the eight stages by `cli.main`; the sha256 of
every out_dir file except manifest.json must equal the one recorded in
tests/golden_digests.json.
Those bytes depend on numpy's BLAS dots and `eigh`, so the file records
the Python and numpy versions it was made with, and a mismatch fails.

The same runs check properties of the artifact codec: numpy's reader
types every table (the csv module's path, kept for tables numpy rejects,
is made to fail), every table is written by `ingest.write_table` from
Python str, int, float and None cells, and every JSON file is the text of
`ingest.json_text`.

Two more check the process: a run in a fresh interpreter never imports
numpy.ma, and two pipelines in one process, the second reusing every table
the first typed (`cli._MEMO`), write the bytes of a fresh interpreter's run.

A change that alters artifact bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each (workload, artifact) whose digest changed, and any change
of the recorded versions, before it rewrites the file; list each changed
artifact in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402
from gen import CorpusParams, generate  # noqa: E402

from artistnet import ingest  # noqa: E402
from artistnet.cli import STAGES, main  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 5
WORKLOADS = ("paper", "cyclic", "sampling", "names")
FULL, FULL_SEED = "full", 7  # the paper's scale, CorpusParams() at seed 7, run with the default config


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def prepare(name: str, work: Path) -> None:
    """Workload `name`'s corpus at smoke scale and its config, in `work`;
    for FULL, the paper-scale corpus and the default config."""
    if name == FULL:
        workload = bench.Workload(CorpusParams())
        generate(workload.corpus, FULL_SEED, work)
    else:
        workload = bench.smoke(bench.WORKLOADS[name])
        generate(workload.corpus, SEED, work)
    (work / "config.json").write_text(json.dumps(bench.config_for(workload)), encoding="utf-8")


def digests(out: Path) -> dict:
    """sha256 of each file in `out` but the manifest."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def out_digests(name: str, work: Path) -> dict:
    """`digests` of out_dir after the eight stages ran on workload `name`
    (see `prepare`) in directory `work`, in this process."""
    prepare(name, work)
    cwd = os.getcwd()
    os.chdir(work)  # the config's paths are relative, as in the benchmark
    try:
        for stage, argv in bench.STAGES:
            assert main(argv + ["--config", "config.json"]) == 0, f"{name}: stage {stage} failed"
    finally:
        os.chdir(cwd)
    return digests(work / "out")


def fresh_process_run(name: str, work: Path) -> tuple[dict, set]:
    """`digests` of out_dir after the eight stages ran on workload `name`
    at smoke scale in directory `work`, in a fresh interpreter, and the
    names of the modules that interpreter had loaded at the end."""
    prepare(name, work)
    code = ("import json, sys\nfrom artistnet.cli import main\n"
            f"for argv in {[argv for _, argv in bench.STAGES]!r}:\n"
            "    assert main(argv + ['--config', 'config.json']) == 0, argv\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", code], cwd=work, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return digests(work / "out"), set(json.loads(done.stdout))


def golden_digests(name: str) -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = {k: golden[k] for k in versions()}
    if recorded != versions():
        pytest.fail(f"golden digests were made with Python {recorded['python']} and numpy "
                    f"{recorded['numpy']}; this is Python {platform.python_version()} and numpy "
                    f"{np.__version__}; regenerate them as this module's docstring says")
    return golden["workloads"][name]


@pytest.mark.parametrize("name", WORKLOADS + (FULL,))
def test_artifacts_match_the_golden_digests(name, tmp_path):
    assert out_digests(name, tmp_path) == golden_digests(name)


@pytest.mark.parametrize("name", ["paper", "names"])
def test_numpy_reads_every_table(name, tmp_path, monkeypatch):
    def csv_path(path, *args):
        raise AssertionError(f"numpy rejected {path}")
    monkeypatch.setattr(ingest, "read_numbered", csv_path)  # every row-at-a-time read
    assert out_digests(name, tmp_path) == golden_digests(name)


def test_a_run_imports_no_numpy_ma(tmp_path):
    """A bare np.unique imports numpy.ma, some 20 ms of every CLI process."""
    got, modules = fresh_process_run("paper", tmp_path)
    assert got == golden_digests("paper")
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("name", ["cyclic", "names"])
def test_two_pipelines_in_one_process_match_a_fresh_process(name, tmp_path):
    """The second pipeline finds every table it loads already typed."""
    first, second = out_digests(name, tmp_path / "first"), out_digests(name, tmp_path / "second")
    assert first == second == fresh_process_run(name, tmp_path / "fresh")[0]


def test_writers_hand_csv_python_scalars(tmp_path, monkeypatch):
    """Every declared table of a pipeline is written by `ingest.write_table`,
    from Python scalars, and every declared JSON file is a text that
    `ingest.json_text` returned: patching the codec in `ingest` alone sees
    every artifact, so no other module holds a copy of an encoder."""
    cells, texts = {}, set()
    write_table, json_text = ingest.write_table, ingest.json_text

    def recording(path, header, rows):  # `path` is a temporary, ".<artifact>.tmp"
        rows = [list(row) for row in rows]
        name = Path(path).name.removeprefix(".").removesuffix(".tmp")
        cells[name] = {type(v).__name__ for row in rows for v in row}
        write_table(path, header, rows)

    def recording_json(obj):
        texts.add(json_text(obj))
        return json_text(obj)
    monkeypatch.setattr(ingest, "write_table", recording)
    monkeypatch.setattr(ingest, "json_text", recording_json)
    out_digests("paper", tmp_path)
    declared = {name for stage in STAGES for name in stage.writes}
    assert set(cells) == {name for name in declared if name.endswith(".csv")}
    assert {name: kinds - {"str", "int", "float", "NoneType"} for name, kinds in cells.items()} == (
        dict.fromkeys(cells, set()))
    json_files = {name for name in declared if name.endswith(".json")}
    assert {name for name in json_files if (tmp_path / "out" / name).read_text(encoding="utf-8") in texts} == (
        json_files)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: out_digests(name, Path(tmp) / name) for name in WORKLOADS + (FULL,)}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {"workloads": {}}
    recorded = {k: old.get(k) for k in versions()}
    if recorded != versions():
        print(f"versions: {recorded} -> {versions()}")
    for name in WORKLOADS + (FULL,):
        before = old["workloads"].get(name, {})
        for artifact in sorted(before.keys() | digests[name].keys()):
            if before.get(artifact) != digests[name].get(artifact):
                print(f"{name}: {artifact}")
    GOLDEN.write_text(json.dumps({**versions(), "seed": SEED, "full_seed": FULL_SEED, "workloads": digests},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
