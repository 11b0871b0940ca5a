"""Tests of the benchmark's own machinery: content hashes, self time,
operation accounting and wrapper removal."""

import importlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from ripsaw import cli, covertree  # noqa: E402

sparsify = importlib.import_module("ripsaw.sparsify")


def _write_sparse(path, config, comment):
    path.write_text((comment + "\n" if comment else "") + "0 1 0.5\n0 2 1.25\n")
    meta = {"n": 3, "N": 3, "eps0": 0.0, "eps1": 1.0, "R": 2.0, "T": None,
            "config": config}
    path.with_suffix(".meta.json").write_text(json.dumps(meta))


def _write_diagram(path, meta, death=0.5):
    entries = [{"dim": 0, "birth": 0.0, "death": "inf"},
               {"dim": 0, "birth": 0.0, "death": death}]
    path.write_text(json.dumps({"field": 2, "entries": entries, "meta": meta}))


def test_content_hash_ignores_metadata(tmp_path):
    a, b = tmp_path / "a.sparse", tmp_path / "b.sparse"
    _write_sparse(a, {"command": "sparsify", "eps1": 1.0}, "")
    _write_sparse(b, {"command": "sparsify", "eps1": 1.0, "new_field": 7},
                  '# config {"extra": true}')
    assert checks.sparse_hash(a) == checks.sparse_hash(b)

    c, d, e = tmp_path / "c.json", tmp_path / "d.json", tmp_path / "e.json"
    _write_diagram(c, {"config": {"out": "c.json"}})
    _write_diagram(d, {"config": {"out": "d.json"}, "profile": {"R": 2.0}})
    _write_diagram(e, {"config": {"out": "c.json"}}, death=0.75)
    assert checks.diagram_hash(c) == checks.diagram_hash(d)
    assert checks.diagram_hash(c) != checks.diagram_hash(e)


def test_self_time_on_hand_built_tree():
    tree = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 4.0},  # overlaps span 1
        {"id": 3, "parent": 0, "start": 8.0, "end": 12.0},  # runs past its parent
        {"id": 4, "parent": 1, "start": 1.5, "end": 2.5},
    ]
    own = spans.self_times(tree)
    # children cover [1, 4] and [8, 10] of [0, 10]; grandchildren do not count
    assert own == {0: 5.0, 1: 1.0, 2: 2.0, 3: 4.0, 4: 1.0}


def test_nonzero_exit_counts_as_failed_operation(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    steps = [
        ["gen", "cloud", "--n", "8", "--seed", "0", "--out", str(tmp_path / "in.csv")],
        ["tree", "--input", str(tmp_path / "empty.csv"), "--out", str(tmp_path / "t.tree")],
        ["no-such-subcommand"],
    ]
    ops, _seconds = worker.run_chain(cli.main, steps)
    ledger = bench.Ledger({})
    ledger.record("test", ops, 0)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert [op["problem"] for op in ops] == [None, "exit code 2", "exit code 2"]


def test_changed_output_counts_as_failed_operation():
    ledger = bench.Ledger({"0": {"hashes": {"x.sparse": "aaa"}}})
    ledger.record("test", [{"command": "sparsify", "hashes": {"x.sparse": "bbb"}}], 0)
    ledger.record("test", [{"command": "sparsify", "hashes": {"y.sparse": "ccc"}}], 1)
    ledger.record("test", [{"command": "sparsify", "hashes": {"y.sparse": "ddd"}}], 1)
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_uninstall_restores_every_wrapped_function():
    before = (covertree.build, sparsify.sparsify, cli.sparsify_matrix, cli.read_sparse)
    tracer = spans.Tracer("test")
    spans.install(tracer)
    assert cli.sparsify_matrix is not before[2]
    tracer.uninstall()
    assert (covertree.build, sparsify.sparsify, cli.sparsify_matrix, cli.read_sparse) == before
