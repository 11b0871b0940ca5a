import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ripsaw import cli, random_cloud
from ripsaw.metric import write_points_csv


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def circle_files(tmp_path):
    paths = {
        "csv": tmp_path / "circle.csv",
        "tree": tmp_path / "circle.tree",
        "sparse": tmp_path / "circle.sparse",
        "diag": tmp_path / "circle.json",
    }
    assert run("gen", "circle", "--n", 32, "--out", paths["csv"]) == 0
    assert run("tree", "--input", paths["csv"], "--format", "circle",
               "--out", paths["tree"]) == 0
    assert run("sparsify", "--input", paths["csv"], "--format", "circle",
               "--tree", paths["tree"], "--eps1", 0, "--keep", "all",
               "--out", paths["sparse"]) == 0
    assert run("persist", "--input", paths["sparse"], "--dim", 1,
               "--field", 2, "--out", paths["diag"]) == 0
    return paths


def test_pipeline_circle_values(circle_files):
    data = json.loads(circle_files["diag"].read_text())
    h1 = [e for e in data["entries"] if e["dim"] == 1]
    assert h1 == [{"dim": 1, "birth": 0.03125, "death": 0.34375}]
    h0 = [e for e in data["entries"] if e["dim"] == 0]
    assert len(h0) == 32
    assert sum(1 for e in h0 if e["death"] == "inf") == 1
    assert data["meta"]["config"]["command"] == "persist"
    assert data["meta"]["profile"]["N"] == 32


def test_tree_is_deterministic(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, random_cloud(60, 2, 3))
    t1 = tmp_path / "a.tree"
    assert run("tree", "--input", csv, "--out", t1) == 0
    first = t1.read_bytes()
    assert run("tree", "--input", csv, "--out", t1) == 0
    assert t1.read_bytes() == first
    out = capsys.readouterr().out
    assert "points: 60" in out


def test_sparsify_eps1_zero_full_count(tmp_path, capsys):
    csv, tree, sparse = tmp_path / "p.csv", tmp_path / "p.tree", tmp_path / "p.sparse"
    write_points_csv(csv, random_cloud(20, 2, 1))
    run("tree", "--input", csv, "--out", tree)
    assert run("sparsify", "--input", csv, "--tree", tree, "--eps1", 0,
               "--out", sparse) == 0
    assert len(sparse.read_text().splitlines()) == 20 * 19 // 2
    assert "edges: 190 of 190" in capsys.readouterr().out


def test_sparsify_reports_eps0(tmp_path, capsys):
    csv, tree, sparse = tmp_path / "p.csv", tmp_path / "p.tree", tmp_path / "p.sparse"
    write_points_csv(csv, random_cloud(30, 2, 2))
    run("tree", "--input", csv, "--out", tree)
    assert run("sparsify", "--input", csv, "--tree", tree, "--eps1", 0.25,
               "--keep", 10, "--out", sparse) == 0
    meta = json.loads((tmp_path / "p.meta.json").read_text())
    assert meta["N"] == 10
    assert f"eps0: {meta['eps0']!r}" in capsys.readouterr().out


def test_keep_exceeding_size_is_input_error(tmp_path, capsys):
    csv, tree = tmp_path / "p.csv", tmp_path / "p.tree"
    write_points_csv(csv, random_cloud(10, 2, 0))
    run("tree", "--input", csv, "--out", tree)
    assert run("sparsify", "--input", csv, "--tree", tree, "--keep", 11,
               "--out", tmp_path / "x.sparse") == 2


def test_empty_input_is_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("tree", "--input", empty, "--out", tmp_path / "x.tree") == 2


def test_mismatched_tree_is_error(tmp_path):
    csv, tree = tmp_path / "p.csv", tmp_path / "p.tree"
    write_points_csv(csv, random_cloud(10, 2, 0))
    run("tree", "--input", csv, "--out", tree)
    other = tmp_path / "q.csv"
    write_points_csv(other, random_cloud(11, 2, 0))
    assert run("sparsify", "--input", other, "--tree", tree,
               "--out", tmp_path / "x.sparse") == 2


def test_tree_from_other_input_of_same_size_is_error(tmp_path, capsys):
    """A tree records a digest of its input; sparsify refuses a tree built
    from different points, even of the same count."""
    paths = {name: tmp_path / name for name in ("a.csv", "b.csv", "copy.csv", "a.tree")}
    assert run("gen", "cloud", "--n", 64, "--seed", 0, "--out", paths["a.csv"]) == 0
    assert run("gen", "cloud", "--n", 64, "--seed", 1, "--out", paths["b.csv"]) == 0
    assert run("tree", "--input", paths["a.csv"], "--out", paths["a.tree"]) == 0
    paths["copy.csv"].write_bytes(paths["a.csv"].read_bytes())
    capsys.readouterr()
    assert run("sparsify", "--input", paths["b.csv"], "--tree", paths["a.tree"],
               "--out", tmp_path / "x.sparse") == 2
    assert "built from a different input" in capsys.readouterr().err
    # the digest is of the parsed values, not of the path
    assert run("sparsify", "--input", paths["copy.csv"], "--tree", paths["a.tree"],
               "--out", tmp_path / "x.sparse") == 0
    lines = paths["a.tree"].read_text().splitlines()
    assert lines[1].startswith("# config ") and '"digest": ' in lines[1]
    _replace_line(paths["a.tree"], 1, "# config {")
    assert run("sparsify", "--input", paths["b.csv"], "--tree", paths["a.tree"],
               "--out", tmp_path / "x.sparse") == 2
    assert "malformed config line" in capsys.readouterr().err
    # a tree file without a recorded digest is still read
    _replace_line(paths["a.tree"], 1, "# written by hand")
    assert run("sparsify", "--input", paths["b.csv"], "--tree", paths["a.tree"],
               "--out", tmp_path / "x.sparse") == 0


def test_persist_export_only(circle_files, tmp_path, capsys):
    before = circle_files["sparse"].read_bytes()
    assert run("persist", "--input", circle_files["sparse"], "--export-only") == 0
    assert circle_files["sparse"].read_bytes() == before
    assert not (tmp_path / "unwritten.json").exists()
    assert "no diagram written" in capsys.readouterr().out


def test_persist_rejects_composite_field(circle_files, tmp_path):
    assert run("persist", "--input", circle_files["sparse"], "--field", 4,
               "--out", tmp_path / "x.json") == 2


def test_persist_over_a_61_bit_prime_field(circle_files, tmp_path):
    """2**61 - 1 is prime, and the primality test answers at once."""
    entries = {}
    for p in (3, 2**61 - 1):
        out = tmp_path / f"z{p}.json"
        assert run("persist", "--input", circle_files["sparse"], "--field", p,
                   "--out", out) == 0
        entries[p] = json.loads(out.read_text())["entries"]
    assert entries[2**61 - 1] == entries[3]


@pytest.mark.parametrize("field, message", [
    (2**61 + 1, "--field must be a prime, got 2305843009213693953"),  # 3 divides it
    (2**64 + 13, "field characteristic 18446744073709551629 is not below 2**64"),
])
def test_persist_rejects_large_bad_field(circle_files, tmp_path, capsys, field, message):
    assert run("persist", "--input", circle_files["sparse"], "--field", field,
               "--out", tmp_path / "x.json") == 2
    assert message in capsys.readouterr().err


def test_persist_memory_guard(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", "100")
    csv, tree, sparse = tmp_path / "p.csv", tmp_path / "p.tree", tmp_path / "p.sparse"
    write_points_csv(csv, random_cloud(30, 2, 5))
    run("tree", "--input", csv, "--out", tree)
    run("sparsify", "--input", csv, "--tree", tree, "--eps1", 0, "--out", sparse)
    assert run("persist", "--input", sparse, "--dim", 1,
               "--out", tmp_path / "d.json") == 3
    assert "export-only" in capsys.readouterr().err


def test_verify_self_passes(circle_files, capsys):
    assert run("verify", circle_files["diag"], circle_files["diag"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_full_vs_sparse(tmp_path, circle_files, capsys):
    sp, dg = tmp_path / "sp.sparse", tmp_path / "sp.json"
    run("sparsify", "--input", circle_files["csv"], "--format", "circle",
        "--tree", circle_files["tree"], "--eps1", 0.5, "--out", sp)
    run("persist", "--input", sp, "--dim", 1, "--out", dg)
    assert run("verify", circle_files["diag"], dg) == 0


def test_verify_tampered_death_fails(tmp_path, circle_files):
    sp, dg = tmp_path / "sp.sparse", tmp_path / "sp.json"
    run("sparsify", "--input", circle_files["csv"], "--format", "circle",
        "--tree", circle_files["tree"], "--eps1", 0.5, "--out", sp)
    run("persist", "--input", sp, "--dim", 1, "--out", dg)
    data = json.loads(dg.read_text())
    profile = data["meta"]["profile"]
    for e in data["entries"]:
        if e["dim"] == 1 and e["death"] != "inf":
            # push one death beyond psi(death of every exact entry)
            e["death"] = profile["R"] * 3.0
            break
    dg.write_text(json.dumps(data))
    assert run("verify", circle_files["diag"], dg) == 1


def test_verify_field_mismatch(tmp_path, circle_files):
    other = tmp_path / "p3.json"
    run("persist", "--input", circle_files["sparse"], "--dim", 1, "--field", 3,
        "--out", other)
    assert run("verify", circle_files["diag"], other) == 2


def test_plot_svg_structure(tmp_path, circle_files):
    svg = tmp_path / "d.svg"
    assert run("plot", "--input", circle_files["diag"], "--out", svg) == 0
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    text = svg.read_text()
    assert "polyline" in text and "circle" in text


def test_plot_rectangles_and_overlay(tmp_path, circle_files):
    sp, dg, svg = tmp_path / "sp.sparse", tmp_path / "sp.json", tmp_path / "sp.svg"
    run("sparsify", "--input", circle_files["csv"], "--format", "circle",
        "--tree", circle_files["tree"], "--eps1", 0.5, "--out", sp)
    run("persist", "--input", sp, "--dim", 1, "--out", dg)
    assert run("plot", "--input", dg, "--out", svg,
               "--overlay-eps0", 0.05, "--overlay-eps1", 0.0) == 0
    text = svg.read_text()
    assert 'class="definite"' in text
    assert 'class="overlay-psi"' in text
    assert 'class="psi"' in text


def test_plot_log_axes_clip(tmp_path, circle_files):
    svg = tmp_path / "log.svg"
    assert run("plot", "--input", circle_files["diag"], "--out", svg,
               "--log-plot", "--clip", 0.01) == 0
    root = ET.parse(svg).getroot()
    # clip contract: every drawn point stays inside the plot box (whose left
    # and bottom edges represent the clip value)
    for circle in root.iter("{http://www.w3.org/2000/svg}circle"):
        assert 56.0 <= float(circle.get("cx")) <= 640.0 - 56.0 + 1e-9
        assert float(circle.get("cy")) <= 640.0 - 56.0 + 1e-9


def test_gen_solenoid_and_cloud(tmp_path):
    sol = tmp_path / "sol.csv"
    assert run("gen", "solenoid", "--n", 25, "--seed", 7, "--out", sol) == 0
    assert len(sol.read_text().splitlines()) == 25
    cloud = tmp_path / "cloud.csv"
    assert run("gen", "cloud", "--n", 10, "--dim", 3, "--seed", 1,
               "--out", cloud) == 0
    first = cloud.read_bytes()
    assert run("gen", "cloud", "--n", 10, "--dim", 3, "--seed", 1,
               "--out", cloud) == 0
    assert cloud.read_bytes() == first


def test_keep_parse_error(tmp_path):
    csv, tree = tmp_path / "p.csv", tmp_path / "p.tree"
    write_points_csv(csv, random_cloud(10, 2, 0))
    run("tree", "--input", csv, "--out", tree)
    assert run("sparsify", "--input", csv, "--tree", tree, "--keep", "most",
               "--out", tmp_path / "x.sparse") == 2


def test_plot_without_profile_warns(tmp_path, capsys):
    diag = tmp_path / "bare.json"
    diag.write_text(json.dumps({
        "field": 2,
        "entries": [{"dim": 0, "birth": 0.0, "death": 1.0}],
        "meta": {},
    }))
    assert run("plot", "--input", diag, "--out", tmp_path / "bare.svg") == 0
    assert "plotting plain dots" in capsys.readouterr().err


def _parsed(argv):
    """The arguments ``argv`` parses to, without the subcommand handler."""
    args = vars(cli._parser().parse_args([str(a) for a in argv]))
    del args["func"]
    return args


def test_outputs_embed_config(tmp_path):
    """Each output's config is its command line as parsed; a .tree adds the
    input digest, and no profile records a truncation T."""
    p = {name: tmp_path / name for name in ("c.csv", "c.tree", "c.sparse", "c.json", "c.svg")}
    steps = [
        ["tree", "--input", p["c.csv"], "--format", "circle", "--out", p["c.tree"]],
        ["sparsify", "--input", p["c.csv"], "--format", "circle", "--tree", p["c.tree"],
         "--eps1", 0.5, "--keep", 24, "--out", p["c.sparse"]],
        ["persist", "--input", p["c.sparse"], "--dim", 1, "--field", 3, "--out", p["c.json"]],
        ["plot", "--input", p["c.json"], "--out", p["c.svg"], "--log-plot",
         "--overlay-eps0", 0.01],
    ]
    assert run("gen", "circle", "--n", 32, "--out", p["c.csv"]) == 0
    for argv in steps:
        assert run(*argv) == 0
    tree_config = json.loads(p["c.tree"].read_text().splitlines()[1].removeprefix("# config "))
    assert len(tree_config.pop("digest")) == 64
    sidecar = json.loads(p["c.sparse"].with_suffix(".meta.json").read_text())
    diagram_meta = json.loads(p["c.json"].read_text())["meta"]
    svg_config = p["c.svg"].read_text().splitlines()[1]
    assert svg_config.startswith("<!-- config ") and svg_config.endswith(" -->")
    recorded = [tree_config, sidecar["config"], diagram_meta["config"],
                json.loads(svg_config[len("<!-- config "):-len(" -->")])]
    assert recorded == [_parsed(argv) for argv in steps]
    assert "T" not in sidecar and "T" not in diagram_meta["profile"]


def test_lower_distance_format(tmp_path):
    lower = tmp_path / "d.lower"
    lower.write_text("1.0\n2.0, 1.5\n")
    tree = tmp_path / "d.tree"
    assert run("tree", "--input", lower, "--format", "lower-distance",
               "--out", tree) == 0
    assert "n 3" in tree.read_text()


def test_non_metric_input_warns_but_builds(tmp_path, capsys):
    # weighted graph violating the triangle inequality badly enough that the
    # tightened tree misses the density bound; the tree is still written
    lower = tmp_path / "graph.lower"
    lower.write_text("1.584\n5.462 25.883\n0.681 0.68 6.147\n"
                     "13.553 1.173 0.227 7.621\n0.516 2.071 0.733 1.231 0.643\n")
    tree = tmp_path / "graph.tree"
    assert run("tree", "--input", lower, "--format", "lower-distance",
               "--out", tree) == 0
    err = capsys.readouterr().err
    assert "density bound" in err
    assert tree.exists()


def _replace_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("length", ["nan", "inf", "-0.5"])
def test_persist_rejects_bad_edge_length(circle_files, tmp_path, capsys, length):
    sparse = circle_files["sparse"]
    i, j, _w = sparse.read_text().splitlines()[0].split()
    _replace_line(sparse, 0, f"{i} {j} {length}")
    assert run("persist", "--input", sparse, "--out", tmp_path / "x.json") == 2
    assert "not a finite nonnegative number" in capsys.readouterr().err


def test_persist_rejects_duplicate_edge(circle_files, tmp_path, capsys):
    sparse = circle_files["sparse"]
    i, j, w = sparse.read_text().splitlines()[0].split()
    with open(sparse, "a") as fh:
        fh.write(f"{i} {j} {2 * float(w)!r}\n")
    assert run("persist", "--input", sparse, "--out", tmp_path / "x.json") == 2
    assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("index,time", [(3, "nan"), (-1, "-1.0")],
                         ids=["nan", "negative"])
def test_sparsify_rejects_nan_tree_time(circle_files, tmp_path, capsys, index, time):
    tree = circle_files["tree"]
    lines = tree.read_text().splitlines()
    # header, config comment, root; the next line is the first finite time.
    # The last node has the smallest time, so a negative one there keeps the
    # times nonincreasing.
    assert lines[1].startswith("#") and lines[2].endswith(" inf")
    orig, parent, _t = lines[index].split()
    _replace_line(tree, index, f"{orig} {parent} {time}")
    assert run("sparsify", "--input", circle_files["csv"], "--format", "circle",
               "--tree", tree, "--out", tmp_path / "x.sparse") == 2
    assert f"contraction time is {time}" in capsys.readouterr().err


def _readme_commands():
    """Every `ripsaw ...` line inside the README's fenced code blocks."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands, in_block = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("ripsaw "):
            commands.append(line.split()[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        try:
            cli._parser().parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: ripsaw " + " ".join(argv))


@pytest.mark.parametrize("command", ["persist", "sparsify"])
def test_persist_has_no_threshold_option(circle_files, tmp_path, command):
    """The filtration is never truncated: neither command takes a threshold."""
    source = {"persist": ["--input", circle_files["sparse"]],
              "sparsify": ["--input", circle_files["csv"], "--format", "circle",
                           "--tree", circle_files["tree"]]}[command]
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run(command, *source, "--threshold", 0.25, "--out", tmp_path / "x.out")
    assert exc.value.code == 2
    assert sorted(tmp_path.iterdir()) == before


def test_persist_rejects_negative_dim(circle_files, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run("persist", "--input", circle_files["sparse"], "--dim", -1,
               "--out", out) == 2
    assert "--dim must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_persist_rejects_composite_field_before_building(circle_files, tmp_path,
                                                         monkeypatch, capsys):
    """A bad --field is an input error (2), found before the filtration is
    built, so a cap the filtration would exceed never turns it into 3."""
    monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", "10")
    out = tmp_path / "x.json"
    assert run("persist", "--input", circle_files["sparse"], "--field", 4,
               "--out", out) == 2
    assert "--field must be a prime, got 4" in capsys.readouterr().err
    assert not out.exists()


def _bad_diagram(case, data):
    """The text of a malformed diagram derived from ``data``."""
    h1 = next(e for e in data["entries"] if e["dim"] == 1)
    if case == "field-only":
        data = {"field": 2}
    elif case == "not-json":
        return "field: 2\n"
    elif case == "profile-without-eps1":
        del data["meta"]["profile"]["eps1"]
    elif case == "truncated-profile":
        # a truncation T, which older versions could record, needs another psi
        data["meta"]["profile"]["T"] = 0.25
    elif case == "nan-death":
        h1["death"] = math.nan
    elif case == "death-below-birth":
        h1["death"] = h1["birth"] / 2
    return json.dumps(data)


@pytest.mark.parametrize("case", ["field-only", "not-json", "profile-without-eps1",
                                  "truncated-profile", "nan-death", "death-below-birth"])
def test_malformed_diagram_is_input_error(circle_files, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(_bad_diagram(case, json.loads(circle_files["diag"].read_text())))
    assert run("verify", circle_files["diag"], bad) == 2
    assert run("plot", "--input", bad, "--out", tmp_path / "bad.svg") == 2
    assert not (tmp_path / "bad.svg").exists()
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize("case", ["n-only", "not-json", "no-eps1", "nan-eps1",
                                  "N-above-n"])
def test_malformed_sidecar_is_input_error(circle_files, tmp_path, capsys, case):
    meta_path = circle_files["sparse"].with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    if case == "n-only":
        meta = {"n": 32}
    elif case == "no-eps1":
        del meta["eps1"]
    elif case == "nan-eps1":
        meta["eps1"] = math.nan
    elif case == "N-above-n":
        meta["N"] = meta["n"] + 1
    meta_path.write_text("n = 32\n" if case == "not-json" else json.dumps(meta))
    assert run("persist", "--input", circle_files["sparse"],
               "--out", tmp_path / "x.json") == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--eps1", "nan"], ["--eps1", "inf"], ["--keep", 0], ["--keep", -100],
], ids=["eps1-nan", "eps1-inf", "keep-0", "keep-negative"])
def test_sparsify_rejects_bad_profile(circle_files, tmp_path, capsys, argv):
    out = tmp_path / "x.sparse"
    assert run("sparsify", "--input", circle_files["csv"], "--format", "circle",
               "--tree", circle_files["tree"], *argv, "--out", out) == 2
    assert "profile out of range" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".meta.json").exists()


@pytest.mark.parametrize("argv", [
    ["--overlay-eps1", -1], ["--overlay-eps1", -1, "--overlay-eps0", "nan"],
    ["--overlay-eps0", "inf"],
    ["--log-plot", "--clip", 0], ["--log-plot", "--clip", -1],
    ["--log-plot", "--clip", "nan"], ["--log-plot", "--clip", "inf"],
])
def test_plot_rejects_bad_overlay(circle_files, tmp_path, capsys, argv):
    svg = tmp_path / "x.svg"
    assert run("plot", "--input", circle_files["diag"], *argv, "--out", svg) == 2
    expected = "clip must be finite and > 0" if "--clip" in argv else "profile out of range"
    assert expected in capsys.readouterr().err
    assert not svg.exists()


def test_missing_input_file_exits_2(circle_files, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("verify", missing, missing) == 2
    assert run("tree", "--input", tmp_path / "missing.csv", "--out", tmp_path / "x.tree") == 2
    # the sidecar is there, the edge file is not
    sparse = tmp_path / "lost.sparse"
    sparse.with_suffix(".meta.json").write_bytes(
        circle_files["sparse"].with_suffix(".meta.json").read_bytes())
    assert run("persist", "--input", sparse, "--out", tmp_path / "x.json") == 2
    assert capsys.readouterr().err.count("No such file") == 3
    assert not (tmp_path / "x.tree").exists() and not (tmp_path / "x.json").exists()
