import bisect
import hashlib
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ripsaw import cli, random_cloud
from ripsaw.generators import write_points_csv


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
    assert run("sparsify", "--input", paths["csv"], "--tree", paths["tree"],
               "--eps1", 0, "--keep", "all", "--out", paths["sparse"]) == 0
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
    # a tree file without a recorded digest is refused too
    _replace_line(paths["a.tree"], 1, "# written by hand")
    assert run("sparsify", "--input", paths["b.csv"], "--tree", paths["a.tree"],
               "--out", tmp_path / "x.sparse") == 2
    assert capsys.readouterr().err.startswith(f"error: {paths['a.tree']}:2: ")


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
    assert "hand the .sparse file to an external engine" in capsys.readouterr().err


def test_verify_self_passes(circle_files, capsys):
    assert run("verify", circle_files["diag"], circle_files["diag"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_full_vs_sparse(tmp_path, circle_files, capsys):
    sp, dg = tmp_path / "sp.sparse", tmp_path / "sp.json"
    run("sparsify", "--input", circle_files["csv"], "--tree", circle_files["tree"],
        "--eps1", 0.5, "--out", sp)
    run("persist", "--input", sp, "--dim", 1, "--out", dg)
    assert run("verify", circle_files["diag"], dg) == 0


def test_verify_tampered_death_fails(tmp_path, circle_files):
    sp, dg = tmp_path / "sp.sparse", tmp_path / "sp.json"
    run("sparsify", "--input", circle_files["csv"], "--tree", circle_files["tree"],
        "--eps1", 0.5, "--out", sp)
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
    run("sparsify", "--input", circle_files["csv"], "--tree", circle_files["tree"],
        "--eps1", 0.5, "--out", sp)
    run("persist", "--input", sp, "--dim", 1, "--out", dg)
    assert run("plot", "--input", dg, "--out", svg) == 0
    text = svg.read_text()
    assert 'class="definite"' in text
    assert 'class="psi"' in text


def test_plot_log_axes_clip(tmp_path, circle_files):
    svg = tmp_path / "log.svg"
    assert run("plot", "--input", circle_files["diag"], "--out", svg, "--log-plot") == 0
    root = ET.parse(svg).getroot()
    # clip contract: every drawn point stays inside the plot box (whose left
    # and bottom edges represent the clip, the smallest positive coordinate)
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


def test_one_point_pipeline(tmp_path, capsys):
    """A single point makes R 0, one essential H0 entry and plots whose axes
    fall back to a unit span rather than dividing by zero."""
    p = {name: tmp_path / name for name in ("p.csv", "p.tree", "p.sparse", "p.json")}
    assert run("gen", "cloud", "--n", 1, "--out", p["p.csv"]) == 0
    assert run("tree", "--input", p["p.csv"], "--out", p["p.tree"]) == 0
    assert "R: 0.0\n" in capsys.readouterr().out
    assert run("sparsify", "--input", p["p.csv"], "--tree", p["p.tree"],
               "--eps1", 0.5, "--out", p["p.sparse"]) == 0
    assert run("persist", "--input", p["p.sparse"], "--out", p["p.json"]) == 0
    assert json.loads(p["p.json"].read_text())["entries"] == [
        {"dim": 0, "birth": 0.0, "death": "inf"}]
    for flags in ([], ["--log-plot"]):
        svg = tmp_path / f"p{len(flags)}.svg"
        assert run("plot", "--input", p["p.json"], "--out", svg, *flags) == 0
        assert "nan" not in svg.read_text()


@pytest.mark.parametrize("argv", [["--n", 0], ["--n", 3, "--dim", 0]],
                         ids=["n-0", "dim-0"])
def test_gen_cloud_refuses_empty_sample(tmp_path, capsys, argv):
    out = tmp_path / "c.csv"
    assert run("gen", "cloud", *argv, "--out", out) == 2
    assert "need n >= 1 and dim >= 1" in capsys.readouterr().err
    assert not out.exists()


GEN_SHA256 = [
    (["solenoid", "--n", 8000, "--seed", 0],
     "9a1294f1c8b85b4a7beaaeea0bd651f1d16720ff2fcbf022c0bc4398988e58f5"),
    (["solenoid", "--n", 2000, "--seed", 0],
     "41e1d41cfd3a7fd8d3cccb0ca148192831b129ace749846afe71f1504e341f21"),
    (["solenoid", "--n", 500, "--seed", 7],
     "f65195b31f18af5e43aa8df53b013a78557e7fbf0c596d4b3c9e9dafddc3422a"),
    (["cloud", "--n", 64, "--dim", 2, "--seed", 0],
     "d3da398bacdd9867391c42289458363ffc9295e9beceb344bd2942ff21e28f10"),
    (["cloud", "--n", 17, "--dim", 3, "--seed", 1],
     "de1c79c94747090c7011f2d70b2c47bcd85d55f4f0e0bbe7abcd15e54a5e1180"),
    (["circle", "--n", 32],
     "063b492efb0c85f9b0f84ac1981c48ccaaee2f34ac9e4ced66f64bbeca28fb55"),
]


@pytest.mark.parametrize("argv,digest", GEN_SHA256,
                         ids=["-".join(map(str, a)) for a, _d in GEN_SHA256])
def test_gen_writes_golden_bytes(tmp_path, argv, digest):
    """Every sample is pinned byte for byte, draws, map and formatting alike."""
    out = tmp_path / "gen.csv"
    assert run("gen", *argv, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_keep_parse_error(tmp_path):
    csv, tree = tmp_path / "p.csv", tmp_path / "p.tree"
    write_points_csv(csv, random_cloud(10, 2, 0))
    run("tree", "--input", csv, "--out", tree)
    assert run("sparsify", "--input", csv, "--tree", tree, "--keep", "most",
               "--out", tmp_path / "x.sparse") == 2


def _parsed(argv):
    """The arguments ``argv`` parses to, without the subcommand handler."""
    argv = [str(a) for a in argv]
    args = vars(cli._parser(argv).parse_args(argv))
    del args["func"]
    return args


def test_outputs_embed_config(tmp_path):
    """Each output's config is its command line as parsed; a .tree adds the
    input digest, and no profile records a truncation T."""
    p = {name: tmp_path / name for name in ("c.csv", "c.tree", "c.sparse", "c.json", "c.svg")}
    steps = [
        ["tree", "--input", p["c.csv"], "--format", "circle", "--out", p["c.tree"]],
        ["sparsify", "--input", p["c.csv"], "--tree", p["c.tree"],
         "--eps1", 0.5, "--keep", 24, "--out", p["c.sparse"]],
        ["persist", "--input", p["c.sparse"], "--dim", 1, "--field", 3, "--out", p["c.json"]],
        ["plot", "--input", p["c.json"], "--out", p["c.svg"], "--log-plot"],
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
    """The first edge repeated at the end of the file is out of order there."""
    sparse = circle_files["sparse"]
    i, j, w = sparse.read_text().splitlines()[0].split()
    with open(sparse, "a") as fh:
        fh.write(f"{i} {j} {2 * float(w)!r}\n")
    assert run("persist", "--input", sparse, "--out", tmp_path / "x.json") == 2
    assert capsys.readouterr().err == (
        f"error: {sparse}:497: edge ({i}, {j}) does not come after (30, 31)\n")


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
    assert run("sparsify", "--input", circle_files["csv"], "--tree", tree,
               "--out", tmp_path / "x.sparse") == 2
    assert f"contraction time is {time}" in capsys.readouterr().err


def test_sparsify_rejects_non_ascii_tree_count(circle_files, tmp_path, capsys):
    """'²' passes str.isdigit() but is no count that int() reads."""
    tree = circle_files["tree"]
    assert tree.read_text().splitlines()[0] == "n 32"
    _replace_line(tree, 0, "n \u00b2")
    assert run("sparsify", "--input", circle_files["csv"], "--tree", tree,
               "--out", tmp_path / "x.sparse") == 2
    assert "expected header 'n <count>'" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["9", "-3"])
def test_sparsify_refuses_tree_with_relabelled_node(tmp_path, capsys, label):
    """Node 4 of a 5-point tree renamed in its own line and as a parent.  An
    index past the points cannot be evaluated, and a negative one silently
    names another point, so the tree is refused either way."""
    csv, tree = tmp_path / "c.csv", tmp_path / "c.tree"
    assert run("gen", "cloud", "--n", 5, "--seed", 0, "--out", csv) == 0
    assert run("tree", "--input", csv, "--out", tree) == 0
    lines = tree.read_text().splitlines()
    assert lines[0] == "n 5"
    for k in range(2, len(lines)):
        _replace_line(tree, k, " ".join(label if tok == "4" else tok
                                        for tok in lines[k].split()))
    assert tree.read_text() != "\n".join(lines) + "\n"
    capsys.readouterr()
    assert run("sparsify", "--input", csv, "--tree", tree, "--out",
               tmp_path / "c.sparse") == 2
    assert "node indices are not exactly 0..4" in capsys.readouterr().err
    assert not (tmp_path / "c.sparse").exists()


@pytest.fixture()
def cloud_tree_files(tmp_path):
    """A 24-point cloud and its tree file: header, config line, then the
    root and the other 23 nodes in contraction order."""
    csv, tree = tmp_path / "c.csv", tmp_path / "c.tree"
    assert run("gen", "cloud", "--n", 24, "--seed", 0, "--out", csv) == 0
    assert run("tree", "--input", csv, "--out", tree) == 0
    lines = tree.read_text().splitlines()
    assert lines[0] == "n 24" and lines[1].startswith("# config ") and len(lines) == 26
    return csv, tree


# stray whitespace where ripsaw writes none, as an editor might leave it
_WHITESPACE_FAMILIES = ["blank-line", "leading-space", "trailing-space", "trailing-tab", "crlf"]


def _misspace(lines, family, rng):
    """``lines`` with the whitespace defect ``family`` at a line drawn from
    ``rng``; "crlf" ends every line with "\r"."""
    lines = list(lines)
    k = rng.randrange(len(lines))
    if family == "blank-line":
        lines.insert(k, "")
    elif family == "leading-space":
        lines[k] = " " + lines[k]
    elif family == "trailing-space":
        lines[k] += " "
    elif family == "trailing-tab":
        lines[k] += "\t"
    elif family == "crlf":
        lines = [line + "\r" for line in lines]
    return lines


def _mutate_tree(lines, family, rng):
    """The text of a tree file of ``lines`` with one defect of ``family``, at
    a node position drawn from ``rng`` (any line, for a whitespace family)."""
    if family == "no-final-newline":
        return "\n".join(lines)
    return "\n".join(_mutated_tree_lines(lines, family, rng)) + "\n"


def _mutated_tree_lines(lines, family, rng):
    if family in _WHITESPACE_FAMILIES:
        return _misspace(lines, family, rng)
    nodes = [line.split() for line in lines[2:]]
    n = len(nodes)
    k = rng.randrange(1, n)  # a node other than the root
    times = {"time-nan": "nan", "time-negative": "-1", "time-1e309": "1e309",
             "time-inf": "inf"}
    # a time as ripsaw never writes it, read back as the same float
    spellings = {"time-20E": lambda t: f"{float(t):.20E}", "time-trailing-zero": lambda t: t + "0"}
    if family == "drop-line":
        del nodes[k]
    elif family == "repeat-line":
        nodes.insert(k, list(nodes[k]))
    elif family in ("count-up", "count-down"):
        n += 1 if family == "count-up" else -1
    elif family in times:
        nodes[k][2] = times[family]
    elif family in spellings:
        nodes[k][2] = spellings[family](nodes[k][2])
    elif family == "plus-sign":
        nodes[k][0] = "+" + nodes[k][0]
    elif family == "finite-root-time":
        nodes[0][2] = "1e9"
    elif family == "index-n":
        nodes[rng.randrange(n)][0] = str(n)
    elif family == "parent-after-child":
        k = rng.randrange(1, n - 1)
        nodes[k][1] = nodes[rng.randrange(k + 1, n)][0]
    elif family == "two-tokens":
        del nodes[k][rng.randrange(3)]
    elif family == "word-field":
        nodes[k][rng.randrange(3)] = "x"
    elif family == "config-line-only":
        return [lines[1]]
    elif family == "count-5000-digits":  # past int()'s 4,300-digit limit
        return ["n " + "9" * 5000] + lines[1:]
    elif family == "comment-line":
        nodes.insert(k, ["#", "note"])
    config, body = lines[1], [" ".join(node) for node in nodes]
    if family == "no-config-line":
        return [f"n {n}"] + body
    elif family == "config-without-digest":
        recorded = json.loads(config.removeprefix("# config "))
        del recorded["digest"]
        config = "# config " + json.dumps(recorded, sort_keys=True)
    elif family == "config-not-object":
        config = "# config []"
    elif family in ("config-without-format", "config-format-spline"):
        recorded = json.loads(config.removeprefix("# config "))
        if family == "config-without-format":
            del recorded["format"]
        else:
            recorded["format"] = "spline"
        config = "# config " + json.dumps(recorded, sort_keys=True)
    elif family == "doubled-space":
        body[k] = body[k].replace(" ", "  ")
    elif family == "tab-separated":
        body[k] = body[k].replace(" ", "\t")
    return [f"n {n}", config] + body


# what ``read_tree`` says of a line or file it cannot parse
_TREE_DEFECTS = {"two-tokens": "expected 'index parent time'", "word-field": "'x'",
                 "config-line-only": "expected header 'n <count>'",
                 "count-5000-digits": ":1: expected header 'n <count>'",
                 "comment-line": "expected 'index parent time'",
                 "no-config-line": "expected the config line",
                 "config-without-digest": "malformed config line",
                 "config-not-object": "malformed config line",
                 "doubled-space": "expected 'index parent time'",
                 "tab-separated": "expected 'index parent time'",
                 "config-without-format": ":2: the config line records no input format",
                 "config-format-spline": ":2: the config line records no input format",
                 **{family: ", as ripsaw writes it" for family in
                    ("no-final-newline", "plus-sign", "time-20E", "time-trailing-zero")}}


@pytest.mark.parametrize("family", [
    "drop-line", "repeat-line", "count-up", "count-down", "time-nan", "time-negative",
    "time-1e309", "time-inf", "finite-root-time", "index-n", "parent-after-child",
    "two-tokens", "word-field", "config-line-only", "comment-line", "no-config-line",
    "config-without-digest", "config-not-object", "doubled-space", "tab-separated",
    "config-without-format", "config-format-spline", "no-final-newline", "plus-sign",
    "time-20E", "time-trailing-zero", "count-5000-digits", *_WHITESPACE_FAMILIES])
def test_sparsify_refuses_mutated_tree(cloud_tree_files, tmp_path, capsys, family):
    """Each defect, at three derandomized positions, is an input error:
    exit 2, a message naming the file (and the defect, for the families of
    ``_TREE_DEFECTS``), and neither a sparse file nor a sidecar.

    Known gap: a node time that is *lowered* but stays between its
    neighbours' leaves the tree well formed, and ``sparsify`` then writes a
    sparse file whose dropped pairs the tree no longer justifies.  Catching
    it needs ``contraction_violations`` on the input, which costs oracle
    evaluations that ``sparsify`` does not make today."""
    csv, tree = cloud_tree_files
    lines = tree.read_text().splitlines()
    out = tmp_path / "m.sparse"
    for seed in range(3):
        tree.write_text(_mutate_tree(lines, family, random.Random(seed)))
        capsys.readouterr()
        assert run("sparsify", "--input", csv, "--tree", tree, "--eps1", 0.5,
                   "--out", out) == 2, seed
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tree}"), seed
        assert _TREE_DEFECTS.get(family, "") in err, seed
        assert not out.exists() and not out.with_suffix(".meta.json").exists()


@pytest.mark.parametrize("index,edit,defect", [
    (0, " {}", "expected header 'n <count>'"),
    (0, "{}\r", "expected header 'n <count>'"),
    (1, "{} \t", "not the sorted-key JSON"),
    (1, "{}\r", "not the sorted-key JSON"),
], ids=["header-leading-space", "header-cr", "config-trailing-space-tab", "config-cr"])
def test_sparsify_refuses_tree_head_with_stray_whitespace(cloud_tree_files, tmp_path, capsys,
                                                          index, edit, defect):
    """The header and config line are read exactly as written too: JSON
    would read the config with whitespace around it, but ripsaw writes none."""
    csv, tree = cloud_tree_files
    lines = tree.read_text().splitlines()
    _replace_line(tree, index, edit.format(lines[index]))
    out = tmp_path / "m.sparse"
    assert run("sparsify", "--input", csv, "--tree", tree, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tree}:{index + 1}: ") and defect in err
    assert not out.exists()


def test_sparsify_refuses_tree_time_beyond_float_range(cloud_tree_files, tmp_path, capsys):
    """A time of 1e309 reads as inf; as the first non-root time it would
    become the profile's R and an ``Infinity`` in the sidecar."""
    csv, tree = cloud_tree_files
    orig, parent, _t = tree.read_text().splitlines()[3].split()
    _replace_line(tree, 3, f"{orig} {parent} 1e309")
    out = tmp_path / "x.sparse"
    assert run("sparsify", "--input", csv, "--tree", tree, "--eps1", 0.5,
               "--out", out) == 2
    assert "contraction time is inf" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".meta.json").exists()


def _mutate_sparse(lines, family, n, rng):
    """``lines`` of a sparse file over ``n`` points with one defect of
    ``family``, at a line drawn from ``rng``; a line that is not UTF-8 is
    the lone surrogate that encodes to the byte 0xff."""
    if family in _WHITESPACE_FAMILIES:
        return _misspace(lines, family, rng)
    lines = list(lines)
    k = rng.randrange(len(lines))
    toks = lines[k].split()
    lengths = {"length-nan": "nan", "length-inf": "inf", "length-negative": "-1",
               "length-1e309": "1e309"}
    if family == "two-tokens":
        del toks[2]
    elif family == "four-tokens":
        toks.append(toks[2])
    elif family in lengths:
        toks[2] = lengths[family]
    elif family == "i-equals-j":
        toks[1] = toks[0]
    elif family == "i-above-j":
        toks[:2] = toks[1], toks[0]
    elif family == "j-equals-N":
        toks[1] = str(n)
    elif family == "fractional-index":
        toks[rng.randrange(2)] = "1.5"
    elif family == "repeat-line":
        lines.insert(k, lines[k])
    elif family == "byte-0xff":
        lines.insert(k, "\udcff")
    if family not in ("repeat-line", "byte-0xff"):
        lines[k] = " ".join(toks)
    return lines


@pytest.mark.parametrize("family", [
    "two-tokens", "four-tokens", "length-nan", "length-inf", "length-negative",
    "length-1e309", "i-equals-j", "i-above-j", "j-equals-N", "fractional-index",
    "repeat-line", "byte-0xff", *_WHITESPACE_FAMILIES])
def test_persist_refuses_mutated_sparse_file(circle_files, tmp_path, capsys, family):
    """Each defect, at three derandomized lines, is an input error: exit 2,
    a message naming the file and the line, and no diagram.  Each runs
    twice, with the stale sidecar and with one whose ``edges`` and
    ``sha256`` are recomputed over the mutated bytes, so it is the parser
    that refuses the file, not only the hash."""
    sparse = circle_files["sparse"]
    meta_path = sparse.with_suffix(".meta.json")
    lines = sparse.read_text().splitlines()
    assert len(lines) == 32 * 31 // 2
    stale = json.loads(meta_path.read_text())
    out = tmp_path / "m.json"
    for seed in range(3):
        mutated = _mutate_sparse(lines, family, 32, random.Random(seed))
        data = ("\n".join(mutated) + "\n").encode("utf-8", "surrogateescape")
        sparse.write_bytes(data)
        recomputed = dict(stale, edges=data.count(b"\n"),
                          sha256=hashlib.sha256(data).hexdigest())
        for meta in (stale, recomputed):
            meta_path.write_text(json.dumps(meta))
            capsys.readouterr()
            assert run("persist", "--input", sparse, "--out", out) == 2, seed
            err = capsys.readouterr().err
            assert re.match(rf"error: {re.escape(str(sparse))}:\d+: ", err), (seed, err)
            assert not out.exists()


@pytest.fixture()
def half_sparse(circle_files, tmp_path):
    """The circle's sparse file at eps1 0.5, which misses most pairs."""
    sparse = tmp_path / "half.sparse"
    assert run("sparsify", "--input", circle_files["csv"], "--tree", circle_files["tree"],
               "--eps1", 0.5, "--out", sparse) == 0
    return sparse


def _unlisted_edge(lines, family, rng):
    """``lines`` of a sparse file over 32 points, well-formed but changed:
    one length set to another valid one, one line dropped, or one pair that
    is not listed added in its place in (i, j) order, drawn from ``rng``."""
    lines = list(lines)
    k = rng.randrange(len(lines))
    i, j, w = lines[k].split()
    if family == "changed-length":
        lines[k] = f"{i} {j} {float(w) + 0.125!r}"
    elif family == "dropped-line":
        del lines[k]
    else:
        pairs = [tuple(map(int, line.split()[:2])) for line in lines]
        i, j = rng.choice([(a, b) for b in range(32) for a in range(b)
                           if (a, b) not in pairs])
        lines.insert(bisect.bisect(pairs, (i, j)), f"{i} {j} {rng.random()!r}")
    return lines


@pytest.mark.parametrize("family", ["changed-length", "dropped-line", "added-line"])
def test_persist_refuses_sparse_file_unlike_its_sidecar(half_sparse, tmp_path, capsys,
                                                        family):
    """A well-formed edge file that is not the one its sidecar's count and
    sha256 record, at three derandomized lines, is an input error naming the
    file, and no diagram is written.  A dropped or added line is told by the
    count, a changed length by the hash."""
    lines = half_sparse.read_text().splitlines()
    out = tmp_path / "m.json"
    count = {"changed-length": len(lines), "dropped-line": len(lines) - 1,
             "added-line": len(lines) + 1}[family]
    message = "edges do not match the sha256" if family == "changed-length" else (
        f"{count} edges, where {half_sparse.with_suffix('.meta.json')} records {len(lines)}")
    for seed in range(3):
        half_sparse.write_text("\n".join(_unlisted_edge(lines, family, random.Random(seed)))
                               + "\n")
        capsys.readouterr()
        assert run("persist", "--input", half_sparse, "--out", out) == 2, seed
        assert capsys.readouterr().err.startswith(f"error: {half_sparse}: {message}"), seed
        assert not out.exists()


def test_sparse_sidecar_records_count_and_hash_of_edge_lines(half_sparse, tmp_path):
    """The sidecar's ``edges`` and ``sha256`` are the edge lines' count and
    hash."""
    text = half_sparse.read_text()
    meta = json.loads(half_sparse.with_suffix(".meta.json").read_text())
    assert meta["edges"] == text.count("\n")
    assert meta["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert run("persist", "--input", half_sparse, "--out", tmp_path / "d.json") == 0


@pytest.mark.parametrize("case", ["comment-line", "swapped-lines", "doubled-space",
                                  "no-edges-key", "no-sha256-key", "no-keys-tripled-length"])
def test_persist_reads_a_sparse_file_only_as_written(half_sparse, tmp_path, capsys, case):
    """A comment, two lines out of (i, j) order, a doubled space, or a
    sidecar without ``edges`` or ``sha256`` (even with the length it would
    not check changed) is an input error naming the file, and the line for a
    defect in one; no diagram is written."""
    meta_path = half_sparse.with_suffix(".meta.json")
    lines = half_sparse.read_text().splitlines()
    meta = json.loads(meta_path.read_text())
    k = 11
    if case == "comment-line":
        lines.insert(k, "# edges")
        where = f"{half_sparse}:{k + 1}: expected 'i j d'"
    elif case == "swapped-lines":
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
        i, j, _w = lines[k + 1].split()
        where = f"{half_sparse}:{k + 2}: edge ({i}, {j}) does not come after"
    elif case == "doubled-space":
        lines[k] = lines[k].replace(" ", "  ", 1)
        where = f"{half_sparse}:{k + 1}: expected 'i j d'"
    else:
        dropped = {"no-edges-key": ["edges"], "no-sha256-key": ["sha256"],
                   "no-keys-tripled-length": ["edges", "sha256"]}[case]
        for key in dropped:
            del meta[key]
        if case == "no-keys-tripled-length":
            i, j, w = lines[k].split()
            lines[k] = f"{i} {j} {3 * float(w)!r}"
        where = f"{meta_path}: sidecar has no '{dropped[0]}' key"
    half_sparse.write_text("\n".join(lines) + "\n")
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert run("persist", "--input", half_sparse, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")
    assert not out.exists()


def _append_byte_0xff(path):
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")


@pytest.mark.parametrize("case", ["points", "circle", "lower-distance", "tree", "sparse",
                                  "sidecar", "diagram"])
def test_undecodable_input_is_input_error(circle_files, tmp_path, capsys, case):
    """A file that is not UTF-8 text exits 2 with a message naming it, and
    no output is written."""
    lower = tmp_path / "d.lower"
    lower.write_text("1.0\n2.0, 1.5\n")
    points = tmp_path / "cloud.csv"
    write_points_csv(points, random_cloud(10, 2, 0))
    circle = ["--input", circle_files["csv"]]
    bad, out, argv = {
        "points": (points, "x.tree", ["tree", "--input", points]),
        "circle": (circle_files["csv"], "x.tree", ["tree", *circle, "--format", "circle"]),
        "lower-distance": (lower, "x.tree",
                           ["tree", "--input", lower, "--format", "lower-distance"]),
        "tree": (circle_files["tree"], "x.sparse",
                 ["sparsify", *circle, "--tree", circle_files["tree"]]),
        "sparse": (circle_files["sparse"], "x.json",
                   ["persist", "--input", circle_files["sparse"]]),
        "sidecar": (circle_files["sparse"].with_suffix(".meta.json"), "x.json",
                    ["persist", "--input", circle_files["sparse"]]),
        "diagram": (circle_files["diag"], "x.svg", ["plot", "--input", circle_files["diag"]]),
    }[case]
    _append_byte_0xff(bad)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert sorted(tmp_path.glob("x.*")) == []


def _mutate_rows(lines, family, rng):
    """``lines`` of a point or circle CSV with one defect of ``family``, at a
    row drawn from ``rng``; a line that is not UTF-8 is the lone surrogate
    that encodes to the byte 0xff."""
    lines = list(lines)
    k = rng.randrange(len(lines))
    toks = lines[k].split(",")
    values = {"nan": "nan", "inf": "inf", "1e309": "1e309", "word": "x",
              "angle-1.0": "1.0", "angle-negative": "-0.1", "angle-nan": "nan"}
    if family == "fewer-values":
        del toks[-1]
    elif family in ("extra-value", "two-values"):
        toks.append(toks[0])
    elif family in values:
        toks[rng.randrange(len(toks))] = values[family]
    elif family == "lone-comma":
        toks = ["", ""]
    elif family == "byte-0xff":
        lines.insert(k, "\udcff")
    elif family == "empty-file":
        return []
    elif family == "every-row-lone-comma":
        return [","] * len(lines)
    if family != "byte-0xff":
        lines[k] = ",".join(toks)
    return lines


@pytest.mark.parametrize("fmt,family", [
    *[("points", f) for f in ("fewer-values", "extra-value", "nan", "inf", "1e309", "word",
                              "lone-comma", "every-row-lone-comma", "byte-0xff", "empty-file")],
    *[("circle", f) for f in ("angle-1.0", "angle-negative", "angle-nan", "two-values",
                              "every-row-lone-comma")]])
def test_tree_refuses_mutated_input_csv(tmp_path, capsys, fmt, family):
    """Each defect of a point or circle CSV, at three derandomized rows, is
    an input error: exit 2, a message naming the file, and no tree."""
    csv, out = tmp_path / "in.csv", tmp_path / "m.tree"
    dataset = ["circle"] if fmt == "circle" else ["cloud", "--dim", 2]
    assert run("gen", *dataset, "--n", 24, "--out", csv) == 0
    lines = csv.read_text().splitlines()
    for seed in range(3):
        mutated = _mutate_rows(lines, family, random.Random(seed))
        csv.write_bytes("".join(line + "\n" for line in mutated).encode(
            "utf-8", "surrogateescape"))
        capsys.readouterr()
        assert run("tree", "--input", csv, "--format", fmt, "--out", out) == 2, seed
        assert capsys.readouterr().err.startswith(f"error: {csv}"), seed
        assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("1.0\nnan, 1.5\n", "2: nan is not a finite number >= 0"),
    ("1.0\n2.0, -1\n", "2: -1 is not a finite number >= 0"),
    ("1.0\n2.0, 3.0, 4.0\n", " 4 entries is not a triangular count n(n-1)/2")],
    ids=["nan", "negative", "not-triangular"])
def test_tree_names_lower_distance_file_of_bad_entry(tmp_path, capsys, text, message):
    lower, out = tmp_path / "d.lower", tmp_path / "d.tree"
    lower.write_text(text)
    assert run("tree", "--input", lower, "--format", "lower-distance", "--out", out) == 2
    assert capsys.readouterr().err == f"error: {lower}:{message}\n"
    assert not out.exists()


def _lower_rows(n, value):
    """Rows 1 .. n-1 of a lower-distance file, entry (i, j) being ``value(i, j)``."""
    return [", ".join(value(i, j) for j in range(i)) for i in range(1, n)]


def _mutate_lower(rows, family, rng):
    """``rows`` of a lower-distance file with one defect of ``family``, at an
    entry or row drawn from ``rng``."""
    rows = [row.split(", ") for row in rows]
    r = rng.randrange(len(rows))
    k = rng.randrange(len(rows[r]))
    values = {"nan": "nan", "inf": "inf", "1e309": "1e309", "negative": "-1", "word": "x"}
    if family == "drop-entry":
        del rows[r][k]
    elif family == "extra-entry":
        rows[r].insert(k, rows[r][k])
    elif family in values:
        rows[r][k] = values[family]
    lines = [", ".join(row) for row in rows]
    if family == "comment-line":
        lines.insert(r, "# distances")
    elif family == "byte-0xff":
        lines.insert(r, "\udcff")
    return lines


@pytest.mark.parametrize("family", ["drop-entry", "extra-entry", "nan", "inf", "1e309",
                                    "negative", "word", "comment-line", "byte-0xff"])
def test_tree_refuses_mutated_lower_distance(tmp_path, capsys, family):
    """Each defect of a lower-distance file, at three derandomized entries,
    is an input error: exit 2, a message naming the file, and no tree.  A
    bad value names its line too; a wrong entry count, or bytes that are not
    UTF-8, are defects of the whole file."""
    lower, out = tmp_path / "d.lower", tmp_path / "d.tree"
    points = random_cloud(9, 2, 0)
    rows = _lower_rows(9, lambda i, j: repr(math.dist(points[i], points[j])))
    lower.write_text("".join(row + "\n" for row in rows))
    assert run("tree", "--input", lower, "--format", "lower-distance", "--out", out) == 0
    out.unlink()
    for seed in range(3):
        mutated = _mutate_lower(rows, family, random.Random(seed))
        lower.write_bytes("".join(line + "\n" for line in mutated).encode(
            "utf-8", "surrogateescape"))
        capsys.readouterr()
        assert run("tree", "--input", lower, "--format", "lower-distance",
                   "--out", out) == 2, seed
        where = f"{lower}:{random.Random(seed).randrange(len(rows)) + 1}: "
        if family in ("drop-entry", "extra-entry", "byte-0xff"):
            where = f"{lower}: "
        assert capsys.readouterr().err.startswith(f"error: {where}"), seed
        assert not out.exists()


def test_non_metric_tree_sparsifies_and_persists(tmp_path, capsys):
    """Eight points of a line at |i - j|, with the pair (7, 1) shortened to
    0.05: ``tree`` warns of the density bound, and the tree it writes is
    still sparsified and reduced."""
    lower = tmp_path / "line.lower"
    rows = _lower_rows(8, lambda i, j: "0.05" if (i, j) == (7, 1) else str(i - j))
    lower.write_text("".join(row + "\n" for row in rows))
    tree, sparse, diag = tmp_path / "line.tree", tmp_path / "line.sparse", tmp_path / "line.json"
    assert run("tree", "--input", lower, "--format", "lower-distance", "--out", tree) == 0
    assert "density bound" in capsys.readouterr().err
    for eps1 in (0, 0.5):
        assert run("sparsify", "--input", lower, "--tree", tree, "--eps1", eps1,
                   "--out", sparse) == 0
        assert run("persist", "--input", sparse, "--dim", 1, "--out", diag) == 0
        assert json.loads(diag.read_text())["entries"]


def test_tree_refuses_circle_rows_of_two_values(tmp_path, capsys):
    csv = tmp_path / "cloud.csv"
    assert run("gen", "cloud", "--n", 10, "--dim", 2, "--out", csv) == 0
    assert run("tree", "--input", csv, "--format", "circle",
               "--out", tmp_path / "x.tree") == 2
    assert "each row holds 2 values, not one angle" in capsys.readouterr().err
    assert not (tmp_path / "x.tree").exists()


def test_sparsify_refuses_circle_rows_of_two_values(tmp_path, capsys):
    """The tree is built from the x column alone, so its digest matches the
    one a circle reading of the two-column file would take."""
    angles, cloud, tree = tmp_path / "x.csv", tmp_path / "cloud.csv", tmp_path / "x.tree"
    points = [(0.125, 0.5), (0.5, 0.25), (0.75, 0.75), (0.875, 0.0)]
    write_points_csv(angles, [p[:1] for p in points])
    write_points_csv(cloud, points)
    assert run("tree", "--input", angles, "--format", "circle", "--out", tree) == 0
    capsys.readouterr()
    assert run("sparsify", "--input", cloud, "--tree", tree,
               "--out", tmp_path / "x.sparse") == 2
    assert "each row holds 2 values, not one angle" in capsys.readouterr().err


def _readme_commands():
    """The `ripsaw ...` lines of each README code block that has any, as one
    list of argv per block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks, in_block = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            if in_block:
                blocks.append([])
        elif in_block and line.startswith("ripsaw "):
            blocks[-1].append(line.split()[1:])
    return [block for block in blocks if block]


def test_parser_builds_only_the_named_subcommand(capsys):
    """``ripsaw --help`` lists all six subcommands; a parser for one
    subcommand's argv gives no other subcommand an argument beyond -h."""
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    listed = capsys.readouterr().out
    for name, (help_line, _func, _arguments) in cli._COMMANDS.items():
        assert f"    {name}" in listed and help_line in listed
    ap = cli._parser(["gen", "cloud"])
    subparsers = next(a for a in ap._actions if a.dest == "command").choices
    assert list(subparsers) == ["tree", "sparsify", "persist", "plot", "verify", "gen"]
    for name, parser in subparsers.items():
        flags = [a.dest for a in parser._actions]
        assert (flags == ["help"]) == (name != "gen"), name


def test_readme_commands_parse():
    commands = [argv for block in _readme_commands() for argv in block]
    assert len(commands) >= 10
    for argv in commands:
        try:
            cli._parser(argv).parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: ripsaw " + " ".join(argv))


# sha256 of every file the README's circle block and a plot of its sparse
# diagram write, run from the directory that holds them
README_CIRCLE_SHA256 = {
    "circle.csv": "063b492efb0c85f9b0f84ac1981c48ccaaee2f34ac9e4ced66f64bbeca28fb55",
    "circle.tree": "93b304fc3be4d58651432620132f9babbe96c28eb85cba3221d5b16f23e0cfce",
    "full.sparse": "80ff37d3a6df79215263bf758b85d2150a4fcfbf4611da84cfe349e4872b6d50",
    "full.meta.json": "df317862c20fd1ba6284ad013db04284a157f2395aabf174025141be184f3ae5",
    "sp.sparse": "fb398f6e046314d07d25afe442d5df1fefe8b46471d7178fcf016569b3cc8a25",
    "sp.meta.json": "6f39103883a27f544de13539673e8c24f5b1b7ce270ee797fe1fc863e813a779",
    "full.json": "a94959dc25a4508aa9186e402803ce41f7c22b74c787478f45aaecf8f27d8258",
    "sp.json": "60f6b66f031f269ea06628e6b56940f9070d6e287813efe70eeec56cd70e6460",
    "sp.svg": "6c97c8437df1973eb5db2267dc5a69a3606271308a47461daab31ac1532cf018",
}


def test_readme_circle_pipeline_writes_golden_bytes(tmp_path, monkeypatch, capsys):
    """The README's circle block, then a plot of its sparse diagram, run from
    one directory so that every recorded config holds relative paths: each
    command exits 0, ``verify`` prints PASS, and every file written is pinned
    byte for byte."""
    monkeypatch.chdir(tmp_path)
    for argv in _readme_commands()[1] + [["plot", "--input", "sp.json", "--out", "sp.svg"]]:
        assert run(*argv) == 0, argv
        if argv[0] == "verify":
            assert capsys.readouterr().out.endswith("PASS\n")
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == README_CIRCLE_SHA256


@pytest.mark.parametrize("command", ["persist", "sparsify"])
def test_persist_has_no_threshold_option(circle_files, tmp_path, command):
    """The filtration is never truncated: neither command takes a threshold."""
    source = {"persist": ["--input", circle_files["sparse"]],
              "sparsify": ["--input", circle_files["csv"],
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
    elif case == "fractional-dim":
        h1["dim"] = 1.7
    elif case == "boolean-birth":
        # on an essential class, so that a birth read as 1.0 passes every other check
        next(e for e in data["entries"] if e["death"] == "inf")["birth"] = True
    elif case == "string-death":
        h1["death"] = "2.5"
    elif case == "negative-birth":
        h1["birth"] = -1.0
    elif case == "negative-interval":
        h1["birth"], h1["death"] = -2.0, -1.0
    elif case == "non-prime-field":
        data["field"] = 4
    elif case == "max-dim-below-entry":
        data["max_dim"] = 0
    return json.dumps(data)


@pytest.mark.parametrize("case", ["field-only", "not-json", "profile-without-eps1",
                                  "truncated-profile", "nan-death", "death-below-birth",
                                  "fractional-dim", "boolean-birth", "string-death",
                                  "negative-birth", "negative-interval", "non-prime-field",
                                  "max-dim-below-entry"])
def test_malformed_diagram_is_input_error(circle_files, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(_bad_diagram(case, json.loads(circle_files["diag"].read_text())))
    assert run("verify", circle_files["diag"], bad) == 2
    assert run("plot", "--input", bad, "--out", tmp_path / "bad.svg") == 2
    assert not (tmp_path / "bad.svg").exists()
    assert capsys.readouterr().err.count("error: ") == 2


_BIG = "<1e309>"  # stands for the JSON number 1e309, which reads back as inf
_MUTANT_VALUES = {"string": "x", "true": True, "null": None, "negative": -1,
                  "nan": math.nan, "infinity": math.inf, "1e309": _BIG}

# where a mutant changes a diagram: (the object holding the key, drawn with
# rng where there is a choice; the key; whether an integer is required)
_DIAGRAM_KEYS = {
    "field": (lambda data, rng: data, "field", True),
    "max_dim": (lambda data, rng: data, "max_dim", True),
    "entries": (lambda data, rng: data, "entries", False),
    "meta": (lambda data, rng: data, "meta", False),
    "entry-dim": (lambda data, rng: rng.choice(data["entries"]), "dim", True),
    "entry-birth": (lambda data, rng: rng.choice(data["entries"]), "birth", False),
    "entry-death": (lambda data, rng: rng.choice(data["entries"]), "death", False),
    "profile": (lambda data, rng: data["meta"], "profile", False),
    **{f"profile-{key}": (lambda data, rng: data["meta"]["profile"], key, key in ("n", "N"))
       for key in ("n", "N", "eps0", "eps1", "R")},
}


def _diagram_mutants(data, location):
    """(case, JSON text) for each mutant of the diagram ``data`` at
    ``location``: its key deleted, set to each of ``_MUTANT_VALUES``, and set
    to a fraction where an integer is required."""
    where, key, integer = _DIAGRAM_KEYS[location]
    for case in ["delete", *_MUTANT_VALUES, *(["fraction"] if integer else [])]:
        mutant = json.loads(json.dumps(data))
        target = where(mutant, random.Random(f"{location}-{case}"))
        if case == "delete":
            del target[key]
        else:
            target[key] = 2.5 if case == "fraction" else _MUTANT_VALUES[case]
        yield case, json.dumps(mutant).replace(f'"{_BIG}"', "1e309")


def _refused_everywhere(good, bad, tmp_path, capsys):
    """Whether ``plot`` and ``verify``, with ``bad`` as either diagram, each
    exit 2 with one error line naming ``bad`` and write no SVG."""
    svg = tmp_path / "bad.svg"
    capsys.readouterr()
    codes = [run("plot", "--input", bad, "--out", svg),
             run("verify", good, bad), run("verify", bad, good)]
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    return (codes == [2, 2, 2] and not svg.exists() and len(errors) == 3
            and all(line.startswith(f"error: {bad}: ") for line in errors))


@pytest.mark.parametrize("location", sorted(_DIAGRAM_KEYS))
def test_refuses_mutated_diagram(circle_files, tmp_path, capsys, location):
    """Each mutant of a diagram that ``persist`` wrote, at each top-level key,
    entry key and profile key, is an input error from ``plot`` and from
    ``verify`` in either position, naming the mutated file."""
    good, bad = circle_files["diag"], tmp_path / "bad.json"
    for case, text in _diagram_mutants(json.loads(good.read_text()), location):
        bad.write_text(text)
        assert _refused_everywhere(good, bad, tmp_path, capsys), case


def test_refuses_diagram_with_death_below_birth_or_composite_field(circle_files, tmp_path,
                                                                   capsys):
    good, bad = circle_files["diag"], tmp_path / "bad.json"
    data = json.loads(good.read_text())
    h0 = next(e for e in data["entries"] if e["death"] != "inf")
    h0["birth"] = h0["death"] + 0.25
    bad.write_text(json.dumps(data))
    assert _refused_everywhere(good, bad, tmp_path, capsys)
    data = json.loads(good.read_text())
    data["field"] = 9
    bad.write_text(json.dumps(data))
    assert _refused_everywhere(good, bad, tmp_path, capsys)


@pytest.mark.parametrize("case", ["extra-meta-key", "extra-profile-key", "inf-death"])
def test_accepts_diagram_mutants_that_stay_valid(circle_files, tmp_path, capsys, case):
    """Extra ``meta`` keys are ignored, and a finite death may become "inf"."""
    data = json.loads(circle_files["diag"].read_text())
    if case == "extra-meta-key":
        data["meta"]["note"] = [1, "two"]
    elif case == "extra-profile-key":
        data["meta"]["profile"]["note"] = None
    else:
        next(e for e in data["entries"] if e["death"] != "inf")["death"] = "inf"
    mutant, svg = tmp_path / "mutant.json", tmp_path / "mutant.svg"
    mutant.write_text(json.dumps(data))
    assert run("plot", "--input", mutant, "--out", svg) == 0 and svg.exists()
    assert run("verify", mutant, mutant) == 0
    assert "error" not in capsys.readouterr().err


def test_verify_refuses_diagrams_of_different_inputs(circle_files, tmp_path, capsys):
    """Both profiles record n and R, which exact and sparse diagrams of one
    input share: the exact diagrams of a 40-point and of a 32-point cloud are
    refused against the 32-point circle's eps1 0.5 diagram in either order,
    naming both files, the second although the sizes agree."""
    csv, tree, sparse = tmp_path / "c.csv", tmp_path / "c.tree", tmp_path / "c.sparse"
    cloud, circle = tmp_path / "cloud.json", tmp_path / "circle.json"
    assert run("sparsify", "--input", circle_files["csv"], "--tree", circle_files["tree"],
               "--eps1", 0.5, "--out", sparse) == 0
    assert run("persist", "--input", sparse, "--field", 3, "--out", circle) == 0
    for n in (40, 32):
        assert run("gen", "cloud", "--n", n, "--out", csv) == 0
        assert run("tree", "--input", csv, "--out", tree) == 0
        assert run("sparsify", "--input", csv, "--tree", tree, "--out", sparse) == 0
        assert run("persist", "--input", sparse, "--field", 3, "--out", cloud) == 0
        capsys.readouterr()
        r = "1.012492455686767"
        for full, other, sizes, radii in [(cloud, circle, f"{n} and 32", f"{r} and 0.5"),
                                          (circle, cloud, f"32 and {n}", f"0.5 and {r}")]:
            assert run("verify", full, other) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: {full} and {other} are diagrams of different inputs "
                           f"(n {sizes}, R {radii})\n")


def test_verify_refuses_diagrams_of_different_dimensions(circle_files, tmp_path, capsys):
    """The exact --dim 0 diagram of the 32-point circle against its eps1 0.5
    --dim 1 diagram, and the reverse pair: each records the highest
    dimension it computed, and verify refuses them rather than fail."""
    sparse = tmp_path / "half.sparse"
    assert run("sparsify", "--input", circle_files["csv"], "--tree", circle_files["tree"],
               "--eps1", 0.5, "--out", sparse) == 0
    diagrams = {}
    for name, source in [("exact", circle_files["sparse"]), ("half", sparse)]:
        for dim in (0, 1):
            diagrams[name, dim] = tmp_path / f"{name}{dim}.json"
            assert run("persist", "--input", source, "--dim", dim,
                       "--out", diagrams[name, dim]) == 0
            assert json.loads(diagrams[name, dim].read_text())["max_dim"] == dim
    assert run("verify", diagrams["exact", 1], diagrams["half", 1]) == 0
    capsys.readouterr()
    for full, sparse_dim in [(0, 1), (1, 0)]:
        assert run("verify", diagrams["exact", full], diagrams["half", sparse_dim]) == 2
        assert capsys.readouterr() == (
            "", f"error: diagrams computed up to different dimensions: "
                f"{full} vs {sparse_dim}\n")


def test_h1_guarantee_holds_on_120_point_solenoid(tmp_path, capsys):
    """The exact H1 diagram of the 120-point solenoid (seed 0, every one of
    its 7,140 pairs kept) against the sparse ones at eps1 0.25 and 1, with
    all points kept and with 60: each verifies.  No other test checks the
    H1 guarantee on more than 64 points."""
    csv, tree, full = tmp_path / "s.csv", tmp_path / "s.tree", tmp_path / "full.json"
    assert run("gen", "solenoid", "--n", 120, "--seed", 0, "--out", csv) == 0
    assert run("tree", "--input", csv, "--out", tree) == 0
    assert run("sparsify", "--input", csv, "--tree", tree, "--eps1", 0,
               "--out", tmp_path / "full.sparse") == 0
    assert run("persist", "--input", tmp_path / "full.sparse", "--dim", 1, "--out", full) == 0
    entries = json.loads(full.read_text())["entries"]
    assert sum(e["dim"] == 1 for e in entries) == 15
    for eps1 in (0.25, 1.0):
        for keep in ("all", 60):
            sparse, diagram = tmp_path / "sp.sparse", tmp_path / "sp.json"
            assert run("sparsify", "--input", csv, "--tree", tree, "--eps1", eps1,
                       "--keep", keep, "--out", sparse) == 0
            assert run("persist", "--input", sparse, "--dim", 1, "--out", diagram) == 0
            capsys.readouterr()
            assert run("verify", full, diagram) == 0, (eps1, keep)
            out = capsys.readouterr().out
            assert out.endswith("dim 1: ranks ok, matching ok -> ok\nPASS\n"), (eps1, keep)


@pytest.mark.parametrize("case", ["n-only", "not-json", "no-eps1", "nan-eps1",
                                  "N-above-n", "fractional-N", "boolean-R", "string-eps1",
                                  "R-beyond-float", "infinite-R", "null", "list", "number"])
def test_malformed_sidecar_is_input_error(circle_files, tmp_path, capsys, case):
    meta_path = circle_files["sparse"].with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    no_object = {"null": None, "list": [], "number": 3}
    if case in no_object:
        meta = no_object[case]
    elif case == "n-only":
        meta = {"n": 32}
    elif case == "no-eps1":
        del meta["eps1"]
    elif case == "nan-eps1":
        meta["eps1"] = math.nan
    elif case == "N-above-n":
        meta["N"] = meta["n"] + 1
    elif case == "fractional-N":
        meta["N"] = meta["N"] + 0.5
    elif case == "boolean-R":
        meta["R"] = True
    elif case == "string-eps1":
        meta["eps1"] = " 0.5 "
    elif case == "R-beyond-float":
        meta["R"] = 10**400
    elif case == "infinite-R":
        meta["R"] = math.inf  # written as Infinity, which no strict parser reads
    meta_path.write_text("n = 32\n" if case == "not-json" else json.dumps(meta))
    assert run("persist", "--input", circle_files["sparse"],
               "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta_path}: ")
    if case in no_object:
        assert err.endswith(": malformed profile: not a JSON object\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["--eps1", "nan"], ["--eps1", "inf"], ["--keep", 0], ["--keep", -100],
], ids=["eps1-nan", "eps1-inf", "keep-0", "keep-negative"])
def test_sparsify_rejects_bad_profile(circle_files, tmp_path, capsys, argv):
    out = tmp_path / "x.sparse"
    assert run("sparsify", "--input", circle_files["csv"], "--tree", circle_files["tree"],
               *argv, "--out", out) == 2
    assert "profile out of range" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".meta.json").exists()


@pytest.mark.parametrize("argv", [
    ["--overlay-eps1", -1], ["--overlay-eps1", -1, "--overlay-eps0", "nan"],
    ["--overlay-eps0", "inf"],
    ["--log-plot", "--clip", 0], ["--log-plot", "--clip", -1],
    ["--log-plot", "--clip", "nan"], ["--log-plot", "--clip", "inf"],
])
def test_plot_rejects_bad_overlay(circle_files, tmp_path, capsys, argv):
    """`plot` draws only the diagram's own psi, clipped at its smallest
    positive coordinate: the parser refuses the overlay and clip options,
    and no SVG is written."""
    svg = tmp_path / "x.svg"
    with pytest.raises(SystemExit) as exc:
        run("plot", "--input", circle_files["diag"], *argv, "--out", svg)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not svg.exists()


def test_sparsify_has_no_format_option(circle_files, tmp_path, capsys):
    """`sparsify` reads its input under the format the tree records, so the
    parser refuses --format, and its five settable values are recorded."""
    out = tmp_path / "x.sparse"
    with pytest.raises(SystemExit) as exc:
        run("sparsify", "--input", circle_files["csv"], "--format", "circle",
            "--tree", circle_files["tree"], "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --format circle" in capsys.readouterr().err
    assert not out.exists()
    config = _parsed(["sparsify", "--input", "c.csv", "--tree", "c.tree", "--out", "c.sparse"])
    assert sorted(config) == ["command", "eps1", "input", "keep", "out", "tree"]


def test_gen_has_no_iterations_option(tmp_path, capsys):
    """The solenoid always iterates its map 12 times."""
    out = tmp_path / "sol.csv"
    with pytest.raises(SystemExit) as exc:
        run("gen", "solenoid", "--n", 5, "--iterations", 5, "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --iterations 5" in capsys.readouterr().err
    assert not out.exists()


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
