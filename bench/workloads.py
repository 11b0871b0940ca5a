"""The benchmark's workloads: each is a `ripsaw gen` input plus the chain of
CLI subcommands a user runs on it, with the reason it was chosen.

Steps are argv lists for ``ripsaw.cli.main``; ``{w}`` stands for the
iteration's working directory and ``INPUT`` is the generated input.
The first baseline measured on these definitions is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUT = "{w}/input.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: tuple
    steps: tuple
    # Distinct inputs one run cycles through; see ``gen_seed``.
    inputs: int


def _cloud_steps():
    steps = [
        ("tree", "--input", INPUT, "--out", "{w}/cloud.tree"),
        ("sparsify", "--input", INPUT, "--tree", "{w}/cloud.tree", "--eps1", "0",
         "--out", "{w}/exact.sparse"),
        ("persist", "--input", "{w}/exact.sparse", "--dim", "1", "--field", "3",
         "--out", "{w}/exact.json"),
    ]
    for eps1 in ("0.25", "1.0"):
        steps += [
            ("sparsify", "--input", INPUT, "--tree", "{w}/cloud.tree", "--eps1", eps1,
             "--out", f"{{w}}/eps{eps1}.sparse"),
            ("persist", "--input", f"{{w}}/eps{eps1}.sparse", "--dim", "1", "--field", "3",
             "--out", f"{{w}}/eps{eps1}.json"),
            ("verify", "{w}/exact.json", f"{{w}}/eps{eps1}.json"),
            ("plot", "--input", f"{{w}}/eps{eps1}.json", "--out", f"{{w}}/eps{eps1}.svg"),
        ]
    return tuple(steps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solenoid-persist",
            why="README pipeline at n=2000: Z_2 reduce on a sparse filtration is "
                "~90% of the work, so a reducer change shows here and a "
                "tree-side change predicts none",
            gen=("solenoid", "--n", "2000"),
            steps=(
                ("tree", "--input", INPUT, "--out", "{w}/sol.tree"),
                ("sparsify", "--input", INPUT, "--tree", "{w}/sol.tree", "--eps1", "1.0",
                 "--keep", "all", "--out", "{w}/sol.sparse"),
                ("persist", "--input", "{w}/sol.sparse", "--dim", "1", "--field", "2",
                 "--out", "{w}/sol.json"),
                ("plot", "--input", "{w}/sol.json", "--out", "{w}/sol.svg", "--log-plot"),
            ),
            inputs=3,
        ),
        Workload(
            name="solenoid-tree",
            why="n=8000 tree plus sparsify, no persist: the O(n^2) density scan and "
                "sparsify with its file I/O do all the work, so a reducer change "
                "must read as unchanged",
            gen=("solenoid", "--n", "8000"),
            steps=(
                ("tree", "--input", INPUT, "--out", "{w}/sol.tree"),
                ("sparsify", "--input", INPUT, "--tree", "{w}/sol.tree", "--eps1", "0.25",
                 "--out", "{w}/sol.sparse"),
            ),
            inputs=2,
        ),
        Workload(
            name="cloud-verify",
            why="2-D cloud, n=64: a dense complete-graph filtration over Z_3 (the "
                "odd-prime path) and the only workload where verify does real work",
            gen=("cloud", "--n", "64", "--dim", "2"),
            steps=_cloud_steps(),
            inputs=8,
        ),
    )
}


def gen_seed(seed, iteration, workload):
    """`ripsaw gen --seed` for one iteration of a run.

    Iteration k of a run with seed s reads input ``s * inputs + k % inputs``,
    so seed 0 starts on gen seed 0 and different run seeds never share an
    input.  Averaging over several inputs keeps a run's medians from hanging
    on one sample's reduction work, which varies by about 20% between
    solenoid samples of equal size.
    """
    return seed * workload.inputs + iteration % workload.inputs
