"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload solenoid-persist --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: ripsaw is imported from ``src/`` there.
Every iteration is a fresh interpreter (worker.py) that imports ripsaw once,
writes one input with `ripsaw gen` and runs the workload's CLI chain on it.

``--trace 0`` measures the end-to-end metrics.  A pass runs the chain once
on each of the workload's inputs; passes repeat while the next one fits in
``--seconds`` and each metric is the median over passes.  Within a pass,
times are the mean per chain, ``peak_rss_mb`` is the median of the
processes' peak resident sets and ``sparse_edges`` is the exact number of
edges the pass wrote.  ``setup_s`` is the median of every set-up (import
plus `ripsaw gen`) the run made, extra set-up-only processes included.

``--trace 1`` measures the per-layer metrics on the run's first input: each
iteration runs the chain untraced and then again under the span wrappers,
and each metric is the median over iterations.  Spans are written to
``.bench_out/`` in the checkout.

Every subcommand call is an operation.  It fails on a nonzero exit, a
failed output check (checks.py), a content hash that differs from the one
recorded in reference.json for its input or from an earlier iteration on
the same input, or a traced output or count that differs from the untraced
one or the reference.  The metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import self_times
from workloads import WORKLOADS, gen_seed

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
EVAL_STAGES = {
    "covertree.build": "build",
    "covertree.tighten": "tighten",
    "covertree.density_violations": "density",
    "sparsify.sparsify": "sparsify",
}


def load_spec(root):
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_reference():
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)


def run_worker(root, workload, seed, workdir, trace=0, setup_only=False):
    """One fresh interpreter; returns its result dict, or None if it died."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(root),
           "--workload", workload, "--gen-seed", str(seed), "--workdir", str(workdir),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Ledger:
    """Operation counts plus the content hashes seen for each input."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.seen = {}
        self.counts = {}

    def fail(self, what, ops=1):
        self.failed += ops
        print(f"check failed: {what}", file=sys.stderr)

    def record(self, label, ops, input_seed, expected=None):
        """Count ``ops``; fail each whose problem is set or whose hashes
        differ from ``expected``, the reference or an earlier run."""
        ref = self.reference.get(str(input_seed), {}).get("hashes", {})
        seen = self.seen.setdefault(input_seed, {})
        for op in ops:
            self.attempted += 1
            problem = op.get("problem")
            for name, digest in op.get("hashes", {}).items():
                for source, want in (("reference", ref.get(name)),
                                     ("earlier iteration", seen.get(name)),
                                     ("untraced run", (expected or {}).get(name))):
                    if want is not None and want != digest:
                        problem = problem or f"{name} differs from the {source}"
                seen.setdefault(name, digest)
            if problem:
                self.fail(f"{label} {op['command']}: {problem}")

    def record_dead(self, label, ops):
        self.attempted += ops
        self.fail(f"{label}: worker died", ops)


def chain_hashes(ops):
    return {k: v for op in ops for k, v in op["hashes"].items()}


def command_seconds(ops, command):
    return sum(op["seconds"] for op in ops if op["command"] == command)


def untraced(root, name, seed, seconds, workdir, ledger):
    """End-to-end metrics; also returns the raw per-pass rows."""
    workload = WORKLOADS[name]
    chain_ops = len(workload.steps) + 1
    setups = []
    for k in range(SETUP_SAMPLES):
        res = run_worker(root, name, gen_seed(seed, k, workload), workdir, setup_only=True)
        if res is None:
            ledger.record_dead(f"{name} setup", 1)
            continue
        setups.append(res["setup_s"])
        ledger.record(f"{name} setup", [res["gen"]], None)

    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        began = time.perf_counter()
        rows = []
        for k in range(workload.inputs):
            input_seed = gen_seed(seed, k, workload)
            res = run_worker(root, name, input_seed, workdir)
            if res is None:
                ledger.record_dead(f"{name} input {input_seed}", chain_ops)
                continue
            setups.append(res["setup_s"])
            ledger.record(f"{name} input {input_seed}", [res["gen"], *res["ops"]], input_seed)
            rows.append(res)
        if rows:
            passes.append(rows)
        elapsed = time.perf_counter() - began
        if time.perf_counter() + elapsed > deadline:
            break

    def per_pass(fn):
        return statistics.median(fn(rows) for rows in passes) if passes else 0.0

    def mean(fn):
        return lambda rows: statistics.fmean(fn(r) for r in rows)

    metrics = {
        "total_s": per_pass(mean(lambda r: r["total_s"])),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": per_pass(lambda rows: statistics.median(r["peak_rss_mb"] for r in rows)),
        "sparse_edges": per_pass(lambda rows: sum(op["edges"] for r in rows for op in r["ops"])),
    }
    for command in ("tree", "sparsify", "persist", "verify"):
        metrics[f"{command}_s"] = per_pass(mean(lambda r, c=command: command_seconds(r["ops"], c)))
    metrics["ops_failed"] = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    return metrics, passes


def layer_metrics(spans):
    """Per-layer totals over one traced chain, keyed by metric name."""
    own = self_times(spans)
    out = defaultdict(int)
    for s in spans:
        name = s["name"]
        if name.startswith("cli."):
            out[f"{name}.self_s"] += own[s["id"]]
        else:
            out[f"{name}_s"] += s["end"] - s["start"]
        layer = name.split(".")[0]
        for key, value in s["counts"].items():
            if key == "evals":
                out[f"metric.evals.{EVAL_STAGES.get(name, name)}"] += value
            else:
                out[f"{layer}.{key}"] += value
    evals = out.get("metric.evals.sparsify", 0)
    out["sparsify.keep_per_eval"] = out.get("sparsify.edges_kept", 0) / evals if evals else 0.0
    return dict(out)


def exact_counts(metrics):
    """The counts of ``layer_metrics`` that must repeat exactly."""
    return {k: v for k, v in sorted(metrics.items())
            if not k.endswith("_s") and k != "sparsify.keep_per_eval"}


def traced(root, name, seed, seconds, workdir, ledger):
    """Per-layer metrics on the run's first input; also returns the spans."""
    workload = WORKLOADS[name]
    input_seed = gen_seed(seed, 0, workload)
    want = ledger.reference.get(str(input_seed), {}).get("counts")
    deadline = time.perf_counter() + seconds
    samples, all_spans = [], []
    while True:
        began = time.perf_counter()
        res = run_worker(root, name, input_seed, workdir, trace=1)
        label = f"{name} input {input_seed}"
        if res is None:
            ledger.record_dead(label, 2 * len(workload.steps) + 1)
        else:
            ledger.record(label, [res["gen"], *res["ops"]], input_seed)
            ledger.record(f"{label} traced", res["traced_ops"], input_seed,
                          expected=chain_hashes(res["ops"]))
            m = layer_metrics(res["spans"])
            counts = exact_counts(m)
            if counts != ledger.counts.setdefault(input_seed, counts):
                ledger.fail(f"{label} traced counts differ from an earlier iteration")
            if want is not None and counts != want:
                ledger.fail(f"{label} traced counts {counts} != reference {want}")
            m["trace.overhead_s"] = res["traced_total_s"] - res["total_s"]
            for command in ("tree", "sparsify", "persist", "verify"):
                m[f"cli.{command}.wall_s"] = command_seconds(res["ops"], command)
            samples.append(m)
            all_spans += res["spans"]
        if time.perf_counter() + (time.perf_counter() - began) > deadline:
            break
    keys = sorted({k for m in samples for k in m})
    metrics = {k: statistics.median(m.get(k, 0.0) for m in samples) for k in keys}
    return metrics, all_spans


def run(root, name, seed, seconds, trace):
    """Run one workload; returns (result for the driver, metrics, passes or
    spans, ledger)."""
    spec = load_spec(root)
    ledger = Ledger(load_reference().get(name, {}))
    workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        if trace:
            metrics, extra = traced(root, name, seed, seconds, workdir, ledger)
            wanted = spec["per_layer"]
        else:
            metrics, extra = untraced(root, name, seed, seconds, workdir, ledger)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    return result, metrics, extra, ledger


def write_spans(root, name, seed, spans):
    out = root / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ripsaw" / "cli.py").is_file():
        print(f"error: no ripsaw sources at {root / 'src' / 'ripsaw'}; run from a "
              "checkout root", file=sys.stderr)
        return 2
    result, metrics, extra, _ledger = run(root, args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        write_spans(root, args.workload, args.seed, extra)
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]!r}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
