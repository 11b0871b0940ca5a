"""One benchmark iteration in a fresh interpreter.

Imports ripsaw once, writes the input with `ripsaw gen` (together: the
set-up time), runs the workload's subcommand chain through
``ripsaw.cli.main``, checks every output, and with ``--trace 1`` runs the
same chain again under the span wrappers of spans.py.  Prints one JSON
object on stdout; the subcommands' own output is captured.

    python3 bench/worker.py --root . --workload cloud-verify --gen-seed 0 \
        --workdir .bench_work/x --trace 0 [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
from workloads import INPUT, WORKLOADS


def call(main, argv):
    """Run ``main(argv)``; return (exit code, captured stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue(), time.perf_counter() - start


def run_chain(main, steps, tracer=None):
    """Run each step, then check the outputs; returns (ops, chain seconds)."""
    calls = []
    start = time.perf_counter()
    for argv in steps:
        span = tracer.begin(f"cli.{argv[0]}") if tracer else None
        calls.append((argv, *call(main, argv)))
        if span is not None:
            tracer.end(span)
    total = time.perf_counter() - start
    ops = []
    for argv, rc, stdout, seconds in calls:
        problem, hashes, edges = checks.check_step(argv, rc, stdout)
        ops.append({"command": argv[0], "seconds": seconds, "problem": problem,
                    "hashes": hashes, "edges": edges})
    return ops, total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout holding src/ripsaw")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--gen-seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    sys.path.insert(0, str(Path(args.root) / "src"))
    from ripsaw import cli
    if not Path(cli.__file__).resolve().is_relative_to((Path(args.root) / "src").resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's ripsaw")
    gen_argv = ["gen", *workload.gen, "--seed", str(args.gen_seed),
                "--out", INPUT.format(w=workdir)]
    gen_rc, _out, _s = call(cli.main, gen_argv)
    result = {
        "setup_s": time.perf_counter() - start,
        "gen": {"command": "gen", "problem": None if gen_rc == 0 else f"exit code {gen_rc}"},
    }
    if not args.setup_only:
        steps = [[a.format(w=workdir) for a in argv] for argv in workload.steps]
        result["ops"], result["total_s"] = run_chain(cli.main, steps)
        if args.trace:
            tracer = spans.Tracer(run_id=f"{args.workload}-{args.gen_seed}-{os.getpid()}")
            spans.install(tracer)
            try:
                result["traced_ops"], result["traced_total_s"] = run_chain(
                    cli.main, steps, tracer)
            finally:
                tracer.uninstall()
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
