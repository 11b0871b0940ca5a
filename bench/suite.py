"""Run every workload and print its metrics and the traced stage table.

    python3 bench/suite.py [--seconds 30] [--seeds 0 1] [--record]

Run from the root of a checkout.  For each workload and seed it prints every
end-to-end metric with its unit, including the chain and per-subcommand
latencies and ``ops_failed``, which BENCHMARK.json does not gate (see
README.md).  Then, for the first seed, it runs each workload traced and
prints the per-layer metrics and one stage-table row per span: wall and self
time, oracle evaluations, edges kept, simplices per dimension and diagram
entries.  Seed 0 is the default seed; seed 1 is held out, so that a gain
claimed later can be confirmed on a seed it was not tuned on.

``--record`` writes the content hashes and traced counts of every input run
to reference.json.  Do it only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run as bench
from spans import self_times
from workloads import WORKLOADS

EXTRA_UNITS = {"total_s": "s", "tree_s": "s", "sparsify_s": "s", "persist_s": "s", "verify_s": "s",
               "ops_failed": "share"}


def fmt(value, unit):
    return f"{value:.0f}" if unit == "count" else f"{value:.6g}"


def stage_rows(spans):
    """Markdown rows for one traced chain, children indented under parents."""
    own = self_times(spans)
    depth = {}
    rows = []
    for s in spans:
        depth[s["id"]] = 0 if s["parent"] is None else depth[s["parent"]] + 1
        c = s["counts"]
        simplices = "/".join(str(c[k]) for k in sorted(c) if k.startswith("simplices."))
        cells = [
            "&nbsp;&nbsp;" * depth[s["id"]] + s["name"],
            f"{s['end'] - s['start']:.4f}",
            f"{own[s['id']]:.4f}",
            str(c.get("evals", "")),
            str(c.get("edges_kept", "")),
            simplices,
            str(c.get("entries", "")),
        ]
        rows.append("| " + " | ".join(cells) + " |")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--record", action="store_true",
                    help="write reference.json from these runs")
    args = ap.parse_args(argv)
    root = Path.cwd()
    spec = bench.load_spec(root)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    reference = {}
    ok = True

    for name in WORKLOADS:
        for seed in args.seeds:
            result, metrics, _passes, ledger = bench.run(root, name, seed, args.seconds, 0)
            ok &= result["correct"]
            print(f"## {name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key in [m["name"] for m in spec["end_to_end"]] + list(EXTRA_UNITS):
                print(f"  {key:<14} {fmt(metrics[key], units[key])} {units[key]}")
            for input_seed, hashes in ledger.seen.items():
                if input_seed is not None:
                    reference.setdefault(name, {})[str(input_seed)] = {"hashes": hashes}

    seed = args.seeds[0]
    for name in WORKLOADS:
        result, metrics, spans, ledger = bench.run(root, name, seed, args.seconds, 1)
        ok &= result["correct"]
        path = bench.write_spans(root, name, seed, spans)
        print(f"\n## {name} seed {seed} traced: correct={result['correct']} "
              f"(spans in {path.relative_to(root)})")
        for key in [m["name"] for m in spec["per_layer"]]:
            print(f"  {key:<32} {fmt(metrics.get(key, 0.0), units[key])} {units[key]}")
        first_run = spans[0]["run"] if spans else None
        print("\n| span | wall s | self s | oracle evals | edges kept | "
              "simplices d0/d1/d2 | entries |")
        print("|---|---|---|---|---|---|---|")
        print("\n".join(stage_rows([s for s in spans if s["run"] == first_run])))
        for input_seed, counts in ledger.counts.items():
            reference.setdefault(name, {}).setdefault(str(input_seed), {})["counts"] = counts

    if args.record:
        with open(bench.BENCH / "reference.json", "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
