"""Pipeline driver: tree building, sparsification, persistence, plotting,
and interleaving verification as subcommands with file interchange.

Exit codes: 0 success, 1 verification failure, 2 input error (an unreadable
file too), 3 resource guard.  Every output embeds its subcommand's parsed
arguments as a JSON "config" object in its metadata (``_config``; a ``.tree``
adds the input's digest), and reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import covertree, generators, metric
from .errors import InputError, ResourceGuardError
from .sparsify import PrecisionProfile, make_profile, read_sparse, write_sparse
from .sparsify import sparsify as sparsify_matrix


def _load_oracle(path, fmt):
    """The oracle of an input file and a sha256 digest of its parsed values."""
    if fmt == "points":
        values, make = metric.load_points(path), metric.euclidean_oracle
    elif fmt == "circle":
        values, make = [p[0] for p in metric.load_points(path)], metric.circle_oracle
    elif fmt == "lower-distance":
        values, make = metric.load_lower_distance(path), metric.matrix_oracle
    else:
        raise InputError(f"unknown input format {fmt!r}")
    import hashlib  # here, not at module level: `ripsaw gen` never needs it

    return make(values), hashlib.sha256(repr(values).encode()).hexdigest()


def _quartiles(values):
    vals = sorted(values)
    if not vals:
        return []
    return [vals[0], vals[len(vals) // 4], vals[len(vals) // 2],
            vals[(3 * len(vals)) // 4], vals[-1]]


def _config(args):
    """The parsed arguments of a subcommand, as every output records them."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_tree(args):
    config = _config(args)
    oracle, config["digest"] = _load_oracle(args.input, args.format)
    tree = covertree.build(oracle)
    ctree = covertree.tighten(tree, oracle)
    covertree.write_tree(args.out, ctree, config=config)
    radius = ctree.times[1] if ctree.size > 1 else 0.0
    print(f"points: {ctree.size}")
    print(f"R: {radius!r}")
    finite = ctree.times[1:]
    if finite:
        q = ", ".join(repr(v) for v in _quartiles(finite))
        print(f"reach quartiles (min/q1/med/q3/max): {q}")
    bad = covertree.density_violations(ctree, oracle)
    if bad:
        print(f"warning: density bound d >= t/4 violated for {len(bad)}+ pairs "
              "(input may not satisfy the triangle inequality)", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def cmd_sparsify(args):
    try:
        keep = None if args.keep == "all" else int(args.keep)
    except ValueError:
        raise InputError(f'--keep must be an integer or "all", got {args.keep!r}') from None
    oracle, digest = _load_oracle(args.input, args.format)
    ctree = covertree.read_tree(args.tree, digest=digest)
    if ctree.size != oracle.size:
        raise InputError(f"tree has {ctree.size} nodes but input has "
                         f"{oracle.size} points")
    profile = make_profile(ctree, keep=keep, eps1=args.eps1)
    matrix = sparsify_matrix(ctree, oracle, profile)
    write_sparse(args.out, matrix, config=_config(args))
    full = matrix.full_edge_count()
    ratio = len(matrix.edges) / full if full else 0.0
    print(f"kept points: {profile.N} of {profile.n}")
    print(f"eps0: {profile.eps0!r}")
    print(f"edges: {len(matrix.edges)} of {full} (ratio {ratio:.4f})")
    print(f"wrote {args.out}")
    return 0


def cmd_persist(args):
    from . import persistence  # here, not at module level: `ripsaw gen` never needs it

    matrix = read_sparse(args.input)
    if args.export_only:
        print(f"{args.input} is ready for an external persistence engine; "
              "no diagram written")
        return 0
    if args.out is None:
        raise InputError("--out is required unless --export-only is given")
    if args.dim < 0:
        raise InputError(f"--dim must be at least 0, got {args.dim}")
    if not persistence.is_prime(args.field):
        raise InputError(f"--field must be a prime, got {args.field}")
    filtration = persistence.build_filtration(matrix, dim_cap=args.dim + 1)
    diag = persistence.reduce(filtration, args.field)
    meta = {"profile": matrix.profile.as_meta(), "config": _config(args)}
    persistence.dump_diagram(args.out, diag, meta=meta)
    print(f"entries: {len(diag.entries)}")
    print(f"wrote {args.out}")
    return 0


def cmd_plot(args):
    from . import persistence, svgplot

    diag, meta = persistence.load_diagram(args.input)
    profile = None
    if meta.get("profile"):
        profile = PrecisionProfile.from_meta(meta["profile"])
    else:
        print("warning: no profile metadata; plotting plain dots", file=sys.stderr)
    overlay = None
    if args.overlay_eps0 is not None or args.overlay_eps1 is not None:
        if profile is None:
            raise InputError("overlay requires profile metadata in the diagram")
        overlay = dataclasses.replace(profile, eps0=args.overlay_eps0 or 0.0,
                                      eps1=args.overlay_eps1 or 0.0)
    text = svgplot.render_svg(diag, profile, log_axes=args.log_plot, clip=args.clip,
                              overlay=overlay, config=_config(args))
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args):
    from . import diagram, persistence

    full_diag, _meta = persistence.load_diagram(args.full)
    sparse_diag, sparse_meta = persistence.load_diagram(args.sparse)
    if full_diag.field_char != sparse_diag.field_char:
        raise InputError(
            f"field characteristics differ: {full_diag.field_char} vs "
            f"{sparse_diag.field_char}")
    if not sparse_meta.get("profile"):
        raise InputError("sparse diagram carries no profile metadata")
    profile = PrecisionProfile.from_meta(sparse_meta["profile"])
    report = diagram.verify_interleaving(full_diag, sparse_diag, profile)
    print(report.summary())
    if report.passed:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def cmd_gen(args):
    if args.dataset == "circle":
        # one angle per line; feed back through --format circle for the
        # geodesic metric
        points = [(a,) for a in generators.circle_sample(args.n)]
    elif args.dataset == "solenoid":
        points = generators.solenoid_sample(generators.SolenoidParams(
            n=args.n, seed=args.seed, iterations=args.iterations))
    elif args.dataset == "cloud":
        points = generators.random_cloud(args.n, args.dim, args.seed)
    else:
        raise InputError(f"unknown dataset {args.dataset!r}")
    metric.write_points_csv(args.out, points)
    print(f"wrote {args.out} ({len(points)} points)")
    return 0


def _parser():
    ap = argparse.ArgumentParser(
        prog="ripsaw",
        description="Sparsify Vietoris-Rips filtrations via contraction trees "
                    "and compute/verify approximate persistence diagrams.")
    sub = ap.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True)
    source.add_argument("--format", choices=["points", "circle", "lower-distance"],
                        default="points")

    tree = sub.add_parser("tree", parents=[source],
                          help="build and tighten a contraction tree")
    tree.add_argument("--out", required=True)
    tree.set_defaults(func=cmd_tree)

    spa = sub.add_parser("sparsify", parents=[source],
                         help="emit the sparse length matrix")
    spa.add_argument("--tree", required=True)
    spa.add_argument("--eps1", type=float, default=0.0)
    spa.add_argument("--keep", default="all",
                     help='number of points to retain, or "all"')
    spa.add_argument("--out", required=True)
    spa.set_defaults(func=cmd_sparsify)

    per = sub.add_parser("persist", help="compute the persistence diagram")
    per.add_argument("--input", required=True, help="sparse 'i j d' file")
    per.add_argument("--dim", type=int, default=1,
                     help="largest homology dimension to report")
    per.add_argument("--field", type=int, default=2)
    per.add_argument("--out", default=None)
    per.add_argument("--export-only", action="store_true",
                     help="stop after validating the sparse matrix file")
    per.set_defaults(func=cmd_persist)

    plo = sub.add_parser("plot", help="render a diagram (with error boxes) to SVG")
    plo.add_argument("--input", required=True, help="diagram JSON")
    plo.add_argument("--out", required=True)
    plo.add_argument("--log-plot", action="store_true")
    plo.add_argument("--clip", type=float, default=None)
    plo.add_argument("--overlay-eps0", type=float, default=None)
    plo.add_argument("--overlay-eps1", type=float, default=None)
    plo.set_defaults(func=cmd_plot)

    ver = sub.add_parser("verify", help="check a sparse diagram against an exact one")
    ver.add_argument("full", help="exact diagram JSON")
    ver.add_argument("sparse", help="sparsified diagram JSON (with profile)")
    ver.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="write a sample dataset as point CSV")
    gen.add_argument("dataset", choices=["circle", "solenoid", "cloud"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--iterations", type=int, default=12)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        print("hint: raise RIPSAW_MAX_SIMPLICES, lower --dim or --keep, or use "
              "persist --export-only and an external engine", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
