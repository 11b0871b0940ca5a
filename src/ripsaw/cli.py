"""Pipeline driver: tree building, sparsification, persistence, plotting,
and interleaving verification as subcommands with file interchange.

Exit codes: 0 success, 1 verification failure, 2 input error (an unreadable
file too), 3 resource guard.  Every output embeds its subcommand's parsed
arguments as a JSON "config" object in its metadata (``_config``; a ``.tree``
adds the input's digest), and reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from . import generators
from .errors import InputError, ResourceGuardError


def _sparsify_stage(name):
    """A caller of ``ripsaw.sparsify.<name>`` that imports the module on its
    first call, so that `ripsaw gen` and `ripsaw tree` never load it."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(".sparsify", __package__), name)(*args, **kwargs)
    return call


# Module attributes, as bench/spans.py wraps them (CLI_ALIASES).
make_profile = _sparsify_stage("make_profile")
sparsify_matrix = _sparsify_stage("sparsify")
read_sparse = _sparsify_stage("read_sparse")
write_sparse = _sparsify_stage("write_sparse")


def _quartiles(values):
    """Min, quartiles and max of a nonempty list."""
    vals = sorted(values)
    return [vals[0], vals[len(vals) // 4], vals[len(vals) // 2],
            vals[(3 * len(vals)) // 4], vals[-1]]


def _config(args):
    """The parsed arguments of a subcommand, as every output records them."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_tree(args):
    from . import covertree, metric  # here, not at module level: `ripsaw gen` never needs them

    oracle, digest = metric.load_input(args.input, args.format)
    tree = covertree.build(oracle)
    ctree = covertree.tighten(tree, oracle)
    covertree.write_tree(args.out, ctree, digest, _config(args))
    print(f"points: {ctree.size}")
    print(f"R: {ctree.max_reach!r}")
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
    from . import covertree

    try:
        keep = None if args.keep == "all" else int(args.keep)
    except ValueError:
        raise InputError(f'--keep must be an integer or "all", got {args.keep!r}') from None
    ctree, oracle = covertree.read_tree(args.tree, args.input)
    profile = make_profile(ctree, keep=keep, eps1=args.eps1)
    matrix = sparsify_matrix(ctree, oracle, profile)
    write_sparse(args.out, matrix, _config(args))
    full = profile.N * (profile.N - 1) // 2
    ratio = len(matrix.edges) / full if full else 0.0
    print(f"kept points: {profile.N} of {profile.n}")
    print(f"eps0: {profile.eps0!r}")
    print(f"edges: {len(matrix.edges)} of {full} (ratio {ratio:.4f})")
    print(f"wrote {args.out}")
    return 0


def cmd_persist(args):
    from . import persistence  # here, not at module level: `ripsaw gen` never needs it

    matrix = read_sparse(args.input)
    if args.dim < 0:
        raise InputError(f"--dim must be at least 0, got {args.dim}")
    if not persistence.is_prime(args.field):
        raise InputError(f"--field must be a prime, got {args.field}")
    filtration = persistence.build_filtration(matrix, dim_cap=args.dim + 1)
    diag = persistence.reduce(filtration, args.field)
    persistence.dump_diagram(args.out, diag, matrix.profile, _config(args))
    print(f"entries: {len(diag.entries)}")
    print(f"wrote {args.out}")
    return 0


def cmd_plot(args):
    from . import persistence, svgplot

    diag, profile = persistence.load_diagram(args.input)
    text = svgplot.render_svg(diag, profile, _config(args), log_axes=args.log_plot)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args):
    from . import diagram, persistence

    full_diag, full_profile = persistence.load_diagram(args.full)
    sparse_diag, profile = persistence.load_diagram(args.sparse)
    # Exact and sparse diagrams of one input share its tree, so n and R.
    if (full_profile.n, full_profile.R) != (profile.n, profile.R):
        raise InputError(f"{args.full} and {args.sparse} are diagrams of different inputs "
                         f"(n {full_profile.n} and {profile.n}, "
                         f"R {full_profile.R!r} and {profile.R!r})")
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
        points = generators.solenoid_sample(args.n, args.seed)
    else:  # "cloud", the last of the parser's choices
        points = generators.random_cloud(args.n, args.dim, args.seed)
    generators.write_points_csv(args.out, points)
    print(f"wrote {args.out} ({len(points)} points)")
    return 0


# subcommand: (help line, handler, its arguments as (name, add_argument keywords))
_COMMANDS = {
    "tree": ("build and tighten a contraction tree", cmd_tree, [
        ("--input", dict(required=True)),
        ("--format", dict(choices=["points", "circle", "lower-distance"], default="points")),
        ("--out", dict(required=True))]),
    "sparsify": ("emit the sparse length matrix", cmd_sparsify, [
        ("--input", dict(required=True, help="read under the format its tree records")),
        ("--tree", dict(required=True)),
        ("--eps1", dict(type=float, default=0.0)),
        ("--keep", dict(default="all", help='number of points to retain, or "all"')),
        ("--out", dict(required=True))]),
    "persist": ("compute the persistence diagram", cmd_persist, [
        ("--input", dict(required=True, help="sparse 'i j d' file")),
        ("--dim", dict(type=int, default=1, help="largest homology dimension to report")),
        ("--field", dict(type=int, default=2)),
        ("--out", dict(required=True))]),
    "plot": ("render a diagram (with error boxes) to SVG", cmd_plot, [
        ("--input", dict(required=True, help="diagram JSON")),
        ("--out", dict(required=True)),
        ("--log-plot", dict(action="store_true"))]),
    "verify": ("check a sparse diagram against an exact one", cmd_verify, [
        ("full", dict(help="exact diagram JSON")),
        ("sparse", dict(help="sparsified diagram JSON (with profile)"))]),
    "gen": ("write a sample dataset as point CSV", cmd_gen, [
        ("dataset", dict(choices=["circle", "solenoid", "cloud"])),
        ("--n", dict(type=int, required=True)),
        ("--dim", dict(type=int, default=2)),
        ("--seed", dict(type=int, default=0)),
        ("--out", dict(required=True))]),
}


def _parser(argv):
    """The parser for ``argv``: every subcommand is listed, and only the one
    ``argv`` names gets its arguments."""
    ap = argparse.ArgumentParser(
        prog="ripsaw",
        description="Sparsify Vietoris-Rips filtrations via contraction trees "
                    "and compute/verify approximate persistence diagrams.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, func, arguments) in _COMMANDS.items():
        parser = sub.add_parser(name, help=help_line)
        if argv[:1] == [name]:
            for arg, keywords in arguments:
                parser.add_argument(arg, **keywords)
            parser.set_defaults(func=func)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        print("hint: raise RIPSAW_MAX_SIMPLICES, lower --dim or --keep, or hand "
              "the .sparse file to an external engine", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
