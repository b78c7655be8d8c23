"""Command-line front end.

Subcommands::

    gen-random   write a random valid DAG PC
    gen-hard     write the hard instance (optionally negation-stripped)
    transform    run one pass or the whole pipeline, print its report
    check        print the validity report; exit 0 iff decomposable+smooth
    equiv        compare two circuits exactly or by randomized testing
    stats        print structural statistics
    export-dot   write a DOT rendering of the circuit graph

All commands are deterministic given their flags; module errors exit
with status 1 and a one-line diagnostic, usage errors with status 2.
"""

from __future__ import annotations

import argparse
import sys

from . import transforms
from .errors import PCError
from .instances import GenParams, build_hard_instance, random_valid_pc, strip_negations
from .poly import extract_polynomial, poly_equal, random_equivalence
from .serialize import export_dot, read_circuit, write_circuit


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_gen_random(args: argparse.Namespace) -> int:
    params = GenParams(n=args.n, seed=args.seed, reuse_prob=args.reuse,
                       max_fanout=args.max_fanout)
    write_circuit(random_valid_pc(params), args.out)
    return 0


def _cmd_gen_hard(args: argparse.Namespace) -> int:
    c = build_hard_instance(args.k)
    if args.strip_negations:
        c = strip_negations(c)
    write_circuit(c, args.out)
    return 0


_PASSES = ("binarize", "normalize", "reduce-depth", "duplicate", "treeify")


def _cmd_transform(args: argparse.Namespace) -> int:
    if args.normalize_output and args.pass_name != "treeify":
        print("error: --normalize-output only applies to the treeify pass", file=sys.stderr)
        return 2
    c = read_circuit(args.in_path)
    constant = None
    if args.pass_name == "treeify":
        out, report = transforms.treeify(c, normalize_output=args.normalize_output)
    else:
        if args.pass_name == "binarize":
            out = transforms.binarize(c)
        elif args.pass_name == "normalize":
            out, constant = transforms.normalize(c)
        elif args.pass_name == "reduce-depth":
            out = transforms.reduce_depth(c)
        else:
            out = transforms.duplicate_to_tree(c)
        stages = (transforms.stage_metrics("input", c),
                  transforms.stage_metrics(args.pass_name.replace("-", "_"), out))
        report = transforms.PipelineReport(stages, constant)
    write_circuit(out, args.out)
    print(report.to_text(), end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = read_circuit(args.in_path).validity()
    for flag in ("decomposable", "smooth", "homogeneous", "normalized", "monotone"):
        print(f"{flag}={_bool_text(getattr(report, flag))}")
    for flag, (node, why) in sorted(report.witnesses.items()):
        print(f"witness.{flag}=node {node}: {why}")
    return 0 if report.ok else 1


def _cmd_equiv(args: argparse.Namespace) -> int:
    a = read_circuit(args.a)
    b = read_circuit(args.b)
    if args.exact:
        equal = poly_equal(extract_polynomial(a), extract_polynomial(b), tol=args.tol)
    else:
        equal = random_equivalence(a, b, trials=args.trials, seed=args.seed, tol=args.tol)
    print("EQUAL" if equal else "UNEQUAL")
    return 0 if equal else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    c = read_circuit(args.in_path)
    if args.csv:
        print(transforms.PipelineReport((transforms.stage_metrics("circuit", c),)).to_csv(), end="")
        return 0
    s = c.stats()
    print(f"nodes={s.num_nodes}")
    print(f"edges={s.num_edges}")
    print(f"depth={s.depth}")
    print(f"max_fanout={s.max_fanout}")
    print(f"is_tree={_bool_text(s.is_tree)}")
    print(f"degree_of_root={s.degree_of_root}")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    text = export_dot(read_circuit(args.in_path))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pctree",
                                     description="probabilistic-circuit compilation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-random", help="generate a random valid DAG PC")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reuse", type=float, default=0.0, help="sub-circuit reuse probability")
    p.add_argument("--max-fanout", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("gen-hard", help="generate the hard instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strip-negations", action="store_true",
                   help="write the negation-free monotone formula instead")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_hard)

    p = sub.add_parser("transform", help="run one pass or the whole pipeline")
    p.add_argument("--pass", dest="pass_name", required=True, choices=_PASSES)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize-output", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check", help="print the validity report")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("equiv", help="decide whether two circuits agree")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="compare exact expansions instead of sampling")
    mode.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("stats", help="print structural statistics")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export-dot", help="write a DOT rendering")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PCError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
