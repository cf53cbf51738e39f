"""Command line surface: validate, list-builtins, classify, oracle,
identities, crosscheck."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .classify import classify, explain
from .errors import AlgebraError
from .fileio import load_structure
from .groupring import GroupRing, format_element
from .groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group
from .harness import (CatalogEntry, catalog_from_dir, crosscheck,
                      default_catalog, emit_report, has_disagreement,
                      report_lines, resolve_group, resolve_ring)
from .identities import DEFAULT_SAMPLES, run_identity_suite, suite_passed
from .nilpotency import spanning_set, vanishes_left_normed
from .rings import BUILTIN_RING_NAMES, builtin_ring


def _cmd_validate(args) -> int:
    obj = load_structure(args.file)
    if isinstance(obj, FiniteGroup):
        kind = "abelian" if obj.is_abelian else "non-abelian"
        print(f"group {obj.name}: order {obj.order}, {kind}, valid")
    else:
        kind = "commutative" if obj.is_commutative() else "non-commutative"
        print(f"ring {obj.name}: order {obj.order}, characteristic "
              f"{obj.characteristic()}, {kind}, valid")
    return 0


def _cmd_list_builtins(args) -> int:
    print("rings:")
    for name in BUILTIN_RING_NAMES:
        ring = builtin_ring(name)
        print(f"  {name:6s} order {ring.order:3d}  char {ring.characteristic()}")
    print("groups:")
    for name in BUILTIN_GROUP_NAMES:
        group = builtin_group(name)
        kind = "abelian" if group.is_abelian else "non-abelian"
        print(f"  {name:6s} order {group.order:3d}  {kind}")
    return 0


def _cmd_classify(args) -> int:
    ring = resolve_ring(args.ring)
    group = resolve_group(args.group)
    print(explain(classify(ring, group)))
    return 0


def _cmd_oracle(args) -> int:
    ring = resolve_ring(args.ring)
    group = resolve_group(args.group)
    rg = GroupRing(ring, group)
    span = spanning_set(rg)
    print(f"context {rg.name}: spanning set of {len(span)} monomials")
    result = vanishes_left_normed(span, args.max_index)
    if result.index is not None:
        print(f"minimal Jordan index: {result.index}")
        return 0
    print(f"not Jordan nilpotent within bound {args.max_index}")
    parts = " , ".join(format_element(m) for m in result.witness)
    print(f"degree-{args.max_index} counterexample (monomials): {parts}")
    return 0


def _cmd_identities(args) -> int:
    ring = resolve_ring(args.ring)
    group = resolve_group(args.group)
    rg = GroupRing(ring, group)
    checks = run_identity_suite(rg, samples=args.samples, seed=args.seed)
    width = max(len(c.name) for c in checks)
    for c in checks:
        mark = "ok" if c.ok else f"FAIL ({c.failures} bad)"
        print(f"{c.name:<{width}s}  {c.mode:<10s} {c.tuples:>8d} tuples "
              f"{c.ms:>8.1f} ms  {mark}")
    if suite_passed(checks):
        print(f"all {len(checks)} identity checks passed on {rg.name}")
        return 0
    print(f"identity FAILURES on {rg.name}", file=sys.stderr)
    return 1


def _cmd_crosscheck(args) -> int:
    if args.catalog:
        entries = catalog_from_dir(args.catalog)
    else:
        entries = default_catalog()

    def complain(entry: CatalogEntry, exc: Exception) -> None:
        print(f"error: {entry.ring_name} x {entry.group_name}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)

    records = crosscheck(entries, max_n=args.max_index, on_error=complain)
    for line in report_lines(records):
        print(line)
    if args.report:
        emit_report(records, args.report)
    return 1 if has_disagreement(records) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrl",
        description="Group-ring Jordan nilpotency: classify, search, cross-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a ring or group file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("list-builtins", help="show built-in rings and groups")
    p.set_defaults(func=_cmd_list_builtins)

    def instance_args(p):
        p.add_argument("--ring", required=True,
                       help="builtin:<name> or path to a .ring file")
        p.add_argument("--group", required=True,
                       help="builtin:<name> or path to a .group file")

    p = sub.add_parser("classify", help="structural index prediction")
    instance_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("oracle", help="search for the minimal Jordan index")
    instance_args(p)
    p.add_argument("--max-index", type=int, default=6)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("identities", help="run the identity suite on one instance")
    instance_args(p)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("crosscheck", help="classifier vs oracle over a catalog")
    p.add_argument("--catalog", help="directory of .ring/.group files")
    p.add_argument("--max-index", type=int, default=4)
    p.add_argument("--report", help="write the TSV report here as well")
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
