r"""Command-line front end.

    dmbl classify "x /\ ~x = y \/ ~y"
    dmbl check --algebra DM4 "x = x /\ (x \/ y)"
    dmbl sum --system system.json --out algebra.json
    dmbl decompose --in algebra.json
    dmbl catalog [--algebra U] [--format json]
    dmbl lattice [--format text|json|dot]
    dmbl verify [--skip-jonsson] [--format json]

Exit codes: 0 success (for `check`, regardless of the verdict), 1 parse or
I/O error, 2 validation failure, 3 verification report not clean.  Output is
deterministic for identical inputs.  `check` reports the least
counterexample, as `finalg.satisfies` finds it; an identity whose
assignments times program steps exceed `finalg.SATISFIES_COST_LIMIT` is a
validation failure, refused before any evaluation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import catalog_entries, get_algebra, known_algebra_names
from .decomp import decompose
from .finalg import (
    FiniteAlgebra,
    ValidationError,
    algebra_to_json,
    load_algebra,
    satisfies,
    save_algebra,
)
from .sums import dpl_sum, load_system, save_system, system_to_json
from .terms import IdentityClass, ParseError, classify, parse_identity
from .varieties import build_lattice, verify_theorems

_CLASS_ORDER = (
    IdentityClass.REGULAR,
    IdentityClass.BALANCED_REGULAR,
    IdentityClass.BIPOLAR,
    IdentityClass.BIPOLARLY_BALANCED,
    IdentityClass.REGULAR_BIPOLARLY_BALANCED,
)


def _emit(data) -> None:
    print(json.dumps(data, indent=2))


def _algebra_arg(value: str) -> FiniteAlgebra:
    """A catalog/auxiliary name, or a path to an algebra JSON file."""
    try:
        return get_algebra(value)
    except ValidationError:
        if os.path.sep in value or value.endswith(".json") or os.path.exists(value):
            return load_algebra(value)
        raise


def _cmd_classify(args) -> int:
    e = parse_identity(args.identity)
    names = [str(c) for c in _CLASS_ORDER if c in classify(e)]
    if args.format == "json":
        _emit({"identity": str(e), "classes": names})
    else:
        print(", ".join(names) if names else "none")
    return 0


def _cmd_check(args) -> int:
    algebra = _algebra_arg(args.algebra)
    e = parse_identity(args.identity)
    result = satisfies(algebra, e)
    if args.format == "json":
        _emit(
            {
                "algebra": algebra.name,
                "identity": str(e),
                "holds": bool(result),
                "counterexample": result.counterexample,
            }
        )
    elif result:
        print("true")
    else:
        where = ", ".join(f"{k}={v}" for k, v in sorted(result.counterexample.items()))
        print(f"false ({where})")
    return 0


def _cmd_sum(args) -> int:
    s = dpl_sum(load_system(args.system))
    if args.out:
        save_algebra(s, args.out)
        print(f"wrote {s.name} ({s.size} elements) to {args.out}")
    else:
        _emit(algebra_to_json(s))
    return 0


def _cmd_decompose(args) -> int:
    algebra = _algebra_arg(args.infile)
    system = decompose(algebra)
    if args.out:
        save_system(system, args.out)
        print(
            f"wrote system with {system.index.size} fibres over "
            f"{system.index.name} to {args.out}"
        )
    else:
        _emit(system_to_json(system))
    return 0


def _cmd_catalog(args) -> int:
    if args.algebra:
        algebra = get_algebra(args.algebra)
        if args.format == "json":
            _emit(algebra_to_json(algebra))
        else:
            print(f"{algebra.name} ({algebra.size} elements)")
            print("elements:", " ".join(algebra.elements))
            for label, table in (("meet", algebra.meet), ("join", algebra.join)):
                print(f"{label}:")
                for row in table:
                    print("  " + " ".join(algebra.elements[v] for v in row))
            if algebra.neg is not None:
                print("neg:")
                print("  " + " ".join(algebra.elements[v] for v in algebra.neg))
        return 0
    entries = catalog_entries()
    auxiliary = [
        get_algebra(name)
        for name in known_algebra_names()
        if name not in {e.name for e in entries}
    ]
    if args.format == "json":
        _emit(
            {
                "entries": [
                    {
                        "index": e.index,
                        "name": e.name,
                        "size": e.algebra.size,
                        "classes": list(e.classes),
                        "algebra": algebra_to_json(e.algebra),
                    }
                    for e in entries
                ],
                "auxiliary": [algebra_to_json(a) for a in auxiliary],
            }
        )
    else:
        for e in entries:
            print(
                f"{e.index:2d}  {e.name:<5s} {e.algebra.size:2d} elements  "
                f"[{', '.join(e.classes)}]"
            )
        for a in auxiliary:
            print(f" -  {a.name:<5s} {a.size:2d} elements  [auxiliary]")
    return 0


def _cmd_lattice(args) -> int:
    lattice = build_lattice()
    if args.format == "json":
        _emit(lattice.to_json())
    elif args.format == "dot":
        print(lattice.to_dot(), end="")
    else:
        print(f"{len(lattice.nodes)} varieties:")
        for v in lattice.nodes:
            gens = ",".join(str(i) for i in sorted(v.generators))
            print(f"  {v.name:<14s} generated by {{{gens}}}")
        print(f"{len(lattice.covers)} covering pairs:")
        for e in lattice.covers:
            print(
                f"  {e.lower} < {e.upper}  [{e.identity}]  fails in {e.fails_in}"
            )
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorems(include_jonsson=not args.skip_jonsson)
    if args.format == "json":
        _emit(report)
    else:
        for c in report["checks"]:
            mark = " ok " if c["ok"] else "FAIL"
            print(f"[{mark}] {c['check']} -- {c['detail']}")
        total = len(report["checks"])
        if report["ok"]:
            print(f"all {total} checks passed")
        else:
            bad = sum(not c["ok"] for c in report["checks"])
            print(f"{bad} of {total} checks failed")
    return 0 if report["ok"] else 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmbl",
        description="Finite De Morgan bisemilattices: identities, sums, "
        "decompositions and the subvariety lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="syntactic classes of an identity")
    p.add_argument("identity")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("check", help="check an identity in a finite algebra")
    p.add_argument("identity")
    p.add_argument(
        "--algebra",
        required=True,
        help="catalog/auxiliary name or algebra JSON file",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("sum", help="assemble the sum of a direct system")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--out", help="write the algebra here instead of stdout")
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("decompose", help="split an algebra into its direct system")
    p.add_argument(
        "--in",
        dest="infile",
        required=True,
        help="algebra JSON file or catalog/auxiliary name",
    )
    p.add_argument("--out", help="write the system here instead of stdout")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("catalog", help="list or export the built-in algebras")
    p.add_argument("--algebra", help="print a single algebra")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("lattice", help="the 23-variety lattice")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("verify", help="re-check the generation results")
    p.add_argument(
        "--skip-jonsson",
        action="store_true",
        help="skip the subdirect-irreducibility search over powers of U",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
