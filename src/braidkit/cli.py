"""Command-line front end.

Results go to stdout (JSON with --json, text otherwise); diagnostics go
to stderr.  Exit codes: 0 success, 1 claim or verification failure,
2 invalid input, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import claims as claims_mod
from . import fpgroup, homsearch, nilq, permgrp, smallgrp, zlinalg
from .errors import BoundExceededError, InvalidInputError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_BOUND = 3


def _bound_override(default: int) -> int:
    raw = os.environ.get("BRAIDKIT_BOUND")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"BRAIDKIT_BOUND={raw!r} is not an integer") from None


def _add_presentation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--surface",
        choices=sorted(claims_mod._FAMILIES),
        help="presentation family",
    )
    parser.add_argument("--genus", type=int, default=0)
    parser.add_argument("--strands", type=int, default=1)
    parser.add_argument(
        "--presentation",
        metavar="PATH",
        help="JSON file with a custom presentation (overrides --surface)",
    )


def _read_json(option: str, value: str, *, inline: bool = False):
    """Decode the JSON an option gives, as a file path or (``inline``) as
    the text itself; undecodable input is invalid input."""
    try:
        if not inline:
            with open(value, "r", encoding="utf-8") as handle:
                value = handle.read()
        return json.loads(value)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{option}: not UTF-8 JSON: {exc}") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise InvalidInputError(f"{option}: {exc}") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise InvalidInputError(f"{option}: JSON nested too deeply") from None


def _presentation_from_args(args) -> fpgroup.Presentation:
    if args.presentation:
        return fpgroup.Presentation.from_json(_read_json("--presentation", args.presentation))
    if not args.surface:
        raise InvalidInputError("give --surface or --presentation")
    return claims_mod.resolve_presentation(
        {"surface": args.surface, "genus": args.genus, "strands": args.strands}
    )


def _emit(args, data, text: str | None = None) -> None:
    if args.json:
        print(json.dumps(data))
    else:
        print(text if text is not None else json.dumps(data, indent=2))


def _parse_perms(tokens, degree):
    """Parse cycle strings; returns (permutations, effective degree)."""
    if not tokens:
        raise InvalidInputError("no permutations given")
    if not degree:
        # infer a common degree from the largest point in any cycle
        degree = max(
            (p.degree for p in (permgrp.parse_cycles(tok) for tok in tokens)),
            default=1,
        )
    return [permgrp.parse_cycles(tok, degree) for tok in tokens], degree


def _cmd_present(args) -> int:
    p = _presentation_from_args(args)
    text = "generators: " + " ".join(p.generator_names) + "\n"
    text += "\n".join(
        "relator: " + " ".join(str(x) for x in r.letters) for r in p.relators
    )
    _emit(args, p.to_json(), text)
    return EXIT_OK


def _cmd_abelianize(args) -> int:
    group = zlinalg.abelianization(_presentation_from_args(args))
    _emit(args, group.to_json(), str(group))
    return EXIT_OK


def _cmd_lcs(args) -> int:
    group = nilq.lcs_layer(
        _presentation_from_args(args), args.layer, _bound_override(nilq.DEFAULT_LCS_BOUND)
    )
    _emit(args, group.to_json(), str(group))
    return EXIT_OK


def _cmd_epi(args) -> int:
    result = zlinalg.admits_epimorphism(
        claims_mod.resolve_group(_read_json("--from", args.source, inline=True)),
        claims_mod.resolve_group(_read_json("--to", args.target, inline=True)),
    )
    _emit(args, {"admits": result}, "yes" if result else "no")
    return EXIT_OK


def _cmd_homsearch(args) -> int:
    if args.threads < 1:
        raise InvalidInputError(f"--threads must be >= 1, got {args.threads}")
    if args.representatives < 0:
        raise InvalidInputError(f"--representatives must be >= 0, got {args.representatives}")
    p = _presentation_from_args(args)
    result = homsearch.enumerate_homs(
        p,
        args.target_sym,
        predicate=args.filter,
        max_representatives=args.representatives,
        search_bound=_bound_override(homsearch.DEFAULT_SEARCH_BOUND),
        workers=args.threads,
    )
    data = result.to_json(include_representatives=args.representatives > 0)
    text = f"count: {result.count}"
    for rep in result.representatives:
        text += "\n" + json.dumps(rep.to_json())
    _emit(args, data, text)
    return EXIT_OK


def _cmd_verify_hom(args) -> int:
    p = _presentation_from_args(args)
    assignment = homsearch.GeneratorAssignment.from_json(
        p, _read_json("--assignment", args.assignment)
    )
    failing = homsearch.verify_hom(p, assignment)
    if failing is None:
        _emit(args, {"ok": True}, "ok")
        return EXIT_OK
    _emit(args, {"ok": False, "failing_relator": failing}, f"failing relator: {failing}")
    return EXIT_FAILURE


def _cmd_perm(args) -> int:
    degree = args.degree
    if args.action == "compose":
        if len(args.perms) != 2:
            raise InvalidInputError("compose takes exactly two permutations")
        (p, q), _ = _parse_perms(args.perms[:2], degree)
        _emit(args, {"result": (p * q).cycle_string()}, (p * q).cycle_string())
    elif args.action == "cycle-type":
        if len(args.perms) != 1:
            raise InvalidInputError("cycle-type takes exactly one permutation")
        (p,), _ = _parse_perms(args.perms[:1], degree)
        t = permgrp.cycle_type(p)
        _emit(args, {"cycle_type": t.lengths()}, str(t))
    elif args.action == "orbits":
        perms, m = _parse_perms(args.perms, degree)
        parts = permgrp.orbits(perms, m)
        _emit(args, {"orbits": [list(o) for o in parts]}, " ".join(str(list(o)) for o in parts))
    elif args.action == "primitive":
        perms, m = _parse_perms(args.perms, degree)
        ok, witness = permgrp.is_primitive(perms, m)
        data = {"primitive": ok, "witness": list(witness) if witness else None}
        _emit(args, data, f"primitive: {ok}" + (f" witness: {list(witness)}" if witness else ""))
    elif args.action == "closure":
        bound = _bound_override(permgrp.DEFAULT_CLOSURE_BOUND)
        perms, _ = _parse_perms(args.perms, degree)
        group = permgrp.closure(perms, bound)
        data = {"order": len(group)}
        if args.json:  # the text prints the order alone
            data["elements"] = [p.cycle_string() for p in group]
        _emit(args, data, f"order: {len(group)}")
    elif args.action == "centralizer-order":
        t = permgrp.CycleType.from_lengths(args.cycle_lengths, degree or None)
        _emit(args, {"order": permgrp.centralizer_order(t)}, str(permgrp.centralizer_order(t)))
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown action {args.action}")
    return EXIT_OK


def _cmd_smallgrp(args) -> int:
    group = smallgrp.NAMED_GROUPS[args.action](args.n)
    if args.scan_dihedral or args.order is not None or args.min_order is not None:
        subs = smallgrp.subgroup_scan(
            group,
            order=args.order,
            min_order=args.min_order,
            dihedral=True if args.scan_dihedral else None,
        )
        data = {"matches": len(subs), "orders": [s.order for s in subs]}
        _emit(args, data, f"matches: {len(subs)}")
    else:
        data = {"order": group.order}
        if args.json:  # the text prints the order alone
            data["dihedral"] = smallgrp.is_dihedral(group)
            if args.elements:
                data["elements"] = [p.to_json() for p in group.elements]
        _emit(args, data, f"order: {group.order}")
    return EXIT_OK


def _cmd_klein_scan(args) -> int:
    result = smallgrp.klein_relation_scan(args.radius)
    data = {"nontrivial_solutions": len(result.nontrivial_solutions)}
    _emit(args, data, f"nontrivial solutions: {len(result.nontrivial_solutions)}")
    return EXIT_OK


def _cmd_claims(args) -> int:
    report = claims_mod.run_corpus(args.corpus)
    _emit(args, report.to_json(), report.table())
    return EXIT_OK if report.passed else EXIT_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only parses
    with it, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="braidkit",
        description="surface braid group presentations, lower central series, and permutation representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("present", help="emit a presentation")
    _add_presentation_args(p)
    common(p)
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("abelianize", help="abelianisation of a presentation")
    _add_presentation_args(p)
    common(p)
    p.set_defaults(func=_cmd_abelianize)

    p = sub.add_parser("lcs", help="lower central series layer")
    _add_presentation_args(p)
    p.add_argument("--layer", type=int, required=True, choices=(1, 2, 3))
    common(p)
    p.set_defaults(func=_cmd_lcs)

    p = sub.add_parser("epi", help="does an abelian surjection exist")
    p.add_argument("--from", dest="source", required=True, metavar="JSON")
    p.add_argument("--to", dest="target", required=True, metavar="JSON")
    common(p)
    p.set_defaults(func=_cmd_epi)

    p = sub.add_parser("homsearch", help="census of homomorphisms into S_m")
    _add_presentation_args(p)
    p.add_argument("--target-sym", type=int, required=True, metavar="M")
    p.add_argument("--filter", default="all", choices=sorted(homsearch.PREDICATES))
    p.add_argument("--representatives", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_homsearch)

    p = sub.add_parser("verify-hom", help="check an assignment against a presentation")
    _add_presentation_args(p)
    p.add_argument("--assignment", required=True, metavar="PATH")
    common(p)
    p.set_defaults(func=_cmd_verify_hom)

    p = sub.add_parser("perm", help="permutation utilities")
    p.add_argument(
        "action",
        choices=["compose", "cycle-type", "orbits", "primitive", "closure", "centralizer-order"],
    )
    p.add_argument("perms", nargs="*", help="permutations in cycle notation")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--cycle-lengths", type=int, nargs="*", default=[])
    common(p)
    p.set_defaults(func=_cmd_perm)

    p = sub.add_parser("smallgrp", help="canned finite groups and subgroup scans")
    p.add_argument("action", choices=list(smallgrp.NAMED_GROUPS))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--min-order", type=int, default=None)
    p.add_argument("--scan-dihedral", action="store_true")
    p.add_argument("--elements", action="store_true", help="include the element list")
    common(p)
    p.set_defaults(func=_cmd_smallgrp)

    p = sub.add_parser("klein-scan", help="scan the Klein-bottle relation over a window")
    p.add_argument("--radius", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_klein_scan)

    p = sub.add_parser("claims", help="run a claims corpus")
    claims_sub = p.add_subparsers(dest="claims_command", required=True)
    run_p = claims_sub.add_parser("run")
    run_p.add_argument("corpus", metavar="PATH")
    common(run_p)
    run_p.set_defaults(func=_cmd_claims)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the invalid-input code
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
