"""Command-line front end.

Results go to stdout (JSON with --json, text otherwise); diagnostics go
to stderr.  Exit codes: 0 success, 1 claim or verification failure,
2 invalid input, 3 resource bound exceeded.

A process loads only the layers its command runs: each ``_cmd_*``
imports the modules it calls, and ``build_parser`` fills in the
arguments of the invoked subcommand alone, so the tables its choices
come from (surface families, hom-search filters, named groups) are
imported only by the commands that take them.  ``present`` loads
``errors``, ``fpgroup`` and ``word`` and nothing else of the library.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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
    from .fpgroup import _FAMILIES

    parser.add_argument(
        "--surface",
        choices=sorted(_FAMILIES),
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


def _presentation_from_args(args):
    from . import fpgroup

    if args.presentation:
        return fpgroup.Presentation.from_json(_read_json("--presentation", args.presentation))
    if not args.surface:
        raise InvalidInputError("give --surface or --presentation")
    return fpgroup.resolve_presentation(
        {"surface": args.surface, "genus": args.genus, "strands": args.strands}
    )


def _emit(args, data, text: str | None = None) -> None:
    if args.json:
        print(json.dumps(data))
    else:
        print(text if text is not None else json.dumps(data, indent=2))


def _parse_perms(tokens, degree):
    """Parse cycle strings; returns (permutations, effective degree)."""
    from . import permgrp

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
    from . import zlinalg

    group = zlinalg.abelianization(_presentation_from_args(args))
    _emit(args, group.to_json(), str(group))
    return EXIT_OK


def _cmd_lcs(args) -> int:
    from . import nilq

    group = nilq.lcs_layer(
        _presentation_from_args(args), args.layer, _bound_override(nilq.DEFAULT_LCS_BOUND)
    )
    _emit(args, group.to_json(), str(group))
    return EXIT_OK


def _cmd_epi(args) -> int:
    from . import nilq, zlinalg

    result = zlinalg.admits_epimorphism(
        nilq.resolve_group(_read_json("--from", args.source, inline=True)),
        nilq.resolve_group(_read_json("--to", args.target, inline=True)),
    )
    _emit(args, {"admits": result}, "yes" if result else "no")
    return EXIT_OK


def _cmd_homsearch(args) -> int:
    from . import homsearch

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
    from . import homsearch

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
    from . import permgrp

    degree = args.degree
    if degree < 0:
        raise InvalidInputError(f"--degree must be >= 0, got {degree}")
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
    from . import smallgrp

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
    from . import smallgrp

    result = smallgrp.klein_relation_scan(args.radius)
    data = {"nontrivial_solutions": len(result.nontrivial_solutions)}
    _emit(args, data, f"nontrivial solutions: {len(result.nontrivial_solutions)}")
    return EXIT_OK


def _cmd_claims(args) -> int:
    from . import claims

    report = claims.run_corpus(args.corpus)
    _emit(args, report.to_json(), report.table())
    return EXIT_OK if report.passed else EXIT_FAILURE


def _lcs_args(p):
    _add_presentation_args(p)
    p.add_argument("--layer", type=int, required=True, choices=(1, 2, 3))


def _epi_args(p):
    p.add_argument("--from", dest="source", required=True, metavar="JSON")
    p.add_argument("--to", dest="target", required=True, metavar="JSON")


def _homsearch_args(p):
    from .homsearch import PREDICATES

    _add_presentation_args(p)
    p.add_argument("--target-sym", type=int, required=True, metavar="M")
    p.add_argument("--filter", default="all", choices=sorted(PREDICATES))
    p.add_argument("--representatives", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)


def _verify_hom_args(p):
    _add_presentation_args(p)
    p.add_argument("--assignment", required=True, metavar="PATH")


def _perm_args(p):
    p.add_argument(
        "action",
        choices=["compose", "cycle-type", "orbits", "primitive", "closure", "centralizer-order"],
    )
    p.add_argument("perms", nargs="*", help="permutations in cycle notation")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--cycle-lengths", type=int, nargs="*", default=[])


def _smallgrp_args(p):
    from .smallgrp import NAMED_GROUPS

    p.add_argument("action", choices=list(NAMED_GROUPS))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--min-order", type=int, default=None)
    p.add_argument("--scan-dihedral", action="store_true")
    p.add_argument("--elements", action="store_true", help="include the element list")


def _klein_scan_args(p):
    p.add_argument("--radius", type=int, required=True)


def _claims_args(p):
    claims_sub = p.add_subparsers(dest="claims_command", required=True)
    run_p = claims_sub.add_parser("run")
    run_p.add_argument("corpus", metavar="PATH")
    return run_p


# subcommand -> (help, argument builder, handler); the builder adds the
# subcommand's own arguments, and returns the parser of a nested command
_SUBCOMMANDS = {
    "present": ("emit a presentation", _add_presentation_args, _cmd_present),
    "abelianize": ("abelianisation of a presentation", _add_presentation_args, _cmd_abelianize),
    "lcs": ("lower central series layer", _lcs_args, _cmd_lcs),
    "epi": ("does an abelian surjection exist", _epi_args, _cmd_epi),
    "homsearch": ("census of homomorphisms into S_m", _homsearch_args, _cmd_homsearch),
    "verify-hom": ("check an assignment against a presentation", _verify_hom_args, _cmd_verify_hom),
    "perm": ("permutation utilities", _perm_args, _cmd_perm),
    "smallgrp": ("canned finite groups and subgroup scans", _smallgrp_args, _cmd_smallgrp),
    "klein-scan": ("scan the Klein-bottle relation over a window", _klein_scan_args, _cmd_klein_scan),
    "claims": ("run a claims corpus", _claims_args, _cmd_claims),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with the arguments of ``command`` alone, built
    once per process and command: ``main`` only parses with it, and
    parsing leaves it unchanged.

    Every subcommand is listed with its help, so the top-level help and
    usage errors read the same whichever command is filled in; a
    subcommand left empty is one that argparse will not run.  argparse
    reads each ``choices`` table as the argument is added, so filling in
    one command is what keeps the other commands' tables unloaded.
    """
    parser = argparse.ArgumentParser(
        prog="braidkit",
        description="surface braid group presentations, lower central series, and permutation representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            leaf = add_args(p) or p
            leaf.add_argument("--json", action="store_true", help="machine-readable output")
            leaf.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse runs the first word that names a subcommand; an unknown
    # word is never a cache key, and fails the same way on any parser
    parser = build_parser(next((word for word in argv if word in _SUBCOMMANDS), None))
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
