"""Machine-readable corpus of quantitative group-theory claims, and a
runner that recomputes each one and diffs it against the recorded value.

A corpus is a multi-document YAML file, one claim per document:

    id: paper.gam3closed.1.g1n3
    description: ...
    command: {op: abelianize, args: {surface: closed-orientable, genus: 1, strands: 3}}
    expect: {free_rank: 2, torsion: [2]}
    anchor: {location: ..., quote: "..."}
    provenance: PAPER

The runner executes every claim (it never stops at the first failure) and
reports pass/fail/error per claim plus summary counts.

A claim's arguments name presentations and groups as the CLI's do:
``resolve_presentation`` (defined in ``fpgroup``, next to the builders)
and ``resolve_group`` (defined in ``nilq``, next to ``lcs_layer``) are
re-exported here.  This module imports every layer, since its operations
use them all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from . import homsearch, nilq, permgrp, smallgrp, zlinalg
from .errors import InvalidInputError, checked, json_field
from .fpgroup import resolve_presentation
from .nilq import resolve_group

__all__ = [
    "ClaimAnchor",
    "ClaimRecord",
    "ClaimOutcome",
    "ClaimReport",
    "load_corpus",
    "run_corpus",
    "run_records",
    "OPS",
    "resolve_presentation",
    "resolve_group",
    "resolve_assignment",
]


# collections nested in one document; the shipped corpus nests 5 deep
MAX_CORPUS_DEPTH = 100


@dataclass(frozen=True)
class ClaimAnchor:
    location: str
    quote: str


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    description: str
    op: str
    args: dict
    expect: Any
    provenance: str
    anchor: ClaimAnchor | None = None
    note: str | None = None


@dataclass(frozen=True)
class ClaimOutcome:
    record: ClaimRecord
    status: str  # "pass" | "fail" | "error"
    actual: Any = None
    message: str = ""


@dataclass
class ClaimReport:
    outcomes: list[ClaimOutcome] = field(default_factory=list)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "error": 0}
        for o in self.outcomes:
            out[o.status] += 1
        return out

    @property
    def passed(self) -> bool:
        c = self.counts
        return c["fail"] == 0 and c["error"] == 0

    def to_json(self) -> dict:
        return {
            "claims": [
                {
                    "id": o.record.id,
                    "status": o.status,
                    "expected": o.record.expect,
                    "actual": o.actual,
                    "message": o.message,
                }
                for o in self.outcomes
            ],
            "summary": {**self.counts, "total": len(self.outcomes)},
        }

    def table(self) -> str:
        lines = []
        width = max((len(o.record.id) for o in self.outcomes), default=2)
        for o in self.outcomes:
            line = f"{o.status.upper():5s}  {o.record.id:<{width}}"
            if o.status == "fail":
                line += f"  expected={o.record.expect!r} actual={o.actual!r}"
            elif o.status == "error":
                line += f"  {o.message}"
            lines.append(line)
        c = self.counts
        lines.append(
            f"{len(self.outcomes)} claims: {c['pass']} passed, "
            f"{c['fail']} failed, {c['error']} errored"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument resolution


# the integer fields a builtin assignment reads from its spec; the others take none
_BUILTIN_FIELDS = {"imprimitive-s8": ("strands",), "wreath-cycle": ("block_count",)}


def resolve_assignment(spec: dict) -> homsearch.GeneratorAssignment:
    if "builtin" in spec:
        name = json_field(spec, "builtin", str, "assignment spec")
        fields = _BUILTIN_FIELDS.get(name, ())
        extra = sorted(set(spec) - {"builtin", *fields})
        if extra and name in homsearch._BUILTIN_ASSIGNMENTS:
            raise InvalidInputError(f"assignment {name!r} takes no field {extra[0]!r}")
        kwargs = {k: json_field(spec, k, int, f"assignment {name!r}") for k in fields if k in spec}
        return homsearch.builtin_assignment(name, **kwargs)
    presentation = resolve_presentation(spec)
    assignment = json_field(spec, "assignment", dict, "assignment spec")
    return homsearch.GeneratorAssignment.from_json(presentation, assignment)


# ---------------------------------------------------------------------------
# operation registry


def _op_abelianize(args: dict):
    return zlinalg.abelianization(resolve_presentation(args)).to_json()


def _op_lcs(args: dict):
    layer = json_field(args, "layer", int, "lcs claim")
    return nilq.lcs_layer(resolve_presentation(args), layer).to_json()


def _op_min_generators(args: dict):
    return zlinalg.min_generators_lower_bound(resolve_presentation(args))


def _op_epi(args: dict):
    return zlinalg.admits_epimorphism(
        resolve_group(args["from"]), resolve_group(args["to"])
    )


def _op_homsearch(args: dict):
    presentation = resolve_presentation(args)
    representatives = json_field(args, "representatives", int, "homsearch claim", 0)
    if representatives < 0:  # as the CLI's --representatives
        raise InvalidInputError(
            f"homsearch claim field 'representatives' must be >= 0, got {representatives}"
        )
    result = homsearch.enumerate_homs(
        presentation,
        json_field(args, "target_sym", int, "homsearch claim"),
        predicate=json_field(args, "filter", str, "homsearch claim", "all"),
        max_representatives=representatives,
    )
    return result.to_json(include_representatives=False)


def _op_verify_hom(args: dict):
    assignment = resolve_assignment(args)
    failing = homsearch.verify_hom(assignment.presentation, assignment)
    return {"ok": True} if failing is None else {"ok": False, "failing_relator": failing}


def _op_classify_hom(args: dict):
    fields = json_field(args, "fields", list, "classify-hom claim", None)
    spec = {k: v for k, v in args.items() if k != "fields"}
    result = classification_with_block(resolve_assignment(spec))
    if fields:
        for k in fields:
            if checked(k, str, "classify-hom claim field name") not in result:
                raise InvalidInputError(
                    f"classify-hom claim has no field {k!r}; choose from {sorted(result)}"
                )
        return {k: result[k] for k in fields}
    return result


def classification_with_block(assignment: homsearch.GeneratorAssignment) -> dict:
    classification, witness = homsearch._classify(assignment.presentation, assignment)
    out = classification.to_json()
    out["block"] = None if witness is None else list(witness)
    return out


def _op_image_order(args: dict):
    spec = {k: v for k, v in args.items() if k != "generator"}
    assignment = resolve_assignment(spec)
    return assignment.image_of(json_field(args, "generator", str, "image-order claim")).order()


def _op_klein_scan(args: dict):
    result = smallgrp.klein_relation_scan(json_field(args, "radius", int, "klein-scan claim"))
    return {"nontrivial_solutions": len(result.nontrivial_solutions)}


def _op_dicyclic_central_quotient(args: dict):
    group = smallgrp.dicyclic(json_field(args, "n", int, "dicyclic-central-quotient claim"))
    involutions = [e for e in group.elements if e.order() == 2]
    quo = smallgrp.quotient(group, involutions)
    return {"order": quo.order, "dihedral": smallgrp.is_dihedral(quo)}


def _op_dihedral_subgroup_count(args: dict):
    name = args["group"]
    build = smallgrp.NAMED_GROUPS.get(name) if isinstance(name, str) else None
    if build is None:
        raise InvalidInputError(f"unknown group {name!r}")
    what = "dihedral-subgroup-count claim"
    group = build(json_field(args, "n", int, what, 4))  # the CLI's default n
    subs = smallgrp.subgroup_scan(
        group, min_order=json_field(args, "min_order", int, what, 4), dihedral=True
    )
    return len(subs)


def _op_symmetric_lcs(args: dict):
    # S_n from a transposition and an n-cycle: the terms are chains, never lists
    n = json_field(args, "n", int, "symmetric-lcs claim")
    gens, order = smallgrp._symmetric_generators(n)
    terms = permgrp._series(gens, n, order)
    orders = [order] + [chain.order() for chain, _ in terms]
    terminal = permgrp._invariants(terms[-1][1], n, orders[-1])
    return {"orders": orders, "terminal_abelianization": terminal.abelianization.to_json()}


def _op_centralizer_order(args: dict):
    lengths = json_field(args, "cycle_lengths", list, "centralizer-order claim")
    t = permgrp.CycleType.from_lengths(
        [checked(k, int, "centralizer-order claim cycle length") for k in lengths],
        json_field(args, "degree", int, "centralizer-order claim", None),
    )
    return permgrp.centralizer_order(t)


OPS: dict[str, Callable[[dict], Any]] = {
    "abelianize": _op_abelianize,
    "lcs": _op_lcs,
    "min-generators-lower-bound": _op_min_generators,
    "epi": _op_epi,
    "homsearch": _op_homsearch,
    "verify-hom": _op_verify_hom,
    "classify-hom": _op_classify_hom,
    "image-order": _op_image_order,
    "klein-scan": _op_klein_scan,
    "dicyclic-central-quotient": _op_dicyclic_central_quotient,
    "dihedral-subgroup-count": _op_dihedral_subgroup_count,
    "symmetric-lcs": _op_symmetric_lcs,
    "centralizer-order": _op_centralizer_order,
}


# ---------------------------------------------------------------------------
# corpus loading and execution


def _parse_record(doc: dict, index: int) -> ClaimRecord:
    if not isinstance(doc, dict):
        raise InvalidInputError(f"claim document {index} is not a mapping")
    name = f"claim {doc.get('id')}"
    try:
        command = checked(doc["command"], dict, f"{name}: command")
        op = command["op"]
        if not isinstance(op, str) or op not in OPS:
            raise InvalidInputError(f"{name}: unknown op {op!r}")
        args = checked(command.get("args") or {}, dict, f"{name}: args")
        anchor = None
        if doc.get("anchor"):
            fields = checked(doc["anchor"], dict, f"{name}: anchor")
            anchor = ClaimAnchor(str(fields.get("location", "")), str(fields.get("quote", "")))
        provenance = str(doc["provenance"])
        if provenance not in ("PAPER", "DERIVED"):
            raise InvalidInputError(f"{name}: provenance must be PAPER or DERIVED")
        if provenance == "PAPER" and (anchor is None or not anchor.quote):
            raise InvalidInputError(f"{name}: PAPER claims need a verbatim anchor quote")
        try:  # the report carries it as JSON; a YAML date or set never matches
            json.dumps(doc["expect"])
        except TypeError as exc:
            raise InvalidInputError(f"{name}: expect is not JSON data: {exc}") from None
        return ClaimRecord(
            id=str(doc["id"]),
            description=str(doc.get("description", "")),
            op=op,
            args=dict(args),
            expect=doc["expect"],
            provenance=provenance,
            anchor=anchor,
            note=doc.get("derived_oracle"),
        )
    except KeyError as exc:
        raise InvalidInputError(
            f"claim document {index}: missing required field {exc}"
        ) from None


def load_corpus(path: str) -> list[ClaimRecord]:
    """Load a YAML corpus; malformed files raise with line information."""
    import yaml  # imported here so that starting the CLI does not pay for it

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"corpus {path} is not UTF-8: {exc}") from None
    # libyaml's safe loader where PyYAML was built with it: same documents
    # and error lines, ten times faster than the pure-Python one
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        # the composer recurses once per nesting level (in C for libyaml),
        # so a deep enough document kills the interpreter; the parser's
        # event stream does not recurse, and bounds the depth first
        depth = 0
        for event in yaml.parse(text, Loader=loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_CORPUS_DEPTH:
                    raise InvalidInputError(
                        f"corpus {path} nests collections more than {MAX_CORPUS_DEPTH} deep"
                        f" at line {event.start_mark.line + 1}"
                    )
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        docs = [d for d in yaml.load_all(text, Loader=loader) if d is not None]
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}" if mark else ""
        raise InvalidInputError(f"malformed corpus {path}{location}: {exc}") from None
    except InvalidInputError:
        raise
    except ValueError as exc:  # a scalar the constructor refuses, e.g. an over-long integer
        raise InvalidInputError(f"malformed corpus {path}: {exc}") from None
    return [_parse_record(doc, i) for i, doc in enumerate(docs)]


def run_records(records) -> ClaimReport:
    report = ClaimReport()
    for record in records:
        try:
            actual = OPS[record.op](record.args)
        except Exception as exc:  # a claim error must not stop the run
            report.outcomes.append(
                ClaimOutcome(record, "error", None, f"{type(exc).__name__}: {exc}")
            )
            continue
        status = "pass" if actual == record.expect else "fail"
        report.outcomes.append(ClaimOutcome(record, status, actual))
    return report


def run_corpus(path: str) -> ClaimReport:
    """Execute every claim in a corpus file; never stops at a failure."""
    return run_records(load_corpus(path))
