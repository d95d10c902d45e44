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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from . import fpgroup, homsearch, nilq, permgrp, smallgrp, zlinalg
from .errors import InvalidInputError, checked, json_field

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
    "resolve_assignment",
]


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
# argument resolution shared with the CLI

_FAMILIES: dict[str, Callable] = {
    "closed-orientable": lambda g, n: fpgroup.closed_orientable(g, n),
    "boundary-orientable": lambda g, n: fpgroup.boundary_orientable(g, n),
    "nonorientable": lambda g, n: fpgroup.nonorientable(g, n),
    "artin": lambda g, n: fpgroup.artin_presentation(n),
    "class2-quotient": lambda g, n: fpgroup.class2_quotient_presentation(g, n),
}


def resolve_presentation(spec: dict) -> fpgroup.Presentation:
    """Build a presentation from a family spec or inline JSON."""
    checked(spec, dict, "presentation spec")
    if "presentation" in spec:
        return fpgroup.Presentation.from_json(spec["presentation"])
    surface = json_field(spec, "surface", str, "presentation spec", None)
    if surface not in _FAMILIES:
        raise InvalidInputError(
            f"unknown surface family {surface!r}; choose from {sorted(_FAMILIES)}"
        )
    genus = json_field(spec, "genus", int, "presentation spec", 0)
    strands = json_field(spec, "strands", int, "presentation spec", 1)
    return _FAMILIES[surface](genus, strands)


def resolve_group(spec: Any) -> zlinalg.FgAbelianGroup:
    """An abelian group given literally, or as an abelianisation or LCS
    layer of a presentation."""
    if isinstance(spec, dict) and "lcs" in spec:
        inner = checked(spec["lcs"], dict, "lcs spec")
        layer = json_field(inner, "layer", int, "lcs spec")
        return nilq.lcs_layer(resolve_presentation(inner), layer)
    if isinstance(spec, dict) and "abelianization" in spec:
        return zlinalg.abelianization(resolve_presentation(spec["abelianization"]))
    if isinstance(spec, dict) and "free_rank" in spec:
        return zlinalg.FgAbelianGroup.from_json(spec)
    raise InvalidInputError(f"cannot interpret group spec {spec!r}")


def resolve_assignment(spec: dict) -> homsearch.GeneratorAssignment:
    if "builtin" in spec:
        kwargs = {k: v for k, v in spec.items() if k != "builtin"}
        return homsearch.builtin_assignment(spec["builtin"], **kwargs)
    presentation = resolve_presentation(spec)
    return homsearch.GeneratorAssignment.from_json(presentation, spec["assignment"])


# ---------------------------------------------------------------------------
# operation registry


def _op_abelianize(args: dict):
    return zlinalg.abelianization(resolve_presentation(args)).to_json()


def _op_lcs(args: dict):
    layer = int(args["layer"])
    return nilq.lcs_layer(resolve_presentation(args), layer).to_json()


def _op_min_generators(args: dict):
    return zlinalg.min_generators_lower_bound(resolve_presentation(args))


def _op_epi(args: dict):
    return zlinalg.admits_epimorphism(
        resolve_group(args["from"]), resolve_group(args["to"])
    )


def _op_homsearch(args: dict):
    presentation = resolve_presentation(args)
    result = homsearch.enumerate_homs(
        presentation,
        int(args["target_sym"]),
        predicate=args.get("filter", "all"),
        max_representatives=int(args.get("representatives", 0)),
    )
    return result.to_json(include_representatives=False)


def _op_verify_hom(args: dict):
    assignment = resolve_assignment(args)
    failing = homsearch.verify_hom(assignment.presentation, assignment)
    return {"ok": True} if failing is None else {"ok": False, "failing_relator": failing}


def _op_classify_hom(args: dict):
    spec = {k: v for k, v in args.items() if k != "fields"}
    result = classification_with_block(resolve_assignment(spec))
    fields = args.get("fields")
    if fields:
        return {k: result[k] for k in fields}
    return result


def classification_with_block(assignment: homsearch.GeneratorAssignment) -> dict:
    out = homsearch.classify_hom(assignment.presentation, assignment).to_json()
    primitive, witness = permgrp.is_primitive(list(assignment.images), assignment.degree)
    out["block"] = None if primitive else list(witness)
    return out


def _op_image_order(args: dict):
    spec = {k: v for k, v in args.items() if k != "generator"}
    assignment = resolve_assignment(spec)
    return assignment.image_of(args["generator"]).order()


def _op_klein_scan(args: dict):
    result = smallgrp.klein_relation_scan(int(args["radius"]))
    return {"nontrivial_solutions": len(result.nontrivial_solutions)}


def _op_dicyclic_central_quotient(args: dict):
    group = smallgrp.dicyclic(int(args["n"]))
    involutions = [e for e in group.elements if e.order() == 2]
    quo = smallgrp.quotient(group, involutions)
    return {"order": quo.order, "dihedral": smallgrp.is_dihedral(quo)}


def _op_dihedral_subgroup_count(args: dict):
    name = args["group"]
    if name == "z3-semidirect-z4":
        group = smallgrp.z3_semidirect_z4()
    elif name == "dicyclic":
        group = smallgrp.dicyclic(int(args.get("n", 4)))
    elif name == "symmetric":
        group = smallgrp.symmetric_group(int(args["n"]))
    else:
        raise InvalidInputError(f"unknown group {name!r}")
    subs = smallgrp.subgroup_scan(
        group, min_order=int(args.get("min_order", 4)), dihedral=True
    )
    return len(subs)


def _op_symmetric_lcs(args: dict):
    group = smallgrp.symmetric_group(int(args["n"]))
    series = permgrp.lower_central_series(list(group.elements))
    terminal = permgrp.finite_group_invariants(series[-1])
    return {
        "orders": [len(t) for t in series],
        "terminal_abelianization": terminal.abelianization.to_json(),
    }


def _op_centralizer_order(args: dict):
    t = permgrp.CycleType.from_lengths(
        [int(k) for k in args["cycle_lengths"]], args.get("degree")
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
        docs = [d for d in yaml.load_all(text, Loader=loader) if d is not None]
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}" if mark else ""
        raise InvalidInputError(f"malformed corpus {path}{location}: {exc}") from None
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
