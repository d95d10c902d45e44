import textwrap
import time
from math import factorial

import pytest

from braidkit import homsearch, permgrp
from braidkit.claims import (
    MAX_CORPUS_DEPTH,
    OPS,
    ClaimRecord,
    load_corpus,
    resolve_assignment,
    resolve_group,
    resolve_presentation,
    run_corpus,
    run_records,
)
from braidkit.errors import BoundExceededError, InvalidInputError


def write_corpus(tmp_path, text):
    path = tmp_path / "corpus.yaml"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


PASSING_CLAIM = """\
    id: paper.gam3closed.1.g1n3
    description: abelianization of the genus-1 three-strand group
    command:
      op: abelianize
      args: {surface: closed-orientable, genus: 1, strands: 3}
    expect: {free_rank: 2, torsion: [2]}
    anchor: {location: "Theorem gam3closed(1)", quote: "Z^{2g} + Z_2 if n >= 2"}
    provenance: PAPER
"""


def test_single_claim_passes(tmp_path):
    report = run_corpus(write_corpus(tmp_path, PASSING_CLAIM))
    assert report.counts == {"pass": 1, "fail": 0, "error": 0}
    assert report.passed


def test_failing_claim_reports_actual_value(tmp_path):
    text = PASSING_CLAIM.replace("torsion: [2]", "torsion: [3]")
    report = run_corpus(write_corpus(tmp_path, text))
    assert report.counts["fail"] == 1
    outcome = report.outcomes[0]
    assert outcome.actual == {"free_rank": 2, "torsion": [2]}
    assert not report.passed


def test_empty_corpus(tmp_path):
    report = run_corpus(write_corpus(tmp_path, ""))
    assert report.counts == {"pass": 0, "fail": 0, "error": 0}
    assert report.passed


def test_runner_continues_past_failures(tmp_path):
    text = (
        PASSING_CLAIM.replace("torsion: [2]", "torsion: [7]")
        + "---\n"
        + PASSING_CLAIM.replace("paper.gam3closed.1.g1n3", "paper.gam3closed.1.again")
    )
    report = run_corpus(write_corpus(tmp_path, text))
    assert [o.status for o in report.outcomes] == ["fail", "pass"]


def test_erroring_claim_is_contained(tmp_path):
    text = PASSING_CLAIM.replace("strands: 3", "strands: -1") + "---\n" + PASSING_CLAIM.replace(
        "paper.gam3closed.1.g1n3", "paper.ok"
    )
    report = run_corpus(write_corpus(tmp_path, text))
    assert [o.status for o in report.outcomes] == ["error", "pass"]


def test_malformed_yaml_reports_line(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("id: x\ncommand: {op: abelianize\n", encoding="utf-8")
    with pytest.raises(InvalidInputError) as err:
        load_corpus(str(path))
    assert "line" in str(err.value)


def test_nesting_past_the_depth_limit_is_refused_before_composing(tmp_path):
    def nested(depth):  # a mapping holding depth - 1 nested lists
        return "a: " + "[" * (depth - 1) + "]" * (depth - 1) + "\n"

    with pytest.raises(InvalidInputError, match="missing required field"):
        load_corpus(write_corpus(tmp_path, nested(MAX_CORPUS_DEPTH)))
    with pytest.raises(InvalidInputError, match=f"more than {MAX_CORPUS_DEPTH} deep at line 1"):
        load_corpus(write_corpus(tmp_path, nested(MAX_CORPUS_DEPTH + 1)))


def test_unknown_op_is_rejected(tmp_path):
    text = PASSING_CLAIM.replace("op: abelianize", "op: frobnicate")
    with pytest.raises(InvalidInputError):
        load_corpus(write_corpus(tmp_path, text))


def test_paper_claim_requires_quote(tmp_path):
    text = PASSING_CLAIM.replace('quote: "Z^{2g} + Z_2 if n >= 2"', 'quote: ""')
    with pytest.raises(InvalidInputError):
        load_corpus(write_corpus(tmp_path, text))


def test_derived_claim_needs_no_anchor(tmp_path):
    text = """\
        id: derived.count
        description: transitive census
        command:
          op: homsearch
          args: {surface: artin, strands: 4, target_sym: 3, filter: transitive}
        expect: {count: 8}
        provenance: DERIVED
        derived_oracle: brute force over all 216 generator assignments
    """
    report = run_corpus(write_corpus(tmp_path, text))
    assert report.passed


def test_run_is_deterministic(tmp_path):
    path = write_corpus(tmp_path, PASSING_CLAIM + "---\n" + PASSING_CLAIM.replace("n3", "n3b"))
    first = run_corpus(path).to_json()
    second = run_corpus(path).to_json()
    assert first == second


def test_report_table_contains_summary(tmp_path):
    report = run_corpus(write_corpus(tmp_path, PASSING_CLAIM))
    table = report.table()
    assert "1 claims: 1 passed, 0 failed, 0 errored" in table
    assert "PASS" in table


def test_shipped_corpus_is_well_formed():
    from pathlib import Path

    corpus = Path(__file__).resolve().parent.parent / "corpus" / "paper.yaml"
    records = load_corpus(str(corpus))
    assert len(records) >= 100
    assert len({r.id for r in records}) == len(records)
    for record in records:
        assert record.op in OPS
        if record.provenance == "PAPER":
            assert record.anchor is not None and record.anchor.quote
        else:
            assert record.note, f"derived record {record.id} lacks an oracle note"


# --- op registry ------------------------------------------------------------


def test_resolve_presentation_inline():
    p = resolve_presentation(
        {"presentation": {"generators": ["x"], "relators": [[1, 1]], "family": None}}
    )
    assert p.generator_count == 1


def test_resolve_presentation_unknown_family():
    with pytest.raises(InvalidInputError):
        resolve_presentation({"surface": "moebius"})


def test_resolve_group_forms():
    literal = resolve_group({"free_rank": 1, "torsion": [2]})
    assert literal.free_rank == 1
    via_lcs = resolve_group(
        {"lcs": {"surface": "closed-orientable", "genus": 1, "strands": 3, "layer": 2}}
    )
    assert via_lcs.to_json() == {"free_rank": 0, "torsion": [3]}
    via_ab = resolve_group(
        {"abelianization": {"surface": "artin", "strands": 5}}
    )
    assert via_ab.to_json() == {"free_rank": 1, "torsion": []}


def test_epi_op():
    assert OPS["epi"](
        {"from": {"free_rank": 0, "torsion": [4]}, "to": {"free_rank": 0, "torsion": [2]}}
    )
    assert not OPS["epi"](
        {"from": {"free_rank": 0, "torsion": [6]}, "to": {"free_rank": 0, "torsion": [4]}}
    )


def test_verify_and_image_order_ops():
    out = OPS["verify-hom"]({"builtin": "imprimitive-s8"})
    assert out == {"ok": True}
    # (ab)^1000 at degree 20,000 is over the verification bound
    spec = {
        "presentation": {"generators": ["a", "b"], "relators": [[1, 2] * 1000]},
        "assignment": {"degree": 20_000, "images": {"a": "()", "b": "()"}},
    }
    with pytest.raises(BoundExceededError, match="verifying needs"):
        OPS["verify-hom"](spec)
    order = OPS["image-order"]({"builtin": "wreath-cycle", "block_count": 3, "generator": "sigma"})
    assert order == 6


def test_classify_op_reports_block():
    out = OPS["classify-hom"]({"builtin": "imprimitive-s8"})
    assert out["transitive"] and not out["primitive"]
    assert out["block"] == [1, 2, 3, 4]
    assert out["image_order"] == 16


def _artin3(degree, sigma1, sigma2):
    images = {"sigma1": sigma1, "sigma2": sigma2}
    return {"surface": "artin", "strands": 3, "assignment": {"degree": degree, "images": images}}


@pytest.mark.parametrize(
    "spec",
    [
        {"builtin": "imprimitive-s8"},  # a block of four
        {"builtin": "wreath-cycle", "block_count": 3},  # a block of six
        _artin3(4, "(1,2)", "(1,2)"),  # intransitive: the witness is an orbit
        _artin3(3, "(1,2)", "(2,3)"),  # S_3, primitive
    ],
    ids=["s8", "wreath3", "intransitive", "primitive"],
)
def test_classify_op_takes_the_block_from_its_one_primitivity_pass(monkeypatch, spec):
    assignment = resolve_assignment(spec)
    primitive, witness = permgrp.is_primitive(list(assignment.images), assignment.degree)
    calls = []
    primitivity = homsearch._primitivity
    monkeypatch.setattr(
        homsearch, "_primitivity", lambda *args: calls.append(args) or primitivity(*args)
    )
    monkeypatch.setattr(permgrp, "is_primitive", None)  # a second pass would raise
    out = OPS["classify-hom"](spec)
    assert len(calls) == 1
    assert out["primitive"] == primitive
    assert out["block"] == (None if primitive else list(witness))


def test_symmetric_lcs_op():
    out = OPS["symmetric-lcs"]({"n": 4})
    assert out["orders"] == [24, 12, 12]
    assert out["terminal_abelianization"] == {"free_rank": 0, "torsion": [3]}
    # closed forms: Γ₂(S_n) = Γ₃(S_n) = A_n for n >= 3, A_3 and A_4^ab are
    # Z/3, and A_n is perfect for n >= 5 (the paper's Proposition perfect)
    assert OPS["symmetric-lcs"]({"n": 2}) == {
        "orders": [2, 1],
        "terminal_abelianization": {"free_rank": 0, "torsion": []},
    }
    for n in range(3, 9):
        out = OPS["symmetric-lcs"]({"n": n})
        assert out["orders"] == [factorial(n)] + [factorial(n) // 2] * 2, n
        torsion = [3] if n < 5 else []
        assert out["terminal_abelianization"] == {"free_rank": 0, "torsion": torsion}, n


# (op, arguments, the integer argument set to a bad value)
INTEGER_ARGS = [
    ("lcs", {"surface": "closed-orientable", "genus": 1, "strands": 3}, "layer"),
    ("homsearch", {"surface": "artin", "strands": 3}, "target_sym"),
    ("homsearch", {"surface": "artin", "strands": 3, "target_sym": 3}, "representatives"),
    ("klein-scan", {}, "radius"),
    ("dicyclic-central-quotient", {}, "n"),
    ("dihedral-subgroup-count", {"group": "dicyclic"}, "n"),
    ("dihedral-subgroup-count", {"group": "dicyclic", "n": 4}, "min_order"),
    ("symmetric-lcs", {}, "n"),
]


@pytest.mark.parametrize("bad", [2.7, True, "3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("op, args, key", INTEGER_ARGS, ids=[f"{o}-{k}" for o, _, k in INTEGER_ARGS])
def test_integer_claim_arguments_are_not_coerced(op, args, key, bad):
    with pytest.raises(InvalidInputError, match=f"{op} claim field '{key}' must be of type int"):
        OPS[op]({**args, key: bad})


@pytest.mark.parametrize("bad", [2.7, True, "3"], ids=["float", "bool", "string"])
def test_cycle_lengths_are_not_coerced(bad):
    with pytest.raises(InvalidInputError, match="cycle length must be of type int"):
        OPS["centralizer-order"]({"cycle_lengths": [4, bad]})
    with pytest.raises(InvalidInputError, match="'cycle_lengths' must be of type list"):
        OPS["centralizer-order"]({"cycle_lengths": "44"})


WREATH = {"builtin": "wreath-cycle", "generator": "sigma"}
S8 = {"builtin": "imprimitive-s8"}
ARTIN_S3 = {"surface": "artin", "strands": 3, "target_sym": 3}
# (op, arguments, message): arguments that once ran coerced or raised a bare
# TypeError or KeyError
MALFORMED_CLAIM_ARGS = [
    ("centralizer-order", {"cycle_lengths": [1], "degree": True},
     "centralizer-order claim field 'degree' must be of type int, got True"),
    ("centralizer-order", {"cycle_lengths": [1], "degree": 2.0},
     "centralizer-order claim field 'degree' must be of type int, got 2.0"),
    ("centralizer-order", {"cycle_lengths": [1], "degree": "3"},
     "centralizer-order claim field 'degree' must be of type int, got '3'"),
    ("image-order", {**WREATH, "block_count": 3.0},
     "assignment 'wreath-cycle' field 'block_count' must be of type int, got 3.0"),
    ("image-order", {**WREATH, "block_count": "3"},
     "assignment 'wreath-cycle' field 'block_count' must be of type int, got '3'"),
    ("image-order", {**WREATH, "block_count": 3, "bogus": 1},
     "assignment 'wreath-cycle' takes no field 'bogus'"),
    ("image-order", {"builtin": [1], "generator": "sigma"},
     "assignment spec field 'builtin' must be of type str, got [1]"),
    ("homsearch", {**ARTIN_S3, "filter": ["x"]},
     "homsearch claim field 'filter' must be of type str, got ['x']"),
    ("homsearch", {**ARTIN_S3, "representatives": -1},
     "homsearch claim field 'representatives' must be >= 0, got -1"),
    ("classify-hom", {**S8, "fields": "valid"},
     "classify-hom claim field 'fields' must be of type list, got 'valid'"),
    ("classify-hom", {**S8, "fields": ["nope"]},
     "classify-hom claim has no field 'nope'; choose from ['abelian', 'block', 'cyclic',"
     " 'image_order', 'primitive', 'surjective', 'transitive', 'valid']"),
]


@pytest.mark.parametrize("op, args, message", MALFORMED_CLAIM_ARGS)
def test_malformed_claim_arguments_make_an_erroring_claim(op, args, message):
    record = ClaimRecord("bad.args", "", op, args, None, "TEST")
    (outcome,) = run_records([record]).outcomes
    assert outcome.status == "error"
    assert outcome.message == f"InvalidInputError: {message}"


def test_an_unknown_builtin_is_named_before_its_fields():
    with pytest.raises(InvalidInputError, match="unknown assignment 'nope'"):
        resolve_assignment({"builtin": "nope", "bogus": 1})


def test_a_non_integer_layer_makes_an_erroring_claim(tmp_path):
    text = PASSING_CLAIM.replace("op: abelianize", "op: lcs").replace("strands: 3", "strands: 3, layer: 2.7")
    (outcome,) = run_corpus(write_corpus(tmp_path, text)).outcomes
    assert outcome.status == "error"
    assert outcome.message == (
        "InvalidInputError: lcs claim field 'layer' must be of type int, got 2.7"
    )


def test_symmetric_lcs_of_degree_seven_is_fast():
    start = time.perf_counter()
    assert OPS["symmetric-lcs"]({"n": 7})["orders"] == [5040, 2520, 2520]
    assert time.perf_counter() - start < 2.0


def test_central_quotient_of_the_largest_dicyclic_group_is_fast():
    # dicyclic(250) has order 1,000, the most its regular representation's
    # bound admits; modulo its centre it is dihedral of order 500
    start = time.perf_counter()
    assert OPS["dicyclic-central-quotient"]({"n": 250}) == {"order": 500, "dihedral": True}
    assert time.perf_counter() - start < 5.0


def test_symmetric_lcs_outputs_are_pinned():
    # n = 1 repeats the trivial group's order, as the series stops at
    # the first repeat
    orders = {1: [1, 1], 2: [2, 1], 3: [6, 3, 3], 4: [24, 12, 12]}
    for n in range(1, 9):
        expected = orders.get(n, [factorial(n), factorial(n) // 2, factorial(n) // 2])
        torsion = [3] if n in (3, 4) else []
        assert OPS["symmetric-lcs"]({"n": n}) == {
            "orders": expected,
            "terminal_abelianization": {"free_rank": 0, "torsion": torsion},
        }, n


def test_symmetric_lcs_runs_from_two_generators():
    # S_9 from a transposition and a 9-cycle, no term listed; S_10 passes
    # the closure bound and is refused before anything is built
    start = time.perf_counter()
    out = OPS["symmetric-lcs"]({"n": 9})
    assert out["orders"] == [362880, 181440, 181440]
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    for n in (10, 10**6):
        with pytest.raises(BoundExceededError, match="group closure exceeds bound 1000000"):
            OPS["symmetric-lcs"]({"n": n})
    assert time.perf_counter() - start < 0.1
    with pytest.raises(InvalidInputError, match="degree must be >= 1"):
        OPS["symmetric-lcs"]({"n": 0})


def test_dicyclic_quotient_op():
    out = OPS["dicyclic-central-quotient"]({"n": 4})
    assert out == {"order": 8, "dihedral": True}


def test_dihedral_subgroup_count_op_builds_the_named_groups():
    # S_4: three D_4, four Klein four-groups and four S_3; n defaults to 4
    count = OPS["dihedral-subgroup-count"]
    assert count({"group": "symmetric"}) == count({"group": "symmetric", "n": 4}) == 11
    assert count({"group": "z3-semidirect-z4"}) == 0
    for name in ("nope", ["symmetric"], None):
        with pytest.raises(InvalidInputError, match="unknown group"):
            count({"group": name})


def test_mutated_claim_documents_load_or_raise_invalid_input(tmp_path):
    # byte insertions, deletions and replacements in a valid document
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    valid = textwrap.dedent(PASSING_CLAIM).encode()
    symbols = st.sampled_from(list(b":{}[],-#&*!|>'\"%@ \n\t5xa") + [0xFF, 0xC3])
    edit = st.tuples(
        st.sampled_from(["insert", "delete", "replace"]), st.integers(0, len(valid)), symbols
    )
    path = tmp_path / "corpus.yaml"

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(edit, min_size=1, max_size=4))
    def check(edits):
        text = bytearray(valid)
        for kind, at, byte in edits:
            at = min(at, len(text))
            if kind == "insert":
                text[at:at] = bytes([byte])
            elif at < len(text):
                text[at:at + 1] = b"" if kind == "delete" else bytes([byte])
        path.write_bytes(bytes(text))
        try:
            records = load_corpus(str(path))
        except InvalidInputError:
            return
        assert all(r.op in OPS for r in records)

    check()


MALFORMED_YAML = [
    "id: x\ncommand: {op: abelianize\n",
    "id: x\n  command: y\n",
    "- [a, b\n",
    "id: x\n---\n: : :\n",
    "key: 'unterminated\n",
]


def test_libyaml_loader_matches_the_python_loader():
    from pathlib import Path

    yaml = pytest.importorskip("yaml")
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "paper.yaml"
    text = corpus.read_text(encoding="utf-8")
    assert list(yaml.load_all(text, Loader=yaml.CSafeLoader)) == list(
        yaml.load_all(text, Loader=yaml.SafeLoader)
    )
    for bad in MALFORMED_YAML:
        lines = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            with pytest.raises(yaml.YAMLError) as err:
                list(yaml.load_all(bad, Loader=loader))
            lines.append(err.value.problem_mark.line)
        assert lines[0] == lines[1], bad
