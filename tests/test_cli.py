import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from braidkit import cli

BASE = [sys.executable, "-m", "braidkit"]


def run(*argv, env_extra=None, timeout=600):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(argv), capture_output=True, text=True, env=env, timeout=timeout
    )


def test_lcs_json_output():
    out = run("lcs", "--surface", "closed-orientable", "--genus", "1", "--strands", "3", "--layer", "2", "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"free_rank": 0, "torsion": [3]}


def test_homsearch_json_output():
    out = run(
        "homsearch", "--surface", "closed-orientable", "--genus", "1", "--strands", "5",
        "--target-sym", "3", "--filter", "surjective", "--json",
    )
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"count": 0}


def test_klein_scan_json_output():
    out = run("klein-scan", "--radius", "3", "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"nontrivial_solutions": 0}


def test_homsearch_threaded_matches_serial():
    args = [
        "homsearch", "--surface", "artin", "--strands", "4",
        "--target-sym", "3", "--filter", "transitive", "--representatives", "3", "--json",
    ]
    serial = json.loads(run(*args).stdout)
    threaded = json.loads(run(*args, "--threads", "2").stdout)
    assert serial == threaded
    assert serial["count"] == 8


def test_homsearch_threads_below_one_exits_two():
    for threads in ("0", "-2"):
        out = run(
            "homsearch", "--surface", "artin", "--strands", "3",
            "--target-sym", "3", "--threads", threads, "--json",
        )
        assert out.returncode == 2
        assert "--threads must be >= 1" in out.stderr
        assert out.stdout == ""


def test_present_round_trips_through_abelianize(tmp_path):
    out = run("present", "--surface", "nonorientable", "--genus", "2", "--strands", "3", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out2 = run("abelianize", "--presentation", str(path), "--json")
    assert out2.returncode == 0
    assert json.loads(out2.stdout) == {"free_rank": 1, "torsion": [2, 2]}


def test_epi_subcommand():
    out = run("epi", "--from", '{"free_rank": 1, "torsion": []}', "--to", '{"free_rank": 0, "torsion": [5]}', "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"admits": True}


def test_perm_utilities():
    out = run("perm", "compose", "(1,2)", "(1,3)", "--degree", "3", "--json")
    assert json.loads(out.stdout) == {"result": "(1,2,3)"}
    # degree inferred from the largest cycle point when not given
    out = run("perm", "primitive", "(1,2,3,4)(5,6,7,8)", "(1,5)(2,6)(3,7)(4,8)", "--json")
    assert json.loads(out.stdout) == {"primitive": False, "witness": [1, 2, 3, 4]}
    out = run("perm", "centralizer-order", "--cycle-lengths", "4", "4", "--json")
    assert json.loads(out.stdout) == {"order": 32}
    out = run("perm", "primitive", "(1,2,3,4)(5,6,7,8)", "(1,5)(2,6)(3,7)(4,8)", "--degree", "8", "--json")
    data = json.loads(out.stdout)
    assert data["primitive"] is False


def test_smallgrp_subcommand():
    out = run("smallgrp", "dicyclic", "--n", "4", "--json")
    assert json.loads(out.stdout) == {"order": 16, "dihedral": False}
    out = run("smallgrp", "z3-semidirect-z4", "--min-order", "4", "--scan-dihedral", "--json")
    assert json.loads(out.stdout)["matches"] == 0


def test_verify_hom_failure_exits_one(tmp_path):
    path = tmp_path / "assignment.json"
    path.write_text(
        json.dumps({"degree": 3, "images": {"sigma1": "(1,2)", "sigma2": "(1,2,3)"}}),
        encoding="utf-8",
    )
    out = run("verify-hom", "--surface", "artin", "--strands", "3", "--assignment", str(path), "--json")
    assert out.returncode == 1
    assert json.loads(out.stdout) == {"ok": False, "failing_relator": 1}


def test_verify_hom_success(tmp_path):
    path = tmp_path / "assignment.json"
    path.write_text(
        json.dumps(
            {"degree": 3, "images": {"sigma1": "(1,2)", "sigma2": "(2,3)", "sigma3": "(1,2)"}}
        ),
        encoding="utf-8",
    )
    out = run("verify-hom", "--surface", "artin", "--strands", "4", "--assignment", str(path))
    assert out.returncode == 0


def test_unknown_subcommand_exits_two():
    assert run("frobnicate").returncode == 2


def test_invalid_input_exits_two():
    out = run("lcs", "--surface", "boundary-orientable", "--genus", "0", "--strands", "3", "--layer", "2")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_bound_exceeded_exits_three():
    out = run(
        "perm", "closure", "(1,2)", "(1,2,3,4,5)", "--degree", "5",
        env_extra={"BRAIDKIT_BOUND": "10"},
    )
    assert out.returncode == 3


def test_homsearch_over_the_node_budget_exits_three():
    out = run(
        "homsearch", "--surface", "closed-orientable", "--genus", "1", "--strands", "4",
        "--target-sym", "4", "--json", env_extra={"BRAIDKIT_BOUND": "1000"}, timeout=60,
    )
    assert out.returncode == 3
    assert "exceeds 1000 nodes" in out.stderr
    assert out.stdout == ""


def test_in_process_calls_in_a_row_match_fresh_processes(capsys, monkeypatch):
    # main parses with one parser per process; a usage error or an earlier
    # subcommand must leave no trace in the calls after it
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["lcs", "--surface", "closed-orientable", "--genus", "1", "--strands", "3"],
        ["lcs", "--surface", "closed-orientable", "--genus", "1", "--strands", "3", "--layer", "2", "--json"],
        ["perm", "cycle-type", "(1,2)(3,4,5)", "--degree", "6"],
        ["lcs", "--surface", "closed-orientable", "--genus", "1", "--strands", "3"],
        ["perm", "compose", "(1,2)", "(2,3)"],
        ["--help"],
    ]
    for argv in calls:
        code = cli.main(list(argv))
        got = capsys.readouterr()
        fresh = run(*argv, env_extra={"COLUMNS": "80"})
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_loads_neither_yaml_nor_the_process_pool():
    code = (
        "import braidkit.cli, sys; "
        "print([m for m in ('yaml', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout.strip() == "[]"


def test_lcs_bound_exceeded_exits_three_before_work(tmp_path):
    # 30 generators, 29 commutator relators: far over the default LCS bound
    relators = [[i, i + 1, -i, -i - 1] for i in range(1, 30)]
    path = tmp_path / "raag.json"
    path.write_text(
        json.dumps({"generators": [f"x{i}" for i in range(1, 31)], "relators": relators}),
        encoding="utf-8",
    )
    start = time.perf_counter()
    out = run("lcs", "--presentation", str(path), "--layer", "3")
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 3
    assert "bound" in out.stderr


def test_klein_scan_over_the_bound_exits_three_at_once():
    start = time.perf_counter()
    out = run("klein-scan", "--radius", "108", timeout=10)
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 3
    assert "exceeds" in out.stderr


def test_assignment_degree_over_the_bound_exits_three_at_once(tmp_path):
    # 10⁸ points would take gigabytes as image lists; refused before any is built
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps({"degree": 10**8, "images": {"sigma1": "()"}}), encoding="utf-8")
    for argv in (
        ["verify-hom", "--surface", "artin", "--strands", "2", "--assignment", str(path)],
        ["perm", "closure", "(1,2)", "--degree", str(10**8)],
    ):
        start = time.perf_counter()
        out = run(*argv, timeout=10)
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 3
        assert out.stderr.startswith("error: ") and "bound" in out.stderr


def test_malformed_cycles_exit_two_with_a_message():
    for text in ("(1,,2)", "(1,2,)", "(,)", "(1 2)"):
        out = run("perm", "cycle-type", text)
        assert out.returncode == 2, text
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert "Traceback" not in out.stderr


def test_large_structures_over_the_bound_exit_three_at_once():
    for argv in (
        ["perm", "centralizer-order", "--cycle-lengths", str(10**9)],
        ["smallgrp", "dicyclic", "--n", "5000"],
    ):
        start = time.perf_counter()
        out = run(*argv, timeout=10)
        assert time.perf_counter() - start < 1.0
        assert out.returncode == 3, argv
        assert out.stderr.startswith("error: ") and "bound" in out.stderr


def test_symmetric_group_of_degree_seven_is_built_quickly():
    out = run("smallgrp", "symmetric", "--n", "7", "--json", timeout=10)
    assert out.returncode == 0
    assert json.loads(out.stdout)["order"] == 5040


def test_claims_run_pass_and_fail(tmp_path):
    good = tmp_path / "good.yaml"
    good.write_text(
        textwrap.dedent(
            """\
            id: check.sphere
            description: sphere abelianization at four strands
            command:
              op: abelianize
              args: {surface: closed-orientable, genus: 0, strands: 4}
            expect: {free_rank: 0, torsion: [6]}
            anchor: {location: "Theorem gam3sph(1)", quote: "Z_{2(n-1)} for n >= 2"}
            provenance: PAPER
            """
        ),
        encoding="utf-8",
    )
    out = run("claims", "run", str(good), "--json")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["summary"] == {"pass": 1, "fail": 0, "error": 0, "total": 1}

    bad = tmp_path / "bad.yaml"
    bad.write_text(good.read_text().replace("torsion: [6]", "torsion: [8]"), encoding="utf-8")
    out = run("claims", "run", str(bad))
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_claims_run_malformed_corpus_exits_two(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("id: x\ncommand: {op: abelianize\n", encoding="utf-8")
    out = run("claims", "run", str(bad))
    assert out.returncode == 2


# --- malformed input exits two, in-process, with an error line ----------------------------

MALFORMED_CLAIM = """\
id: x
command: {op: abelianize, args: %s}
expect: 1
anchor: %s
provenance: PAPER
"""


def _main_exit(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"id: x\n\xff\xfe\n",  # not UTF-8
        (MALFORMED_CLAIM % ("5", '{quote: "q"}')).encode(),
        (MALFORMED_CLAIM % ("{surface: artin}", "3")).encode(),
        (MALFORMED_CLAIM.replace("op: abelianize", "op: [1]") % ("{}", "3")).encode(),
        (MALFORMED_CLAIM.replace("expect: 1", "expect: 2001-01-01") % ("{}", "{quote: q}"))
        .encode(),
    ],
    ids=["not-utf8", "args-5", "anchor-3", "op-list", "expect-date"],
)
def test_malformed_corpus_exits_two_with_a_message(tmp_path, capsys, content):
    path = tmp_path / "corpus.yaml"
    path.write_bytes(content)
    code, err = _main_exit(capsys, "claims", "run", str(path))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "source",
    [
        '{"free_rank":0',
        '{"free_rank":"x"}',
        '{"free_rank":0,"torsion":5}',
        '{"free_rank":true}',
        '{"lcs":5}',
        '{"lcs":{"surface":"artin","strands":3}}',
        '{"abelianization":{"surface":[1]}}',
        '{"abelianization":{"surface":"artin","strands":"x"}}',
        '{"abelianization":{"presentation":5}}',
    ],
)
def test_malformed_epi_group_exits_two_with_a_message(capsys, source):
    code, err = _main_exit(capsys, "epi", "--from", source, "--to", '{"free_rank":0}')
    assert code == 2
    assert err.startswith("error: ")


# --- integers past Python's 4,300-digit string limit ----------------------------------------

LONG_INTEGER = "1" * 5000


def _one_error_line(out):
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


def test_cycle_point_past_the_digit_limit_exits_three():
    out = run("perm", "cycle-type", f"({LONG_INTEGER})")
    assert out.returncode == 3
    _one_error_line(out)
    assert "5000 digits exceeds bound" in out.stderr


def test_json_integer_past_the_digit_limit_exits_two():
    source = f'{{"free_rank":0,"torsion":[{LONG_INTEGER}]}}'
    out = run("epi", "--from", source, "--to", '{"free_rank":0}')
    assert out.returncode == 2
    _one_error_line(out)
    assert out.stderr.startswith("error: --from: ")


def test_corpus_integer_past_the_digit_limit_exits_two(tmp_path):
    path = tmp_path / "corpus.yaml"
    path.write_text(
        f"id: x\nop: klein-scan\nargs: {{radius: {LONG_INTEGER}}}\nexpect: 1\n",
        encoding="utf-8",
    )
    out = run("claims", "run", str(path))
    assert out.returncode == 2
    _one_error_line(out)
    assert out.stderr.startswith("error: malformed corpus ")


@pytest.mark.parametrize(
    "content",
    [
        b"not json",
        b'{"degree": 2, "images": {"\xff": 1}}',
        b'{"degree": 2, "images": 5}',
        b'{"degree": "2", "images": {}}',
        b'{"degree": 2, "images": {"sigma1": 1}}',
        b"[1, 2]",
    ],
)
def test_malformed_assignment_exits_two_with_a_message(tmp_path, capsys, content):
    path = tmp_path / "assignment.json"
    path.write_bytes(content)
    code, err = _main_exit(
        capsys, "verify-hom", "--surface", "artin", "--strands", "2", "--assignment", str(path)
    )
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "content",
    [
        b"{",
        b"\xff",
        b"5",
        b'{"generators": "x", "relators": []}',
        b'{"generators": ["x"], "relators": [["a"]]}',
        b'{"generators": ["x"], "relators": [[1, 1]], "family": {"surface": "x"}}',
    ],
)
def test_malformed_presentation_exits_two_with_a_message(tmp_path, capsys, content):
    path = tmp_path / "presentation.json"
    path.write_bytes(content)
    code, err = _main_exit(capsys, "abelianize", "--presentation", str(path))
    assert code == 2
    assert err.startswith("error: ")


def test_directory_in_place_of_a_file_exits_two(tmp_path, capsys):
    for argv in (["claims", "run"], ["abelianize", "--presentation"]):
        code, err = _main_exit(capsys, *argv, str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")


def test_small_json_values_never_raise(tmp_path, capsys):
    # small JSON values, shaped like a group spec or an assignment, as an
    # epi group and as assignment content
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = st.integers(-3, 40)
    scalar = small | st.none() | st.booleans() | st.sampled_from(["", "x", "(1,2)"])
    value = scalar | st.lists(scalar, max_size=3)

    def shaped(**fields):
        # complete and well typed, or with any field missing or of any type
        return st.fixed_dictionaries(fields) | st.fixed_dictionaries(
            {}, optional={k: v | value for k, v in fields.items()}
        )

    presentation = shaped(
        generators=st.lists(st.sampled_from(["a", "b"]), max_size=2),
        relators=st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=2),
    )
    # no valid family name: a family built at genus or strands up to 40 costs seconds
    spec = shaped(
        presentation=presentation, surface=st.just("moebius"), strands=small, layer=small
    )
    literal = shaped(free_rank=small, torsion=st.lists(small, max_size=2))
    group = value | literal | shaped(lcs=spec, abelianization=spec)
    images = shaped(
        sigma1=st.sampled_from(["()", "(1,2)", "(2,3)"]),
        sigma2=st.sampled_from(["(1,2)", "(2,3)", "(1,2,3)"]),
    )
    assignment = value | shaped(degree=small, images=images)
    path = tmp_path / "assignment.json"

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(group, assignment)
    def check(source, content):
        code, _ = _main_exit(
            capsys, "epi", "--from", json.dumps(source), "--to", '{"free_rank":0}'
        )
        assert code in (0, 1, 2)
        path.write_text(json.dumps(content), encoding="utf-8")
        code, _ = _main_exit(
            capsys, "verify-hom", "--surface", "artin", "--strands", "3",
            "--assignment", str(path),
        )
        assert code in (0, 1, 2)

    check()
