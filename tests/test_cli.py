import json
import os
import subprocess
import sys
import textwrap
import time

from pathlib import Path

import pytest

import braidkit
from braidkit import cli

BASE = [sys.executable, "-m", "braidkit"]


def run(*argv, env_extra=None, timeout=600):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(argv), capture_output=True, text=True, env=env, timeout=timeout
    )


def run_within(seconds, *argv):
    """Run the CLI in a child process and assert it took under ``seconds``
    of wall time; it is stopped at ten times that."""
    start = time.perf_counter()
    out = run(*argv, timeout=10 * seconds)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{argv[:3]} took {elapsed:.1f} s"
    return out


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


def test_homsearch_threaded_over_the_serial_allowance_matches_serial():
    # this census spends far more than homsearch.SERIAL_NODES nodes, so
    # --threads 2 goes on past the serial trial to a pool of processes
    args = [
        "homsearch", "--surface", "closed-orientable", "--genus", "2", "--strands", "3",
        "--target-sym", "5", "--representatives", "3", "--json",
    ]
    serial = run(*args, "--threads", "1")
    threaded = run(*args, "--threads", "2")
    assert serial.returncode == threaded.returncode == 0
    assert threaded.stdout == serial.stdout
    assert json.loads(serial.stdout)["count"] == 59640


def test_homsearch_threads_below_one_exits_two():
    for threads in ("0", "-2"):
        out = run(
            "homsearch", "--surface", "artin", "--strands", "3",
            "--target-sym", "3", "--threads", threads, "--json",
        )
        assert out.returncode == 2
        assert "--threads must be >= 1" in out.stderr
        assert out.stdout == ""


def test_homsearch_negative_representatives_exits_two():
    out = run(
        "homsearch", "--surface", "artin", "--strands", "3",
        "--target-sym", "3", "--representatives", "-1", "--json",
    )
    assert out.returncode == 2
    assert "--representatives must be >= 0, got -1" in out.stderr
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


HUGE = 99999999999999999999999  # far past what a list of slots could hold


@pytest.mark.parametrize(
    "source, target, admits",
    [
        ({"free_rank": HUGE}, {"free_rank": 0, "torsion": [2]}, True),
        ({"free_rank": HUGE}, {"free_rank": HUGE}, True),
        ({"free_rank": HUGE, "torsion": [4]}, {"free_rank": HUGE - 1, "torsion": [2, 2]}, True),
        ({"free_rank": HUGE}, {"free_rank": HUGE, "torsion": [2]}, False),
        ({"free_rank": HUGE - 1, "torsion": [6]}, {"free_rank": HUGE}, False),
        ({"free_rank": 3}, {"free_rank": HUGE}, False),
        ({"free_rank": 0, "torsion": [2]}, {"free_rank": HUGE}, False),
    ],
)
def test_epi_compares_huge_free_ranks_as_numbers(capsys, source, target, admits):
    code = cli.main(["epi", "--from", json.dumps(source), "--to", json.dumps(target), "--json"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert json.loads(out.out) == {"admits": admits}


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


def test_perm_negative_degree_exits_two(capsys):
    for argv in (
        ["closure", "()", "--degree", "-1"],
        ["centralizer-order", "--cycle-lengths", "1", "--degree", "-2"],
    ):
        code, err = _main_exit(capsys, "perm", *argv)
        assert code == 2
        assert err == f"error: --degree must be >= 0, got {argv[-1]}\n"


def test_verify_hom_refuses_images_of_unknown_generators(tmp_path, capsys, monkeypatch):
    import braidkit.homsearch as homsearch

    def no_parse(*args):
        raise AssertionError("an image was parsed before the names were checked")

    monkeypatch.setattr(homsearch, "parse_cycles", no_parse)
    path = tmp_path / "assignment.json"
    images = {"a1": "()", "b1": "()", "sigma1": "()", "zzz": "(1,2)"}
    path.write_text(json.dumps({"degree": 2, "images": images}), encoding="utf-8")
    code, err = _main_exit(
        capsys, "verify-hom", "--surface", "closed-orientable", "--genus", "1",
        "--strands", "2", "--assignment", str(path),
    )
    assert code == 2
    assert err == "error: images for generators the presentation lacks: 'zzz'\n"


def test_smallgrp_subcommand():
    out = run("smallgrp", "dicyclic", "--n", "4", "--json")
    assert json.loads(out.stdout) == {"order": 16, "dihedral": False}
    out = run("smallgrp", "z3-semidirect-z4", "--min-order", "4", "--scan-dihedral", "--json")
    assert json.loads(out.stdout)["matches"] == 0
    # a bound of 0 is a bound, not an absent option: S_3 has 6 subgroups
    out = run("smallgrp", "symmetric", "--n", "3", "--order", "0", "--json")
    assert json.loads(out.stdout) == {"matches": 0, "orders": []}
    out = run("smallgrp", "symmetric", "--n", "3", "--min-order", "0", "--json")
    assert json.loads(out.stdout) == {"matches": 6, "orders": [1, 2, 2, 2, 3, 6]}


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


def test_verify_hom_over_the_bound_exits_three(tmp_path):
    # (ab)^1000 at degree 20,000 costs 40,040,000 cells and lookups, over
    # the default search bound; it is refused before any table is built
    presentation = tmp_path / "presentation.json"
    presentation.write_text(
        json.dumps({"generators": ["a", "b"], "relators": [[1, 2] * 1000]}), encoding="utf-8"
    )
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps({"degree": 20_000, "images": {"a": "()", "b": "()"}}), encoding="utf-8")
    out = run_within(5, "verify-hom", "--presentation", str(presentation), "--assignment", str(path))
    assert out.returncode == 3
    assert "verifying needs 40040000 cells" in out.stderr


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
    # 30 generators, 29 commutator relators: about 1.19 x 10^7, over the
    # default LCS bound
    relators = [[i, i + 1, -i, -i - 1] for i in range(1, 30)]
    path = tmp_path / "raag.json"
    path.write_text(
        json.dumps({"generators": [f"x{i}" for i in range(1, 31)], "relators": relators}),
        encoding="utf-8",
    )
    out = run_within(1.0, "lcs", "--presentation", str(path), "--layer", "3")
    assert out.returncode == 3
    assert "bound" in out.stderr


def run_in_1gb(*argv):
    """Run the CLI in a child process with 1 GB of address space, so
    work done before a bound check fails with MemoryError instead of
    exhausting the host."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        BASE + list(argv), capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )


def wide_presentation(tmp_path):
    # 30,000 generators and 30,000 one-letter relators: a file of a few
    # hundred KB whose dense exponent vectors would take about 7 GB
    n = 30000
    names = [f"x{i}" for i in range(1, n + 1)]
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps({"generators": names, "relators": [[i] for i in range(1, n + 1)]}),
        encoding="utf-8",
    )
    return path


def test_lcs_bound_exceeded_exits_three_before_exponent_vectors(tmp_path):
    path = wide_presentation(tmp_path)
    for layer in ("1", "2", "3"):
        out = run_in_1gb("lcs", "--layer", layer, "--presentation", str(path))
        assert out.returncode == 3, out.stderr
        assert "bound" in out.stderr


def test_abelianize_bound_exceeded_exits_three_before_the_relator_matrix(tmp_path):
    out = run_in_1gb("abelianize", "--presentation", str(wide_presentation(tmp_path)))
    assert out.returncode == 3, out.stderr
    assert out.stderr == (
        "error: relator matrix needs 900000000 cells (30000 relators × 30000 generators), "
        "over the bound 10000000\n"
    )


def _cycle(n):
    return "(" + ",".join(map(str, range(1, n + 1))) + ")"


def test_closure_over_the_bound_exits_three_from_the_chain():
    # S_10 and S_300 pass 10^6 elements; the 15,000-cycle has 15,000, but
    # its list would hold 2.25 x 10^8 cells, and its chain passes 10^7 first
    out = run_within(1.0, "perm", "closure", "(1,2)", _cycle(10))
    assert out.returncode == 3
    assert out.stderr == "error: group closure exceeds bound 1000000\n"
    for argv, message in (
        (["(1,2)", _cycle(300)], "group closure exceeds bound 1000000"),
        ([_cycle(15000)], "stabilizer chain exceeds bound 10000000 cells"),
    ):
        out = run_in_1gb("perm", "closure", *argv)
        assert out.returncode == 3, out.stderr[-300:]
        _one_error_line(out)
        assert out.stderr == f"error: {message}\n"


def test_klein_scan_over_the_bound_exits_three_at_once():
    out = run_within(1.0, "klein-scan", "--radius", "108")
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
        out = run_within(1.0, *argv)
        assert out.returncode == 3
        assert out.stderr.startswith("error: ") and "bound" in out.stderr


# family inputs that once ran out of memory or ran for seconds before any
# bound was checked
OVERSIZED_FAMILIES = [
    ["lcs", "--surface", "closed-orientable", "--genus", "999999999999", "--strands", "3", "--layer", "1"],
    ["abelianize", "--surface", "artin", "--strands", "99999999999"],
    ["homsearch", "--surface", "artin", "--strands", "99999999", "--target-sym", "3"],
    ["verify-hom", "--surface", "closed-orientable", "--genus", "99999999", "--strands", "2"],
    ["lcs", "--surface", "class2-quotient", "--genus", "1", "--strands", "100000000", "--layer", "2"],
    ["abelianize", "--surface", "nonorientable", "--genus", "99999999", "--strands", "2"],
    ["abelianize", "--surface", "boundary-orientable", "--genus", "99999999", "--strands", "2"],
    ["present", "--surface", "artin", "--strands", "100000"],
    ["abelianize", "--surface", "closed-orientable", "--genus", "3000", "--strands", "3"],
    ["lcs", "--surface", "artin", "--strands", "3000", "--layer", "1"],
    ["abelianize", "--surface", "artin", "--strands", "1000"],
]


@pytest.mark.parametrize("argv", OVERSIZED_FAMILIES, ids=lambda argv: "-".join(a for a in argv if a[0] != "-"))
def test_oversized_family_exits_three_within_a_second(tmp_path, argv):
    if argv[0] == "verify-hom":
        path = tmp_path / "assignment.json"
        path.write_text(json.dumps({"degree": 2, "images": {}}), encoding="utf-8")
        argv = argv + ["--assignment", str(path)]
    start = time.perf_counter()
    out = run_in_1gb(*argv)
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 3, out.stderr[-300:]
    assert out.stderr.startswith(f"error: {argv[2]} presentation needs ")
    assert out.stderr.endswith(" generators and relator letters, over the bound 1000000\n")


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
        out = run_within(1.0, *argv)
        assert out.returncode == 3, argv
        assert out.stderr.startswith("error: ") and "bound" in out.stderr


def test_subgroup_scan_over_the_closure_bound_exits_three():
    # S_6 has 1,455 subgroups; the closures the scan makes pass 10^7
    # cells, elements × degree 6, long before it ends
    out = run_within(10.0, "smallgrp", "symmetric", "--n", "6", "--order", "720")
    assert out.returncode == 3
    assert out.stderr == (
        "error: subgroup scan exceeds bound 10000000 cells (closed elements × degree)\n"
    )


def test_subgroup_scan_charges_the_degree_of_each_closed_element():
    # dicyclic(250) on 1,000 points: 10^4 closed elements reach the bound
    out = run_within(10.0, "smallgrp", "dicyclic", "--n", "250", "--scan-dihedral")
    assert out.returncode == 3
    assert out.stderr.startswith("error: subgroup scan exceeds bound 10000000 cells")


def test_braidkit_is_imported_from_this_checkout():
    # the check bench/run.py's import_program makes, here and in a child
    src = Path(__file__).resolve().parent.parent / "src"
    assert Path(braidkit.__file__).resolve().parent == src / "braidkit"
    code = "import braidkit; print(braidkit.__file__)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert Path(out.stdout.strip()).resolve().parent == src / "braidkit"


def test_largest_dicyclic_group_is_built_quickly():
    # order 1,000, the most the regular representation's bound admits
    out = run_within(10.0, "smallgrp", "dicyclic", "--n", "250")
    assert out.returncode == 0
    assert out.stdout == "order: 1000\n"
    out = run_within(10.0, "smallgrp", "dicyclic", "--n", "250", "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"order": 1000, "dihedral": False}


def test_closure_text_prints_the_order_without_listing_cycles():
    out = run_within(3.0, "perm", "closure", _cycle(3000))
    assert out.returncode == 0
    assert out.stdout == "order: 3000\n"


def test_symmetric_group_of_degree_seven_is_built_quickly():
    out = run("smallgrp", "symmetric", "--n", "7", "--json", timeout=10)
    assert out.returncode == 0
    assert json.loads(out.stdout)["order"] == 5040


def test_deeply_nested_corpus_exits_two(tmp_path):
    # libyaml's composer recurses in C, and 100,000 levels killed the
    # interpreter (exit 139); the child process keeps a crash out of pytest
    path = tmp_path / "deep.yaml"
    path.write_text("a: " + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    out = run("claims", "run", str(path), timeout=60)
    assert out.returncode == 2, (out.returncode, out.stderr[-300:])
    assert out.stderr.startswith("error: ") and "more than 100 deep" in out.stderr
    assert out.stdout == ""


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


DEEP_JSON = "[" * 100_000


def test_deeply_nested_presentation_file_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    out = run("lcs", "--presentation", str(path), "--layer", "1")
    assert out.returncode == 2
    _one_error_line(out)
    assert out.stderr.startswith("error: --presentation: ")


def test_deeply_nested_inline_json_exits_two():
    out = run("epi", "--from", DEEP_JSON, "--to", '{"free_rank":0}')
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


@pytest.mark.parametrize("names", [[[1]], [None, None], [1, 2]], ids=["list", "null", "int"])
def test_generator_names_must_be_strings(tmp_path, capsys, names):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({"generators": names, "relators": []}), encoding="utf-8")
    for argv in (["lcs", "--layer", "2"], ["present"], ["abelianize"]):
        code, err = _main_exit(capsys, *argv, "--presentation", str(path))
        assert code == 2, argv
        assert err == f"error: generator name must be of type str, got {names[0]!r}\n", argv


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


# --- the parser fills in the invoked subcommand alone ---------------------------------------

USAGE = (
    "usage: braidkit [-h]\n"
    "                {present,abelianize,lcs,epi,homsearch,verify-hom,perm,smallgrp,klein-scan,claims}\n"
    "                ...\n"
)


@pytest.mark.parametrize(
    "argv", [[name, "--help"] for name in cli._SUBCOMMANDS] + [["claims", "run", "--help"]]
)
def test_every_subcommand_help_exits_zero(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: braidkit {' '.join(argv[:-1])} [-h]")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'present', "
         "'abelianize', 'lcs', 'epi', 'homsearch', 'verify-hom', 'perm', 'smallgrp', "
         "'klein-scan', 'claims')"),
        (["--json", "present"], "unrecognized arguments: --json"),
    ],
)
def test_usage_errors_before_a_subcommand_read_as_before(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"{USAGE}braidkit: error: {message}\n"


def test_option_before_the_subcommand_still_fills_it_in(capsys, monkeypatch):
    # argparse runs the first word that names a subcommand, here lcs
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(["--json", "lcs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: braidkit lcs [-h]\n")
    assert err.endswith("braidkit lcs: error: the following arguments are required: --layer\n")


def test_unknown_words_are_never_parser_cache_keys(capsys):
    cli.build_parser.cache_clear()  # count the parsers main builds, and no others
    for i in range(50):
        assert cli.main([f"bogus{i}", "--json"]) == 2
    for name in cli._SUBCOMMANDS:
        cli.main([name, "--help"])
    capsys.readouterr()
    assert cli.build_parser.cache_info().currsize <= len(cli._SUBCOMMANDS) + 1
