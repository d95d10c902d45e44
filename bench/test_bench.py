"""Tests of the benchmark itself: seed invariance, the correctness gate,
the expected table against the corpus, and the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.import_program()

from braidkit import claims, fpgroup, zlinalg  # noqa: E402

EXPECTED = workloads.load_expected()

# cheap jobs of each workload, outputs compared across seeds
SLICES = {
    "corpus": [
        "paper.gam3closed.2a.g1n3", "paper.gam3closed.3.g1n3", "paper.exo1.image-order",
        "paper.exo1.structure", "paper.remark1.s408.valid", "paper.renil.layer3",
    ],
    "lcs-grid": [
        f"{s}/g{g}/n{n}/layer{i}"
        for s, g, n in workloads.LCS_GRID if g <= 2 and n <= 3 for i in (1, 2)
    ],
    "hom-census": [
        "closed-orientable/g2/n2/S3/all", "classify/imprimitive-s8",
        "classify/imprimitive-s16", "classify/wreath-3", "verify/composite-s408",
    ],
    "cli-cold": ["verify-hom", "present"],
}


def outputs(workload, seed, ids):
    by_id = {job.id: job for job in workloads.prepared(workload, seed)}
    return {jid: workloads.canonical(by_id[jid].run()) for jid in ids}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_identical_outputs(workload):
    ids = SLICES[workload]
    first, second = outputs(workload, 1, ids), outputs(workload, 2, ids)
    assert first == second
    assert first == {jid: workloads.canonical(EXPECTED[workload][jid]) for jid in ids}


def test_seeded_rewrite_changes_the_input_but_not_the_group():
    import random

    p = fpgroup.closed_orientable(2, 3).to_json()
    a = workloads.rewrite_relators(p, random.Random(1))
    b = workloads.rewrite_relators(p, random.Random(2))
    assert a["relators"] != b["relators"] != p["relators"]
    groups = {str(zlinalg.abelianization(fpgroup.Presentation.from_json(x))) for x in (p, a, b)}
    assert len(groups) == 1


def test_job_order_depends_on_the_seed():
    one, two = workloads.prepared("hom-census", 1), workloads.prepared("hom-census", 2)
    assert [j.id for j in one] != [j.id for j in two]
    assert sorted(j.id for j in one) == sorted(EXPECTED["hom-census"])


def test_sharded_census_equals_its_serial_twin():
    twin = workloads.SHARDED + "/workers2"
    out = outputs("hom-census", 3, [workloads.SHARDED, twin])
    assert out[workloads.SHARDED] == out[twin]
    assert json.loads(out[twin])["count"] == 384


def test_expected_values_agree_with_the_corpus():
    grid = EXPECTED["lcs-grid"]
    census = EXPECTED["hom-census"]
    checked = 0
    for record in claims.load_corpus(str(workloads.CORPUS)):
        a = record.args
        if record.op == "lcs":
            jid = f"{a['surface']}/g{a.get('genus', 0)}/n{a['strands']}/layer{a['layer']}"
            if jid in grid:
                assert grid[jid] == record.expect, record.id
                checked += 1
        elif record.op == "homsearch":
            jid = workloads.census_id(a["surface"], a.get("genus", 0), a["strands"],
                                      a["target_sym"], a.get("filter", "all"))
            if jid in census:
                assert census[jid]["count"] == record.expect["count"], record.id
                checked += 1
    assert checked >= 20
    # the one documented discrepancy stays visible: the paper states order
    # 32, the program computes 16, and both tables keep what was computed
    corpus = EXPECTED["corpus"]["paper.exo1.image-order"]
    assert corpus == {"status": "fail", "actual": {"image_order": 16}, "message": ""}
    assert census["classify/imprimitive-s8"]["image_order"] == 16
    assert census["verify/composite-s408"] is None  # corpus: {"ok": true}


def test_gate_counts_a_wrong_output():
    jobs = [j for j in workloads.prepared("lcs-grid", 1) if j.id in SLICES["lcs-grid"][:3]]
    expected = dict(EXPECTED["lcs-grid"])
    _, _, _, failed = run.run_passes(jobs, expected, 0, 0)
    assert failed == []
    expected[jobs[0].id] = {"free_rank": 99, "torsion": []}
    _, samples, _, failed = run.run_passes(jobs, expected, 0, 0)
    assert failed == [jobs[0].id] and len(samples) == len(jobs)


def _bindings():
    """Every object the tracer may replace, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "braidkit" or name.startswith("braidkit."):
            seen.update({(name, k): v for k, v in vars(module).items()})
            for k, v in vars(module).items():
                if isinstance(v, type):
                    seen.update({(name, k, a): w for a, w in vars(v).items()})
    seen.update({("PREDICATES", k): v for k, v in sys.modules["braidkit.homsearch"].PREDICATES.items()})
    seen.update({("OPS", k): v for k, v in claims.OPS.items()})
    return seen


def test_tracer_installs_and_uninstalls_cleanly():
    before = _bindings()
    t = tracer.Tracer()
    with t:
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) > 30
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


KLEIN_CLAIM = next(
    r.id for r in claims.load_corpus(str(workloads.CORPUS)) if r.op == "klein-scan"
)


def traced_counts(seed):
    t = tracer.Tracer()
    jobs = [j for j in workloads.prepared("hom-census", seed) if j.id in SLICES["hom-census"]]
    jobs += [j for j in workloads.prepared("corpus", seed)
             if j.id in ("paper.renil.layer3", KLEIN_CLAIM)]
    with t:
        expected = {**EXPECTED["hom-census"], **EXPECTED["corpus"]}
        _, _, layers, failed = run.run_passes(jobs, expected, 0, 0, t)
    assert failed == []
    return layers[0]


def test_traced_counts_repeat_exactly():
    a, b = traced_counts(5), traced_counts(5)
    for key in ("permgrp.inverse_calls", "permgrp.perm_objects", "homsearch.leaves",
                "zlinalg.echelon_calls", "smallgrp.klein_pairs", "nilq.rows"):
        assert a[key] == b[key] > 0, key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_run_reports_every_declared_metric():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    units = run.declared_units(1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
