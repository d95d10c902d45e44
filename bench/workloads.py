"""Workload definitions: seeded inputs and the job list of each workload.

A job is one call a user would make (one claim, one ``lcs_layer``, one
``enumerate_homs``, one CLI invocation); a pass is the workload's job list
run once.  Every input is derived from the seed alone, and every seeded
rewrite preserves the job's output, so one table of expected outputs
serves all seeds:

* relators are replaced by a cyclic rotation (a conjugate) and, with
  probability 1/2, by their inverse, which leaves the group unchanged;
* canned assignments are conjugated by a point relabelling, which leaves
  the image group's classification unchanged;
* the job order is shuffled.

The program only sees the generated inputs: rewritten presentations and
relabelled assignments reach it through ``Presentation.from_json`` and
``GeneratorAssignment.from_json``, the paths a user's JSON files take.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus" / "paper.yaml"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("corpus", "lcs-grid", "hom-census", "cli-cold")


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], Any]  # returns a JSON-serialisable output


def canonical(output: Any) -> str:
    """The byte form in which job outputs are compared."""
    return json.dumps(output, sort_keys=True)


# ---------------------------------------------------------------------------
# seeded rewrites (harness code; no program function is involved)


def rewrite_relators(pres_json: dict, rng: random.Random) -> dict:
    """Rotate every relator cyclically and invert it with probability 1/2."""
    relators = []
    for letters in pres_json["relators"]:
        k = rng.randrange(len(letters))
        word = letters[k:] + letters[:k]
        if rng.random() < 0.5:
            word = [-x for x in reversed(word)]
        relators.append(word)
    return {**pres_json, "relators": relators}


def relabel_assignment(assign_json: dict, rng: random.Random) -> dict:
    """Conjugate every image by one random relabelling of the points."""
    m = assign_json["degree"]
    targets = list(range(1, m + 1))
    rng.shuffle(targets)
    relabel = lambda mo: str(targets[int(mo.group()) - 1])
    images = {k: re.sub(r"\d+", relabel, v) for k, v in assign_json["images"].items()}
    return {"degree": m, "images": images}


# ---------------------------------------------------------------------------
# job lists


def _family(surface, g, n):
    """A presentation built the way a claim or the CLI builds it."""
    from braidkit import claims

    return claims.resolve_presentation({"surface": surface, "genus": g, "strands": n})


def _seeded_presentation(pres, rng):
    from braidkit import fpgroup

    return fpgroup.Presentation.from_json(rewrite_relators(pres.to_json(), rng))


def _corpus_jobs(rng):
    from braidkit import claims

    def outcome(record):
        o = claims.run_records([record]).outcomes[0]
        return {"status": o.status, "actual": o.actual, "message": o.message}

    records = claims.load_corpus(str(CORPUS))
    rng.shuffle(records)
    return [Job(r.id, lambda r=r: outcome(r)) for r in records]


LCS_GRID = (
    [("closed-orientable", g, n) for g in range(0, 4) for n in range(1, 5)]
    + [("boundary-orientable", g, n) for g in range(1, 4) for n in range(1, 5)]
    + [("nonorientable", g, n) for g in range(1, 4) for n in range(1, 5)]
    + [("class2-quotient", g, n) for g in range(1, 4) for n in range(3, 6)]
)


def _lcs_jobs(rng):
    from braidkit import nilq

    jobs = []
    for surface, g, n in LCS_GRID:
        p = _seeded_presentation(_family(surface, g, n), rng)
        for i in (1, 2, 3):
            run = lambda p=p, i=i: nilq.lcs_layer(p, i).to_json()
            jobs.append(Job(f"{surface}/g{g}/n{n}/layer{i}", run))
    rng.shuffle(jobs)
    return jobs


# (surface, genus, strands, target degree, predicate, representatives kept)
CENSUS = (
    ("closed-orientable", 1, 4, 4, "all", 10),
    ("closed-orientable", 1, 4, 4, "cyclic", 10),
    ("closed-orientable", 1, 4, 4, "surjective", 0),
    ("closed-orientable", 1, 5, 4, "primitive", 0),
    ("boundary-orientable", 1, 3, 4, "all", 10),
    ("nonorientable", 2, 3, 4, "all", 0),
    ("artin", 0, 4, 5, "all", 0),
    ("closed-orientable", 2, 2, 3, "all", 10),
)
SHARDED = "closed-orientable/g1/n4/S4/all"  # also run with workers=2
CANNED = ("imprimitive-s8", "imprimitive-s16", "imprimitive-s32") + tuple(
    f"wreath-{l}" for l in (3, 5, 7, 11)
)


def census_id(surface, g, n, m, predicate) -> str:
    return f"{surface}/g{g}/n{n}/S{m}/{predicate}"


def _canned(name):
    from braidkit import homsearch

    if name.startswith("wreath-"):
        return homsearch.builtin_assignment("wreath-cycle", block_count=int(name[len("wreath-"):]))
    return homsearch.builtin_assignment(name)


def _seeded_assignment(assignment, rng):
    from braidkit import homsearch

    p = _seeded_presentation(assignment.presentation, rng)
    images = relabel_assignment(assignment.to_json(), rng)
    return p, homsearch.GeneratorAssignment.from_json(p, images)


def _census_jobs(rng):
    from braidkit import homsearch

    jobs = []
    for surface, g, n, m, predicate, reps in CENSUS:
        p = _seeded_presentation(_family(surface, g, n), rng)
        jid = census_id(surface, g, n, m, predicate)
        for workers in (1, 2) if jid == SHARDED else (1,):

            def run(p=p, m=m, predicate=predicate, reps=reps, workers=workers):
                result = homsearch.enumerate_homs(
                    p, m, predicate, max_representatives=reps, workers=workers
                )
                return result.to_json(include_representatives=reps > 0)

            jobs.append(Job(jid if workers == 1 else f"{jid}/workers2", run))
    for name in CANNED:
        p, a = _seeded_assignment(_canned(name), rng)
        run = lambda p=p, a=a: homsearch.classify_hom(p, a).to_json()
        jobs.append(Job(f"classify/{name}", run))
    p, a = _seeded_assignment(homsearch.composite_s408_assignment(), rng)
    jobs.append(Job("verify/composite-s408", lambda: homsearch.verify_hom(p, a)))
    rng.shuffle(jobs)
    return jobs


CLI_COMMANDS = {
    "present": ["present", "--surface", "closed-orientable", "--genus", "1", "--strands", "3"],
    "abelianize": ["abelianize", "--surface", "nonorientable", "--genus", "2", "--strands", "3"],
    "lcs": ["lcs", "--surface", "closed-orientable", "--genus", "1", "--strands", "3", "--layer", "2"],
    "epi": ["epi", "--from", '{"free_rank":0,"torsion":[12]}', "--to", '{"free_rank":0,"torsion":[4]}'],
    "perm-primitive": ["perm", "primitive", "(1,2,3,4)(5,6,7,8)", "(1,5)(2,6)(3,7)(4,8)", "--degree", "8"],
    "smallgrp-dicyclic": ["smallgrp", "dicyclic", "--n", "4"],
    "verify-hom": ["verify-hom", "--surface", "closed-orientable", "--genus", "1", "--strands", "4",
                   "--assignment", "/dev/stdin"],
    "klein-scan": ["klein-scan", "--radius", "3"],
}


def cli_env() -> dict:
    """Environment in which ``python -m braidkit`` imports this checkout."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _cli_jobs(rng):
    from braidkit import homsearch

    # verify-hom reads the relabelled assignment from its stdin, so no file is written
    assignment = json.dumps(relabel_assignment(homsearch.imprimitive_s8_assignment(4).to_json(), rng))
    env = cli_env()

    def invoke(argv, stdin):
        done = subprocess.run(
            [sys.executable, "-m", "braidkit", *argv, "--json"], input=stdin,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        return {"exit": done.returncode, "stdout": done.stdout}

    jobs = []
    for name, argv in CLI_COMMANDS.items():
        stdin = assignment if name == "verify-hom" else ""
        jobs.append(Job(name, lambda argv=argv, stdin=stdin: invoke(argv, stdin)))
    rng.shuffle(jobs)
    return jobs


def prepared(workload: str, seed: int) -> list[Job]:
    """Build the workload's inputs from the seed; returns its job list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        return _corpus_jobs(rng)
    if workload == "lcs-grid":
        return _lcs_jobs(rng)
    if workload == "hom-census":
        return _census_jobs(rng)
    if workload == "cli-cold":
        return _cli_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def load_expected() -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        return json.load(handle)
