"""What a fresh process imports: ``import braidkit`` loads no submodule,
its public names load their submodule on first access, and each CLI
command loads only the layers it runs."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import braidkit

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the names ``braidkit/__init__.py`` re-exported when it imported every layer
REEXPORTED = {
    "errors": ["BoundExceededError", "InvalidInputError", "UnsupportedFamilyError"],
    "fpgroup": [
        "FamilyTag", "Presentation", "add_relators", "artin_presentation",
        "boundary_orientable", "class2_quotient_presentation", "closed_orientable",
        "nonorientable",
    ],
    "homsearch": [
        "CensusResult", "GeneratorAssignment", "HomClassification", "classify_hom",
        "direct_sum", "enumerate_homs", "verify_hom",
    ],
    "nilq": ["NilpotentQuotient", "free_layer_rank", "lcs_layer", "nilpotent_quotient"],
    "permgrp": [
        "CycleType", "Permutation", "centralizer_order", "closure", "compose", "cycle_type",
        "finite_group_invariants", "group_order", "is_primitive", "orbits", "parse_cycles",
    ],
    "smallgrp": [
        "FiniteGroup", "dicyclic", "is_dihedral", "klein_relation_scan", "quotient",
        "subgroup_scan", "z3_semidirect_z4",
    ],
    "word": ["Word", "commutator", "exponent_vector", "reduce_word"],
    "zlinalg": [
        "FgAbelianGroup", "IntMatrix", "SmithNormalForm", "abelianization",
        "admits_epimorphism", "min_generators_lower_bound", "smith_normal_form",
    ],
}
NAMES = [name for names in REEXPORTED.values() for name in names]
LIBRARY = {"errors", "fpgroup", "word", "zlinalg", "nilq", "permgrp", "homsearch", "smallgrp"}


def _child(code: str, *args: str):
    """Run code in a fresh interpreter and decode the JSON it prints."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


LOADED = "sorted(m[len('braidkit.'):] for m in sys.modules if m.startswith('braidkit.'))"


def test_bare_import_loads_no_submodule():
    assert _child(f"import braidkit, json, sys; print(json.dumps({LOADED}))") == []


def test_submodule_attribute_works_after_a_bare_import():
    code = (
        "import braidkit, json, sys; m = braidkit.homsearch; "
        "print(json.dumps([m is sys.modules['braidkit.homsearch'], callable(m.enumerate_homs)]))"
    )
    assert _child(code) == [True, True]


def test_star_import_binds_the_names_and_their_submodules():
    code = "import json; ns = {}; exec('from braidkit import *', ns); print(json.dumps(sorted(ns)))"
    assert set(_child(code)) - {"__builtins__"} == set(NAMES) | LIBRARY


def test_claims_imports_every_library_module():
    # bench/tracer.py imports braidkit.claims to load every layer it wraps
    code = f"import braidkit.claims, json, sys; print(json.dumps({LOADED}))"
    assert set(_child(code)) == LIBRARY | {"claims"}


def test_public_names_are_the_submodules_own_objects():
    assert len(NAMES) == 51
    assert set(NAMES) <= set(braidkit.__all__)
    for module, names in REEXPORTED.items():
        sub = importlib.import_module(f"braidkit.{module}")
        for name in names:
            assert getattr(braidkit, name) is getattr(sub, name), name
    assert set(NAMES) <= set(dir(braidkit))
    # nothing is cached in the package, so a wrapper set on a submodule
    # (and removed again) is what the package name reads
    assert not set(NAMES) & set(vars(braidkit))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'lcs_layers'"):
        braidkit.lcs_layers


def test_package_names_follow_a_patched_submodule(monkeypatch):
    from braidkit import nilq

    monkeypatch.setattr(nilq, "lcs_layer", len)
    assert braidkit.lcs_layer is len
    monkeypatch.undo()
    assert braidkit.lcs_layer is nilq.lcs_layer


# a command's modules, beyond cli and errors, when it runs in a fresh process
FOOTPRINT = {
    "--help": set(),
    "present": {"fpgroup", "word"},
    "abelianize": {"fpgroup", "word", "zlinalg"},
    "lcs": {"fpgroup", "word", "zlinalg", "nilq"},
    "epi": {"fpgroup", "word", "zlinalg", "nilq"},
    "perm-primitive": {"permgrp"},
    "smallgrp-dicyclic": {"permgrp", "smallgrp"},
    "verify-hom": {"fpgroup", "word", "permgrp", "homsearch"},
    "klein-scan": {"permgrp", "smallgrp"},
}


def _cli_commands(tmp_path, monkeypatch):
    """The bench's cli-cold commands, and --help, with verify-hom's
    assignment read from a file instead of stdin."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    from braidkit import homsearch

    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(homsearch.imprimitive_s8_assignment(4).to_json()))
    commands = {"--help": ["--help"]}
    for name, argv in workloads.CLI_COMMANDS.items():
        commands[name] = [str(path) if a == "/dev/stdin" else a for a in argv] + ["--json"]
    return commands


def test_each_cli_command_loads_only_its_layers(tmp_path, monkeypatch):
    commands = _cli_commands(tmp_path, monkeypatch)
    assert set(commands) == set(FOOTPRINT)
    code = (
        "import contextlib, io, json, sys\n"
        "from braidkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(json.loads(sys.argv[1]))\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    )
    for name, argv in commands.items():
        exit_code, loaded = _child(code, json.dumps(argv))
        assert exit_code == 0, name
        assert set(loaded) == {"cli", "errors"} | FOOTPRINT[name], name
