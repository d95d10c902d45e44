"""The benchmark tracer (bench/tracer.py) wraps braidkit functions by
name.  Every name it lists must resolve, installing and removing the
tracer must leave the program's objects as they were, and the spans it
records must still give the nilq and fpgroup metrics.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_every_traced_name_resolves(monkeypatch):
    tracer = _tracer(monkeypatch)
    for modname, path in tracer.SPANNED + tracer.COUNTED:
        module = importlib.import_module(f"braidkit.{modname}")
        if "." in path:  # looked up in the class dict, not inherited
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{modname}.{path}"
        else:
            assert callable(getattr(module, path, None)), f"{modname}.{path}"


def test_install_and_uninstall_restore_the_originals(monkeypatch):
    tracer = _tracer(monkeypatch)
    from braidkit import permgrp, smallgrp

    closure = permgrp.closure
    post_init = vars(smallgrp.FiniteGroup)["__post_init__"]
    t = tracer.Tracer()
    t.install()
    try:
        assert permgrp.closure is not closure
        assert smallgrp.closure is not closure
    finally:
        t.uninstall()
    assert permgrp.closure is closure
    assert smallgrp.closure is closure
    assert vars(smallgrp.FiniteGroup)["__post_init__"] is post_init


def test_a_traced_layer_reads_the_nilq_metrics(monkeypatch):
    tracer = _tracer(monkeypatch)
    from braidkit import nilq
    from braidkit.fpgroup import closed_orientable

    p = closed_orientable(1, 3)
    with tracer.Tracer() as t:
        t.run("bench.job", lambda: nilq.lcs_layer(p, 3))
    metrics = tracer.layer_metrics(t.spans, t.counts)
    assert metrics["nilq.quotient_calls"] == 1
    assert metrics["nilq.rows"] > 0


def test_a_traced_build_reads_the_fpgroup_metrics(monkeypatch):
    # each family builds under one span, since no builder calls another
    tracer = _tracer(monkeypatch)
    from braidkit import fpgroup

    with tracer.Tracer() as t:
        for surface in fpgroup._FAMILIES:
            t.reset()
            spec = {"surface": surface, "genus": 2, "strands": 4}
            p = t.run("bench.job", lambda: fpgroup.resolve_presentation(spec))
            metrics = tracer.layer_metrics(t.spans, t.counts)
            assert metrics["fpgroup.relator_letters"] == sum(len(r) for r in p.relators), surface
            assert metrics["fpgroup.build_s"] > 0, surface
