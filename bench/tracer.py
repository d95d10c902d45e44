"""Outside-in tracing of braidkit: wrappers around the public (and a few
private) functions of each module, spans kept in memory, and the
per-layer metrics derived from them.

No program file is edited.  A function is wrapped wherever it is bound:
in its defining module, in every braidkit module that imported it with
``from .x import y``, and in the ``homsearch.PREDICATES`` and
``claims.OPS`` tables.  ``uninstall`` puts every original object back.

Hot, tiny functions (``Permutation.inverse``, ``Permutation`` construction,
``reduce_word``) are counted, not spanned, so that tracing stays cheap.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, attribute): functions that get a span per call; the module is the layer
SPANNED = (
    ("fpgroup", "closed_orientable"),
    ("fpgroup", "boundary_orientable"),
    ("fpgroup", "nonorientable"),
    ("fpgroup", "artin_presentation"),
    ("fpgroup", "class2_quotient_presentation"),
    ("fpgroup", "Presentation.from_json"),
    ("zlinalg", "_row_echelon"),
    ("zlinalg", "_solve_in_lattice"),
    ("zlinalg", "_kernel_basis"),
    ("zlinalg", "smith_normal_form"),
    ("nilq", "lcs_layer"),
    ("nilq", "nilpotent_quotient"),
    ("nilq", "_weight_rows"),
    ("nilq", "_layer_from_lattice"),
    ("permgrp", "closure"),
    ("permgrp", "is_primitive"),
    ("permgrp", "orbits"),
    ("smallgrp", "klein_relation_scan"),
    ("smallgrp", "subgroup_scan"),
    ("smallgrp", "quotient"),
    ("smallgrp", "is_dihedral"),
    ("smallgrp", "from_generators"),
    ("smallgrp", "FiniteGroup.__post_init__"),
    ("homsearch", "enumerate_homs"),
    ("homsearch", "verify_hom"),
    ("homsearch", "classify_hom"),
    ("claims", "load_corpus"),
)
# (module, attribute): functions whose calls are only counted
COUNTED = (
    ("word", "reduce_word"),
    ("permgrp", "Permutation.inverse"),
    ("permgrp", "Permutation.__post_init__"),
)
# name -> layer for the entries of the two operation tables
TABLES = (("homsearch", "PREDICATES", "homsearch.predicate"), ("claims", "OPS", "claims.op"))
# spans that record sizes (see _size_info); predicate spans always do
SIZED = {
    "zlinalg._row_echelon",
    "zlinalg.smith_normal_form",
    "permgrp.closure",
    "smallgrp.klein_relation_scan",
} | {f"fpgroup.{p}" for m, p in SPANNED if m == "fpgroup"}

# span fields
NAME, START, END, PARENT, INFO = range(5)


def _size_info(name, args, result):
    """Sizes recorded on a span, read from its arguments and result."""
    if name == "zlinalg._row_echelon":
        rows, ncols = args[0], args[1]
        return {"rows": len(rows) if isinstance(rows, list) else 0, "cols": ncols}
    if name == "zlinalg.smith_normal_form":
        m = args[0]
        bits = max((f.bit_length() for f in result.factors), default=0)
        return {"cells": m.rows * m.cols, "bits": bits}
    if name == "permgrp.closure":
        return {"elems": len(result)}
    if name == "smallgrp.klein_relation_scan":
        return {"pairs": (2 * args[0] + 1) ** 4}
    if name.startswith("fpgroup."):
        return {"letters": sum(len(r) for r in result.relators)}
    if name.startswith("homsearch.predicate."):
        return {"accepted": bool(result)}
    return None


class Tracer:
    """Spans and counters for one traced stretch of work.

    Spans are lists [name, start, end, parent index, info]; parent -1
    marks a root.  ``run()`` opens a root span from the harness itself
    (the job span), so every span of one job shares that root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _spanning(self, name, fn, sized):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if sized:
                span[INFO] = _size_info(name, args, result)
            return result

        return wrapper

    def _counting(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, name, fn):
        """Call fn() inside a root span of the given name."""
        return self._spanning(name, fn, False)()

    def reset(self):
        self.spans.clear()
        for k in self.counts:
            self.counts[k] = 0

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname == "braidkit" or modname.startswith("braidkit."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _patch(self, modname, path, make):
        module = sys.modules[f"braidkit.{modname}"]
        if "." in path:  # a method or classmethod of a class
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
        else:
            original = getattr(module, path)
            self._patch_everywhere(original, make(original))

    def install(self):
        import braidkit.claims  # noqa: F401  (imports every layer)

        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, path in SPANNED:
            name = f"{modname}.{path}"
            sized = name in SIZED
            self._patch(modname, path, lambda fn, n=name, s=sized: self._spanning(n, fn, s))
        for modname, path in COUNTED:
            name = f"{modname}.{path}"
            self._patch(modname, path, lambda fn, n=name: self._counting(n, fn))
        for modname, table, prefix in TABLES:
            entries = getattr(sys.modules[f"braidkit.{modname}"], table)
            for key, fn in list(entries.items()):
                name = f"{prefix}.{key}"
                self._undo.append((entries, key, fn))
                entries[key] = self._spanning(name, fn, prefix == "homsearch.predicate")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer(name: str) -> str:
    return name.split(".")[0]


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one stretch of traced work."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child_time)]

    def outermost(i, layer):
        """No ancestor of span i lies in the same layer."""
        p = spans[i][PARENT]
        while p >= 0:
            if _layer(spans[p][NAME]) == layer:
                return False
            p = spans[p][PARENT]
        return True

    def total(names, attr=None):
        if attr is None:
            return sum(d for s, d in zip(spans, dur) if s[NAME] in names)
        return sum(s[INFO][attr] for s in spans if s[NAME] in names and s[INFO])

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    def self_of(pred):
        return sum(t for s, t in zip(spans, self_time) if pred(s))

    # rows fed to the weight-3 echelon: the echelon nilpotent_quotient calls itself
    w3 = [
        s[INFO] for s in spans
        if s[NAME] == "zlinalg._row_echelon" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "nilq.nilpotent_quotient"
    ]
    echelons = [s[INFO] for s in spans if s[NAME] == "zlinalg._row_echelon"]
    snfs = [s[INFO] for s in spans if s[NAME] == "zlinalg.smith_normal_form"]
    preds = [s for s in spans if s[NAME].startswith("homsearch.predicate.")]
    accepted = sum(1 for s in preds if s[INFO]["accepted"])
    census = {"homsearch.enumerate_homs"}
    fp_top = [
        i for i, s in enumerate(spans)
        if _layer(s[NAME]) == "fpgroup" and outermost(i, "fpgroup")
    ]
    small_top = [
        i for i, s in enumerate(spans)
        if _layer(s[NAME]) == "smallgrp" and s[NAME] != "smallgrp.klein_relation_scan"
        and outermost(i, "smallgrp")
    ]
    ops = {}
    for s, d in zip(spans, dur):
        if s[NAME].startswith("claims.op."):
            op = s[NAME][len("claims.op."):]
            key = op if op in ("homsearch", "klein-scan", "lcs", "abelianize") else "other"
            ops[key] = ops.get(key, 0.0) + d
    return {
        "nilq.quotient_calls": calls("nilq.nilpotent_quotient"),
        "nilq.quotient_s": total({"nilq.nilpotent_quotient"}),
        "nilq.self_s": self_of(lambda s: _layer(s[NAME]) == "nilq"),
        "nilq.rows": sum(i["rows"] for i in w3),
        "nilq.cols": max((i["cols"] for i in w3), default=0),
        "zlinalg.echelon_s": total({"zlinalg._row_echelon"}),
        "zlinalg.echelon_calls": len(echelons),
        "zlinalg.echelon_cells_in": sum(i["rows"] * i["cols"] for i in echelons),
        "zlinalg.solve_s": total({"zlinalg._solve_in_lattice"}),
        "zlinalg.solve_calls": calls("zlinalg._solve_in_lattice"),
        "zlinalg.kernel_s": total({"zlinalg._kernel_basis"}),
        "zlinalg.snf_s": total({"zlinalg.smith_normal_form"}),
        "zlinalg.snf_calls": len(snfs),
        "zlinalg.snf_cells": sum(i["cells"] for i in snfs),
        "zlinalg.snf_max_factor_bits": max((i["bits"] for i in snfs), default=0),
        "zlinalg.self_s": self_of(lambda s: _layer(s[NAME]) == "zlinalg"),
        "homsearch.census_s": total(census),
        "homsearch.census_self_s": self_of(lambda s: s[NAME] in census),
        "homsearch.leaves": len(preds),
        "homsearch.accepted": accepted,
        "homsearch.accept_ratio": accepted / len(preds) if preds else 0.0,
        "homsearch.verify_s": total({"homsearch.verify_hom"}),
        "homsearch.classify_s": total({"homsearch.classify_hom"}),
        "permgrp.inverse_calls": counts.get("permgrp.Permutation.inverse", 0),
        "permgrp.perm_objects": counts.get("permgrp.Permutation.__post_init__", 0),
        "permgrp.closure_s": total({"permgrp.closure"}),
        "permgrp.closure_calls": calls("permgrp.closure"),
        "permgrp.closure_elems": total({"permgrp.closure"}, "elems"),
        "permgrp.primitive_s": total({"permgrp.is_primitive"}),
        "permgrp.orbits_s": total({"permgrp.orbits"}),
        "smallgrp.klein_s": total({"smallgrp.klein_relation_scan"}),
        "smallgrp.klein_pairs": total({"smallgrp.klein_relation_scan"}, "pairs"),
        "smallgrp.scan_s": sum(dur[i] for i in small_top),
        "claims.load_s": total({"claims.load_corpus"}),
        **{f"claims.op_s.{k}": ops.get(k, 0.0)
           for k in ("homsearch", "klein-scan", "lcs", "abelianize", "other")},
        "fpgroup.build_s": sum(dur[i] for i in fp_top),
        "fpgroup.relator_letters": sum(spans[i][INFO]["letters"] for i in fp_top),
        "word.reduce_calls": counts.get("word.reduce_word", 0),
        "trace.harness_s": self_of(lambda s: _layer(s[NAME]) == "bench"),
    }


def combine(setup: dict, passes: list[dict]) -> dict:
    """Set-up once plus the median pass, metric by metric.

    Exact counts repeat across passes, so their median is exact.
    """
    out = {}
    for key, value in setup.items():
        per_pass = statistics.median(p[key] for p in passes)
        if key in ("nilq.cols", "zlinalg.snf_max_factor_bits"):
            out[key] = max(value, per_pass)
        elif key == "homsearch.accept_ratio":
            out[key] = per_pass
        else:
            out[key] = value + per_pass
    return out
