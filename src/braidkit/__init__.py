"""braidkit: surface braid group presentations, lower central series
layers, and representations in symmetric groups, by exact computation.

The public names are loaded on first access (PEP 562): ``import braidkit``
imports no submodule, and ``braidkit.lcs_layer`` imports ``braidkit.nilq``
and returns its own ``lcs_layer``.  Nothing is cached here, so the name
always reads the submodule's current attribute.
"""

import importlib

# submodule -> the public names it defines, re-exported here
_EXPORTS = {
    "errors": ("BoundExceededError", "InvalidInputError", "UnsupportedFamilyError"),
    "fpgroup": (
        "FamilyTag",
        "Presentation",
        "add_relators",
        "artin_presentation",
        "boundary_orientable",
        "class2_quotient_presentation",
        "closed_orientable",
        "nonorientable",
    ),
    "homsearch": (
        "CensusResult",
        "GeneratorAssignment",
        "HomClassification",
        "classify_hom",
        "direct_sum",
        "enumerate_homs",
        "verify_hom",
    ),
    "nilq": ("NilpotentQuotient", "free_layer_rank", "lcs_layer", "nilpotent_quotient"),
    "permgrp": (
        "CycleType",
        "Permutation",
        "centralizer_order",
        "closure",
        "compose",
        "cycle_type",
        "finite_group_invariants",
        "group_order",
        "is_primitive",
        "orbits",
        "parse_cycles",
    ),
    "smallgrp": (
        "FiniteGroup",
        "dicyclic",
        "is_dihedral",
        "klein_relation_scan",
        "quotient",
        "subgroup_scan",
        "z3_semidirect_z4",
    ),
    "word": ("Word", "commutator", "exponent_vector", "reduce_word"),
    "zlinalg": (
        "FgAbelianGroup",
        "IntMatrix",
        "SmithNormalForm",
        "abelianization",
        "admits_epimorphism",
        "min_generators_lower_bound",
        "smith_normal_form",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# ``from braidkit import *`` binds the public names and their submodules
__all__ = [*_SOURCE, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
