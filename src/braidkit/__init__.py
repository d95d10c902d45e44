"""braidkit: surface braid group presentations, lower central series
layers, and representations in symmetric groups, by exact computation."""

from .errors import BoundExceededError, InvalidInputError, UnsupportedFamilyError
from .fpgroup import (
    FamilyTag,
    Presentation,
    add_relators,
    artin_presentation,
    boundary_orientable,
    class2_quotient_presentation,
    closed_orientable,
    nonorientable,
)
from .homsearch import (
    CensusResult,
    GeneratorAssignment,
    HomClassification,
    classify_hom,
    direct_sum,
    enumerate_homs,
    verify_hom,
)
from .nilq import NilpotentQuotient, free_layer_rank, lcs_layer, nilpotent_quotient
from .permgrp import (
    CycleType,
    Permutation,
    centralizer_order,
    closure,
    compose,
    cycle_type,
    finite_group_invariants,
    group_order,
    is_primitive,
    orbits,
    parse_cycles,
)
from .smallgrp import (
    FiniteGroup,
    dicyclic,
    is_dihedral,
    klein_relation_scan,
    quotient,
    subgroup_scan,
    z3_semidirect_z4,
)
from .word import Word, commutator, exponent_vector, reduce_word
from .zlinalg import (
    FgAbelianGroup,
    IntMatrix,
    SmithNormalForm,
    abelianization,
    admits_epimorphism,
    min_generators_lower_bound,
    smith_normal_form,
)

__version__ = "0.1.0"
