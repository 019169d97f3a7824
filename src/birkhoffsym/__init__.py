"""Exact-arithmetic verification of the combinatorial symmetry group of
the polytope of doubly stochastic matrices, and of its uniqueness among
representation polytopes at small scale.

Everything runs over the rationals: convex hulls by double description,
symmetry groups by incidence-preserving backtracking, group theory on
explicit multiplication tables.  No floating point anywhere.
"""

from .birkhoff import (
    SymmetryDecomposition,
    analytic_facet_sets,
    birkhoff_facets,
    birkhoff_vertices,
    decompose_symmetry,
    permutation_matrix,
    verify_intersection_table,
    verify_symmetry_group,
    verify_transformation_law,
)
from .cd import cd_lattice, verify_centralizer_estimate
from .combiso import comb_automorphisms, comb_equivalent
from .errors import InvariantError, PreconditionError
from .exact import primitive_vector
from .gamma import (
    commuting_regular_pairs,
    gamma_fibers,
    normalizer_in_full_symmetric,
    verify_wreath_quotient,
)
from .hull import (
    IncidenceStructure,
    Polytope,
    facet_enumeration,
)
from .perm import (
    PermutationGroup,
    closure,
    named_group,
    symmetric_group,
)
from .reppoly import (
    MatrixGroup,
    default_catalog,
    load_exceptional_c6,
    matrix_closure,
    matrix_group_from_perm_group,
    regular_matrix_group,
    representation_polytope,
    uniqueness_check,
    verify_gamma_acts,
)

__version__ = "0.1.0"
