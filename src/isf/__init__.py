"""Exact combinatorics of increasing spanning forests.

Enumeration and generating polynomials of increasing spanning forests, the
bracket-matching subset injection, the edge-moving local injection on
forest pairs with exhaustive verification, the forest/permutation cycle
bridge with Stirling numbers of the first kind, and the chromatic
polynomial / broken-circuit / good-vertex apparatus.
"""

from .brackets import phi, phi_inverse, phi_reversed, subset_pair_map
from .chromatic import (
    BrokenCircuitConvention,
    IntPoly,
    broken_circuits,
    chromatic_polynomial,
    circuits,
    has_perfect_elimination_order,
    is_admissible_goodvertex,
    is_nbc,
    movable_edge_search,
    peo_isf_check,
    spanning_forests,
    whitney_check,
)
from .enumeration import (
    a_poly,
    enumerate_if,
    isf_counts,
    isf_factorization_check,
    isf_tpoly,
    strong_logconcavity_check,
)
from .errors import (
    BadDegree,
    CyclicInput,
    IndexViolation,
    InputError,
    InvariantViolation,
    NonCanonicalCycle,
    NotASubset,
    NotIncreasing,
    NotInGraph,
    NotInImage,
    SizeViolation,
)
from .graphs import (
    Forest,
    OrderedGraph,
    Orientation,
    complete_graph,
    component_minima,
    is_increasing,
    orient,
)
from .injection import PsiTrace, psi, select_j, verify_psi
from .polynomials import MultiPoly, TPoly, elementary_symmetric
from .stirling import (
    Permutation,
    StirlingRow,
    forest_to_permutation,
    permutation_psi,
    permutation_to_forest,
    stirling_row,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
