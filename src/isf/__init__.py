"""Exact combinatorics of increasing spanning forests.

Enumeration and generating polynomials of increasing spanning forests, the
bracket-matching subset injection, the edge-moving local injection on
forest pairs with exhaustive verification, the forest/permutation cycle
bridge with Stirling numbers of the first kind, and the chromatic
polynomial / broken-circuit / good-vertex apparatus.
"""

from .brackets import phi, phi_inverse, phi_reversed, subset_pair_map
from .chromatic import (
    broken_circuits,
    chromatic_polynomial,
    is_admissible_goodvertex,
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
    complete_graph,
)
from .injection import PsiTrace, psi, verify_psi
from .polynomials import MultiPoly, TPoly
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
