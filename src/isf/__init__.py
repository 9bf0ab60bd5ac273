"""Exact combinatorics of increasing spanning forests.

Enumeration and generating polynomials of increasing spanning forests, the
bracket-matching subset injection, the edge-moving local injection on
forest pairs with exhaustive verification, the forest/permutation cycle
bridge with Stirling numbers of the first kind, and the chromatic
polynomial / broken-circuit / good-vertex apparatus.

`import isf` compiles none of it: each submodule is registered in
`sys.modules` through `importlib.util.LazyLoader` and compiled when first
used.  Registering, not importing where used, keeps every `isf.*` module in
`sys.modules` for tools that wrap what they find there (perfbench's tracer).
"""

import importlib.util
import sys

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "brackets": "phi phi_inverse phi_reversed subset_pair_map",
    "chromatic": "broken_circuits chromatic_polynomial is_admissible_goodvertex "
                 "movable_edge_search peo_isf_check spanning_forests whitney_check",
    "enumeration": "a_poly enumerate_if isf_counts isf_factorization_check "
                   "isf_tpoly strong_logconcavity_check",
    "errors": "CyclicInput IndexViolation InputError InvariantViolation "
              "NonCanonicalCycle NotASubset NotIncreasing NotInGraph NotInImage "
              "SizeViolation",
    "graphs": "Forest OrderedGraph complete_graph",
    "injection": "PsiTrace psi verify_psi",
    "polynomials": "MultiPoly TPoly",
    "stirling": "Permutation StirlingRow forest_to_permutation permutation_psi "
                "permutation_to_forest stirling_row",
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
    globals()[_module] = sys.modules[_spec.name]
del importlib, sys, _module, _spec


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"
