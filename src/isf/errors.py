"""Exception types shared across the library.

Input errors derive from InputError (a ValueError) so callers can catch
"bad input" wholesale while tests pin the precise class.  The one
exception is InvariantViolation: it reports a broken internal invariant,
never bad input.
"""


class InputError(ValueError):
    """Invalid input to a library operation."""


class CyclicInput(InputError):
    """An edge set that was required to be acyclic contains a circuit."""


class NotIncreasing(InputError):
    """Forest is not increasing (some vertex is smaller than its parent)."""


class NotInGraph(InputError):
    """A forest uses an edge that the ambient graph does not have."""


class SizeViolation(InputError):
    """Cardinality precondition violated (e.g. |X| >= |Y|/2, or k >= l)."""


class NotASubset(InputError):
    """A set that was required to be a subset of the ground set is not."""


class NotInImage(InputError):
    """Attempt to invert the subset injection outside its image."""


class IndexViolation(InputError):
    """Log-concavity indices outside 0 < p <= q < n."""


class NonCanonicalCycle(InputError):
    """Permutation not in canonical cycle form (min-first, sorted by minima)."""


class InvariantViolation(RuntimeError):
    """A step of a proof's bookkeeping does not hold; never an input error."""
