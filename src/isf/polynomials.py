"""Exact sparse multivariate polynomials over the integers.

A variable id is an edge (i, j) or a plain index i, one kind per
polynomial, so ids compare in their natural order; a monomial is a tuple
of variable ids, sorted (degrees > 1 appear as repeats).
Coefficients are Python ints, so exactness is never in doubt.  Terms are
serialized in graded lexicographic order for deterministic output.
"""

from __future__ import annotations

from .graphs import Record


def _monomial(vars_iter) -> tuple:
    return tuple(sorted(vars_iter))


def _mono_key(m: tuple) -> tuple:
    return (len(m), m)


class NonnegReport(Record):
    _fields = ("is_nonneg",
               "witness")  # first negative (monomial, coefficient), or None


class MultiPoly:
    """Immutable sparse polynomial: {canonical monomial: nonzero int}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for m, c in (terms or {}).items():
            if c:
                clean[_monomial(m)] = c
        self._terms = clean

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = MultiPoly.zero()
        res._terms = out
        return res

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _monomial(m1 + m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        res = MultiPoly.zero()
        res._terms = out
        return res

    def nonneg_report(self) -> NonnegReport:
        """Coefficientwise nonnegativity, with a negative term as witness."""
        for m in sorted(self._terms, key=_mono_key):
            if self._terms[m] < 0:
                return NonnegReport(False, (m, self._terms[m]))
        return NonnegReport(True, None)

    def canonical_terms(self) -> list:
        """(monomial, coefficient) pairs in graded lexicographic order."""
        return [(m, self._terms[m]) for m in sorted(self._terms, key=_mono_key)]

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "vars": [v if isinstance(v, int) else list(v) for v in m],
                    "coef": str(c),
                }
                for m, c in self.canonical_terms()
            ]
        }

    def __repr__(self):
        if self.is_zero():
            return "MultiPoly(0)"
        parts = []
        for m, c in self.canonical_terms():
            mono = "*".join(f"x{v}" for v in m) if m else "1"
            parts.append(f"{c}*{mono}")
        return f"MultiPoly({' + '.join(parts)})"


class TPoly:
    """Polynomial in t with MultiPoly coefficients, indices 0..n.

    For n >= 1 the coefficient of t^0 must vanish (no spanning forest has
    zero components), which is asserted at construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("TPoly needs at least the t^0 coefficient")
        if len(coeffs) > 1 and not coeffs[0].is_zero():
            raise ValueError("t^0 coefficient must vanish for n >= 1")
        self.coeffs = coeffs

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def to_json(self) -> dict:
        return {"coeffs": self.coeffs}

    def __repr__(self):
        return f"TPoly({self.coeffs!r})"
