"""Exact sparse multivariate polynomials over the integers.

A variable id is an edge (i, j) or a plain index i, one kind per
polynomial (InputError otherwise), so ids compare in their natural order;
a monomial is a tuple of variable ids, sorted (degrees > 1 appear as repeats).
Coefficients are Python ints, so exactness is never in doubt.  Terms are
serialized in graded lexicographic order for deterministic output.  TPoly
is a polynomial in t with int or MultiPoly coefficients: P(G; t), ISF(G; x, t).
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Record


def _monomial(vars_iter) -> tuple:
    return tuple(sorted(vars_iter))


def _check_one_kind(monomials) -> None:
    """Raise InputError if the monomials mix edge and index variables; a
    built polynomial has one kind, so one nonconstant monomial stands for it."""
    if len({type(v) for m in monomials for v in m}) > 1:
        raise InputError("MultiPoly mixes edge and index variables")


def _mono_key(m: tuple) -> tuple:
    return (len(m), m)


class NonnegReport(Record):
    _fields = ("is_nonneg",
               "witness")  # first negative (monomial, coefficient), or None


class MultiPoly:
    """Immutable sparse polynomial: {canonical monomial: nonzero int}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        _check_one_kind(terms or ())
        self._terms = {_monomial(m): c for m, c in (terms or {}).items() if c}

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

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        _check_one_kind(next(filter(None, p._terms), ()) for p in (self, other))
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
        _check_one_kind(next(filter(None, p._terms), ()) for p in (self, other))
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
        if not self._terms:
            return "MultiPoly(0)"
        parts = []
        for m, c in self.canonical_terms():
            mono = "*".join(f"x{v}" for v in m) if m else "1"
            parts.append(f"{c}*{mono}")
        return f"MultiPoly({' + '.join(parts)})"


class TPoly(Record):
    """Polynomial in t, coeffs[k] the coefficient of t^k, trailing zeros
    dropped.  A nonconstant one has no t^0 term, checked at construction:
    P(G; 0) = 0, and no spanning forest on n >= 1 vertices has 0 components."""

    _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        if len(coeffs) > 1 and coeffs[0]:
            raise ValueError("t^0 coefficient must vanish for n >= 1")
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def reflected(self, n: int) -> "TPoly":
        """(-1)^n * P(-t), for int coefficients."""
        return TPoly((-1) ** (n + k) * c for k, c in enumerate(self.coeffs))
