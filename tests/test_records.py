"""Value semantics of the thirteen frozen records, all built on
`graphs.Record`; `PsiTrace` keeps its fields as one tuple in one slot.

Every expected repr below was printed by the frozen dataclasses (or, for
the six reports, the NamedTuples) these classes replaced, so equality,
hashing and repr keep their old meaning; `TPoly`, which took in the int
polynomial class `IntPoly`, prints as that dataclass did.  A report with a
list field cannot be hashed, as before.  No record equals the plain tuple
of its fields, from either side.  Each survives copy, deepcopy and pickle.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import isf
from isf import (
    Forest, MultiPoly, OrderedGraph, TPoly, complete_graph,
    isf_factorization_check, movable_edge_search, peo_isf_check, psi,
    verify_psi, whitney_check,
)
from isf.cli import _pieces, _to_json
from isf.graphs import Record
from isf.polynomials import NonnegReport
from isf.stirling import Permutation, StirlingRow, permutation_psi, stirling_row
from conftest import identity_permutation

SRC = str(Path(isf.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))
E = frozenset({(1, 2)})
K3 = complete_graph(3)
A3 = Forest(3, frozenset({(1, 2), (1, 3)}))
P2 = OrderedGraph(2, E)
G33 = OrderedGraph(4, frozenset({(1, 4), (2, 3), (2, 4), (3, 4)}))


def _move():
    return permutation_psi(Permutation(3, ((1, 2, 3),)),
                           Permutation(3, ((1,), (2,), (3,))))


# (make, a different value of the same class, repr of make())
CASES = {
    "Forest": (
        lambda: Forest(3, E), Forest(3), "Forest(n=3, edges=frozenset({(1, 2)}))",
    ),
    "OrderedGraph": (
        lambda: OrderedGraph(3, E), OrderedGraph(4, E),
        "OrderedGraph(n=3, edges=frozenset({(1, 2)}))",
    ),
    "TPoly": (
        lambda: TPoly((0, -2, 0, 0)), TPoly((0, -2, 1)),
        "TPoly(coeffs=(0, -2))",
    ),
    "Permutation": (
        lambda: Permutation(3, ((1, 3), (2,))), identity_permutation(3),
        "Permutation(n=3, cycles=((1, 3), (2,)))",
    ),
    "StirlingRow": (
        lambda: stirling_row(4), stirling_row(3),
        "StirlingRow(n=4, unsigned=(0, 6, 11, 6, 1), signed=(0, -6, 11, -6, 1))",
    ),
    "PermutationMove": (
        _move,
        permutation_psi(Permutation(3, ((1, 2), (3,))),
                        Permutation(3, ((1,), (2,), (3,)))),
        "PermutationMove(sigma_p=Permutation(n=3, cycles=((1, 2), (3,))), "
        "tau_p=Permutation(n=3, cycles=((1,), (2, 3))), broken_cycle=(1, 2, 3), "
        "glued_pair=((2,), (3,)), spectators_unchanged=True)",
    ),
    "PsiTrace": (
        lambda: psi(K3, A3, Forest(3)), psi(K3, A3, Forest(3, E)),
        "PsiTrace(mA=frozenset({1}), mB=frozenset({1, 2, 3}), "
        "sym_diff=frozenset({2, 3}), j=3, A_comp=frozenset({1, 2, 3}), "
        "B_comp=frozenset({3}), i0=1, e=(1, 3), A_out_parent=(0, 0, 1, 0), "
        "B_out_parent=(0, 0, 0, 1))",
    ),
    "FactorizationReport": (
        lambda: isf_factorization_check(P2), isf_factorization_check(K3),
        "FactorizationReport(equal=True, lhs=TPoly(coeffs=(MultiPoly(0), "
        "MultiPoly(1*x(1, 2)), MultiPoly(1*1))), rhs=TPoly(coeffs=(MultiPoly(0), "
        "MultiPoly(1*x(1, 2)), MultiPoly(1*1))))",
    ),
    "PeoReport": (
        lambda: peo_isf_check(P2), peo_isf_check(OrderedGraph(3, {(1, 3), (2, 3)})),
        "PeoReport(holds=True, lhs=TPoly(coeffs=(0, 1, 1)), "
        "rhs=TPoly(coeffs=(0, 1, 1)))",
    ),
    "NonnegReport": (
        lambda: MultiPoly({((1, 2), (1, 2)): -1}).nonneg_report(),
        NonnegReport(True, None),
        "NonnegReport(is_nonneg=False, witness=(((1, 2), (1, 2)), -1))",
    ),
    "WhitneyReport": (
        lambda: whitney_check(K3, "min"), whitney_check(OrderedGraph(3, E), "min"),
        "WhitneyReport(counts=[0, 2, 3, 1], coeffs=[0, 2, 3, 1], equal=True)",
    ),
    "PsiReport": (
        lambda: verify_psi(K3, 1, 2), verify_psi(K3, 1, 3),
        "PsiReport(total_pairs=6, injective=True, local=True, "
        "weight_preserving=True, collisions=[])",
    ),
    "MovableSearchReport": (
        lambda: movable_edge_search(P2), movable_edge_search(G33),
        "MovableSearchReport(all_pairs_ok=True, failures=[])",
    ),
}
# list fields: equal and printable, but as unhashable as the lists
UNHASHABLE = {"MovableSearchReport", "PsiReport", "WhitneyReport"}
# classes whose JSON is not their fields by name
CUSTOM_JSON = {"Forest", "OrderedGraph", "PsiReport", "PsiTrace"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_hash_and_repr(name):
    make, other, want = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert isinstance(a, Record) and not isinstance(a, tuple)
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != other and not a == other
    assert repr(a) == want
    t = tuple(getattr(a, f) for f in a._fields)
    assert a != t and t != a and not a == t and not t == a


@pytest.mark.parametrize("name", sorted(CASES))
def test_copy_deepcopy_and_pickle(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_frozen(name):
    a = CASES[name][0]()
    before = repr(a)
    for attr in (*a._fields, "extra"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(a, attr, 0)
    for attr in a._fields:
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(a, attr)
    assert repr(a) == before


@pytest.mark.parametrize("name", sorted(CASES))
def test_keyword_construction(name):
    a = CASES[name][0]()
    b = type(a)(**{f: getattr(a, f) for f in a._fields})
    assert b == a and repr(b) == repr(a)
    if name not in UNHASHABLE:
        assert hash(b) == hash(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_to_json_is_the_fields_by_name(name):
    a = CASES[name][0]()
    if name in CUSTOM_JSON:
        assert type(a).to_json is not Record.to_json
        return
    assert type(a).to_json is Record.to_json
    out = a.to_json()
    assert list(out) == list(a._fields)
    for field in a._fields:  # nested values stay as they are
        assert out[field] is getattr(a, field)


def test_keyword_construction_validates():
    assert Forest(n=3, edges=E) == Forest(3, E) == Forest(3, edges=E)
    assert OrderedGraph(n=2) == OrderedGraph(2, frozenset())
    assert TPoly(coeffs=[3, 0]).coeffs == (3,)
    assert Permutation(n=2, cycles=[[1, 2]]).cycles == ((1, 2),)
    with pytest.raises(TypeError):
        Forest(3, E, edges=E)
    row = stirling_row(2)
    for args, kwargs in [((2, (0, 1, 1)), {}),
                         ((2, (0, 1, 1), (0, -1, 1), 0), {}),
                         ((2, (0, 1, 1)), {"unsigned": (0, 1, 1)}),
                         ((2, (0, 1, 1)), {"sign": (0, -1, 1)})]:
        with pytest.raises(TypeError, match="takes exactly the fields"):
            StirlingRow(*args, **kwargs)
    assert StirlingRow(2, signed=row.signed, unsigned=row.unsigned) == row


def test_tpoly_holds_int_and_multipoly_coefficients_alike():
    x, one, zero = MultiPoly({(1,): 1}), MultiPoly.const(1), MultiPoly()
    # trailing zeros go, for ints and for MultiPolys, down to the zero polynomial
    assert TPoly([0, 2, 1, 0, 0]).coeffs == (0, 2, 1)
    assert TPoly([zero, x, one, zero]).coeffs == (zero, x, one)
    assert TPoly([0, 0]).coeffs == TPoly([zero]).coeffs == TPoly().coeffs == ()
    # a nonconstant polynomial has no t^0 term; a constant may be anything
    for bad in ([1, 1], [3, 0, 2, 0], [one, x], [x, zero, one, zero]):
        with pytest.raises(ValueError, match="^t\\^0 coefficient must vanish"):
            TPoly(bad)
    assert TPoly([5]).coeffs == (5,) and TPoly([x]).coeffs == (x,)
    tp = TPoly([zero, x, one])
    assert repr(tp) == "TPoly(coeffs=(MultiPoly(0), MultiPoly(1*x1), MultiPoly(1*1)))"
    assert hash(tp) == hash(TPoly((zero, x, one, zero))) and tp != TPoly([0, 1, 1])
    assert tp.coefficient(1) == x and tp.coefficient(7) == 0
    assert TPoly([0, 2, -3, 1]).reflected(3) == TPoly([0, 2, 3, 1])
    # to_json is the default one: the coefficient tuple, which the CLI's
    # encoder opens a polynomial at a time and writes as a list
    assert tp.to_json() == {"coeffs": (zero, x, one)}
    pieces = _pieces({"tpoly": tp})
    assert [p for p in pieces if '"terms"' in p] == ['"terms": '] * 3
    assert json.loads("".join(pieces)) == json.loads(
        json.dumps({"tpoly": tp}, default=_to_json))
    assert json.loads("".join(pieces))["tpoly"]["coeffs"][1] == x.to_json()


def test_other_classes_compare_unequal():
    f, g = Forest(3, E), OrderedGraph(3, E)
    assert f != g and g != f and not f == g
    assert f.__eq__(g) is NotImplemented and g.__eq__(f) is NotImplemented
    assert Forest.__eq__(f, (3, E)) is NotImplemented


def test_cached_values_stay_out_of_equality():
    a, b = Forest(3, E), Forest(3, E)
    for cached in ("parent", "minima", "increasing"):
        getattr(a, cached)  # fills a's cache only
    assert "parent" in vars(a) and "parent" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    vars(b)["minima"] = frozenset({99})  # a wrong cached value changes nothing
    assert a == b and hash(a) == hash(b)
    assert Forest.from_parent((0, 0, 1, 0)) == Forest(3, E)

    s, t = psi(K3, A3, Forest(3)), psi(K3, A3, Forest(3))
    assert s.A_out == Forest(3, frozenset({(1, 2)}))  # fills s's cache only
    assert "A_out" in vars(s) and "A_out" not in vars(t)
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


def test_forest_dicts_stay_compact():
    # A fresh interpreter: a class's shared dict keys grow with the values
    # that cached properties and Forest.from_parent store, and this compares
    # the dicts that construction alone leaves.  Binding the fields in field
    # order keeps each Forest's dict split over the class's shared keys; a
    # __dict__.update on the fresh instance would give it a combined dict.
    script = """
import sys
from isf import Forest

class Plain:
    pass

forests = [Forest(3, frozenset({(1, 2)})) for _ in range(200)]
plains = []
for f in forests:
    p = Plain()
    p.n = f.n
    p.edges = f.edges
    p._sorted_edges = f._sorted_edges
    plains.append(p)
dicts = [vars(x) for x in forests + plains]
print(list(dicts[0]), sys.getsizeof(dicts[199]), sys.getsizeof(dicts[-1]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=ENV,
                          capture_output=True, text=True, check=True)
    keys, forest_size, plain_size = proc.stdout.rsplit(" ", 2)
    # construction binds n and _sorted_edges; reading f.edges above adds edges
    assert keys == "['n', '_sorted_edges', 'edges']"
    assert int(forest_size) <= int(plain_size), proc.stdout
