"""Vertex-ordered simple graphs and spanning forests.

Vertices are the integers 1..n with their natural order.  Edges are stored
as pairs (i, j) with i < j.  A Forest is an OrderedGraph whose edges hold
no circuit, so edges are validated, stored and read from and written to
JSON in one place, in one loop over the edges that also collects their
larger endpoints.  Distinct ones give each vertex at most one smaller
neighbour, and a circuit's largest vertex has two, so such an edge set is
exactly an increasing forest; only a Forest whose larger endpoints repeat
is scanned for a circuit, relabeling components as it goes.  A forest is
spanning by convention: isolated vertices are singleton components.
Invalid edge sets are rejected, never repaired; so is JSON with a repeated
edge.

Rooting every component at its minimum gives a forest its parent vector
(0 marks a root), its one rooted form.  A Forest computes it lazily, once,
and caches the minima and increasingness read off it.  An increasing
forest is exactly a vector with 0 <= parent[v] < v: the same loop checks
its edges (parent[v], v), and the forest it builds keeps the vector.

The value classes are frozen `Record`s: equality within one class, hash
and repr (`Forest(n=3, edges=frozenset())`) read only the fields named in
`_fields`, not values cached beside them, and `to_json` gives the fields
by name, nested values as they are.  A graph or forest stores n and its
sorted edge tuple only; its frozenset `edges` is built from the tuple on
first read, so forests that are only enumerated and printed never build one.
A validating record binds what it stores with object.__setattr__ in one
fixed order: shared-key dicts stay small.
"""

from __future__ import annotations

from functools import cached_property

from .errors import CyclicInput, InputError, NotInGraph


def _joined(label: tuple, i: int, j: int):
    """Component labels after adding edge (i, j), or None if i and j are
    already joined.  label[v] names v's component; index 0 is unused."""
    a, b = label[i], label[j]
    if a == b:
        return None
    return tuple([a if x == b else x for x in label])


def _check_vertex_count(n) -> None:
    # `type(...) is int`, not isinstance: JSON true/false are bools, and
    # bool is a subclass of int
    if type(n) is not int:
        raise InputError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")


class Record:
    """Immutable value over `_fields`, bound positionally or by keyword."""

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OrderedGraph(Record):
    """Simple graph on vertices 1..n with the natural total order.

    Stores n and `_sorted_edges`, its edges as a sorted tuple, which
    `sort_key`, `sorted_edges` and `to_json` read; `edges` is cached.
    """

    _fields = ("n", "edges")
    _kind = "graph"  # names the value in JSON errors
    _acyclic = False  # a Forest's edges must also hold no circuit

    def __init__(self, n: int, edges=()):
        _check_vertex_count(n)
        pairs, larger = set(), set()
        for e in edges:
            try:
                i, j = e
            except ValueError:
                raise InputError(f"malformed edge {tuple(e)!r}") from None
            except TypeError:  # not iterable at all
                raise InputError(f"malformed edge {e!r}") from None
            if type(i) is not int or type(j) is not int:
                raise InputError(f"malformed edge {(i, j)!r}")
            if not (1 <= i < j <= n):
                raise InputError(
                    f"edge ({i},{j}) violates 1 <= i < j <= n with n={n}"
                )
            # keep a caller's tuple: enumerated forests then share edge objects
            pairs.add(e if type(e) is tuple else (i, j))
            larger.add(j)
        ordered = tuple(sorted(pairs))
        if self._acyclic and len(larger) < len(ordered):
            label = tuple(range(n + 1))
            for i, j in ordered:
                if (label := _joined(label, i, j)) is None:
                    raise CyclicInput(f"edge ({i},{j}) closes a circuit")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_sorted_edges", ordered)

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(self._sorted_edges)

    def smaller_neighbors(self, j: int) -> list:
        """Neighbors i of j with i < j, sorted increasing."""
        return [i for i, jj in self._sorted_edges if jj == j]

    @property
    def sorted_edges(self) -> list:
        return list(self._sorted_edges)

    def sort_key(self) -> tuple:
        return self._sorted_edges

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self._sorted_edges]}

    @classmethod
    def from_json(cls, obj: dict):
        """cls(n, edges) from {'n': int, 'edges': [[i,j],...]}; a repeated
        edge is rejected, not merged."""
        if not (
            isinstance(obj, dict) and "n" in obj
            and isinstance(obj.get("edges"), list)
            and all(isinstance(e, list) for e in obj["edges"])
        ):
            raise InputError(
                f"{cls._kind} JSON must be {{'n': int, 'edges': [[i,j],...]}}"
            )
        out = cls(obj["n"], obj["edges"])
        if len(out._sorted_edges) < len(obj["edges"]):
            seen = set()
            for i, j in obj["edges"]:  # each one validated by cls
                if (i, j) in seen:
                    raise InputError(f"edge ({i},{j}) is repeated")
                seen.add((i, j))
        return out


class Forest(OrderedGraph):
    """Acyclic edge set over the ambient vertex set 1..n (spanning)."""

    _kind = "forest"
    _acyclic = True

    @classmethod
    def from_parent(cls, parent) -> "Forest":
        """The increasing forest whose minima-rooted parent vector is parent.

        Entries are ints, not bools, and parent[0] == 0; cls's loop rejects
        an edge (p, v) with p < 0 or p >= v, so 0 <= parent[v] < v.
        """
        try:
            parent = tuple(parent)
        except TypeError:  # not iterable at all
            raise InputError(f"parent vector {parent!r} is not iterable") from None
        if parent[:1] != (0,) or set(map(type, parent)) != {int}:
            raise InputError(f"parent vector must be ints from 0, got {parent!r}")
        f = cls(len(parent) - 1, [(p, v) for v, p in enumerate(parent) if p])
        f.__dict__.update(parent=parent, increasing=True)
        return f

    @cached_property
    def parent(self) -> tuple:
        """parent[v] when each component is rooted at its minimum; 0 at roots.

        Index 0 is unused.  Defined for every forest, increasing or not.
        """
        adj = [[] for _ in range(self.n + 1)]
        for i, j in self._sorted_edges:
            adj[i].append(j)
            adj[j].append(i)
        parent = [0] * (self.n + 1)
        seen = [False] * (self.n + 1)
        for root in range(1, self.n + 1):
            if seen[root]:
                continue
            # the first unseen vertex is the minimum of its component
            seen[root] = True
            stack = [root]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        parent[w] = u
                        stack.append(w)
        return tuple(parent)

    @cached_property
    def minima(self) -> frozenset:
        """m(f): the minimum vertices of the components, i.e. the roots."""
        return frozenset(v for v, p in enumerate(self.parent) if v and not p)

    @cached_property
    def increasing(self) -> bool:
        """True iff labels increase along every root-to-leaf path."""
        return all(self.parent[v] < v for v in range(1, self.n + 1))

    def component_count(self) -> int:
        return self.n - len(self._sorted_edges)


def _check_forest_in_graph(g: OrderedGraph, f: Forest, label: str) -> None:
    """Raise NotInGraph unless f spans g's vertices and uses only its edges;
    label names f in the message."""
    if f.n != g.n:
        raise NotInGraph(f"{label} has n={f.n}, graph has n={g.n}")
    if not f.edges <= g.edges:
        raise NotInGraph(f"{label} uses non-graph edges {sorted(f.edges - g.edges)}")


def complete_graph(n: int) -> OrderedGraph:
    return OrderedGraph(
        n, frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    )
