"""Independent answers for every job the benchmark runs.

Nothing here imports `isf`.  Each oracle derives the expected output from
the mathematics: the product formula ISF(G; t) = prod_j (t + d_j) with
d_j = |{i < j : ij in E}|, the Stirling recurrence, closed forms of
chromatic polynomials, and the choice-vector description of an increasing
forest (each vertex is a root or picks one smaller neighbour).
A check returns None when the output is right and a reason otherwise.
"""

from __future__ import annotations


def lower_degrees(graph: dict) -> list:
    """d_j for j = 1..n: the number of neighbours smaller than j."""
    d = [0] * graph["n"]
    for _, j in graph["edges"]:
        d[j - 1] += 1
    return d


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def linear_product(roots) -> list:
    """Coefficients (t^0 first) of prod (t - r) over roots."""
    out = [1]
    for r in roots:
        out = poly_mul(out, [-r, 1])
    return out


def isf_counts(degrees) -> list:
    """|IF_k| for k = 0..n, the coefficients of prod_j (t + d_j)."""
    return linear_product(-d for d in degrees)


def forests_built(degrees) -> int:
    """prod_j (1 + d_j): every choice vector, over all component counts."""
    out = 1
    for d in degrees:
        out *= 1 + d
    return out


def stirling_row(n: int) -> list:
    """c(n, k) for k = 0..n by c(m+1, k) = m c(m, k) + c(m, k-1)."""
    row = [1]
    for m in range(n):
        prev = row + [0]
        row = [m * prev[k] + (prev[k - 1] if k else 0) for k in range(m + 2)]
    return row


def band_graph(n: int, width: int) -> dict:
    return {
        "n": n,
        "edges": [[i, j] for i in range(1, n + 1)
                  for j in range(i + 1, min(n, i + width) + 1)],
    }


def complete_graph(n: int) -> dict:
    return band_graph(n, n)


def chordal_band_chromatic(n: int, width: int) -> list:
    """P(t) of the band graph |i-j| <= width, n > width.

    The natural order is a perfect elimination order, so
    P(t) = prod_j (t - d_j) with d_j = min(j - 1, width).
    """
    return linear_product(min(j - 1, width) for j in range(1, n + 1))


# Petersen graph: P(t) = t(t-1)(t-2)(t^7 - 12t^6 + 67t^5 - 230t^4
#                                        + 529t^3 - 814t^2 + 775t - 352)
PETERSEN_CHROMATIC = poly_mul(
    linear_product([0, 1, 2]), [-352, 775, -814, 529, -230, 67, -12, 1]
)


def petersen_graph() -> dict:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = sorted(tuple(sorted((a + 1, b + 1))) for a, b in outer + spokes + inner)
    return {"n": 10, "edges": [list(e) for e in edges]}


def relabel(graph: dict, perm) -> dict:
    """perm[v-1] is the new label of vertex v."""
    edges = sorted(
        tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in graph["edges"]
    )
    return {"n": graph["n"], "edges": [list(e) for e in edges]}


def is_peo(graph: dict) -> bool:
    """True iff the smaller neighbours of every vertex form a clique."""
    edges = {tuple(e) for e in graph["edges"]}
    smaller = {j: [] for j in range(1, graph["n"] + 1)}
    for i, j in edges:
        smaller[j].append(i)
    return all(
        (a, b) in edges or (b, a) in edges
        for nbrs in smaller.values() for a in nbrs for b in nbrs if a < b
    )


def bracket_successor(ground, subset) -> list:
    """phi: flip the rightmost unmatched close bracket of the X-word."""
    stack, unmatched_close = [], []
    for v in sorted(ground):
        if v in subset:
            stack.append(v)
        elif stack:
            stack.pop()
        else:
            unmatched_close.append(v)
    return sorted(set(subset) | {unmatched_close[-1]})


def _chosen_parents(graph: dict, edge_lists, n_edges: int):
    """Reason an edge list is not an increasing forest with n_edges edges."""
    graph_edges = {tuple(e) for e in graph["edges"]}
    seen = set()
    for edges in edge_lists:
        key = tuple(tuple(e) for e in edges)
        if key in seen:
            return f"forest {edges} emitted twice"
        seen.add(key)
        if len(key) != n_edges:
            return f"forest {edges} has {len(key)} edges, want {n_edges}"
        children = [j for _, j in key]
        if len(set(children)) != len(children):
            return f"forest {edges} gives a vertex two smaller parents"
        if not set(key) <= graph_edges:
            return f"forest {edges} uses an edge outside the graph"
    return None


def check_forest_list(graph: dict, forests, k: int):
    """Forests of `isf enumerate`: all distinct choice vectors, |IF_k| many."""
    want = isf_counts(lower_degrees(graph))[k]
    if len(forests) != want:
        return f"{len(forests)} forests with {k} components, formula gives {want}"
    if any(f.get("n") != graph["n"] for f in forests):
        return "a forest has the wrong vertex count"
    return _chosen_parents(graph, [f["edges"] for f in forests], graph["n"] - k)


def check_tpoly(graph: dict, tpoly: dict):
    """sum_k a_k(x) t^k: one unit term per increasing forest, per k."""
    coeffs = tpoly["coeffs"]
    want = isf_counts(lower_degrees(graph))
    if len(coeffs) != len(want):
        return f"t-polynomial has {len(coeffs)} coefficients, want {len(want)}"
    for k, (poly, count) in enumerate(zip(coeffs, want)):
        terms = poly["terms"]
        if len(terms) != count:
            return f"a_{k} has {len(terms)} terms, formula gives {count}"
        if any(t["coef"] != "1" for t in terms):
            return f"a_{k} has a coefficient other than 1"
        reason = _chosen_parents(
            graph, [t["vars"] for t in terms], graph["n"] - k
        )
        if reason:
            return f"a_{k}: {reason}"
    return None
