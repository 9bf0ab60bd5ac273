"""Command-line interface.

Every invocation prints a single JSON report
    {"command": ..., "ok": ..., "payload": ..., "diagnostics": [...]}
and exits with 0 on success, 1 when a checked property or an internal
invariant fails (a finding that would falsify the underlying theorems),
and 2 on input or usage errors.  `-` as a file argument reads standard
input.  Output is deterministic: keys are sorted and identical
invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .brackets import phi, phi_inverse, subset_pair_map
from .chromatic import (
    broken_circuits,
    chromatic_polynomial,
    is_admissible_goodvertex,
    movable_edge_search,
    peo_isf_check,
    whitney_check,
)
from .enumeration import (
    a_poly,
    enumerate_if,
    isf_factorization_check,
    isf_tpoly,
    strong_logconcavity_check,
)
from .errors import InputError, InvariantViolation
from .graphs import Forest, OrderedGraph
from .injection import psi, verify_psi
from .stirling import (
    Permutation,
    forest_to_permutation,
    permutation_psi,
    permutation_to_forest,
    stirling_row,
)

OK, PROPERTY_FAILURE, USAGE_ERROR = 0, 1, 2
_SLICE = 256  # items of a long list per encoder call in `_pieces`
_TEXT = object()  # marks a `_pieces` stack entry that is text alone


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    # ValueError: undecodable bytes, bad JSON, an int over the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from None


def _graph(path: str) -> OrderedGraph:
    return OrderedGraph.from_json(_load_json(path))


def _forest(path: str) -> Forest:
    return Forest.from_json(_load_json(path))


def _int_set(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


def _cmd_enumerate(args):
    return OK, {"forests": enumerate_if(_graph(args.graph), args.components)}


def _cmd_poly(args):
    g = _graph(args.graph)
    if args.k is not None:
        return OK, {"poly": a_poly(g, args.k)}
    return OK, {"tpoly": isf_tpoly(g)}


def _cmd_phi(args):
    ground = _int_set(args.ground)
    subset = _int_set(args.subset)
    if args.invert:
        return OK, {"preimage": sorted(phi_inverse(ground, subset))}
    return OK, {"image": sorted(phi(ground, subset))}


def _cmd_subset_map(args):
    xp, yp, i = subset_pair_map(args.n, _int_set(args.x), _int_set(args.y))
    return OK, {"x_new": sorted(xp), "y_new": sorted(yp), "moved": i}


def _cmd_psi(args):
    trace = psi(_graph(args.graph), _forest(args.forest_a), _forest(args.forest_b))
    return OK, {"trace": trace}


def _cmd_verify(args):
    report = verify_psi(_graph(args.graph), args.k, args.l)
    status = OK if report.injective else PROPERTY_FAILURE
    return status, {"report": report}


def _cmd_stirling(args):
    if args.stirling_cmd == "row":
        return OK, stirling_row(args.n)
    if args.stirling_cmd == "to-perm":
        return OK, {"perm": forest_to_permutation(_forest(args.forest))}
    if args.stirling_cmd == "to-forest":
        perm = Permutation.from_json(_load_json(args.perm))
        return OK, {"forest": permutation_to_forest(perm)}
    sigma = Permutation.from_json(_load_json(args.sigma))
    tau = Permutation.from_json(_load_json(args.tau))
    return OK, {"move": permutation_psi(sigma, tau)}


def _cmd_chromatic(args):
    return OK, {"poly": chromatic_polynomial(_graph(args.graph))}


def _cmd_nbc(args):
    bcs = broken_circuits(_graph(args.graph), args.convention)
    return OK, {"broken_circuits": [[list(e) for e in sorted(bc)] for bc in bcs]}


def _cmd_admissible(args):
    ok = is_admissible_goodvertex(_graph(args.graph), _forest(args.forest))
    return OK, {"admissible": ok}


def _cmd_search_movable(args):
    relabel = _int_set(args.relabel) if args.relabel is not None else None
    return OK, movable_edge_search(_graph(args.graph), relabel)


def _cmd_check(args):
    g = _graph(args.graph)
    if args.check_cmd == "factorization":
        rep = isf_factorization_check(g)
        return (OK if rep.equal else PROPERTY_FAILURE), rep
    if args.check_cmd == "logconcavity":
        return OK, strong_logconcavity_check(g, args.p, args.q)
    if args.check_cmd == "whitney":
        rep = whitney_check(g, args.convention)
        return (OK if rep.equal else PROPERTY_FAILURE), rep
    return OK, peo_isf_check(g)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isf",
        description="Increasing spanning forests: enumeration, injections, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="increasing forests with k components")
    p.add_argument("--graph", required=True)
    p.add_argument("--components", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("poly", help="forest generating polynomial(s)")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("phi", help="subset injection by bracket matching")
    p.add_argument("--ground", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--invert", action="store_true")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("subset-map", help="pair map on subsets of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_subset_map)

    p = sub.add_parser("psi", help="move one edge between two forests")
    p.add_argument("--graph", required=True)
    p.add_argument("--forest-a", required=True)
    p.add_argument("--forest-b", required=True)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("verify", help="exhaustive verification")
    vsub = p.add_subparsers(dest="verify_cmd", required=True)
    vp = vsub.add_parser("psi")
    vp.add_argument("--graph", required=True)
    vp.add_argument("--k", type=int, required=True)
    vp.add_argument("--l", type=int, required=True)
    vp.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stirling", help="forest/permutation bridge")
    ssub = p.add_subparsers(dest="stirling_cmd", required=True)
    sp = ssub.add_parser("row")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_stirling)
    sp = ssub.add_parser("to-perm")
    sp.add_argument("--forest", required=True)
    sp.set_defaults(func=_cmd_stirling)
    sp = ssub.add_parser("to-forest")
    sp.add_argument("--perm", required=True)
    sp.set_defaults(func=_cmd_stirling)
    sp = ssub.add_parser("psi")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--tau", required=True)
    sp.set_defaults(func=_cmd_stirling)

    p = sub.add_parser("chromatic", help="chromatic polynomial")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("nbc", help="broken circuits")
    p.add_argument("--graph", required=True)
    p.add_argument("--convention", choices=["min", "max"], required=True)
    p.set_defaults(func=_cmd_nbc)

    p = sub.add_parser("admissible", help="good-vertex admissibility")
    p.add_argument("--graph", required=True)
    p.add_argument("--forest", required=True)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("search-movable", help="movable-edge existence search")
    p.add_argument("--graph", required=True)
    p.add_argument("--relabel")
    p.set_defaults(func=_cmd_search_movable)

    p = sub.add_parser("check", help="identity and property checks")
    csub = p.add_subparsers(dest="check_cmd", required=True)
    for name in ("factorization", "logconcavity", "whitney", "peo"):
        cp = csub.add_parser(name)
        cp.add_argument("--graph", required=True)
        if name == "logconcavity":
            cp.add_argument("--p", type=int, required=True)
            cp.add_argument("--q", type=int, required=True)
        if name == "whitney":
            cp.add_argument("--convention", choices=["min", "max"], default="min")
        cp.set_defaults(func=_cmd_check)

    return parser


def _to_json(obj):
    """Encoder hook: a record inside a piece is written by its `to_json`."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return json.JSONEncoder().default(obj)  # raises the encoder's TypeError


def _pieces(report) -> list:
    """The text of `json.dumps(report, sort_keys=True, default=_to_json)`
    in pieces. A dict with only `str` keys, a record's `to_json` value too,
    is opened key by key; a list of over `_SLICE` items is encoded a slice
    of `_SLICE` items per call, one piece each; any other value is one
    piece. So the encoder holds one slice's tokens, never the report's.
    Its circular-reference markers would cost an id insert and delete per
    container and check nothing: payloads are trees of fresh containers."""
    encode = json.JSONEncoder(sort_keys=True, default=_to_json,
                              check_circular=False).encode
    pieces, todo = [], [("", report)]  # todo: (text, value after it), last first
    while todo:
        text, obj = todo.pop()
        pieces.append(text)
        if obj is _TEXT:
            continue
        obj = obj.to_json() if hasattr(obj, "to_json") else obj
        if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
            pieces.append("{")
            todo.append(("}", _TEXT))
            todo += [((", " if n else "") + encode(key) + ": ", obj[key])
                     for n, key in reversed(list(enumerate(sorted(obj))))]
        elif isinstance(obj, list) and len(obj) > _SLICE:
            for start in range(0, len(obj), _SLICE):  # a slice's text less "[]"
                pieces += (", " if start else "[",
                           encode(obj[start:start + _SLICE])[1:-1])
            pieces.append("]")
        else:
            pieces.append(encode(obj))
    return pieces


def _emit(command: str, ok: bool, payload, diagnostics) -> None:
    """Print the report once fully encoded, so an encoding error prints nothing."""
    report = {"command": command, "ok": ok, "payload": payload,
              "diagnostics": diagnostics}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact results may exceed it; input keeps it
    try:
        pieces = _pieces(report)
    finally:
        sys.set_int_max_str_digits(limit)
    try:
        print(*pieces, sep="", flush=True)
    except BrokenPipeError:  # the reader left; spare the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr
        return USAGE_ERROR if exc.code else OK
    command = args.command
    try:
        status, payload = args.func(args)
    except InputError as exc:
        _emit(command, False, None, [str(exc)])
        return USAGE_ERROR
    except InvariantViolation as exc:
        _emit(command, False, None, [str(exc)])
        return PROPERTY_FAILURE
    _emit(command, status == OK, payload, [])
    return status


def run() -> None:
    """Process entry point of `isf` and `python -m isf.cli`: `main()` with
    the cyclic collector off, then exit without the shutdown collection.

    The library builds acyclic data (forests, parent vectors, edge tuples),
    so collector passes only rescan live objects; `gc.freeze()` moves the
    survivors out of the final collection at interpreter exit.
    """
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
