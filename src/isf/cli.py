"""Command-line interface.

Every invocation prints a single JSON report
    {"command": ..., "ok": ..., "payload": ..., "diagnostics": [...]}
and exits with 0 on success, 1 when a checked property or an internal
invariant fails (a finding that would falsify the underlying theorems),
and 2 on input or usage errors.  `-` as a file argument reads standard
input.  Output is deterministic: keys are sorted and identical
invocations produce byte-identical bytes.

Handlers call through their modules, which the package compiles when first
used, so a command loads only its own chain (`phi`: `brackets`, `errors`).
The modules are bound here, not imported in handlers, so that a tracer's
`install()`, which reads `sys.modules`, finds them all.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

from . import brackets, chromatic, enumeration, graphs, injection, stirling
from .errors import InputError, InvariantViolation

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


def _graph(path: str) -> graphs.OrderedGraph:
    return graphs.OrderedGraph.from_json(_load_json(path))


def _forest(path: str) -> graphs.Forest:
    return graphs.Forest.from_json(_load_json(path))


def _int_set(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


def _cmd_enumerate(args):
    forests = enumeration.enumerate_if(_graph(args.graph), args.components)
    return OK, {"forests": forests}


def _cmd_poly(args):
    g = _graph(args.graph)
    if args.k is not None:
        return OK, {"poly": enumeration.a_poly(g, args.k)}
    return OK, {"tpoly": enumeration.isf_tpoly(g)}


def _cmd_phi(args):
    ground = _int_set(args.ground)
    subset = _int_set(args.subset)
    if args.invert:
        return OK, {"preimage": sorted(brackets.phi_inverse(ground, subset))}
    return OK, {"image": sorted(brackets.phi(ground, subset))}


def _cmd_subset_map(args):
    xp, yp, i = brackets.subset_pair_map(args.n, _int_set(args.x), _int_set(args.y))
    return OK, {"x_new": sorted(xp), "y_new": sorted(yp), "moved": i}


def _cmd_psi(args):
    trace = injection.psi(_graph(args.graph), _forest(args.forest_a),
                          _forest(args.forest_b))
    return OK, {"trace": trace}


def _cmd_verify(args):
    report = injection.verify_psi(_graph(args.graph), args.k, args.l)
    status = OK if report.injective else PROPERTY_FAILURE
    return status, {"report": report}


def _cmd_stirling(args):
    if args.words[1] == "row":
        return OK, stirling.stirling_row(args.n)
    if args.words[1] == "to-perm":
        return OK, {"perm": stirling.forest_to_permutation(_forest(args.forest))}
    if args.words[1] == "to-forest":
        perm = stirling.Permutation.from_json(_load_json(args.perm))
        return OK, {"forest": stirling.permutation_to_forest(perm)}
    sigma = stirling.Permutation.from_json(_load_json(args.sigma))
    tau = stirling.Permutation.from_json(_load_json(args.tau))
    return OK, {"move": stirling.permutation_psi(sigma, tau)}


def _cmd_chromatic(args):
    return OK, {"poly": chromatic.chromatic_polynomial(_graph(args.graph))}


def _cmd_nbc(args):
    bcs = chromatic.broken_circuits(_graph(args.graph), args.convention)
    return OK, {"broken_circuits": [[list(e) for e in sorted(bc)] for bc in bcs]}


def _cmd_admissible(args):
    ok = chromatic.is_admissible_goodvertex(_graph(args.graph), _forest(args.forest))
    return OK, {"admissible": ok}


def _cmd_search_movable(args):
    perm = _int_set(args.relabel) if args.relabel is not None else None
    g = _graph(args.graph)
    return OK, chromatic.movable_edge_search(
        g if perm is None else chromatic.apply_relabeling(g, perm))


def _cmd_check(args):
    g = _graph(args.graph)
    if args.words[1] == "factorization":
        rep = enumeration.isf_factorization_check(g)
        return (OK if rep.equal else PROPERTY_FAILURE), rep
    if args.words[1] == "logconcavity":
        return OK, enumeration.strong_logconcavity_check(g, args.p, args.q)
    if args.words[1] == "whitney":
        rep = chromatic.whitney_check(g, args.convention)
        return (OK if rep.equal else PROPERTY_FAILURE), rep
    return OK, chromatic.peo_isf_check(g)


_REQUIRED = object()  # the default of an option that must be given


def _opt(name, kind=str, default=_REQUIRED, choices=()):
    """Option `--name` of a command form; kind str, int, or bool (a flag)."""
    return name, kind, default, choices


_GRAPH, _MIN_MAX = _opt("graph"), ("min", "max")
# The CLI's one grammar: command words -> (handler, options), in help order.
_COMMANDS = {
    ("enumerate",): (_cmd_enumerate, (_GRAPH, _opt("components", int))),
    ("poly",): (_cmd_poly, (_GRAPH, _opt("k", int, None))),
    ("phi",): (_cmd_phi, (_opt("ground"), _opt("subset"),
                          _opt("invert", bool, False))),
    ("subset-map",): (_cmd_subset_map, (_opt("n", int), _opt("x"), _opt("y"))),
    ("psi",): (_cmd_psi, (_GRAPH, _opt("forest-a"), _opt("forest-b"))),
    ("verify", "psi"): (_cmd_verify, (_GRAPH, _opt("k", int), _opt("l", int))),
    ("stirling", "row"): (_cmd_stirling, (_opt("n", int),)),
    ("stirling", "to-perm"): (_cmd_stirling, (_opt("forest"),)),
    ("stirling", "to-forest"): (_cmd_stirling, (_opt("perm"),)),
    ("stirling", "psi"): (_cmd_stirling, (_opt("sigma"), _opt("tau"))),
    ("chromatic",): (_cmd_chromatic, (_GRAPH,)),
    ("nbc",): (_cmd_nbc, (_GRAPH, _opt("convention", str, _REQUIRED, _MIN_MAX))),
    ("admissible",): (_cmd_admissible, (_GRAPH, _opt("forest"))),
    ("search-movable",): (_cmd_search_movable, (_GRAPH, _opt("relabel", str, None))),
    ("check", "factorization"): (_cmd_check, (_GRAPH,)),
    ("check", "logconcavity"): (_cmd_check, (_GRAPH, _opt("p", int), _opt("q", int))),
    ("check", "whitney"): (_cmd_check,
                           (_GRAPH, _opt("convention", str, "min", _MIN_MAX))),
    ("check", "peo"): (_cmd_check, (_GRAPH,)),
}


def _usage(words) -> str:
    """One usage line per command form that starts with `words`."""
    lines = []
    for form, (_, options) in _COMMANDS.items():
        if form[:len(words)] == words:
            parts = ["isf", *form]
            for name, kind, default, choices in options:
                part = f"--{name}" if kind is bool else f"--{name} " + (
                    "{" + ",".join(choices) + "}" if choices else name.upper())
                parts.append(part if default is _REQUIRED else f"[{part}]")
            lines.append(" ".join(parts))
    return "usage: " + "\n       ".join(lines)


def _parse(argv):
    """(command words, namespace, None) for argv read against `_COMMANDS`;
    (words, None, None) for -h or --help; (words, None, reason) if malformed.
    As in argparse, a value may start with `-` only if it is `-` or a
    negative integer, and a unique prefix of an option's name will do."""
    argv, words = list(argv), ()
    while words not in _COMMANDS and argv and not argv[0].startswith("-"):
        words += (argv.pop(0),)
        if not any(form[:len(words)] == words for form in _COMMANDS):
            return words[:-1], None, f"invalid command word {words[-1]!r}"
    if "-h" in argv or "--help" in argv:
        return words, None, None
    if words not in _COMMANDS:
        return words, None, "missing a command word"
    options = _COMMANDS[words][1]
    values = {name: default for name, _, default, _ in options}
    while argv:
        token = argv.pop(0)
        key, has_value, value = token[2:].partition("=")
        found = [opt for opt in options if opt[0] == key] or [
            opt for opt in options if opt[0].startswith(key)]
        if not token.startswith("--") or not key or len(found) != 1:
            return words, None, f"unrecognized or ambiguous option {token!r}"
        name, kind, _, choices = found[0]
        if kind is not bool and not has_value:
            if not argv or argv[0].startswith("-") and argv[0] != "-" and not (
                    argv[0][1:].isdecimal()):
                return words, None, f"--{name} expects a value"
            value = argv.pop(0)
        if kind is bool and has_value or choices and value not in choices:
            return words, None, f"--{name}: invalid value {value!r}"
        try:
            values[name] = True if kind is bool else kind(value)
        except ValueError:
            return words, None, f"--{name}: invalid int value {value!r}"
    missing = [f"--{name}" for name, value in values.items() if value is _REQUIRED]
    if missing:
        return words, None, f"missing required options {', '.join(missing)}"
    return words, SimpleNamespace(words=words, **{
        name.replace("-", "_"): value for name, value in values.items()}), None


def _to_json(obj):
    """Encoder hook: a record inside a piece is written by its `to_json`."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return json.JSONEncoder().default(obj)  # raises the encoder's TypeError


def _pieces(report) -> list:
    """The text of `json.dumps(report, sort_keys=True, default=_to_json)`
    in pieces. A record is written by its `to_json` wherever it is met. A
    dict with only `str` keys, a record's `to_json` value too, is opened key
    by key; a list of over `_SLICE` items is encoded a slice of `_SLICE`
    items per call, one piece each, and a shorter list or tuple holding a
    record (a `TPoly`'s polynomials) item by item; any other value is one
    piece. So the encoder holds one slice's tokens at a time.
    Its circular-reference markers would cost an id insert and delete per
    container and check nothing: payloads are trees of fresh containers."""
    encode = json.JSONEncoder(sort_keys=True, default=_to_json,
                              check_circular=False).encode
    pieces, todo = [], [("", report)]  # (text, value after it), last first
    while todo:
        text, obj = todo.pop()
        pieces.append(text)
        if obj is _TEXT:
            continue
        if hasattr(obj, "to_json"):
            obj = obj.to_json()
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
        elif (isinstance(obj, (list, tuple))
                and any(hasattr(x, "to_json") for x in obj)):
            pieces.append("[")
            todo.append(("]", _TEXT))
            todo += reversed([(", " if n else "", x) for n, x in enumerate(obj)])
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
    words, args, reason = _parse(sys.argv[1:] if argv is None else argv)
    if args is None:  # help to stdout; a usage error to stderr, no report
        print(_usage(words), file=sys.stderr if reason else sys.stdout)
        if reason:
            print(f"isf: error: {reason}", file=sys.stderr)
        return USAGE_ERROR if reason else OK
    command = words[0]
    try:
        status, payload = _COMMANDS[words][0](args)
    except (InputError, InvariantViolation) as exc:
        _emit(command, False, None, [str(exc)])
        return USAGE_ERROR if isinstance(exc, InputError) else PROPERTY_FAILURE
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
