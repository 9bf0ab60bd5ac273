"""Run one `isf` CLI job with a span around every call into `isf`.

    python3 tracer.py OUT JOB_ID -- <isf arguments>

Every public function of every `isf.*` module is wrapped, and so are the
methods and private hooks listed below.  A wrapper is bound wherever the
original is bound: in its own module, in every module that copied it with
`from .x import f`, and in default arguments such as `successor=phi`, which
`psi`, `select_j` and `verify_psi` capture at definition time.  Spans
(name, start, end, parent) stay in memory and are written at exit to
OUT.bin as four arrays, with OUT.json holding the name table, the job id
and the counters.  `layers.py` reads them back.
"""

import sys
import time

clock = time.perf_counter

_t0 = clock()
import isf.cli  # noqa: E402  (timed: this is the CLI's import cost)

IMPORT_S = clock() - _t0

import array  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import types  # noqa: E402

# (module, class, method, span name) wrapped on the class itself.
METHODS = (
    ("graphs", "Forest", "__init__", "graphs.Forest"),
    ("polynomials", "MultiPoly", "__mul__", "polynomials.MultiPoly.__mul__"),
    ("polynomials", "MultiPoly", "__add__", "polynomials.MultiPoly.__add__"),
    ("polynomials", "MultiPoly", "nonneg_report",
     "polynomials.MultiPoly.nonneg_report"),
    ("polynomials", "MultiPoly", "to_json", "polynomials.MultiPoly.to_json"),
)
# Private functions that carry counters: the cached forest enumerator.
PRIVATE = (("enumeration", "_forests_by_components"),)


class Recorder:
    """Spans in parallel arrays; span id = index, parent -1 = top level."""

    def __init__(self):
        self.labels = []
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters = {}
        self.unmeasured = {}
        self.frames = {}      # verify_psi span id -> its frame

    def count(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, label, fn, before=None, after=None):
        """A function that records a span around each call of fn."""
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(end)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return span

    def write(self, out, job):
        with open(out + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "job": job,
            "labels": self.labels,
            "spans": len(self.end),
            "import_s": IMPORT_S,
            "counters": self.counters,
            "unmeasured": self.unmeasured,
        }
        with open(out + ".json", "w") as fh:
            json.dump(header, fh, sort_keys=True)


def _hooks(rec, modules):
    """label -> (before, after) callbacks that feed the counters."""
    maker = getattr(modules.get("isf.enumeration"), "_forests_by_components", None)
    misses = [0]

    def cold_graph(args):
        misses[0] = maker.cache_info().misses

    def cold_graph_done(args, result):
        if maker.cache_info().misses > misses[0]:
            degrees = [0] * (args[0].n + 1)
            for _, j in args[0].edges:
                degrees[j] += 1
            rec.count("enumeration.forests_predicted",
                      functools.reduce(lambda a, d: a * (1 + d), degrees, 1))

    def psi_caller(args):
        # runs before psi's span opens, so the top span is psi's caller
        sid = rec.stack[-1]
        if sid not in rec.frames and sid >= 0 and (
                rec.labels[rec.name[sid]] == "injection.verify_psi"):
            rec.frames[sid] = sys._getframe(2)

    def term_pairs(args):
        rec.count("polynomials.MultiPoly.__mul__.term_pairs",
                  len(args[0]._terms) * len(args[1]._terms))

    def counter(key, size):
        return lambda args, result: rec.count(key, size(result))

    requested = set()

    def distinct_group(size):
        # Forests of one (graph, k) group count once, however often asked.
        def after(args, result):
            if args[:2] not in requested:
                requested.add(args[:2])
                rec.count("enumeration.forests_requested", size(result))
        return after

    return {
        "enumeration._forests_by_components": (cold_graph, cold_graph_done),
        "injection.psi": (psi_caller, None),
        "polynomials.MultiPoly.__mul__": (term_pairs, None),
        "enumeration.enumerate_if": (None, distinct_group(len)),
        "enumeration.a_poly": (None, distinct_group(lambda p: len(p.terms))),
        "chromatic.spanning_forests": (
            None, counter("chromatic.spanning_forests.forests", len)),
        "chromatic.is_admissible_goodvertex": (
            None, counter("chromatic.is_admissible_goodvertex.true", bool)),
    }


def install(rec):
    """Wrap the isf functions; return {original: (label, wrapper)}."""
    modules = {n: m for n, m in sys.modules.items() if n.startswith("isf.")}
    hooks = _hooks(rec, modules)
    wrappers = {}

    def add(label, obj):
        wrapper = rec.wrap(label, obj, *hooks.get(label, (None, None)))
        wrappers[obj] = (label, wrapper)

    for modname, mod in modules.items():
        layer = modname[len("isf."):]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == modname):
                add(f"{layer}.{attr}", obj)
    for layer, attr in PRIVATE:
        obj = getattr(modules.get(f"isf.{layer}"), attr, None)
        if obj is None:
            rec.unmeasured[f"{layer}.{attr}"] = "not defined in this version"
        else:
            add(f"{layer}.{attr}", obj)

    # Rebind every copy of a wrapped name, and every default argument.
    for mod in [*modules.values(), sys.modules["isf"]]:
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and not isinstance(obj, type) and obj in wrappers:
                setattr(mod, attr, wrappers[obj][1])
            fn = getattr(obj, "__wrapped__", obj)
            if isinstance(fn, types.FunctionType) and fn.__defaults__:
                fn.__defaults__ = tuple(
                    wrappers[d][1] if callable(d) and d in wrappers else d
                    for d in fn.__defaults__
                )

    for layer, cls, method, label in METHODS:
        klass = getattr(modules[f"isf.{layer}"], cls)
        setattr(klass, method, rec.wrap(label, getattr(klass, method),
                                        *hooks.get(label, (None, None))))
    return wrappers


def finish(rec, wrappers):
    """Counters that are read once, after the job: caches and image dicts."""
    for orig, (label, _) in wrappers.items():
        if hasattr(orig, "cache_info"):
            info = orig.cache_info()
            rec.count(f"{label}.hits", info.hits)
            rec.count(f"{label}.misses", info.misses)
    for frame in rec.frames.values():
        images = frame.f_locals.get("images")
        if images is None:
            rec.unmeasured["injection.verify_psi.images"] = (
                "verify_psi keeps no `images` dict in this version")
        else:
            rec.count("injection.verify_psi.images", len(images))
    rec.frames.clear()


def main(argv):
    out, job, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT JOB_ID -- <isf arguments>")
    rec = Recorder()
    wrappers = install(rec)
    try:
        status = isf.cli.main(cli_args)
        sys.stdout.flush()
    finally:
        finish(rec, wrappers)
        rec.write(out, job)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
