"""Per-layer metrics from the span files that `tracer.py` writes.

A layer is an `isf` module; a metric is `<module>.<function>.<stat>`:
`calls`, `s` (inclusive time, counting a recursive function once per
outermost call), `self_s` (time not covered by child spans) and `us_p50`/
`us_p99` (span duration percentiles).  Counters that are not spans
(term pairs, cache hits, image-dict size) come from the file headers.
"""

from __future__ import annotations

import array
import json
import statistics
from collections import defaultdict

FOREST_MAKER = "enumeration._forests_by_components"


def load(prefix: str):
    """(header, spans) with spans = (name, parent, start, end) lists."""
    with open(prefix + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = [array.array(code) for code in "Hidd"]
    with open(prefix + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name, parent, start, end = arrays
    labels = header["labels"]
    return header, ([labels[i] for i in name], parent, start, end)


class Layers:
    """Span statistics summed over the jobs of one traced round."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(int)
        self.unmeasured = {}
        self.defined = set()    # span names the tracer wrapped
        self.import_s = []
        self.forests_built = 0

    def add_job(self, header: dict, spans) -> None:
        names, parents, starts, ends = spans
        dur = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * len(dur)
        open_spans, open_names = [], defaultdict(int)
        for sid, (name, parent) in enumerate(zip(names, parents)):
            if parent >= 0:
                child[parent] += dur[sid]
                if names[parent] == FOREST_MAKER and name == "graphs.Forest":
                    self.forests_built += 1
            while open_spans and open_spans[-1] != parent:
                open_names[names[open_spans.pop()]] -= 1
            if not open_names[name]:
                self.inclusive[name] += dur[sid]
            open_spans.append(sid)
            open_names[name] += 1
            self.calls[name] += 1
        for sid, name in enumerate(names):
            self.self_s[name] += dur[sid] - child[sid]
            if name in ("brackets.phi", "injection.psi"):
                self.durations[name].append(dur[sid])
        for key, value in header["counters"].items():
            self.counters[key] += value
        self.unmeasured.update(header["unmeasured"])
        self.defined.update(header["labels"])
        self.import_s.append(header["import_s"])

    def module_self_s(self) -> dict:
        """Self time per isf module: the most a faster module can save."""
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def metrics(self, names, stdout_bytes: int) -> dict:
        """Values of the named metrics; 0 for a function that never ran."""
        c = self.counters
        out = {
            "cli.import_s": statistics.median(self.import_s),
            "cli.stdout_bytes": stdout_bytes,
            "enumeration.forests_built": self.forests_built,
            "enumeration.yield_ratio": _ratio(
                c["enumeration.forests_requested"], self.forests_built),
            "injection.verify_psi.images": c["injection.verify_psi.images"],
            "polynomials.MultiPoly.__mul__.term_pairs":
                c["polynomials.MultiPoly.__mul__.term_pairs"],
            "chromatic.chromatic_polynomial.hit_ratio": _ratio(
                c["chromatic.chromatic_polynomial.hits"],
                self.calls["chromatic.chromatic_polynomial"]),
            "chromatic.spanning_forests.forests":
                c["chromatic.spanning_forests.forests"],
            "chromatic.is_admissible_goodvertex.true_ratio": _ratio(
                c["chromatic.is_admissible_goodvertex.true"],
                self.calls["chromatic.is_admissible_goodvertex"]),
        }
        for metric in names:
            if metric in out or metric == "trace.overhead_s":
                continue
            name, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = self.calls[name]
            elif stat == "s":
                out[metric] = self.inclusive[name]
            elif stat == "self_s":
                out[metric] = self.self_s[name]
            else:
                q = float(stat[len("us_p"):])
                out[metric] = _percentile(self.durations[name], q) * 1e6
        return out

    def function_of(self, metric: str):
        """The span name a metric is about; None for cli.* and trace.*."""
        fn = metric.rsplit(".", 1)[0]
        if fn == "enumeration":              # forests_built, yield_ratio
            return FOREST_MAKER
        return None if fn in ("cli", "trace") else fn

    def not_measured(self, names) -> dict:
        """metric -> why it reads 0: not measurable here, or never ran."""
        out = {}
        for metric in names:
            fn = self.function_of(metric)
            if metric in self.unmeasured:
                out[metric] = self.unmeasured[metric]
            elif fn is None or self.calls[fn]:
                continue
            elif fn in self.unmeasured:
                out[metric] = self.unmeasured[fn]
            elif fn not in self.defined:
                out[metric] = f"no function {fn} in this version of isf"
            else:
                out[metric] = f"{fn} is never called on this workload"
        return out

    def identity_failures(self, pairs: int) -> list:
        """Count identities a missed binding would break."""
        c = self.counters
        bad = []
        psi, phi = self.calls["injection.psi"], self.calls["brackets.phi"]
        if not psi == phi == pairs:
            bad.append(f"psi calls {psi}, phi calls {phi}, pairs {pairs}")
        if FOREST_MAKER not in self.unmeasured and (
                self.forests_built != c["enumeration.forests_predicted"]):
            bad.append(f"forests built {self.forests_built}, prod(1 + d_j) "
                       f"over cold graphs {c['enumeration.forests_predicted']}")
        dc = self.calls["chromatic.chromatic_polynomial"]
        cached = (c["chromatic.chromatic_polynomial.hits"]
                  + c["chromatic.chromatic_polynomial.misses"])
        if dc != cached:
            bad.append(f"chromatic_polynomial calls {dc}, cache saw {cached}")
        return bad


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[round(q) - 1]
