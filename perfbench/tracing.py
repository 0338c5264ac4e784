"""Spans around weinkit's public functions, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper, both
where it is defined and under every name another weinkit module imported
it as (`weinkit.graded.smith_normal_form`, `weinkit.surgery.stabilize`,
...), so nested calls get spans of their own.  Spans stay in memory until
`dump`.  A layer's busy time sums its outermost spans; its self time is
each span minus its direct child spans.
"""

import json
import sys
from functools import wraps
from time import perf_counter

# (span name, module, qualified attribute): the public entry points of each
# layer.  Span names are the per-layer metric prefixes.
TARGETS = [
    ("snf", "weinkit.snf", "smith_normal_form"),
    ("graded.homology", "weinkit.graded", "homology"),
    ("graded.canonicalize", "weinkit.graded", "GradedGroup.from_dict"),
    ("graded.cancel", "weinkit.graded", "cancel_summand"),
    *[("handles", "weinkit.handles", name) for name in (
        "HandlePresentation.homology", "HandlePresentation.cohomology",
        "cohomology", "boundary_homology", "handlebody_boundary_homology",
        "intersection_form_rank", "omega_membership", "boundary_connect_sum")],
    *[("floer", "weinkit.floer", name) for name in (
        "sh_plus_from_vanishing", "sh_plus_reindex_back", "taut_les_bounds",
        "distinguish_flexible_fillings", "cem_flexible_obstruction",
        "flexible_support_test", "boundedinfinite_distinguisher",
        "wh_plus_from_vanishing", "wrapped_loop_grading", "nearby_conclusion",
        "sh_support_adc_obstruction")],
    ("chords.stabilize", "weinkit.chords", "stabilize"),
    ("surgery.words", "weinkit.surgery", "enumerate_words"),
    ("surgery.orbits", "weinkit.surgery", "orbits_after_surgery"),
    ("surgery.belt", "weinkit.surgery", "belt_sphere_chords"),
    ("surgery.pipeline", "weinkit.surgery", "flexible_surgery_certificate"),
    ("surgery.adc_check", "weinkit.surgery", "adc_check"),
    ("surgery.normalize", "weinkit.surgery", "normalize_certificate"),
    ("serialize.to_json", "weinkit.surgery", "ADCCertificate.to_json"),
    ("serialize.from_json", "weinkit.surgery", "ADCCertificate.from_json"),
    *[("scaling", "weinkit.scaling", name) for name in (
        "build_g", "bound_ratio", "conformal_bound", "verify_h_family")],
    *[("corpus", "weinkit.corpus", name) for name in (
        "examples_corpus", "run_example")],
]


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _count_snf(args, kwargs, out):
    rows = args[0]
    ncols = max((len(r) for r in rows), default=0)
    return {"dim": max(len(rows), ncols), "bits": max(_bits(out.u), _bits(out.v))}


def _count_canonicalize(args, kwargs, out):
    factors = [int(f) for _, fs in args[0].values() for f in fs]
    return {"factor_bits": max((f.bit_length() for f in factors), default=0)}


def _count_words(args, kwargs, out):
    return {"words": len(out), "max_len": max((len(w) for w in out), default=0)}


def _count_to_json(args, kwargs, out):
    return {"bytes": len(json.dumps(out, sort_keys=True, separators=(",", ": "),
                                    indent=1))}


def _count_nodes(args, kwargs, out):
    return {"nodes": getattr(out, "nodes", None) or kwargs.get("nodes", 0)}


COUNTERS = {
    "snf": _count_snf,
    "graded.canonicalize": _count_canonicalize,
    "chords.stabilize": lambda a, k, out: {"records": len(out.chords)},
    "surgery.words": _count_words,
    "surgery.orbits": lambda a, k, out: {"orbits": len(out.orbits)},
    "serialize.to_json": _count_to_json,
    "scaling": _count_nodes,
}


class Tracer:
    """Records spans as [name, start, end, parent index, counters,
    excluded seconds]; counters are taken after the span ends, and their
    cost is excluded from every enclosing span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
                spent = perf_counter() - span[2]
                for i in stack:
                    spans[i][5] += spent
            return out
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "weinkit" or n.startswith("weinkit."))]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[last]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((owner, last, raw))
            setattr(owner, last, wrapped)
            if path:
                continue
            # the same function under the names other modules imported it as
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is raw and module is not owner:
                        self._patches.append((module, alias, raw))
                        setattr(module, alias, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "counters": counters, "excluded": excluded}
                for name, start, end, parent, counters, excluded in self.spans]

    def dump(self, path):
        with open(path, "a") as fh:
            for doc in self.records():
                fh.write(json.dumps(doc) + "\n")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(spans):
    """{name: {"calls", "busy", "self", counter sums, counter maxima}} over
    span dicts; spans with the same "call" key share parent indices."""
    out = {}
    groups = {}
    for s in spans:
        groups.setdefault(s.get("call"), []).append(s)
    for group in groups.values():
        dur = [s["end"] - s["start"] - s["excluded"] for s in group]
        child = [0.0] * len(group)
        for i, s in enumerate(group):
            if s["parent"] >= 0:
                child[s["parent"]] += dur[i]
        for i, s in enumerate(group):
            agg = out.setdefault(s["name"], {"calls": 0, "busy": 0.0,
                                             "self": 0.0, "sum": {}, "max": {}})
            agg["self"] += dur[i] - child[i]
            p = s["parent"]
            while p >= 0 and group[p]["name"] != s["name"]:
                p = group[p]["parent"]
            if p < 0:  # outermost span of its layer
                agg["calls"] += 1
                agg["busy"] += dur[i]
            for key, value in (s.get("counters") or {}).items():
                agg["sum"][key] = agg["sum"].get(key, 0) + value
                agg["max"][key] = max(agg["max"].get(key, 0), value)
    return out


def snf_split(spans, cut=12):
    """Busy seconds of outermost snf spans by dimension <= cut and > cut."""
    small = large = 0.0
    for s in spans:
        if s["name"] == "snf":
            d = s["end"] - s["start"] - s["excluded"]
            if (s.get("counters") or {}).get("dim", 0) <= cut:
                small += d
            else:
                large += d
    return small, large


def layer_metrics(spans, rounds, overhead, cli):
    """The per-layer metrics: counts and times per traced round, maxima
    over the run.  `cli` holds the import and call figures."""
    agg = summarize(spans)
    per = max(rounds, 1)

    def get(name, field, key=None):
        a = agg.get(name)
        if a is None:
            return 0
        return a[field] if key is None else a[field].get(key, 0)

    def rate(count, busy):
        return count / busy if busy > 0 else 0.0

    small, large = snf_split(spans)
    m = {
        "snf.calls": (get("snf", "calls") / per, "count"),
        "snf.busy_s": (get("snf", "busy") / per, "s"),
        "snf.max_dim": (get("snf", "max", "dim"), "count"),
        "snf.max_entry_bits": (get("snf", "max", "bits"), "bits"),
        "snf.busy_s.dim_le12": (small / per, "s"),
        "snf.busy_s.dim_gt12": (large / per, "s"),
        "graded.homology.calls": (get("graded.homology", "calls") / per, "count"),
        "graded.homology.self_s": (get("graded.homology", "self") / per, "s"),
        "graded.canonicalize.calls": (get("graded.canonicalize", "calls") / per, "count"),
        "graded.canonicalize.busy_s": (get("graded.canonicalize", "busy") / per, "s"),
        "graded.max_factor_bits": (get("graded.canonicalize", "max", "factor_bits"), "bits"),
        "graded.cancel.busy_s": (get("graded.cancel", "busy") / per, "s"),
        "handles.calls": (get("handles", "calls") / per, "count"),
        "handles.self_s": (get("handles", "self") / per, "s"),
        "floer.calls": (get("floer", "calls") / per, "count"),
        "floer.busy_s": (get("floer", "busy") / per, "s"),
        "chords.stabilize.calls": (get("chords.stabilize", "calls") / per, "count"),
        "chords.stabilize.busy_s": (get("chords.stabilize", "busy") / per, "s"),
        "chords.records_out": (get("chords.stabilize", "sum", "records") / per, "count"),
        "chords.records_per_s": (rate(get("chords.stabilize", "sum", "records"),
                                      get("chords.stabilize", "busy")), "1/s"),
        "surgery.words.calls": (get("surgery.words", "calls") / per, "count"),
        "surgery.words.busy_s": (get("surgery.words", "busy") / per, "s"),
        "surgery.words_out": (get("surgery.words", "sum", "words") / per, "count"),
        "surgery.words_per_s": (rate(get("surgery.words", "sum", "words"),
                                     get("surgery.words", "busy")), "1/s"),
        "surgery.words.max_len": (get("surgery.words", "max", "max_len"), "count"),
        "surgery.pipeline.calls": (get("surgery.pipeline", "calls") / per, "count"),
        "surgery.pipeline.self_s": (get("surgery.pipeline", "self") / per, "s"),
        "surgery.orbits_out": (get("surgery.orbits", "sum", "orbits") / per, "count"),
        "surgery.adc_check.busy_s": (get("surgery.adc_check", "busy") / per, "s"),
        "surgery.normalize.busy_s": (get("surgery.normalize", "busy") / per, "s"),
        "serialize.to_json.busy_s": (get("serialize.to_json", "busy") / per, "s"),
        "serialize.from_json.busy_s": (get("serialize.from_json", "busy") / per, "s"),
        "serialize.bytes": (get("serialize.to_json", "sum", "bytes") / per, "bytes"),
        "scaling.busy_s": (get("scaling", "busy") / per, "s"),
        "scaling.grid_nodes": (get("scaling", "sum", "nodes") / per, "count"),
        "corpus.busy_s": (get("corpus", "busy") / per, "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    for key, value in cli.items():
        m[key] = value
    return m


def overhead(traced_walls, plain_walls):
    """Mean traced round wall minus mean untraced round wall."""
    if not traced_walls or not plain_walls:
        return 0.0
    return sum(traced_walls) / len(traced_walls) - sum(plain_walls) / len(plain_walls)
