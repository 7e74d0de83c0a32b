"""In-memory span tracer that wraps moonmod's module attributes from outside.

A span is (name, start, end, parent, op): parent is the index of the span
open when this one started, op the operation id current at the time.  The
tracer patches functions and methods the program looks up at call time
(module attributes and class attributes), so no program file changes; the
patches are removed again when the `installed` block ends.  Counters are
kept next to the spans, at the same boundaries.
"""

from __future__ import annotations

import collections
import contextlib
import json
import time

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts = collections.Counter()
        self.maxima: dict[str, int] = {}
        # Per op: arrays of c scanned by the tail kernel, and the largest
        # c at which a computed value was accepted.
        self.kernel_cs = collections.defaultdict(list)
        self.accepted_c = {}

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.finish(rec)

    def begin(self, name):
        rec = [name, 0.0, None, self.stack[-1] if self.stack else None, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def finish(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    def note_max(self, key, value):
        if value > self.maxima.get(key, value - 1):
            self.maxima[key] = value

    # -- patching ----------------------------------------------------------

    def wrapper(self, original, name, before=None, after=None):
        """Wrap a callable in a span; before(args) -> state, after(state, args, result)."""
        tracer = self

        def traced(*args, **kwargs):
            state = before(args) if before else None
            rec = tracer.begin(name) if name else None
            try:
                result = original(*args, **kwargs)
            finally:
                if rec is not None:
                    tracer.finish(rec)
            if after:
                after(state, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def installed(self, patches):
        """patches: iterable of (owner, attribute, span name or None, before, after)."""
        saved = []
        try:
            for owner, attr, name, before, after in patches:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrapper(original, name, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Duration of each span minus the part its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self):
        """name -> (count, total duration, total self time)."""
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for s, own in zip(self.spans, self.self_times()):
            t = out[s[NAME]]
            t[0] += 1
            t[1] += s[END] - s[START]
            t[2] += own
        return out

    def merge(self, doc, op):
        """Add a child process's dumped spans and counters under one op id."""
        base = len(self.spans)
        for name, start, end, parent in doc["spans"]:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base, op])
        self.counts.update(doc["counts"])
        for key, value in doc["maxima"].items():
            self.note_max(key, value)

    def dump(self):
        return {
            "spans": [s[:4] for s in self.spans],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "self": own}) + "\n")


def layer_patches(tracer, mm):
    """Patches for each moonmod layer; mm maps short names to imported modules."""
    chartab, rademacher, kernels = mm["chartab"], mm["rademacher"], mm["kernels"]
    decomp, filtration = mm["decomp"], mm["filtration"]
    cache_cls = rademacher.CoefficientCache
    engine_cls = rademacher.RademacherEngine

    def store_loaded(_state, args, _result):
        tracer.note_max("store_records", len(args[0]))

    def cache_get(_state, _args, result):
        tracer.counts["cache_hits" if result is not None else "cache_misses"] += 1

    def put_before(args):
        cache, group, class_name, n = args[:4]
        return cache.path is not None and (group, class_name, n) not in cache.records

    def put_after(appended, args, _result):
        tracer.counts["records_appended"] += bool(appended)
        tracer.accepted_c[tracer.op] = max(tracer.accepted_c.get(tracer.op, 0),
                                           args[4].c_max_used)

    def kernel_after(_state, args, _result):
        n0, n1, cs = args[0], args[1], args[2]
        if len(cs):
            pairs = int(cs.sum())
            tracer.counts["kernel_pairs"] += pairs
            tracer.counts["kernel_pair_grades"] += pairs * (n1 - n0 + 1)
            tracer.note_max("c_max_scanned", int(cs.max()))
            tracer.kernel_cs[tracer.op].append(cs.copy())

    def count(key):
        def after(_state, _args, _result):
            tracer.counts[key] += 1
        return after

    def levels(_state, _args, result):
        tracer.counts["filtration_levels"] += len(result.chain)

    return [
        (chartab, "_validate", "chartab.validate", None, None),
        (cache_cls, "_load", "rademacher.store_load", None, store_loaded),
        (cache_cls, "seed", "rademacher.store_load", None, store_loaded),
        (cache_cls, "get", None, None, cache_get),
        (cache_cls, "put", "rademacher.cache_append", put_before, put_after),
        (engine_cls, "_sweep", "rademacher.sweep", None, None),
        (engine_cls, "_head_terms", "rademacher.head", None, None),
        (rademacher, "partial_kloosterman", "rademacher.head_term", None,
         count("head_calls")),
        (kernels, "kloosterman_grades", "kernels.kloosterman", None, kernel_after),
        (decomp, "multiplicities", "decomp.multiplicities", None, None),
        (filtration, "signs_at", "filtration.signs", None, None),
        (filtration, "filtrate_exact", "filtration.filtrate_exact", None, levels),
        (filtration, "nonfree_asymptotic", "filtration.nonfree", None, None),
    ]


def cli_patches(tracer, cli):
    def emitted(_state, args, _result):
        tracer.counts["emit_bytes"] += len(args[0].encode("utf-8"))

    return [(cli, "_emit", "cli.emit", None, emitted)]
