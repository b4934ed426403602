"""Spans around the benchmark's calls into the library, and field-kernel
call counters.

A span is (name, start_ns, end_ns, parent, job id).  Span names are
"<layer>.<function>", the layers being the skewcodes modules.  Spans are
kept in memory and written out when the run ends.  Kernel calls are counted
by wrappers set on the FieldSpec instances the benchmark built, and removed
again afterwards; the library itself is not changed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "fields", "skewpoly", "rootsets", "linearized", "linalg",
    "codes", "bch", "cli", "textio",
)

# attribute on FieldSpec -> counter it feeds; sub and neg count as add
KERNEL_ATTRS = (
    ("mul_i", "mul_i"), ("add_i", "add_i"), ("sub_i", "add_i"),
    ("neg_i", "add_i"), ("inv_i", "inv_i"), ("frob_i", "frob_i"),
    ("pow_i", "pow_i"),
)
KERNEL_KEYS = ("mul_i", "add_i", "inv_i", "frob_i", "pow_i")

TABLE_LIMIT = 1 << 16


class NullTracer:
    """The untraced path: calls straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def job(self, jid):
        return _NULL_SPAN

    def span(self, name):
        return _NULL_SPAN

    def error(self, layer):
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans; exceptions seen by a span count against its layer."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.errors = Counter()
        self._stack = []
        self._job = None

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def job(self, jid):
        self._job = jid
        return self.span("job")

    def span(self, name):
        return _Span(self, name)

    def error(self, layer):
        """Count a failure the layer reported without raising."""
        self.errors[layer] += 1


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter_ns(), None, parent, tr._job])
        tr._stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._stack.pop()
        if exc_type is not None and exc_type is not GeneratorExit:
            tr.errors[self.name.split(".", 1)[0]] += 1
        return False


def self_times(spans):
    """Self time in ns of each span: its duration minus the part of its
    interval covered by its children (overlapping children counted once)."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def span_totals(spans):
    """{name: (calls, self seconds)} over all spans."""
    calls = Counter()
    secs = Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        secs[span[0]] += own / 1e9
    return {name: (calls[name], secs[name]) for name in calls}


def write_spans(path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, jid in spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "job": jid}) + "\n")


class KernelCounters:
    """Counting wrappers on FieldSpec instances.

    Every call through the instance attribute is counted, including calls
    the kernel makes to itself (odd-characteristic sub_i calls add_i and
    neg_i).  Calls on fields above the 2^16 table limit also count as slow.
    """

    def __init__(self):
        self.counts = Counter()
        self._saved = []

    def install(self, fields):
        seen = set()
        for field in fields:
            if id(field) in seen:
                continue
            seen.add(id(field))
            slow = field.order > TABLE_LIMIT
            for attr, key in KERNEL_ATTRS:
                had = attr in field.__dict__
                orig = getattr(field, attr)
                self._saved.append((field, attr, had, orig))
                setattr(field, attr, self._wrap(orig, key, slow))

    def _wrap(self, orig, key, slow):
        counts = self.counts
        if slow:
            def counted(*args):
                counts[key] += 1
                counts["slow"] += 1
                return orig(*args)
        else:
            def counted(*args):
                counts[key] += 1
                return orig(*args)
        return counted

    def uninstall(self):
        for field, attr, had, orig in reversed(self._saved):
            if had:
                setattr(field, attr, orig)
            else:
                delattr(field, attr)
        self._saved = []
