"""In-memory spans around calls into the program's modules.

A span is (name, start, end, parent, run id), timed in CPU seconds of the
process like the end-to-end timings. Spans are kept in a list while the
program runs and written out once at the end, so tracing costs two clock
reads and a list append per call. Wrappers are installed by
module attribute: every module namespace that bound the original function
object gets the wrapper, so ``factor_moments`` is traced whether it is
called as ``model.factor_moments`` or through ``inference``'s import.
"""

import functools
import json
import time


class Tracer:
    """Collects spans for one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []

    def wrap(self, name, fn, variant=None):
        """Wrapper recording one span per call of ``fn``.

        ``variant(args, kwargs)`` may return a suffix that is appended to the
        span name, to tell apart calls of one function made for different
        purposes.
        """
        spans, open_stack, clock = self.spans, self._open, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if variant is None else name + variant(args, kwargs)
            index = len(spans)
            spans.append([label, 0.0, 0.0, open_stack[-1] if open_stack else -1])
            open_stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_stack.pop()
                record = spans[index]
                record[1] = start
                record[2] = end

        return traced

    def records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records(), handle)


def install(tracer, modules, targets):
    """Wrap each target in every namespace that holds it.

    ``modules`` maps a short module name to the module object; ``targets``
    is a sequence of (module, attribute, variant) where attribute may be
    ``Class.method``. Returns the span names of targets that do not exist,
    which the caller reports as absent.
    """
    missing = []
    for module_name, attribute, variant in targets:
        span_name = f"{module_name}.{attribute}"
        owner = modules[module_name]
        *outer, leaf = attribute.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            missing.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original, variant)
        if outer:
            setattr(owner, leaf, wrapper)
            continue
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"]) - covered(kids)
        for span, kids in zip(spans, children)
    ]
