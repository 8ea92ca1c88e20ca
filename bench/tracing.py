"""Spans and counters around each layer of ``cremona``, from outside it.

A layer is one module of the package.  ``Tracer.install`` wraps every
public function defined in a layer module and rebinds the name in every
``cremona`` module that holds it, so calls made through ``from x import
f`` are seen too; ``uninstall`` puts the originals back.  Each span
records its bucket, start, end and parent span, and spans stay in memory
until the run ends.  Hot inner functions only get counters, so
that tracing does not swamp the kernel loops they sit in; their time
counts toward the calling span.  Methods and constructors are
not wrapped either: their time also counts toward the calling span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "jsonio", "classifier", "bundles", "square_class", "geometry",
          "picard", "intlinalg")

#: jsonio's time is split into reading input and writing reports
BUCKETS = ("cli", "jsonio.parse", "jsonio.emit", "classifier", "bundles",
           "square_class", "geometry", "picard", "intlinalg")

#: called for every matrix and Moebius map built, inside the kernel loops:
#: a counter only, so that spans do not swamp them
COUNT_ONLY = {("intlinalg", "freeze")}

#: (layer, function) -> (counter, size of one call's result, or None for 1)
COUNTERS = {
    ("classifier", "classify"): ("classifier.verdicts", None),
    ("bundles", "z22_from_triplet"): ("bundles.models_built", None),
    ("bundles", "exceptional_from_delta"): ("bundles.models_built", None),
    ("square_class", "triplet_canonical_form"): ("square_class.canonical_calls", None),
    ("square_class", "delta_canonical_form"): ("square_class.canonical_calls", None),
    ("square_class", "stabilizer"): ("square_class.stabilizer_calls", None),
    ("geometry", "mobius_from_triples"): ("geometry.mobius_built", None),
    ("picard", "enumerate_minus_one_classes"): ("picard.minus_one_classes", len),
    ("picard", "validate_action"): ("picard.isometry_checks", None),
    ("intlinalg", "hermite_row_form"): ("intlinalg.hnf_calls", None),
    ("intlinalg", "freeze"): ("intlinalg.freeze_calls", None),
    ("jsonio", "dumps"): ("jsonio.bytes_out", len),
}
COUNTER_NAMES = tuple(sorted({name for name, _ in COUNTERS.values()}))


def _bucket(layer: str, name: str) -> str:
    if layer == "jsonio":
        return "jsonio.parse" if name.startswith(("parse_", "expect_")) else "jsonio.emit"
    return layer


class Tracer:
    """Collects spans ``(bucket, start, end, parent)`` and counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def _span(self, f, bucket, counter, size):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (bucket, t0, t1, parent)
            if counter:
                counts[counter] += size(result) if size else 1
            return result
        return wrapper

    def _counter(self, f, counter):
        counts = self.counts

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return f(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cremona.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                counter, size = COUNTERS.get((layer, name), (None, None))
                if (layer, name) in COUNT_ONLY:
                    wrappers[id(obj)] = self._counter(obj, counter)
                else:
                    wrappers[id(obj)] = self._span(obj, _bucket(layer, name), counter, size)
        for modname, mod in list(sys.modules.items()):
            if modname != "cremona" and not modname.startswith("cremona."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def self_times(spans, start: int) -> dict[str, float]:
    """Seconds of self time per bucket for the spans from index ``start`` on.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """
    own = {b: 0.0 for b in BUCKETS}
    for bucket, t0, t1, parent in spans[start:]:
        own[bucket] += t1 - t0
        if parent >= 0:
            own[spans[parent][0]] -= t1 - t0
    return own
