"""Outside-in layer tracing for `cycord`.

The recorder replaces public functions and methods of the seven library
modules by attribute with wrappers that time each call, so `src/cycord`
stays unedited.  A module function is also rebound wherever another module
holds a copy of it from `from .x import f`; without that, calls made through
the copy would escape the trace.

Spans are aggregated in memory per name (calls, inclusive seconds, self
seconds) and written out once when the process ends: the hot spans are
entered millions of times, so one record per call would dominate the run.
Self time is a span's duration minus the time its wrapped children took.

The hot `BaseElement` operators are only counted, in a pass of their own
that is never timed: a counting wrapper on them slows object arithmetic
enough to distort the self time of every span above them.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time

MODULES = ("base_rings", "extension", "order", "residue", "structure", "coding", "cli")


def _verify_counts(counts, report):
    counts["structure.pairs_checked"] += report.pairs_checked
    counts["structure.elements_enumerated"] += report.elements_enumerated


def _delta_counts(counts, report):
    counts["coding.candidates"] += report.evaluated
    found = re.search(r"(\d+) codewords inside the box", report.notes)
    counts["coding.codewords"] += int(found.group(1)) if found else 0


# span name, module, attribute path, hook that reads counts off the return value
SPANS = (
    ("coding.delta_min_search", "coding", "delta_min_search", _delta_counts),
    ("coding.min_det_sq_in_box", "coding", "min_det_sq_in_box", None),
    ("coding.run_lemma_trials", "coding", "run_lemma_trials", None),
    ("structure.identify_quotient", "structure", "identify_quotient", None),
    ("structure.verify_isomorphism", "structure", "verify_isomorphism", _verify_counts),
    ("structure.build_matrix_iso_s1", "structure", "build_matrix_iso_s1", None),
    ("structure.lift_matrix_iso_power", "structure", "lift_matrix_iso_power", None),
    ("residue.quotient_of", "residue", "quotient_of", None),
    ("residue.factor_prime", "residue", "factor_prime", None),
    ("residue.ideal_elements", "residue", "ideal_elements", None),
    ("residue.brute_force_ideals", "residue", "brute_force_ideals", None),
    ("residue.crt_recombine", "residue", "crt_recombine", None),
    ("residue.mul", "residue", "QuotientRing.mul", None),
    ("residue.reduce", "residue", "QuotientRing.reduce", None),
    ("residue.lift", "residue", "QuotientRing.lift", None),
    ("order.load_algebra", "order", "load_algebra", None),
    ("order.mul", "order", "AlgebraSpec.mul", None),
    ("order.matrix", "order", "AlgebraSpec.matrix", None),
    ("order.reduced_det", "order", "AlgebraSpec.reduced_det", None),
    ("extension.mul", "extension", "ExtensionSpec.mul", None),
    ("extension.sigma", "extension", "ExtensionSpec.sigma", None),
    ("base_rings.divmod", "base_rings", "euclidean_divmod", None),
)

RETURN_COUNTS = ("coding.candidates", "coding.codewords",
                 "structure.pairs_checked", "structure.elements_enumerated")

COUNTED_OPERATORS = (("base_rings.mul.calls", "__mul__"),
                     ("base_rings.add.calls", "__add__"),
                     ("base_rings.sub.calls", "__sub__"))


class Recorder:
    """Per-span totals and counters of one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._open: list[float] = []  # child seconds of each open span

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def _span(self, name, fn, on_return):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter
        depth = [0]  # inclusive time is taken at the outermost call of a name

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                children = open_spans.pop()
                stat[0] += 1
                stat[2] += elapsed - children
                if not depth[0]:
                    stat[1] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if on_return is not None:
                on_return(counts, result)
            return result

        return span

    def install_spans(self) -> None:
        """Wrap every span of SPANS; call before any algebra is loaded."""
        modules = _modules()
        self.counts.update(dict.fromkeys(RETURN_COUNTS, 0))
        for name, module, path, on_return in SPANS:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._span(name, original, on_return)
            setattr(owner, attr, wrapped)
            if not outer:
                _rebind_copies(modules.values(), original, wrapped)

    def install_counters(self) -> None:
        """Count calls of the hot `BaseElement` operators, without timing."""
        element = _modules()["base_rings"].BaseElement
        for name, attr in COUNTED_OPERATORS:
            self.counts[name] = 0
            setattr(element, attr, self._counter(name, getattr(element, attr)))

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted


def _modules() -> dict:
    found = {name: importlib.import_module(f"cycord.{name}") for name in MODULES}
    found["cycord"] = sys.modules["cycord"]
    return found


def _rebind_copies(modules, original, wrapped) -> None:
    for module in modules:
        for key in [k for k, v in vars(module).items() if v is original]:
            setattr(module, key, wrapped)


def merge(dumps) -> dict:
    """Sum the dumps of several processes or passes."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for dump in dumps:
        for name, stat in dump["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(stat):
                total[i] += value
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}
