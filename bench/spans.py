"""Spans around fpkit's public functions, recorded from outside the package.

:class:`Tracer` replaces each traced function at every module attribute
that refers to it (``fpkit.localization.residue_sum`` and the copies that
``fpkit.cli`` and ``fpkit.search`` imported by name), records one span per
call with its name, start, end and parent, and puts every original back
when it is uninstalled.  Spans stay in memory until :func:`layer_metrics`
reduces them.  For a generator function a span covers each resume only, so
time the consumer spends between items is not charged to the generator.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import threading
import time

import oracles


def _bytes_in(counts, args, kwargs):
    counts["core.bytes_in"] += len(args[0] if args else kwargs["text"])


def _bytes_out(counts, args, kwargs, result):
    counts["core.bytes_out"] += len(result)


def _verdict(counts, args, kwargs, result):
    counts["hattori.passes"] += bool(result.passes)


def _experiment(counts, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counts["search.leaves"] += oracles.leaf_count(spec.n, spec.bound)
    counts["search.survivors"] += result.survivor_count
    counts["search.counterexamples"] += len(result.counterexamples)
    counts["search.hypothesis_failures"] += len(result.hypothesis_failures)


# (module, attribute, span name, counter hook run on entry,
#  counter hook run on a normal return)
TARGETS = (
    ("fpkit.core", "load", "core.load", None, None),
    ("fpkit.core", "loads", "core.loads", _bytes_in, None),
    ("fpkit.core", "validate", "core.validate", None, None),
    ("fpkit.core", "serialize", "core.serialize", None, _bytes_out),
    ("fpkit.core", "iter_documents", "core.iter_documents", _bytes_in, None),
    ("fpkit.core", "betti_numbers", "core.invariants", None, None),
    ("fpkit.core", "projective_profile", "core.invariants", None, None),
    ("fpkit.localization", "residue_sum", "localization.residue_sum", None, None),
    ("fpkit.localization", "chern_monomial", "localization.chern_monomial", None, None),
    ("fpkit.localization", "line_bundle_power", "localization.line_bundle_power",
     None, None),
    ("fpkit.localization", "chi_y_hrr_projective", "localization.chi_y_hrr", None, None),
    ("fpkit.localization", "chi_y_from_data", "localization.genus", None, None),
    ("fpkit.localization", "k_coefficients", "localization.genus", None, None),
    ("fpkit.localization", "c1cn1_from_k2", "localization.genus", None, None),
    ("fpkit.hattori", "hattori_verdict", "hattori.verdict", None, _verdict),
    ("fpkit.hattori", "derive_bundle_weights", "hattori.derive_bundle", None, None),
    ("fpkit.models", "linear_pn", "models.linear_pn", None, None),
    ("fpkit.models", "hyperplane_model", "models.linear_pn", None, None),
    ("fpkit.models", "pair_restriction_check", "models.pair_check", None, None),
    ("fpkit.search", "rigidity_experiment", "search.experiment", None, _experiment),
    ("fpkit.search", "enumerate_survivors", "search.enumerate", None, None),
    ("fpkit.cli", "main", "cli.main", None, None),
)

LAURENT_METHODS = ("__init__", "fmt", "__add__", "__sub__", "__mul__", "__pow__")


class Tracer:
    def __init__(self):
        # (span id, parent id or None, name, start, end)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: collections.Counter[str] = collections.Counter()
        self.counts: collections.Counter[str] = collections.Counter()
        self._local = threading.local()
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, call, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [None])
        self._next_id += 1
        span_id = self._next_id
        parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, original, name, before=None, after=None):
        tracer = self

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if before is not None:
                    before(tracer.counts, args, kwargs)
                return _Resumes(tracer, name, original(*args, **kwargs))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if before is not None:
                    before(tracer.counts, args, kwargs)
                result = tracer._span(name, original, *args, **kwargs)
                if after is not None:
                    after(tracer.counts, args, kwargs, result)
                return result
        return wrapper

    def install(self):
        """Wrap every target in every loaded fpkit module; a target the
        package no longer has is skipped."""
        modules = [
            module for key, module in list(sys.modules.items())
            if key == "fpkit" or key.startswith("fpkit.")
        ]
        for module_name, attribute, name, before, after in TARGETS:
            original = getattr(sys.modules.get(module_name), attribute, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        laurent = getattr(sys.modules.get("fpkit.laurent"), "LaurentPoly", None)
        for method in LAURENT_METHODS if laurent is not None else ():
            original = laurent.__dict__.get(method)
            if inspect.isfunction(original):
                self._restore.append((laurent, method, original))
                setattr(laurent, method, self.wrap(original, "laurent.poly"))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


class _Resumes:
    """Iterator that records one span per resume of the wrapped generator."""

    def __init__(self, tracer, name, generator):
        self.tracer, self.name, self.generator = tracer, name, generator

    def __iter__(self):
        return self

    def __next__(self):
        return self.tracer._span(self.name, next, self.generator)

    def close(self):
        self.generator.close()


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Reduce spans to per-layer totals.

    ``<name>_s`` sums the spans of a name that have no ancestor of the same
    name, so recursion is not counted twice.  ``cli.self_s`` is the time in
    ``cli.main`` minus its direct children.  ``trace.coverage`` is the share
    of ``wall_s`` inside top-level spans.
    """
    by_id = {span[0]: span for span in tracer.spans}
    totals: collections.Counter[str] = collections.Counter()
    children: collections.Counter[int] = collections.Counter()
    top = 0.0
    for span_id, parent, name, start, end in tracer.spans:
        duration = end - start
        if parent is None:
            top += duration
        else:
            children[parent] += duration
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            totals[name] += duration
    cli_self = sum(
        (end - start) - children[span_id]
        for span_id, _, name, start, end in tracer.spans
        if name == "cli.main"
    )
    metrics = {f"{name}_s": seconds for name, seconds in totals.items()}
    metrics.update({f"{name}_calls": count for name, count in tracer.calls.items()})
    metrics.update(tracer.counts)
    metrics["cli.self_s"] = cli_self
    metrics["trace.coverage"] = top / wall_s if wall_s else 0.0
    return metrics
