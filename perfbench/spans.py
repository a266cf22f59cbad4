"""Span tracing around the package's public callables, from the outside.

:class:`Tracer` replaces each listed callable at the module that *calls* it
(its import site: ``repro.driver.parse_fortran``, not
``repro.frontend.fortran.parse_fortran``) with a wrapper that records one
span per call, and puts the originals back on :meth:`Tracer.uninstall`.
Nothing under ``src/`` is edited; the untraced run never installs anything.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index, among
the spans of the same op, of the innermost open span when the call began
(``-1`` at top level) and ``op`` the workload op that caused it.  After each
op, :meth:`Tracer.end_op` folds its spans into per-name totals; the raw spans
of the first ``keep_ops`` ops stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

#: (span name, module of the import site, attribute) for every wrapped
#: callable.  Span names are ``layer.callable``; a layer's time metric is
#: the sum of its spans.
SITES = (
    ("frontend.parse", "repro.driver", "parse_fortran"),
    ("analysis.normalize", "repro.driver", "normalize_program"),
    ("analysis.induction", "repro.driver", "substitute_induction_variables"),
    ("analysis.linearize", "repro.driver", "linearize_program"),
    ("analysis.linearize_common", "repro.driver", "linearize_common"),
    ("depgraph.analyze", "repro.driver", "analyze_dependences"),
    ("ranges.derive", "repro.depgraph.builder", "derive_assumptions"),
    ("depgraph.pair_build", "repro.depgraph.builder", "build_pair_problem"),
    ("core.lookup", "repro.depgraph.builder", "cached_delinearize"),
    ("core.canon", "repro.core.cache", "canonicalize"),
    ("core.solve", "repro.core.cache", "delinearize"),
    ("core.group", "repro.core.delinearize", "solve_group"),
    ("vectorizer.vectorize", "repro.driver", "vectorize"),
    ("vectorizer.verify", "repro.driver", "verify_schedule"),
    ("vectorizer.emit", "repro.driver", "emit_program"),
)

#: Methods of :class:`repro.deptests.problem.DependenceProblem`, wrapped on
#: the class because every caller reaches them through an instance.
METHOD_SITES = (
    ("deptests.direction", "with_direction"),
)

#: The brute-force enumerator is a generator: its span covers only the time
#: spent inside ``next()``, which is where the enumeration work happens.
GENERATOR_SITES = (
    ("deptests.enumerate", "enumerate_solutions"),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, keep_ops: int = 50) -> None:
        self.keep_ops = keep_ops
        #: Spans of the op in progress.
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: Raw spans of the first ``keep_ops`` ops, written by :meth:`dump`.
        self.kept: list[tuple[str, float, float, int, int]] = []
        #: Per span name: calls, total_ms and self_ms over every folded op.
        self.totals: dict[str, dict[str, float]] = {}
        self.op = -1
        #: Generator wrappers count calls at creation, not per ``next()``.
        self.generator_calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        from repro.deptests.problem import DependenceProblem

        for name, attr in METHOD_SITES:
            original = getattr(DependenceProblem, attr)
            self._patch(DependenceProblem, attr, self._wrap(name, original))
        for name, attr in GENERATOR_SITES:
            original = getattr(DependenceProblem, attr)
            self._patch(
                DependenceProblem, attr, self._wrap_generator(name, original)
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _end, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.generator_calls[name] = tracer.generator_calls.get(name, 0) + 1
            inner = fn(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        return traced

    # -- reporting ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.spans = []
        self.generator_calls = {}

    def end_op(self) -> None:
        """Fold the finished op's spans into :attr:`totals`.

        Self time is a span's duration minus the durations of its direct
        children.  A generator records one span per ``next()``; its call
        count is the number of generators created.
        """
        child_ms = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        generators = set(self.generator_calls)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            entry = self._entry(name)
            duration = (end - start) * 1000.0
            if name not in generators:
                entry["calls"] += 1
            entry["total_ms"] += duration
            entry["self_ms"] += duration - child_ms[index]
        for name, calls in self.generator_calls.items():
            self._entry(name)["calls"] += calls
        if self.op < self.keep_ops:
            self.kept.extend(self.spans)
        self.spans = []

    def _entry(self, name: str) -> dict[str, float]:
        return self.totals.setdefault(
            name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )

    def dump(self, path: Path) -> None:
        """Write every kept span as one JSON line: name, start, end, parent
        (op-local index) and op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.kept:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
