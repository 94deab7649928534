"""Outside-in tracer: wraps a package's public functions at run time.

Nothing in the traced package changes on disk.  ``Tracer.install`` replaces
each public function of the given modules (and selected methods) by a wrapper
that records a span, and rebinds every alias of that function in the alias
modules (``from .splines import span_basis_rows`` creates one in each
importer), so calls made inside the package are caught too.
``Tracer.uninstall`` puts every original back.

A span is ``[name, parent, start_ns, end_ns, job, attrs]``; ``parent`` is the
index of the enclosing span, or -1.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType
from typing import Callable

NAME, PARENT, START, END, JOB, ATTRS = range(6)


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             attrs: Callable[..., dict] | None = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name``.

        ``attrs``, if given, is called with the same arguments and its dict is
        stored with the span.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0, 0, self.job,
                      attrs(*args, **kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers: dict[str, ModuleType],
                methods: dict[str, tuple[type, list[str]]] | None = None,
                aliases: list[ModuleType] = (),
                attrs: dict[str, Callable[..., dict]] | None = None) -> None:
        """Wrap public functions and methods, naming spans ``<layer>.<function>``.

        ``layers`` maps a layer name to its module; every public function
        defined in that module is wrapped.  ``methods`` maps a layer name to a
        class and the method names to wrap.  Every attribute of a module in
        ``layers`` or ``aliases`` that is one of the wrapped functions is
        rebound to its wrapper.
        """
        attrs = attrs or {}
        wrapped: list[tuple[Callable, Callable]] = []
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrapped.append((obj, self.wrap(name, obj, attrs.get(name))))
        for layer, (cls, names) in (methods or {}).items():
            for attr in names:
                name = f"{layer}.{attr}"
                self._patch(cls, attr, self.wrap(name, vars(cls)[attr],
                                                 attrs.get(name)))
        for module in [*layers.values(), *aliases]:
            for attr, obj in list(vars(module).items()):
                for original, wrapper in wrapped:
                    if obj is original:
                        self._patch(module, attr, wrapper)
                        break

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children, in ns.

        Spans nest strictly in a single thread, so children never overlap and
        their durations add up to the part of the parent they cover.
        """
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out
