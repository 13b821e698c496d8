"""Span recording around calls into the program's layers.

The tracer wraps entry points of the ``repro`` package from outside: it
replaces a class attribute or a module-level function with a wrapper that
opens a span, calls the original and closes the span.  Spans nest on one
stack (the benchmark drives the program single-threaded), and each span's
*self* time is its duration minus the time covered by its children.
Garbage-collector pauses, seen through ``gc.callbacks``, are a child of
whatever span was open when they ran, so they never inflate a layer's
self time.

A function imported by name into other modules (``from x import f``) is
rebound in every loaded ``repro`` module that holds it, and
:meth:`Tracer.stale_bindings` reports any reference the rebinding missed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``layer``
    names the span (``None`` wraps for counting only, without a span).
    ``measure`` names a counter increased per call by
    ``amount(args, kwargs, result)``, or by one without ``amount``;
    ``defer`` collects ``(args, result)`` pairs for measurements that must
    not run inside the timed op (file sizes).
    """

    target: str
    layer: str | None
    measure: str | None = None
    amount: Callable[[tuple, dict, Any], float] | None = None
    defer: str | None = None


class Tracer:
    """Per-op span stack, self times, counters and GC pauses."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self._originals: list[Any] = []
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.deferred: dict[str, list[tuple[tuple, Any]]] = {}
        # Stack frames are [layer, start, child_seconds].
        self._stack: list[list[Any]] = []
        self._gc_start = 0.0
        self.gc_collections = 0
        self.gc_seconds = 0.0

    def push(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def pop(self) -> float:
        layer, start, child = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def span(self, layer: str, call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``call`` inside a span named ``layer``."""
        self.push(layer)
        try:
            return call(*args, **kwargs)
        finally:
            self.pop()

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        duration = perf_counter() - self._gc_start
        self.gc_collections += 1
        self.gc_seconds += duration
        if self._stack:
            self._stack[-1][2] += duration

    # ------------------------------------------------------------------
    def _wrap(self, original: Any, entry: Entry) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if entry.layer is not None:
                tracer.push(entry.layer)
            try:
                result = original(*args, **kwargs)
            finally:
                if entry.layer is not None:
                    tracer.pop()
            if entry.measure is not None:
                amount = 1 if entry.amount is None else entry.amount(args, kwargs, result)
                tracer.counts[entry.measure] = tracer.counts.get(entry.measure, 0) + amount
            if entry.defer is not None:
                tracer.deferred.setdefault(entry.defer, []).append((args, result))
            return result

        return wrapper

    def install(self, entries: list[Entry]) -> None:
        """Wrap every entry point and start GC accounting."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for entry in entries:
            module_name, _, path = entry.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                raise TypeError(f"{entry.target}: static methods are not wrapped")
            wrapper = self._wrap(original, entry)
            self._originals.append(original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                # A module function: rebind it wherever it was imported.
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute and stop GC accounting."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()
        self._originals.clear()

    def stale_bindings(self) -> list[str]:
        """``module.name`` references to an original that escaped wrapping."""
        originals = {id(original) for original in self._originals}
        stale = []
        for module in _repro_modules():
            for name, value in vars(module).items():
                if id(value) in originals:
                    stale.append(f"{module.__name__}.{name}")
        return sorted(stale)


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
