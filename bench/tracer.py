"""Exclusive ("self") wall time per site, for the benchmark's traced pass.

A *site* is ``<layer>.<what>``: ``net.transmit``, ``vision.canny``,
``geonet.callback``.  The traced pass replaces calls into each layer's
public functions with :meth:`Tracer.timed` wrappers.  A stack of open
frames gives every frame its duration minus the time spent in wrapped
calls beneath it, so the self times of all sites sum to the wall time
of the outermost frame.

Kernel callbacks and registered handlers are charged to the layer that
*defined* them: the ``repro/<layer>/`` directory of the callable's code
file, found through bound methods, ``functools.partial`` and
``functools.wraps`` chains, and cached per file.

Nothing here imports ``repro``; :mod:`layers` names the sites.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from types import CodeType, FunctionType, MethodType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (owner, attribute name, factory): the factory takes the original
#: function and returns its replacement.
Patch = Tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]

_MISSING = object()


def code_of(fn: Any) -> Optional[CodeType]:
    """The code object that runs when *fn* is called, if any.

    Sees through bound methods, ``functools.partial`` and
    ``functools.wraps`` chains; a callable instance yields its
    ``__call__``.  Runs on every scheduled event, so the common cases
    are tested by exact type first, and ``getattr`` looks for
    ``__wrapped__`` because reading ``__dict__`` would give every fresh
    lambda a dict.
    """
    while True:
        kind = type(fn)
        if kind is MethodType:
            fn = fn.__func__
        elif kind is FunctionType:
            wrapped = getattr(fn, "__wrapped__", None)
            if wrapped is None:
                return fn.__code__
            fn = wrapped
        elif isinstance(fn, functools.partial):
            fn = fn.func
        else:
            call = getattr(kind, "__call__", None)
            return getattr(call, "__code__", None)


class Tracer:
    """Self time and call counts per site, from a stack of open frames."""

    def __init__(self, package_dir: str,
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._package_dir = os.path.join(os.path.abspath(package_dir), "")
        # Child time accumulated by each open frame, above a bottom
        # sentinel that absorbs the time of outermost frames.
        self._stack: List[float] = [0.0]
        self._cells: Dict[str, List[float]] = {}
        # Keyed by file name, not code object: a code object hashes its
        # contents on every lookup (up to ~0.7 us), a string once.
        self._layers: Dict[str, Optional[str]] = {}
        # kind -> layer -> runner of site ``<layer>.<kind>``.
        self._runners: Dict[str, Dict[str, Callable[..., Any]]] = {}
        #: Return values of the sites wrapped with ``keep=True``.
        self.kept: Dict[str, List[Any]] = {}

    @property
    def depth(self) -> int:
        """Number of frames currently open."""
        return len(self._stack) - 1

    def self_s(self) -> Dict[str, float]:
        """Exclusive seconds per site."""
        return {site: cell[0] for site, cell in sorted(self._cells.items())}

    def calls(self) -> Dict[str, int]:
        """Completed calls per site."""
        return {site: int(cell[1])
                for site, cell in sorted(self._cells.items())}

    def _cell(self, site: str) -> List[float]:
        cell = self._cells.get(site)
        if cell is None:
            cell = self._cells[site] = [0.0, 0]
        return cell

    def layer_of(self, fn: Any) -> Optional[str]:
        """The ``repro`` layer whose source defines *fn*, or None."""
        code = code_of(fn)
        if code is None:
            return None
        filename = code.co_filename
        try:
            return self._layers[filename]
        except KeyError:
            pass
        path = os.path.abspath(filename)
        layer = None
        if path.startswith(self._package_dir):
            head, sep, _ = path[len(self._package_dir):].partition(os.sep)
            layer = head if sep else None
        self._layers[filename] = layer
        return layer

    def runner(self, site: str) -> Callable[..., Any]:
        """``run(fn, *args)``: ``fn(*args)`` timed as one frame of *site*.

        One runner serves every callable of a site; bind it with
        ``functools.partial``, which costs less per scheduled event
        than building a closure.
        """
        cell = self._cell(site)
        clock = self.clock
        stack = self._stack

        def run(fn: Callable[..., Any], *args: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                cell[0] += elapsed - child
                cell[1] += 1
        return run

    def frame(self, site: str, fn: Callable[..., Any],
              keywords: bool = False) -> Callable[..., Any]:
        """*fn* timed as one frame of *site* (no metadata copied).

        Callbacks and events are called with positional arguments only,
        and a wrapper without ``**kwargs`` costs a third less per call;
        *keywords* selects the general wrapper, a plain function that
        binds as a method, for entry points.
        """
        if not keywords:
            return functools.partial(self.runner(site), fn)
        cell = self._cell(site)
        clock = self.clock
        stack = self._stack

        # The same body as the runner's but for the call: on this path
        # a shared helper would cost as much again as the difference.
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                cell[0] += elapsed - child
                cell[1] += 1
        return timed

    def timed(self, site: str, keep: bool = False, materialize: bool = False,
              ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Patch factory: time the original under *site*.

        *materialize* turns a returned iterator into a list inside the
        frame, so a generator's work is charged where it is produced;
        *keep* records every return value in :attr:`kept`.
        """
        def factory(original: Callable[..., Any]) -> Callable[..., Any]:
            fn = original
            if materialize:
                def fn(*args: Any, **kwargs: Any) -> Any:
                    return list(original(*args, **kwargs))
            if keep:
                sink = self.kept.setdefault(site, [])
                inner = fn

                def fn(*args: Any, **kwargs: Any) -> Any:
                    result = inner(*args, **kwargs)
                    sink.append(result)
                    return result
            return functools.wraps(original)(
                self.frame(site, fn, keywords=True))
        return factory

    def charged(self, fn: Callable[..., Any], kind: str,
                fallback: Optional[str] = None) -> Callable[..., Any]:
        """*fn* as a frame of ``<layer>.<kind>``.

        The layer is the one that defined *fn*, or *fallback*; a
        callable from outside the package with no fallback is returned
        unwrapped and stays charged to its caller.
        """
        layer = self.layer_of(fn) or fallback
        if layer is None:
            return fn
        runners = self._runners.get(kind)
        if runners is None:
            runners = self._runners[kind] = {}
        run = runners.get(layer)
        if run is None:
            run = runners[layer] = self.runner(f"{layer}.{kind}")
        return functools.partial(run, fn)

    def charging(self, index: int, kind: str, fallback: Optional[str] = None,
                 ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Patch factory for a method that registers a callable.

        The callable in positional argument *index* is replaced by
        :meth:`charged` of it.
        """
        charged = self.charged

        def factory(original: Callable[..., Any]) -> Callable[..., Any]:
            def register(*args: Any, **kwargs: Any) -> Any:
                args_list = list(args)
                args_list[index] = charged(args[index], kind, fallback)
                return original(*args_list, **kwargs)
            return functools.wraps(original)(register)
        return factory


@contextlib.contextmanager
def patched(patches: List[Patch]) -> Iterator[List[Tuple[Any, str, Any]]]:
    """Install *patches* for the duration of the block.

    Yields the saved ``(owner, name, original)`` triples; pass them to
    :func:`unrestored` after the block to prove the originals are back.
    ``staticmethod`` / ``classmethod`` descriptors are unwrapped and
    rewrapped, and an attribute the owner only inherited is deleted
    again on exit.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, name, factory in patches:
            raw = vars(owner).get(name, _MISSING)
            if isinstance(raw, (staticmethod, classmethod)):
                replacement: Any = type(raw)(factory(raw.__func__))
            else:
                replacement = factory(getattr(owner, name))
            saved.append((owner, name, raw))
            setattr(owner, name, replacement)
        yield saved
    finally:
        for owner, name, raw in reversed(saved):
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)


def unrestored(saved: List[Tuple[Any, str, Any]]) -> List[str]:
    """Names among *saved* whose original is not back in place."""
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, raw in saved
            if vars(owner).get(name, _MISSING) is not raw]
