"""In-memory span tracer for the traced pass.

The tracer wraps public functions of each layer for the duration of one
``with tracer.installed(targets):`` block and restores the exact
originals on exit, so untraced passes run the program untouched.  Each
wrapped call records one span (name, start, end, parent) into flat
arrays; the parent is the innermost open span on the calling thread.
Spans stay in memory until :meth:`Tracer.dump` writes them out after
the measurement.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import threading
import time
from array import array
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from helpers import Span

#: (owner object, attribute name, span name)
Target = Tuple[object, str, str]


class Tracer:
    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self._name)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        names, starts, ends, parents = (
            self._name, self._start, self._end, self._parent
        )
        lock, stack_of, clock = self._lock, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            with lock:
                idx = len(names)
                names.append(nid)
                starts.append(clock())
                ends.append(0.0)
                parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap every target for the block; restore the originals after."""
        saved = []
        try:
            for owner, attr, name in targets:
                own = vars(owner).get(attr, _MISSING)
                saved.append((owner, attr, own))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            yield
        finally:
            for owner, attr, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    def spans(self) -> List[Span]:
        names = self._names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self._name, self._start, self._end,
                                  self._parent)
        ]

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON columns."""
        doc = {
            "schema": "perfbench-spans/1",
            "names": self._names,
            "name": self._name.tolist(),
            "start": self._start.tolist(),
            "end": self._end.tolist(),
            "parent": self._parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


_MISSING = object()
