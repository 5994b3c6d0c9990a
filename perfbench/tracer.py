"""In-memory span tracer for ellstat, installed from outside the package.

Each traced function is a public ellstat function.  The tracer wraps it and
rebinds every module attribute that refers to it (``ellstat.harness.tate``,
``ellstat.localdata.tate``, ``ellstat.cli.tate`` and so on), so calls made
inside the package go through the wrapper too and no file under ``src/``
changes.  Private helpers are not wrapped: their cost shows up as the self
time of the public function that calls them.

A span is (id, name, start, end, parent, request id, self time).  Self time
is the span's duration minus the time its child spans cover.  Each thread
keeps its own span stack and buffer; a span that starts with an empty stack
on a worker thread (a chunk run by the harness thread pool) takes the
client thread's innermost open span as its parent, and the parent subtracts
the union of such concurrent children when it closes.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time
from array import array


class _Buffer:
    """Spans closed on one thread, stored column-wise to keep memory small."""

    def __init__(self):
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.self_time = array("d")
        # (request id, duration) of spans that start a worker thread's stack
        self.worker_top: list[tuple[int, float]] = []


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._foreign: dict[int, list[tuple[float, float]]] = {}
        self._client_stack = self._stack()
        self._client_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.request_id = -1
        self.counters: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:  # worker threads may meet a new name at once
                nid = self._name_ids.get(name)
                if nid is None:
                    nid = len(self.names)
                    self.names.append(name)
                    self._name_ids[name] = nid
        return nid

    def count(self, key: str) -> None:
        # called from worker threads too; the increment must not be lost
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1

    def _stack(self) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(local.buffer)
        return stack

    def wrap(self, fn, span_name, on_result=None, on_error=None):
        """A wrapper recording one span per call of fn.

        span_name is a fixed name or a callable of the call's positional
        arguments returning one.  on_result / on_error observe the outcome
        so that counts are taken at the same boundary as the span.
        """
        perf = time.perf_counter
        tracer = self
        if callable(span_name):
            namer = span_name
        else:
            fixed = self.name_id(span_name)
            namer = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            nid = fixed if namer is None else tracer.name_id(namer(args))
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                tracer._close(stack, frame, nid, t0, t1)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _close(self, stack, frame, nid, t0, t1) -> None:
        sid, child = frame
        dur = t1 - t0
        concurrent = self._foreign.pop(sid, None)
        if concurrent:
            child += _union_length(concurrent)
        if stack:
            parent = stack[-1][0]
            stack[-1][1] += dur
        elif threading.get_ident() != self._client_thread and self._client_stack:
            parent = self._client_stack[-1][0]
            self._foreign.setdefault(parent, []).append((t0, t1))
            self._local.buffer.worker_top.append((self.request_id, dur))
        else:
            parent = -1
        buf = self._local.buffer
        buf.sid.append(sid)
        buf.name.append(nid)
        buf.start.append(t0)
        buf.end.append(t1)
        buf.parent.append(parent)
        buf.rid.append(self.request_id)
        buf.self_time.append(dur - child)

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Rebind every ellstat module attribute bound to each target.

        targets: iterable of (module, function name, span name, on_result,
        on_error).
        """
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "ellstat" or k.startswith("ellstat."))]
        for module, fname, span_name, on_result, on_error in targets:
            orig = getattr(module, fname)
            wrapper = self.wrap(orig, span_name, on_result, on_error)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    # -- read-out ----------------------------------------------------------

    def spans(self):
        """Every closed span as (id, name, start, end, parent, rid, self)."""
        for b in self._buffers:
            for i in range(len(b.sid)):
                yield (b.sid[i], self.names[b.name[i]], b.start[i], b.end[i],
                       b.parent[i], b.rid[i], b.self_time[i])

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and all durations."""
        out: dict[str, dict] = {}
        for b in self._buffers:
            for nid, t0, t1, st in zip(b.name, b.start, b.end, b.self_time):
                agg = out.get(self.names[nid])
                if agg is None:
                    agg = out[self.names[nid]] = {
                        "calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": array("d")}
                agg["calls"] += 1
                agg["total_s"] += t1 - t0
                agg["self_s"] += st
                agg["durations"].append(t1 - t0)
        return out

    def worker_busy_by_request(self) -> dict[int, float]:
        """Per request, the time worker threads spent inside traced calls."""
        out: dict[int, float] = {}
        for b in self._buffers:
            for rid, dur in b.worker_top:
                out[rid] = out.get(rid, 0.0) + dur
        return out

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        n = 0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,name,start,end,parent,request,self\n")
            for sid, name, t0, t1, parent, rid, st in sorted(self.spans()):
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{rid},{st:.9f}\n")
                n += 1
        return n
