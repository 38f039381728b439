"""Span tracer for the benchmark's traced run.

The tracer wraps public arrowbench functions from outside the package and
rebinds each wrapped name in every `arrowbench.*` module that imported it
by name, so that calls through those copies are traced too.  Each call
becomes a span (id, parent id, name, start, duration, self time) kept in
compact per-thread arrays; the arrays are written out once, when the
worker ends.  Self time is a span's duration minus the time of the wrapped
calls made inside it.  Generator functions are timed per `next()`, so a
generator's span covers only the time spent producing its items.

Counters ride along at the same boundaries (cache-seen inputs, maps
returned by the kernels, budget nodes by phase, ...); `summary()` folds
spans and counters into per-name totals for `run.py`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array
from collections import Counter

_clock = time.perf_counter

# span columns and their array type codes
_FIELDS = (("span_id", "q"), ("parent", "q"), ("name", "H"),
           ("start", "d"), ("dur", "d"), ("self_s", "d"))


class _ThreadState:
    """One thread's open frames, finished spans and counters."""

    def __init__(self):
        self.stack = []  # frames: [span_id, name_id, parent_id, start, busy, child]
        for field, code in _FIELDS:
            setattr(self, field, array(code))
        self.counters = Counter()

    def record(self, frame):
        span_id, name_id, parent, start, busy, child = frame
        self.span_id.append(span_id)
        self.parent.append(parent)
        self.name.append(name_id)
        self.start.append(start)
        self.dur.append(busy)
        self.self_s.append(busy - child)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    # -- bookkeeping -------------------------------------------------------

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open_frame(self, name: str):
        """The innermost open frame of `name` in this thread, or None."""
        nid = self._name_ids.get(name)
        return next((f for f in reversed(self.state().stack) if f[1] == nid), None)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Span per call; `after(tracer, st, args, result)` adds counters."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            frame = [next(tracer._ids), nid, stack[-1][0] if stack else 0, 0.0, 0.0, 0.0]
            stack.append(frame)
            frame[3] = t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                frame[4] = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][5] += frame[4]
                st.record(frame)
            if after is not None:
                after(tracer, st, args, result)
            return result

        return traced

    def wrap_leaf(self, name: str, fn):
        """Calls and seconds only, no span: for hot functions that call no
        wrapped function (a span each would dominate the trace's size)."""
        tracer = self
        calls, seconds = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.state()
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = _clock() - t0
                if st.stack:
                    st.stack[-1][5] += busy
                st.counters[calls] += 1
                st.counters[seconds] += busy

        return traced

    def wrap_generator(self, name: str, fn):
        """Span per generator; only the time inside `next()` counts."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.state()
            frame = [next(tracer._ids), nid, st.stack[-1][0] if st.stack else 0,
                     _clock(), 0.0, 0.0]
            gen = fn(*args, **kwargs)
            try:
                while True:
                    st = tracer.state()
                    stack = st.stack
                    stack.append(frame)
                    t0 = _clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        busy = _clock() - t0
                        frame[4] += busy
                        stack.pop()
                        if stack:
                            stack[-1][5] += busy
                    st.counters[name + ".yields"] += 1
                    yield item
            finally:
                gen.close()
                tracer.state().record(frame)

        return traced

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus merged counters."""
        calls, total, self_s = Counter(), Counter(), Counter()
        counters = Counter()
        for st in self._threads:
            counters.update(st.counters)
            for nid, dur, own in zip(st.name, st.dur, st.self_s):
                name = self.names[nid]
                calls[name] += 1
                total[name] += dur
                self_s[name] += own
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
                "counters": dict(counters)}

    def write_spans(self, path: str) -> int:
        """Spans as a JSON header line followed by the raw arrays."""
        merged = {field: array(code) for field, code in _FIELDS}
        for st in self._threads:
            for field, column in merged.items():
                column.extend(getattr(st, field))
        header = {"names": self.names, "fields": _FIELDS,
                  "count": len(merged["span_id"]), "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in merged.values():
                column.tofile(fh)
        return header["count"]


# ---------------------------------------------------------------------------
# what to wrap


def _rebind(original, replacement) -> None:
    """Point every arrowbench module global bound to `original` at
    `replacement` (covers `from arrowbench.x import name` copies)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "arrowbench" or mod_name.startswith("arrowbench.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch(tracer, module, attr, name, generator=False, after=None):
    original = getattr(module, attr)
    if generator:
        wrapped = tracer.wrap_generator(name, original)
    else:
        wrapped = tracer.wrap(name, original, after)
    _rebind(original, wrapped)
    setattr(module, attr, wrapped)


def _count_len(key):
    def after(tracer, st, args, result):
        st.counters[key] += len(result)
    return after


def install_cache(tracer: Tracer) -> None:
    """Wrap only the result cache (the replay probe needs no more)."""
    from arrowbench import cache

    _patch(tracer, cache, "lookup", "cache.lookup", after=_count_hit)
    _patch(tracer, cache, "store", "cache.store")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported `arrowbench.cli`."""
    from arrowbench import (ages, arrows, certificates, cli, groups, kernels, patterns,
                            stability, structures, unions)

    seen = set()

    def canon_after(tracer, st, args, result):
        if args[0] in seen:
            st.counters["canon.seen"] += 1
        else:
            seen.add(args[0])
        if tracer.open_frame("ages.enumerate_structures") is not None:
            st.counters["enumerate.canon_calls"] += 1

    _patch(tracer, structures, "canonical_labeling", "structures.canonical_labeling",
           after=canon_after)
    structures.Structure.__post_init__ = tracer.wrap_leaf(
        "structures.Structure.__post_init__", structures.Structure.__post_init__)

    for fn in ("embeddings_binary", "embeddings_generic"):
        _patch(tracer, kernels, fn, "kernels." + fn, after=_count_len("kernels.maps_out"))

    _patch(tracer, patterns, "pair_pattern_code", "patterns.pair_pattern_code")
    _patch(tracer, patterns, "joint_embeddings", "patterns.joint_embeddings",
           after=_count_len("patterns.patterns_found"))
    _patch(tracer, patterns, "iter_joint_embeddings", "patterns.iter_joint_embeddings",
           generator=True)
    _patch(tracer, unions, "place_part", "unions.place_part", generator=True)
    _patch(tracer, unions, "place_parts", "unions.place_parts", generator=True)

    spend = unions.Budget.spend
    budget_init = unions.Budget.__init__

    def traced_spend(self, amount=1):
        counters = tracer.state().counters
        counters["budget.nodes"] += amount
        counters["budget.nodes:" + self.what] += amount
        return spend(self, amount)

    def traced_budget_init(self, cap, what="search"):
        tracer.state().counters["budget.created:" + what] += 1
        budget_init(self, cap, what)

    unions.Budget.spend = traced_spend
    unions.Budget.__init__ = traced_budget_init

    def member_after(tracer, st, args, result):
        st.counters["ages.member.accepted"] += bool(result)

    _patch(tracer, ages, "member", "ages.member", after=member_after)
    _patch(tracer, ages, "enumerate_structures", "ages.enumerate_structures",
           after=_count_len("enumerate.types"))

    _patch(tracer, groups, "automorphisms", "groups.automorphisms",
           after=_count_len("groups.aut_order_sum"))

    _patch(tracer, certificates, "verify_certificate", "certificates.verify_certificate")
    rerun_spans = set()

    def decider_after(tracer, st, args, result):
        verify = tracer.open_frame("certificates.verify_certificate")
        if verify is not None and verify[0] not in rerun_spans:
            rerun_spans.add(verify[0])
            st.counters["verify.reruns"] += 1

    deciders = ((stability, "stable_up_to"), (stability, "unstable_witness"),
                (arrows, "arrow_search"), (arrows, "roelcke_witness"),
                (arrows, "classical_arrow"), (arrows, "definable_arrow"),
                (arrows, "stable_arrow"), (ages, "amalgamation_probe"))
    for module, fn in deciders:
        _patch(tracer, module, fn, module.__name__.split(".")[-1] + "." + fn,
               after=decider_after)

    _patch_linprog_on_first_convex(tracer, arrows)

    install_cache(tracer)
    _patch(tracer, cli, "main", "cli.main")


def _count_hit(tracer, st, args, result):
    st.counters["cache.hits"] += result is not None


def _patch_linprog_on_first_convex(tracer, arrows) -> None:
    """`convex_arrow` imports scipy lazily; wrap `linprog` only once that
    import happens inside the traced call, so scipy's import cost stays
    where users pay it."""
    convex = arrows.convex_arrow
    patched = []

    @functools.wraps(convex)
    def convex_first(*args, **kwargs):
        if not patched:
            import scipy.optimize

            linprog = scipy.optimize.linprog
            traced = tracer.wrap("arrows.linprog", linprog)

            @functools.wraps(linprog)
            def counted(*a, **kw):
                a_ub = kw.get("A_ub")
                if a_ub is not None:
                    tracer.state().counters["arrows.linprog.rows"] += len(a_ub)
                return traced(*a, **kw)

            scipy.optimize.linprog = counted
            patched.append(counted)
        return convex(*args, **kwargs)

    traced_convex = tracer.wrap("arrows.convex_arrow", convex_first)
    _rebind(convex, traced_convex)
    arrows.convex_arrow = traced_convex
