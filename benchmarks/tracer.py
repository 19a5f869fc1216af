"""Span tracer that wraps imasim's public functions from outside the package.

`install()` replaces module attributes (`imasim.mapper.job_stream`, ...) and
class attributes (`ProgrammedArray.mvm`, ...) with timing wrappers. Callers
inside imasim look these names up at call time, so every call is seen
without any change to the package. `uninstall()` puts the originals back.

Each call becomes one span: name, start, end, parent span and pass id. Spans
are kept in memory in flat arrays and summarised (and optionally written)
once, after the last pass. A span's self time is its duration minus the
durations of its direct children; calls on one thread nest, so children
never overlap.

A few wrappers also count work at the call site: jobs and segments per job
stream, distinct job-stream keys, crossbar cells driven, noisy `mvm` calls
and the useful share of the cells driven.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from array import array
from collections import Counter

# imasim modules whose public functions are wrapped
MODULES = ("mapper", "timing", "metrics", "dse", "verify")
# (module, class, method) -> span name "xbar.<method>"
METHODS = (
    ("xbar", "ProgrammedArray", "mvm"),
    ("xbar", "ProgrammedArray", "program"),
    ("xbar", "AdcConfig", "requantize"),
    ("xbar", "AdcConfig", "slice"),
)
SETUP_PASS = -1
# span names whose per-call durations are kept, for per-call percentiles
DURATIONS_OF = ("dse.evaluate_point.",)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, Counter] = {}
        self.stream_keys: dict[int, set] = {}
        self._useful = weakref.WeakKeyDictionary()  # array -> useful/total
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []
        self.begin_pass(SETUP_PASS)

    def label_id(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return nid

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self._count = self.counts.setdefault(pass_id, Counter())
        self._keys = self.stream_keys.setdefault(pass_id, set())

    # --- wrapping -----------------------------------------------------------

    def install(self) -> None:
        import imasim

        for modname in MODULES:
            mod = getattr(imasim, modname)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                self._replace(mod, attr, self._wrap(f"{modname}.{attr}", fn))
        for modname, clsname, attr in METHODS:
            cls = getattr(getattr(imasim, modname), clsname)
            self._replace(cls, attr,
                          self._wrap(f"{modname}.{attr}", vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, label: str, fn):
        hook = _HOOKS.get(label)
        if label == "dse.evaluate_point":
            sig = inspect.signature(fn)
            plan_ids = {}

            def name_of(args, kwargs):
                plan = sig.bind(*args, **kwargs).arguments["plan"].value
                if plan not in plan_ids:
                    plan_ids[plan] = self.label_id(f"{label}.{plan}")
                return plan_ids[plan]
        else:
            nid = self.label_id(label)
            name_of = None
        if hook is not None:
            hook = functools.partial(hook, self, inspect.signature(fn))
            count_id = self.label_id("trace.count")
        perf = time.perf_counter
        names, parents, passes = self.name, self.parent, self.pass_id
        starts, ends = self.start, self.end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid if name_of is None else name_of(args, kwargs))
            parents.append(tracer._current)
            passes.append(tracer._pass)
            ends.append(0.0)
            prev, tracer._current = tracer._current, idx
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                tracer._current = prev
            if hook is not None:
                # the counting gets its own span so that it is not charged
                # to the caller's self time
                idx = len(starts)
                names.append(count_id)
                parents.append(prev)
                passes.append(tracer._pass)
                ends.append(0.0)
                starts.append(perf())
                hook(args, kwargs, result)
                ends[idx] = perf()
            return result

        return traced

    # --- summary ------------------------------------------------------------

    def summary(self) -> dict[int, dict]:
        """Per pass: `<span>.self_s` and `<span>.calls` for every span name,
        the counters, and `<span>.durations_s` (one entry per call) for the
        span names in `DURATIONS_OF`."""
        import numpy as np

        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        pass_id = np.frombuffer(self.pass_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        out = {}
        for p in sorted(set(self.counts) | set(np.unique(pass_id).tolist())):
            sel = pass_id == p
            calls = np.bincount(name[sel], minlength=len(self.labels))
            self_s = np.bincount(name[sel], weights=self_t[sel],
                                 minlength=len(self.labels))
            row: dict = dict(self.counts.get(p, {}))
            row["mapper.job_stream.distinct_keys"] = \
                len(self.stream_keys.get(p, ()))
            for i, label in enumerate(self.labels):
                if calls[i]:
                    row[f"{label}.calls"] = int(calls[i])
                    row[f"{label}.self_s"] = float(self_s[i])
                    if label.startswith(DURATIONS_OF):
                        row[f"{label}.durations_s"] = \
                            dur[sel & (name == i)].tolist()
            out[p] = row
        return out

    def save(self, path: str) -> None:
        """Write every span as flat arrays to an `.npz` file."""
        import numpy as np

        np.savez(path, labels=np.array(self.labels),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end))


# --- counting hooks: run after the span has closed ---------------------------

def _count_stream(tracer: Tracer, sig, args, kwargs, stream) -> None:
    c = tracer._count
    c["mapper.jobs"] += len(stream.jobs)
    c["mapper.segments"] += sum(len(job.segments) for job in stream.jobs)
    tracer._keys.add(tuple(sig.bind(*args, **kwargs).arguments.values()))


def _tag_arrays(tracer: Tracer, sig, args, kwargs, arrays) -> None:
    alloc = sig.bind(*args, **kwargs).arguments["alloc"]
    for arr in arrays:
        tracer._useful[arr] = alloc.weights_useful / alloc.weights_total


def _count_mvm(tracer: Tracer, sig, args, kwargs, y) -> None:
    arr = args[0]
    c = tracer._count
    cells = arr.rows * arr.cols
    c["xbar.cells_driven"] += cells
    if arr.noise_sigma > 0 or arr.program_sigma > 0:
        c["xbar.mvm.noisy_calls"] += 1
    share = tracer._useful.get(arr)
    if share is not None:
        c["xbar.cells_attributed"] += cells
        c["xbar.useful_cells"] += cells * share


_HOOKS = {
    "mapper.job_stream": _count_stream,
    "verify.program_allocation": _tag_arrays,
    "xbar.mvm": _count_mvm,
}
