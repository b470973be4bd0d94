"""Spans around vatworld's public functions, recorded from outside the program.

``Tracer.install`` replaces each function listed in ``TRACED`` with a wrapper
on its own module and on every vatworld module that re-bound it with
``from .x import y``.  Spans (name, start, end, parent span, job id) are kept
in memory while a job runs and written out at the end.  Counters are read
from return values and exceptions at the same boundaries.  Per-element
helpers such as ``Alphabet.index`` are not wrapped: ``smooth`` calls that
hundreds of thousands of times per long trace.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Layer (vatworld module) -> public functions to span.  ``core.word_indices``
# is the method of the same name on both machine classes.
TRACED = {
    "cli": ("main",),
    "io": (
        "load_transducer",
        "load_history",
        "loads",
        "transducer_from_doc",
        "save_transducer",
        "save_generalized",
        "dumps",
        "transducer_to_doc",
    ),
    "core": ("validate", "classify_moore", "word_indices"),
    "oracle": ("word_probability", "forward_vector", "sample_trajectory", "equivalent", "memory_class"),
    "minimize": ("coarsest_bisimulation", "quotient", "minimize_bisim"),
    "linalg_reduce": ("history_vectors", "canonical_dimension", "reduce_generalized"),
    "beliefs": ("build_msp", "is_unifilar"),
    "epsilon": ("epsilon_transducer", "epsilon_from_histories"),
    "reverse": ("check_reversible", "is_action_counifilar", "state_marginals", "reverse_kernel"),
    "retro": ("smooth", "bdmsm_from_word"),
}
IO_READ = ("io.load_transducer", "io.load_history", "io.loads", "io.transducer_from_doc")
IO_WRITE = ("io.save_transducer", "io.save_generalized", "io.dumps", "io.transducer_to_doc")

# Counter name -> unit and which way is better.
COUNTERS = {
    "oracle.equivalent.refused": ("count", "lower"),
    "oracle.equivalent.depth_checked": ("count", "higher"),
    "oracle.memory_class.refused": ("count", "lower"),
    "oracle.word_probability.zero": ("count", "lower"),
    "linalg_reduce.history_vectors.columns": ("count", "lower"),
    "linalg_reduce.canonical_dimension.refused": ("count", "lower"),
    "linalg_reduce.reduce_generalized.refused": ("count", "lower"),
    "minimize.coarsest_bisimulation.classes": ("count", "lower"),
    "beliefs.build_msp.beliefs": ("count", "lower"),
    "beliefs.build_msp.closure_errors": ("count", "lower"),
    "epsilon.epsilon_transducer.checked_depth": ("count", "higher"),
    "epsilon.epsilon_from_histories.refused": ("count", "lower"),
    "retro.smooth.fail": ("count", "lower"),
    "retro.bdmsm_from_word.fail": ("count", "lower"),
    "io.read.bytes": ("bytes", "lower"),
    "io.write.bytes": ("bytes", "lower"),
}
TRACE_METRICS = {
    "io.read.self_ms": ("ms", "lower"),
    "io.write.self_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    out = {}
    for module, names in TRACED.items():
        for fn in names:
            out[f"{module}.{fn}.calls"] = ("count", "lower")
            out[f"{module}.{fn}.self_ms"] = ("ms", "lower")
    out.update(COUNTERS)
    out.update(TRACE_METRICS)
    return out


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of (span id, parent id or None, start, end).
    Children are clipped to their parent and overlaps among them are merged,
    so the result never goes below zero.
    """
    children = defaultdict(list)
    for sid, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _counter_hooks(errors) -> dict:
    """Span name -> hook(counters, job command, args, result, exception).

    Hooks read results defensively: a later version of the program may
    return other types, and a counter must never break the call it watches.
    """

    def refused(counter):
        def hook(c, cmd, args, result, exc):
            if isinstance(exc, errors.BudgetExceededError):
                c[counter] += 1

        return hook

    def failed(counter):
        def hook(c, cmd, args, result, exc):
            if exc is not None:
                c[counter] += 1

        return hook

    def on_result(counter, read):
        def hook(c, cmd, args, result, exc):
            if exc is None:
                c[counter] += read(result)

        return hook

    def equivalent(c, cmd, args, result, exc):
        if isinstance(exc, errors.BudgetExceededError):
            c["oracle.equivalent.refused"] += 1
        elif exc is None:
            c["oracle.equivalent.depth_checked"] += getattr(result, "depth_checked", 0)

    def build_msp(c, cmd, args, result, exc):
        if isinstance(exc, errors.MspClosureError):
            c["beliefs.build_msp.closure_errors"] += 1
        elif exc is None:
            c["beliefs.build_msp.beliefs"] += getattr(result, "n", 0)

    def word_probability(c, cmd, args, result, exc):
        # Only ``prob`` jobs hand it a trace sampled from the machine itself.
        if exc is None and cmd == "prob" and result == 0.0:
            c["oracle.word_probability.zero"] += 1

    def file_size(c, cmd, args, result, exc):
        if args and isinstance(args[0], (str, os.PathLike)) and os.path.exists(args[0]):
            c["io.read.bytes"] += os.path.getsize(args[0])

    return {
        "oracle.equivalent": equivalent,
        "oracle.memory_class": refused("oracle.memory_class.refused"),
        "oracle.word_probability": word_probability,
        "linalg_reduce.history_vectors": on_result(
            "linalg_reduce.history_vectors.columns", lambda hm: len(hm) if hasattr(hm, "__len__") else 0
        ),
        "linalg_reduce.canonical_dimension": refused("linalg_reduce.canonical_dimension.refused"),
        "linalg_reduce.reduce_generalized": refused("linalg_reduce.reduce_generalized.refused"),
        "minimize.coarsest_bisimulation": on_result(
            "minimize.coarsest_bisimulation.classes", lambda p: getattr(p, "n_classes", 0)
        ),
        "beliefs.build_msp": build_msp,
        "epsilon.epsilon_transducer": on_result(
            "epsilon.epsilon_transducer.checked_depth",
            lambda e: getattr(e, "provenance", {}).get("checked_depth", 0),
        ),
        "epsilon.epsilon_from_histories": refused("epsilon.epsilon_from_histories.refused"),
        "retro.smooth": failed("retro.smooth.fail"),
        "retro.bdmsm_from_word": failed("retro.bdmsm_from_word.fail"),
        "io.load_transducer": file_size,
        "io.load_history": file_size,
        "io.dumps": on_result("io.write.bytes", lambda text: len(str(text).encode("utf-8"))),
    }


class Tracer:
    """Records spans and counters for calls made while a job is active."""

    def __init__(self):
        self.spans = []  # [span id, parent id, job id, name, start, end]
        self.counters = defaultdict(int)
        self._stack = []
        self._job = None
        self._command = None
        self._undo = []

    def begin_job(self, job_id: int, command: str) -> None:
        self._job, self._command = job_id, command

    def end_job(self) -> None:
        self._job = self._command = None
        self._stack.clear()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None, tracer._job, name, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            result, exc = None, None
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
                if hook is not None:
                    hook(tracer.counters, tracer._command, args, result, exc)

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED wherever vatworld bound it."""
        import vatworld.core
        import vatworld.errors

        hooks = _counter_hooks(vatworld.errors)
        modules = [m for n, m in list(sys.modules.items()) if n == "vatworld" or n.startswith("vatworld.")]
        for layer, names in TRACED.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                if layer == "core" and fn_name == "word_indices":
                    for cls in (vatworld.core.Transducer, vatworld.core.GeneralizedTransducer):
                        orig = cls.__dict__.get(fn_name)
                        if orig is not None:
                            self._patch(cls, fn_name, orig, self._wrap(name, orig, hooks.get(name)))
                    continue
                module = sys.modules.get(f"vatworld.{layer}")
                orig = getattr(module, fn_name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(name, orig, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_ms(self) -> list:
        """(job id, span name, self ms) for every recorded span."""
        own = self_times([(s[0], s[1], s[4], s[5]) for s in self.spans])
        return [(s[2], s[3], own[s[0]] * 1000.0) for s in self.spans]

    def metrics(self) -> dict:
        """Per-layer sums over every recorded span: name -> value."""
        out = {name: 0 for name in per_layer_units()}
        for _, name, ms in self.self_ms():
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += ms
        out.update(self.counters)
        out["io.read.self_ms"] = sum(out[f"{n}.self_ms"] for n in IO_READ)
        out["io.write.self_ms"] = sum(out[f"{n}.self_ms"] for n in IO_WRITE)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end}) + "\n")
