"""Per-layer timing from outside the program: wrap each module's public functions.

:class:`LayerTracer` replaces chosen functions and methods of the
``repro`` modules with timing wrappers while it is installed, and restores
the originals on :meth:`LayerTracer.uninstall`.  A module-level function is
rebound in every ``repro`` module that imported it by name, so callers
reach the wrapper whichever way they imported it.

Each wrapped call is a span.  Spans nest per thread; a span's *self* time
is its duration minus the time of the spans it encloses, and the *layer*
of a span is its name up to the first dot (``compiler.schedule`` belongs
to ``compiler``).  Summing self times per layer on the thread that drives
a workload, plus the benchmark's own code between spans, gives that
thread's wall time — :meth:`LayerTracer.accounting` checks it.

The serving worker loop alternates ``MicroBatchQueue.get_batch`` with
processing the batch it got; the tracer opens a ``serving.batch`` span when
``get_batch`` returns work and closes it at the worker's next
``get_batch``, so grouping, scatter and delivery count as serving self time
and the session calls inside nest under it.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.observability import TapeProfiler

#: Share of a driving thread's wall time the wrapped layers may leave
#: unattributed (time spent in the benchmark's own code between spans).
ACCOUNTING_TOLERANCE = 0.05


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class LayerTracer:
    """Timing wrappers around the program's public functions (see module doc)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: (thread ident, span name) -> self seconds.
        self.self_s: Dict[Tuple[int, str], float] = defaultdict(float)
        #: thread ident -> [first span start, last span end].
        self.extent: Dict[int, List[float]] = {}
        #: Free-form counters fed by the wrappers' hooks (rows, passes, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-call values fed by the hooks (passes of each query, ...).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._patches: List[Tuple[object, str, object, object]] = []
        self._installed = False
        #: Per-kernel samples of tape passes on the installing thread, and on
        #: serving worker threads (a context variable does not cross threads).
        self.profiler = TapeProfiler()
        self.worker_profiler = TapeProfiler()
        self._plan()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _close(self, frame: list) -> float:
        name, start, children = frame
        duration = perf_counter() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += duration
        thread = threading.get_ident()
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[(thread, name)] += duration - children
            extent = self.extent.setdefault(thread, [start, start + duration])
            extent[0] = min(extent[0], start)
            extent[1] = max(extent[1], start + duration)
        return duration

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _wrapper(self, original, name, before=None, after=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if after is not None:
                after(token, args, kwargs, result, duration)
            return result

        return wrapper

    def _function(self, module_name: str, attr: str, name: str, after=None) -> None:
        """Plan to rebind ``module.attr`` wherever a repro or perfbench module holds it."""
        module = sys.modules.get(module_name) or __import__(module_name, fromlist=[attr])
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, after=after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapper))

    def _method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append(
            (cls, attr, original, self._wrapper(original, name, before, after))
        )

    def _plan(self) -> None:
        """Choose the functions to wrap: one or more per layer."""
        from repro.api.session import InferenceSession
        from repro.compiler.driver import CompiledKernel
        from repro.compiler.scheduler import Scheduler
        from repro.lifecycle.artifact import ModelArtifact
        from repro.serving.queue import MicroBatchQueue
        from repro.serving.server import InferenceServer
        from repro.spn.compiled import CompiledTape

        count = self.count

        # spn: model build, compile, plan; the fused-kernel executor.
        self._function("repro.spn.generate", "generate_rat_spn", "spn.generate")
        self._function("repro.spn.linearize", "linearize", "spn.linearize")
        self._function("repro.spn.compiled", "compile_tape", "spn.compile_tape")
        self._function("repro.spn.memplan", "plan_memory", "spn.memory_plan")
        self._function("repro.statics.verifier", "verify_compiled", "statics.verify")

        def tape_after(_token, args, kwargs, _result, duration):
            data = args[1] if len(args) > 1 else kwargs["data"]
            log = args[2] if len(args) > 2 else kwargs.get("log_domain", False)
            count("spn.tape.rows", len(data))
            if log:
                count("spn.tape.log_s", duration)

        self._method(CompiledTape, "execute_batch", "spn.tape", after=tape_after)

        # api: the session front door and its per-row MPE search.
        # Passes are counted where the executor sees them (the MPE search
        # calls the tape without going through the session's pass counter).
        def run_before(_args, _kwargs):
            return self.calls["spn.tape"]

        def run_after(before, args, _kwargs, _result, _duration):
            passes = self.calls["spn.tape"] - before
            with self._lock:
                self.samples[f"api.passes.{args[1].kind.value}"].append(passes)

        self._method(InferenceSession, "run", "api.run", run_before, run_after)
        self._function("repro.spn.queries", "mpe_row", "api.mpe")

        # serving: admission, the queue, batch processing (see module doc).
        self._method(InferenceServer, "submit", "serving.submit")
        self._method(InferenceServer, "__init__", "serving.init")
        self._method(InferenceServer, "start", "serving.start")
        original_get = MicroBatchQueue.__dict__["get_batch"]
        tracer = self

        @functools.wraps(original_get)
        def get_batch(queue, *args, **kwargs):
            local = tracer._local
            if not getattr(local, "profiling", False):
                # Entered once per worker thread and left active: the
                # worker context dies with the thread.
                local.profiling = True
                tracer.worker_profiler.__enter__()
            open_batch = getattr(local, "batch", None)
            if open_batch is not None:
                local.batch = None
                tracer._close(open_batch)
            frame = tracer._open("serving.queue")
            try:
                batch = original_get(queue, *args, **kwargs)
            finally:
                tracer._close(frame)
            if batch is not None:
                local.batch = tracer._open("serving.batch")
            return batch

        self._patches.append((MicroBatchQueue, "get_batch", original_get, get_batch))

        # lifecycle: artifact load (verify nests inside) and session adoption.
        self._function("repro.lifecycle.artifact", "load_artifact", "lifecycle.load")
        self._method(ModelArtifact, "session", "lifecycle.session")

        # compiler, processor, baselines: the Fig. 4 platform models.
        def schedule_after(_token, _args, _kwargs, result, _duration):
            count("compiler.instructions", result[1].n_instructions)

        self._function("repro.compiler.driver", "compile_operation_list", "compiler.compile")
        self._function("repro.compiler.cones", "extract_cones", "compiler.cones")
        self._method(Scheduler, "run", "compiler.schedule", after=schedule_after)
        self._method(CompiledKernel, "run", "processor.simulate")
        self._function("repro.baselines.cpu", "simulate_cpu", "baselines.cpu")
        self._function("repro.baselines.gpu", "simulate_gpu", "baselines.gpu")

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if not self._installed:
            for owner, attr, _original, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self.profiler.__enter__()
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            self.profiler.__exit__(None, None, None)
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)
            self._installed = False

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def busiest_worker(self) -> int:
        """The non-main thread with the most self time (a server's worker)."""
        main = threading.main_thread().ident
        totals: Dict[int, float] = defaultdict(float)
        with self._lock:
            for (thread, _name), seconds in self.self_s.items():
                if thread != main:
                    totals[thread] += seconds
        return max(totals, key=totals.get) if totals else main

    def self_by_layer(self, thread: int) -> Dict[str, float]:
        layers: Dict[str, float] = defaultdict(float)
        with self._lock:
            for (span_thread, name), seconds in self.self_s.items():
                if span_thread == thread:
                    layers[_layer(name)] += seconds
        return dict(layers)

    def self_time(self, name: str, thread: Optional[int] = None) -> float:
        """Self seconds of ``name`` spans on ``thread`` (default: the main thread)."""
        thread = threading.main_thread().ident if thread is None else thread
        return self.self_s.get((thread, name), 0.0)

    def accounting(self, wall_s: Optional[float] = None, thread: Optional[int] = None):
        """Layer self times on ``thread`` and the share of its wall time they miss.

        ``wall_s`` is the wall time the thread spent driving the workload
        (default: from its first span's start to its last span's end).  The
        missed share is the benchmark's own code between the program's
        calls.  Returns ``(self seconds per layer, unattributed share, wall)``.
        """
        thread = threading.main_thread().ident if thread is None else thread
        if wall_s is None:
            first, last = self.extent.get(thread, (0.0, 0.0))
            wall_s = last - first
        layers = self.self_by_layer(thread)
        attributed = sum(layers.values())
        share = (wall_s - attributed) / wall_s if wall_s > 0 else 0.0
        return layers, share, wall_s

    def kernel_stats(self) -> Tuple[float, float]:
        """(fused-kernel GB/s, encode share of kernel time) over both profilers."""
        kernel_s = kernel_bytes = encode_s = 0.0
        for profiler in (self.profiler, self.worker_profiler):
            for row in profiler.table():
                if row["op"] == "enc":
                    encode_s += row["elapsed_s"]
                else:
                    kernel_s += row["elapsed_s"]
                    kernel_bytes += row["bytes"]
        total = kernel_s + encode_s
        return (
            kernel_bytes / kernel_s / 1e9 if kernel_s > 0 else 0.0,
            encode_s / total if total > 0 else 0.0,
        )

    def per_call(self, name: str) -> float:
        """Mean inclusive seconds of one ``name`` span (0 when never called)."""
        calls = self.calls.get(name, 0)
        return self.total_s.get(name, 0.0) / calls if calls else 0.0

    def top_layers(self, wall_s=None, thread=None, top: int = 6) -> List[str]:
        layers, unattributed, wall_s = self.accounting(wall_s, thread)
        lines = [
            f"  {layer:<11} {seconds:8.3f} s  {seconds / wall_s:6.1%}"
            for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])[:top]
        ]
        lines.append(f"  {'(other)':<11} {unattributed * wall_s:8.3f} s  {unattributed:6.1%}")
        return lines
