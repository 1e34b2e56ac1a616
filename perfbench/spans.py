"""Benchmark-side tracing: spans recorded around the runtime's layer
boundaries, installed from outside the program.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
wrappers onto the public entry points of each layer (class attributes
and module globals, looked up at call time) and swaps the originals back
on :meth:`Tracer.uninstall`.  Active-message handlers are wrapped as they
are registered, by intercepting ``AMLayer.register``/``ensure_registered``
before any ``Machine`` is built, and each is attributed to a layer by its
name prefix.

A span is (name, start, end, parent, run id).  Spans are kept in memory
(up to ``max_spans``; later ones are aggregated but not stored) and
written out by :meth:`Recorder.write` when the run ends.  Every span name
also keeps running totals: calls, inclusive host time, self time (its
duration minus that of its child spans) and, for generator entry points,
the simulated time from entry to exit.  Generator entry points are timed
over each resume, so the time a task spends suspended is not counted.
"""

from __future__ import annotations

import inspect
import json
import os
from array import array
from time import perf_counter_ns

#: layer of each span-name prefix (the part before the first ".")
SPAN_LAYER = {
    "sim": "sim",
    "net": "net",
    "spawn": "core.spawn",
    "finish": "core.finish",
    "copy": "core.copy",
    "runtime": "runtime",
    "apps": "apps",
    "explore": "explore",
    "backend": "backend",
    "bench": "bench",
}

#: span-name prefix of an AM handler, by the handler name's prefix
HANDLER_PREFIX = (
    ("spawn.", "spawn"),
    ("copy.", "copy"),
    ("gasnet.", "copy"),
    ("coll.", "finish"),
    ("acoll.", "finish"),
    ("algcoll.", "finish"),
    ("ft.", "finish"),
    ("term.", "finish"),
    ("fail.", "runtime"),
    ("event.", "runtime"),
    ("lock.", "runtime"),
)


def handler_span(handler: str) -> str:
    """Span name of an AM handler: its layer prefix, then ``h:<name>``."""
    for prefix, span_prefix in HANDLER_PREFIX:
        if handler.startswith(prefix):
            return f"{span_prefix}.h:{handler}"
    return f"runtime.h:{handler}"


def layer_of(span: str) -> str:
    return SPAN_LAYER.get(span.split(".", 1)[0], "runtime")


class Recorder:
    """In-memory span store plus per-name totals."""

    def __init__(self, max_spans: int = 1_000_000):
        self.active = False
        self.run_id = 0
        self.max_spans = max_spans
        self.dropped = 0
        self.origin = perf_counter_ns()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.sim_s: list[float] = []
        self.sim_n: list[int] = []
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.s_run = array("i")
        # open spans: [name id, start ns, child ns, stored index]
        self._stack: list[list] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl_ns.append(0)
            self.self_ns.append(0)
            self.sim_s.append(0.0)
            self.sim_n.append(0)
        return nid

    def push(self, nid: int) -> None:
        t = perf_counter_ns()
        stack = self._stack
        idx = len(self.s_name)
        if idx < self.max_spans:
            self.s_name.append(nid)
            self.s_start.append(t - self.origin)
            self.s_end.append(0)
            self.s_parent.append(stack[-1][3] if stack else -1)
            self.s_run.append(self.run_id)
        else:
            idx = -1
            self.dropped += 1
        stack.append([nid, t, 0, idx])

    def pop(self) -> None:
        t = perf_counter_ns()
        stack = self._stack
        nid, t0, child, idx = stack.pop()
        dur = t - t0
        self.incl_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if stack:
            stack[-1][2] += dur
        if idx >= 0:
            self.s_end[idx] = t - self.origin

    def totals(self) -> dict:
        """{span name: (calls, inclusive s, self s, simulated s, sim n)}."""
        return {name: (self.calls[i], self.incl_ns[i] / 1e9,
                       self.self_ns[i] / 1e9, self.sim_s[i], self.sim_n[i])
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> str:
        """Write the stored spans as compressed columns plus the name
        table; times are nanoseconds since the recorder was created."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.s_name, dtype=np.int32),
            start_ns=np.frombuffer(self.s_start, dtype=np.int64),
            end_ns=np.frombuffer(self.s_end, dtype=np.int64),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            run=np.frombuffer(self.s_run, dtype=np.int32))
        return path


def _timed(rec: Recorder, nid: int, gen, sim):
    """Drive ``gen`` exactly as ``yield from`` would, recording one span
    per resume and, when ``sim`` is given, the simulated time from the
    first resume to the return."""
    t_sim = sim.now if sim is not None else 0.0
    value = None
    exc = None
    while True:
        on = rec.active
        if on:
            rec.push(nid)
        try:
            out = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            if on:
                rec.pop()
                if sim is not None:
                    rec.sim_s[nid] += sim.now - t_sim
                    rec.sim_n[nid] += 1
            return stop.value
        except BaseException:
            if on:
                rec.pop()
            raise
        if on:
            rec.pop()
        try:
            value = yield out
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as e:  # noqa: BLE001 - forwarded into gen
            value = None
            exc = e


def _plain(rec: Recorder, nid: int, fn):
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.calls[nid] += 1
        rec.push(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.pop()
    return wrapper


def _gen_method(rec: Recorder, nid: int, fn):
    """Wrap an ``Image`` generator method; simulated time comes from the
    image's machine clock."""
    def wrapper(self, *args, **kwargs):
        gen = fn(self, *args, **kwargs)
        if not rec.active:
            return gen
        rec.calls[nid] += 1
        return _timed(rec, nid, gen, self.machine.sim)
    return wrapper


def _gen_plain(rec: Recorder, nid: int, fn):
    """Wrap a generator function, keeping it a generator function (the
    AM layer runs generator handlers as tasks and plain ones inline)."""
    def wrapper(*args, **kwargs):
        if rec.active:
            rec.calls[nid] += 1
        return (yield from _timed(rec, nid, fn(*args, **kwargs), None))
    return wrapper


class Tracer:
    """Installs the layer wrappers; :meth:`uninstall` restores every
    original binding."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved: list[tuple] = []

    def _swap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        from repro.backend import parallel
        from repro.explore.fuzz import coverage, service
        from repro.explore.fuzz.corpus import Corpus
        from repro.net.active_messages import AMLayer
        from repro.net.transport import Network
        from repro.runtime.image import Image
        from repro.runtime.program import Machine
        from repro.sim.engine import Simulator
        from repro.sim.tasks import Task

        rec = self.rec
        nid = rec.name_id

        def plain(owner, attr, span):
            self._swap(owner, attr, lambda f: _plain(rec, nid(span), f))

        def gen_method(attr, span):
            self._swap(Image, attr, lambda f: _gen_method(rec, nid(span), f))

        plain(Simulator, "run", "sim.run")
        plain(Task, "__init__", "sim.task_init")

        plain(Network, "send", "net.send")
        plain(Network, "_run_delivery_batch", "net.deliver")
        plain(AMLayer, "request_nb", "net.am_request_nb")
        self._swap(AMLayer, "request",
                   lambda f: _gen_plain(rec, nid("net.am_request"), f))
        plain(AMLayer, "_on_deliver", "net.am_dispatch")
        for attr in ("register", "ensure_registered"):
            self._swap(AMLayer, attr, self._handler_interceptor)

        gen_method("spawn", "spawn.init")
        gen_method("finish_begin", "finish.begin")
        gen_method("finish_end", "finish.end")
        gen_method("barrier", "finish.barrier")
        plain(Image, "copy_async", "copy.init")
        gen_method("get", "copy.get")
        gen_method("put", "copy.put")

        plain(Machine, "__init__", "runtime.machine_init")
        self._swap(Machine, "launch", self._launch_wrapper)

        plain(service.FuzzService, "run", "explore.service")
        for attr, span in (("features", "explore.coverage.features"),
                           ("mutate_records", "explore.mutate"),
                           ("minimize_schedule", "explore.minimize"),
                           ("check_replay_determinism", "explore.verify")):
            # bound into the service module at its import: wrap the
            # name the fuzz loop looks up, not the defining module's
            plain(service, attr, span)
        for attr in ("observe", "novel", "rarity"):
            plain(coverage.CoverageMap, attr, f"explore.coverage.{attr}")
        plain(Corpus, "add", "explore.corpus_add")

        plain(parallel.ProcessRunner, "start", "backend.start")
        plain(parallel.ProcessRunner, "wait", "backend.wait")
        # Forked workers inherit these wrappers; their spans could never
        # reach this process, so each worker restores the originals
        # before it builds its machine.
        self._swap(parallel, "_worker_main", self._worker_wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers that need the tracer --------------------------------- #

    def _handler_interceptor(self, register):
        def intercept(am, name, fn):
            return register(am, name, self.wrap_handler(name, fn))
        return intercept

    def wrap_handler(self, name: str, fn):
        rec = self.rec
        nid = rec.name_id(handler_span(name))
        if not inspect.isgeneratorfunction(fn):
            return _plain(rec, nid, fn)
        if name != "spawn.exec":
            return _gen_plain(rec, nid, fn)
        shipped_nid = rec.name_id("apps.shipped")

        def exec_wrapper(ctx, shipped, *args, **kwargs):
            # The shipped function's body is application code: time it
            # as its own span so spawn.exec keeps only the runtime's part.
            def body(image, *a):
                return _timed(rec, shipped_nid, shipped(image, *a), None)
            if rec.active:
                rec.calls[nid] += 1
                rec.calls[shipped_nid] += 1
            return (yield from _timed(
                rec, nid, fn(ctx, body, *args, **kwargs), None))
        return exec_wrapper

    def _launch_wrapper(self, launch):
        rec = self.rec
        nid = rec.name_id("runtime.launch")
        kernel_nid = rec.name_id("apps.kernel")

        def wrapper(machine, kernel, args=()):
            if not rec.active:
                return launch(machine, kernel, args)

            def traced_kernel(img, *a):
                rec.calls[kernel_nid] += 1
                return _timed(rec, kernel_nid, kernel(img, *a), None)
            rec.calls[nid] += 1
            rec.push(nid)
            try:
                return launch(machine, traced_kernel, args)
            finally:
                rec.pop()
        return wrapper

    def _worker_wrapper(self, worker_main):
        def wrapper(spec):
            self.rec.active = False
            self.uninstall()
            return worker_main(spec)
        return wrapper
