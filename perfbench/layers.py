"""Outside-in per-layer timing for the benchmark's traced run.

The program is not asked to trace itself: this module wraps the public
functions at each layer boundary, at every module that imported them,
and keeps its own frames.  A frame's self time is its duration minus
the durations of the frames opened inside it.

One logical stack is shared by all threads.  That is exact for the
closed-loop workloads measured here: when ``GuardedStep`` runs a step on
its deadline thread, or ``WireServer`` answers on its accept thread, the
calling thread is blocked until the other finishes, so frames still nest
in time across threads.  A frame closed out of order is removed by
identity.

Pool workers are forked with the wrappers in place.  The wrapped unit
entry point (``repro.core.sharding.run_unit``) resets the worker's
recorder before each unit and writes its counts to a file afterwards;
``Recorder.absorb`` folds those files back into the parent once the
sweep call has returned.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time

#: Frames whose self time belongs to no layer: the unit wrapper (the
#: campaign glue around the layers) and the function a guard runs.
UNATTRIBUTED = frozenset({"unit", "guarded"})

_FIELDS = ("calls", "busy_s", "self_s", "errors", "bytes")


class _Frame:
    __slots__ = ("layer", "parent", "child", "start")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.child = 0.0
        self.start = 0.0


class Recorder:
    """Per-layer calls, times, errors and bytes for one process."""

    def __init__(self, spool_dir):
        #: Where forked pool workers leave their per-unit counts.
        self.spool_dir = spool_dir
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.layers = {}
        self.counters = dict.fromkeys(
            ("connections", "listeners", "threads", "pool_units"), 0
        )
        self.unit_ms = []
        #: Self time of every attributed frame, and (pooled) the wall
        #: time workers spent inside units.
        self.attributed_s = 0.0
        self.unit_wall_s = 0.0
        self._stack = []

    def layer(self, name):
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = dict.fromkeys(_FIELDS, 0)
        return stats

    def enter(self, layer):
        """Open a frame, or ``None`` when ``layer`` is already on top."""
        with self._lock:
            stack = self._stack
            parent = stack[-1] if stack else None
            if parent is not None and parent.layer == layer:
                return None
            frame = _Frame(layer, parent)
            stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def leave(self, frame, failed=0, size=0):
        elapsed = time.perf_counter() - frame.start
        with self._lock:
            stack = self._stack
            if stack and stack[-1] is frame:
                stack.pop()
            elif frame in stack:
                stack.remove(frame)
            self_time = elapsed - frame.child
            stats = self.layer(frame.layer)
            stats["calls"] += 1
            stats["busy_s"] += elapsed
            stats["self_s"] += self_time
            stats["errors"] += failed
            stats["bytes"] += size
            if frame.parent is not None:
                frame.parent.child += elapsed
            if frame.layer not in UNATTRIBUTED:
                self.attributed_s += self_time
            if frame.layer == "unit":
                self.unit_ms.append(elapsed * 1000.0)

    def bump(self, counter):
        with self._lock:
            self.counters[counter] += 1

    # -- pool workers ---------------------------------------------------------

    def snapshot(self):
        return {
            "layers": self.layers,
            "counters": self.counters,
            "unit_ms": self.unit_ms,
            "attributed_s": self.attributed_s,
            "unit_wall_s": self.unit_wall_s,
        }

    def absorb(self):
        """Fold every worker snapshot in ``spool_dir`` into this recorder."""
        for name in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, name)) as handle:
                snap = json.load(handle)
            os.unlink(os.path.join(self.spool_dir, name))
            for layer, stats in snap["layers"].items():
                mine = self.layer(layer)
                for key, value in stats.items():
                    mine[key] += value
            for key, value in snap["counters"].items():
                self.counters[key] += value
            self.unit_ms.extend(snap["unit_ms"])
            self.attributed_s += snap["attributed_s"]
            self.unit_wall_s += snap["unit_wall_s"]

    def _run_unit_in_worker(self, run_unit):
        @functools.wraps(run_unit)
        def wrapper(job, campaign, unit):
            self.reset()
            started = time.perf_counter()
            payload = run_unit(job, campaign, unit)
            self.unit_wall_s += time.perf_counter() - started
            self.counters["pool_units"] += 1
            path = os.path.join(self.spool_dir, f"{unit.key}-{os.getpid()}")
            with open(path + ".tmp", "w") as handle:
                json.dump(self.snapshot(), handle)
            os.replace(path + ".tmp", path + ".json")
            return payload

        return wrapper

    # -- wrappers -------------------------------------------------------------

    def timed(self, layer, size=None, failed=None):
        """A decorator factory timing calls as frames of ``layer``.

        ``size(args, result)`` gives the bytes a call handled;
        ``failed(result)`` marks a returned result as a failure.  A
        raised exception always counts as one.
        """

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = self.enter(layer)
                if frame is None:
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.leave(frame, 1, size(args, None) if size else 0)
                    raise
                self.leave(
                    frame,
                    int(bool(failed(result))) if failed else 0,
                    size(args, result) if size else 0,
                )
                return result

            return wrapper

        return decorate

    def counted(self, counter):
        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.bump(counter)
                return fn(*args, **kwargs)

            return wrapper

        return decorate


def _text_size(args, result):
    text = args[0] if args else ""
    return len(text) if isinstance(text, (str, bytes)) else 0


def _result_size(args, result):
    return len(result) if isinstance(result, str) else 0


def _not_succeeded(result):
    return not result.succeeded


def _timed_out(verdict):
    return verdict.bucket.value == "timeout"


def _import_program():
    """Import every program module, so every import site is patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _replace_everywhere(original, replacement):
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(path, decorate):
    module_name, _, attr = path.rpartition(".")
    original = getattr(importlib.import_module(module_name), attr)
    _replace_everywhere(original, decorate(original))


def _subclasses(cls):
    seen = [cls]
    for klass in seen:
        seen.extend(sub for sub in klass.__subclasses__() if sub not in seen)
    return seen


def _patch_method(path, decorate):
    """Wrap ``Class.method`` on the class and every subclass defining it."""
    module_name, cls_name, attr = path.rsplit(".", 2)
    cls = getattr(importlib.import_module(module_name), cls_name)
    for klass in _subclasses(cls):
        if attr in vars(klass):
            setattr(klass, attr, decorate(vars(klass)[attr]))


def _patch(path, decorate):
    owner = path.rpartition(".")[0]
    try:
        importlib.import_module(owner)
    except ModuleNotFoundError:
        _patch_method(path, decorate)
    else:
        _patch_function(path, decorate)


def install(unit_path, spool_dir):
    """Wrap every layer boundary; returns the process's :class:`Recorder`.

    ``unit_path`` (``module.function`` or ``module.Class.method``) is
    the workload's unit entry point.
    """
    _import_program()
    rec = Recorder(spool_dir)
    timed, counted = rec.timed, rec.counted
    boundaries = [
        ("repro.typesystem.java.build_java_catalog", timed("typesystem")),
        ("repro.typesystem.dotnet.build_dotnet_catalog", timed("typesystem")),
        ("repro.services.generator.generate_corpus", timed("services")),
        ("repro.frameworks.base.ServerFramework.deploy",
         timed("frameworks.server")),
        ("repro.wsdl.builder.serialize_wsdl", timed("wsdl.builder")),
        ("repro.xmlcore.writer.serialize",
         timed("xmlcore.writer", size=_result_size)),
        ("repro.xmlcore.parser.parse",
         timed("xmlcore.parser", size=_text_size)),
        ("repro.xmlcore.parser.parse_document",
         timed("xmlcore.parser", size=_text_size)),
        ("repro.wsdl.reader.read_wsdl_text", timed("wsdl.reader")),
        ("repro.wsdl.reader.read_wsdl", timed("wsdl.reader")),
        ("repro.wsi.analyzer.check_document", timed("wsi")),
        ("repro.frameworks.base.ClientFramework.generate",
         timed("frameworks.client", failed=_not_succeeded)),
        ("repro.compilers.base.SemanticCompiler.compile",
         timed("compilers", failed=_not_succeeded)),
        ("repro.runtime.lifecycle.prepare_client_proxy",
         timed("runtime.lifecycle")),
        ("repro.invoke.payloads.PayloadGenerator.generate",
         timed("invoke.payloads")),
        ("repro.invoke.payloads.request_shape", timed("invoke.payloads")),
        ("repro.soap.envelope.serialize_envelope", timed("soap.envelope")),
        ("repro.soap.envelope.parse_envelope", timed("soap.envelope")),
        ("repro.runtime.wire.WireTransport.post", timed("runtime.wire")),
        ("repro.runtime.wire.WireServer.start", timed("wire.startstop")),
        ("repro.runtime.wire.WireServer.stop", timed("wire.startstop")),
        ("repro.runtime.wire.WireServer._serve", counted("listeners")),
        ("repro.runtime.wire.WireClient._connect", counted("connections")),
        ("repro.runtime.server.EchoServiceEndpoint.handle",
         timed("runtime.server")),
        ("repro.invoke.fidelity.compare_roundtrip", timed("invoke.fidelity")),
        ("repro.invoke.response.validate_response", timed("invoke.response")),
        ("repro.faults.corpus.WsdlMutator.mutate", timed("faults.corpus")),
        ("repro.runtime.guard.GuardedStep.run",
         timed("runtime.guard", failed=_timed_out)),
        ("repro.runtime.guard.GuardedStep._call", timed("guarded")),
        ("repro.runtime.guard.GuardedStep._call_with_deadline",
         counted("threads")),
        ("repro.core.sharding.ShardJob.merge", timed("core.sharding")),
        ("repro.core.sharding.run_unit", rec._run_unit_in_worker),
        (unit_path, timed("unit")),
    ]
    for path, decorate in boundaries:
        _patch(path, decorate)
    return rec


#: The metric that shows whether a layer did any work at all.
_WORK_METRIC = {
    "typesystem": "typesystem.busy_s",
    "services": "services.busy_s",
    "runtime.wire": "runtime.wire.requests",
    "runtime.guard": "runtime.guard.steps",
    "runtime.pool": "runtime.pool.units",
    "core.sharding": "core.sharding.merge_s",
    "unit": "unit.count",
}


def work_metric(layer):
    """The per-layer metric that reads 0 exactly when ``layer`` idled."""
    return _WORK_METRIC.get(layer, f"{layer}.calls")


def _percentile(sorted_values, share):
    if not sorted_values:
        return 0.0
    return sorted_values[round(share * (len(sorted_values) - 1))]


def per_layer_metrics(rec, pool_stats=None):
    """The ``layer.metric`` values of one traced sweep.

    ``pool_stats`` is the ``PoolStats`` a pooled sweep returned.
    """
    empty = dict.fromkeys(_FIELDS, 0)

    def stat(layer, field):
        return rec.layers.get(layer, empty)[field]

    metrics = {}
    fields_by_layer = {
        "typesystem": ("busy_s",),
        "services": ("busy_s",),
        "frameworks.server": ("calls", "busy_s"),
        "xmlcore.writer": ("calls", "busy_s", "bytes"),
        "xmlcore.parser": ("calls", "busy_s", "bytes", "errors"),
        "wsdl.builder": ("calls", "self_s"),
        "wsdl.reader": ("calls", "self_s"),
        "wsi": ("calls", "busy_s"),
        "frameworks.client": ("calls", "busy_s", "errors"),
        "compilers": ("calls", "busy_s", "errors"),
        "runtime.lifecycle": ("calls", "self_s"),
        "invoke.payloads": ("calls", "busy_s"),
        "soap.envelope": ("calls", "self_s"),
        "runtime.server": ("calls", "busy_s"),
        "invoke.fidelity": ("calls", "self_s"),
        "invoke.response": ("calls", "self_s"),
        "faults.corpus": ("calls", "busy_s"),
    }
    for layer, fields in fields_by_layer.items():
        for field in fields:
            metrics[f"{layer}.{field}"] = stat(layer, field)

    parser_busy = stat("xmlcore.parser", "busy_s")
    reads = stat("wsdl.reader", "calls")
    metrics["xmlcore.parser.mb_per_s"] = (
        stat("xmlcore.parser", "bytes") / parser_busy / 1e6
        if parser_busy else 0.0
    )
    metrics["xmlcore.parser.parses_per_wsdl"] = (
        stat("xmlcore.parser", "calls") / reads if reads else 0.0
    )

    metrics["runtime.wire.requests"] = stat("runtime.wire", "calls")
    metrics["runtime.wire.connections"] = rec.counters["connections"]
    metrics["runtime.wire.listeners"] = rec.counters["listeners"]
    metrics["runtime.wire.busy_s"] = stat("runtime.wire", "self_s")
    metrics["runtime.wire.startstop_s"] = stat("wire.startstop", "busy_s")
    metrics["runtime.wire.failures"] = stat("runtime.wire", "errors")

    metrics["runtime.guard.steps"] = stat("runtime.guard", "calls")
    metrics["runtime.guard.threads"] = rec.counters["threads"]
    metrics["runtime.guard.overhead_s"] = stat("runtime.guard", "self_s")
    metrics["runtime.guard.timeouts"] = stat("runtime.guard", "errors")

    if pool_stats is None:
        busy, wall, deaths = [0.0], 0.0, 0
    else:
        busy = [row["busy_pct"] for row in pool_stats.worker_timeline]
        wall, deaths = pool_stats.wall_seconds, pool_stats.worker_deaths
    metrics["runtime.pool.units"] = rec.counters["pool_units"]
    metrics["runtime.pool.busy_pct_min"] = min(busy)
    metrics["runtime.pool.busy_pct_max"] = max(busy)
    # How long the least busy worker sat idle while the busiest worked.
    metrics["runtime.pool.straggler_s"] = wall * (max(busy) - min(busy)) / 100
    metrics["runtime.pool.worker_deaths"] = deaths
    metrics["core.sharding.merge_s"] = stat("core.sharding", "busy_s")

    unit_ms = sorted(rec.unit_ms)
    metrics["unit.count"] = len(unit_ms)
    metrics["unit.p50_ms"] = _percentile(unit_ms, 0.50)
    metrics["unit.p99_ms"] = _percentile(unit_ms, 0.99)
    return metrics
