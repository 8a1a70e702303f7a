"""Guarded lifecycle-step execution: every failure becomes a verdict.

The 22k-service sweep must be *total*: whatever a hostile WSDL makes a
parser, generator or compiler simulator do — crash, recurse forever,
allocate a gigabyte — the harness records a classified cell and moves
on.  :class:`GuardedStep` wraps one lifecycle step with a wall-clock
deadline, an input-size budget and an exception taxonomy that triages
any raised error into one of four buckets:

``parser-crash``
    The tool rejected the document with one of its own classified
    errors (:class:`XmlParseError`, :class:`WsdlReadError`, …) — the
    expected, healthy response to a corrupt description.
``resource-blowup``
    A resource budget tripped (:class:`XmlLimitError`, RecursionError,
    MemoryError, the guard's own input-size cap) — contained, but worth
    tracking per tool.
``timeout``
    The step ran past its wall-clock deadline and was abandoned.
``tool-internal``
    Anything else: an unclassified exception escaping a simulator.
    This is the bucket that must stay empty — each hit is a harness
    bug, and the fuzz campaign quarantines the offending cell.

A step with a deadline runs off the calling thread, on that thread's
long-lived *runner*: one daemon thread per calling thread that takes
steps from a queue, so a sweep of thousands of steps starts one thread,
not one per step.  The caller waits on a per-step lock for at most the
deadline.  A step that overruns is abandoned together with its runner,
which exits once the step returns; the caller's next step starts a
fresh runner, as does the first step in a forked child.
"""

from __future__ import annotations

import enum
import os
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field

from repro.obs.trace import current_tracer
from repro.wsdl.errors import WsdlError
from repro.xmlcore.errors import XmlError, XmlLimitError
from repro.xmlcore.parser import XmlLimits
from repro.xsd.errors import SchemaError


class TriageBucket(enum.Enum):
    """Where a guarded step's outcome lands in the crash-triage matrix."""

    CLEAN = "clean"
    PARSER_CRASH = "parser-crash"
    TIMEOUT = "timeout"
    RESOURCE_BLOWUP = "resource-blowup"
    TOOL_INTERNAL = "tool-internal"


#: Buckets that poison a (server, service, client) triple: re-running
#: the cell would stall the sweep or re-trigger a harness bug.
FATAL_BUCKETS = (TriageBucket.TIMEOUT, TriageBucket.TOOL_INTERNAL)


@dataclass(frozen=True)
class GuardLimits:
    """Budgets enforced around one guarded step."""

    #: Wall-clock deadline per step; ``None`` runs the step inline on
    #: the calling thread, with no runner (cheapest, used on trusted
    #: input).
    deadline_seconds: float = 10.0
    #: Largest description text a step is asked to process at all.
    max_input_bytes: int = 8_000_000
    #: Parser budgets handed to :func:`repro.xmlcore.parse`.
    xml: XmlLimits = field(default_factory=XmlLimits)


#: No deadline, default parser budgets — for trusted, in-corpus input.
INLINE_LIMITS = GuardLimits(deadline_seconds=None)


class InputBudgetExceeded(Exception):
    """The description text exceeds the guard's input-size budget."""


@dataclass
class GuardVerdict:
    """Classified outcome of one guarded step."""

    step: str
    bucket: TriageBucket
    detail: str = ""
    elapsed_seconds: float = 0.0
    value: object = None
    exception: BaseException = None

    @property
    def ok(self):
        return self.bucket is TriageBucket.CLEAN

    @property
    def fatal(self):
        """True when the cell should be quarantined, not re-run."""
        return self.bucket in FATAL_BUCKETS


def classify_exception(exc):
    """Map an exception to its :class:`TriageBucket`."""
    if isinstance(
        exc,
        (
            XmlLimitError,
            InputBudgetExceeded,
            RecursionError,
            MemoryError,
            OverflowError,
        ),
    ):
        return TriageBucket.RESOURCE_BLOWUP
    if isinstance(exc, (XmlError, WsdlError, SchemaError)):
        return TriageBucket.PARSER_CRASH
    return TriageBucket.TOOL_INTERNAL


def _describe(exc, limit=300):
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= limit else text[: limit - 1] + "…"


class GuardedStep:
    """Run one callable under the guard budgets, never letting it raise.

    ``run`` returns a :class:`GuardVerdict`; the wrapped callable's
    return value is on ``verdict.value`` when the bucket is CLEAN.
    KeyboardInterrupt/SystemExit still propagate, with or without a
    deadline — the guard contains tool failures, not operator intent.
    With a deadline the callable runs on the calling thread's runner
    thread (see the module docstring).
    """

    def __init__(self, name, fn, limits=None):
        self.name = name
        self.fn = fn
        self.limits = limits or GuardLimits()

    def check_input(self, text):
        """Raise :class:`InputBudgetExceeded` when ``text`` is too big."""
        if text is not None and len(text) > self.limits.max_input_bytes:
            raise InputBudgetExceeded(
                f"{self.name}: input of {len(text)} chars exceeds the "
                f"{self.limits.max_input_bytes}-char budget"
            )

    def run(self, *args, **kwargs):
        # The span opens and closes on the driving thread; an abandoned
        # step's runner never touches the tracer.
        with current_tracer().span(self.name) as span:
            started = time.perf_counter()
            deadline = self.limits.deadline_seconds
            if deadline is None:
                outcome = self._call(args, kwargs)
            else:
                outcome = self._call_with_deadline(args, kwargs, deadline)
            outcome.elapsed_seconds = time.perf_counter() - started
            span.annotate(bucket=outcome.bucket.value)
            if outcome.detail:
                span.annotate(detail=outcome.detail)
        return outcome

    def _call(self, args, kwargs):
        try:
            value = self.fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 — triaged, never swallowed
            return GuardVerdict(
                step=self.name,
                bucket=classify_exception(exc),
                detail=_describe(exc),
                exception=exc,
            )
        return GuardVerdict(step=self.name, bucket=TriageBucket.CLEAN, value=value)

    def _call_with_deadline(self, args, kwargs, deadline):
        runner = getattr(_runners, "runner", None)
        if runner is None or runner.pid != os.getpid():
            # A forked child inherits the parent's thread-local runner
            # but not its thread.
            runner = _runners.runner = _Runner()
        box = []
        done = threading.Lock()
        done.acquire()
        finished = False
        try:
            runner.inbox.put((self, args, kwargs, box, done))
            finished = done.acquire(timeout=deadline)
        finally:
            if not finished:
                # Past the deadline, or interrupted while waiting: the
                # step is abandoned on its runner and nothing it computes
                # from here on is observed.  The runner exits once the
                # step returns; this thread's next step gets a fresh one.
                del _runners.runner
                runner.retire()
        if not finished:
            return GuardVerdict(
                step=self.name,
                bucket=TriageBucket.TIMEOUT,
                detail=f"{self.name}: exceeded {deadline:g}s wall-clock deadline",
            )
        outcome = box[0]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


#: Each calling thread's :class:`_Runner`.
_runners = threading.local()


class _Runner:
    """A daemon thread running one calling thread's deadline-guarded steps."""

    def __init__(self):
        self.pid = os.getpid()
        self.inbox = queue.SimpleQueue()
        # The thread holds only the inbox.  The sentinel goes in when the
        # step is abandoned, or when this object is collected because its
        # calling thread ended, so the thread never outlives its use.
        self.retire = weakref.finalize(self, self.inbox.put, None)
        threading.Thread(
            target=_serve, args=(self.inbox,), name="guard-runner", daemon=True
        ).start()


def _serve(inbox):
    """Run ``(step, args, kwargs, box, done)`` tasks until the sentinel."""
    while (task := inbox.get()) is not None:
        step, args, kwargs, box, done = task
        try:
            box.append(step._call(args, kwargs))
        except BaseException as exc:  # noqa: BLE001 — the caller re-raises
            box.append(exc)
        done.release()
        # Hold no step's arguments or result while waiting for the next.
        del task, step, args, kwargs, box, done


def run_guarded(name, fn, *args, limits=None, **kwargs):
    """One-shot convenience wrapper around :class:`GuardedStep`."""
    return GuardedStep(name, fn, limits=limits).run(*args, **kwargs)
