"""Unit tests for the guarded lifecycle executor and its triage taxonomy."""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.appservers import GlassFish
from repro.core.outcomes import StepStatus
from repro.frameworks.client import MetroClient, SudsClient
from repro.runtime import (
    FATAL_BUCKETS,
    INLINE_LIMITS,
    GuardLimits,
    GuardedStep,
    InputBudgetExceeded,
    TriageBucket,
    classify_exception,
    run_full_lifecycle,
    run_guarded,
)
from repro.services import ServiceDefinition
from repro.typesystem import Language, Property, SimpleType, TypeInfo
from repro.wsdl.errors import WsdlReadError
from repro.xmlcore import XmlLimitError, XmlParseError
from repro.xsd.errors import SchemaError


def _deploy_plain():
    entry = TypeInfo(
        Language.JAVA, "pkg", "Plain",
        properties=(
            Property("size", SimpleType.INT),
            Property("tags", SimpleType.STRING, is_array=True),
        ),
    )
    record = GlassFish().deploy(ServiceDefinition(entry))
    assert record.accepted
    return record


class TestClassification:
    def test_tool_errors_are_parser_crash(self):
        for exc in (
            XmlParseError("boom"),
            WsdlReadError("boom"),
            SchemaError("boom"),
        ):
            assert classify_exception(exc) is TriageBucket.PARSER_CRASH

    def test_resource_errors_are_blowup(self):
        for exc in (
            XmlLimitError("deep", limit="max_depth"),
            InputBudgetExceeded("big"),
            RecursionError(),
            MemoryError(),
            OverflowError(),
        ):
            assert classify_exception(exc) is TriageBucket.RESOURCE_BLOWUP

    def test_limit_error_outranks_its_parse_error_parent(self):
        # XmlLimitError subclasses XmlParseError so legacy handlers keep
        # working, but the guard must triage it as a resource budget.
        exc = XmlLimitError("deep", limit="max_depth")
        assert isinstance(exc, XmlParseError)
        assert classify_exception(exc) is TriageBucket.RESOURCE_BLOWUP

    def test_everything_else_is_tool_internal(self):
        for exc in (RuntimeError("x"), KeyError("x"), ZeroDivisionError()):
            assert classify_exception(exc) is TriageBucket.TOOL_INTERNAL

    def test_fatal_buckets(self):
        assert TriageBucket.TIMEOUT in FATAL_BUCKETS
        assert TriageBucket.TOOL_INTERNAL in FATAL_BUCKETS
        assert TriageBucket.PARSER_CRASH not in FATAL_BUCKETS


class TestGuardedStep:
    def test_clean_run_returns_value(self):
        verdict = run_guarded("add", lambda a, b: a + b, 2, 3)
        assert verdict.ok and not verdict.fatal
        assert verdict.value == 5
        assert verdict.bucket is TriageBucket.CLEAN

    def test_classified_exception_becomes_verdict(self):
        def blow_up():
            raise XmlParseError("not xml")

        verdict = run_guarded("parse", blow_up)
        assert not verdict.ok
        assert verdict.bucket is TriageBucket.PARSER_CRASH
        assert "not xml" in verdict.detail
        assert isinstance(verdict.exception, XmlParseError)

    def test_unclassified_exception_is_tool_internal(self):
        verdict = run_guarded("gen", lambda: 1 / 0)
        assert verdict.bucket is TriageBucket.TOOL_INTERNAL
        assert verdict.fatal
        assert "ZeroDivisionError" in verdict.detail

    def test_timeout_abandons_the_step(self):
        limits = GuardLimits(deadline_seconds=0.05)
        verdict = run_guarded("slow", time.sleep, 5.0, limits=limits)
        assert verdict.bucket is TriageBucket.TIMEOUT
        assert verdict.fatal
        assert "deadline" in verdict.detail

    def test_inline_limits_run_without_watchdog(self):
        verdict = run_guarded("fast", lambda: "ok", limits=INLINE_LIMITS)
        assert verdict.ok and verdict.value == "ok"

    def test_input_budget(self):
        step = GuardedStep("read", str, limits=GuardLimits(max_input_bytes=10))
        step.check_input("short")
        with pytest.raises(InputBudgetExceeded):
            step.check_input("x" * 11)

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    @pytest.mark.parametrize(
        "limits",
        [INLINE_LIMITS, GuardLimits(deadline_seconds=2.0)],
        ids=["inline", "deadline"],
    )
    def test_keyboard_interrupt_propagates(self, limits, exc_type):
        def interrupted():
            raise exc_type("operator intent")

        with pytest.raises(exc_type):
            GuardedStep("step", interrupted, limits=limits).run()

    def test_detail_is_truncated(self):
        def verbose():
            raise XmlParseError("y" * 5000)

        verdict = run_guarded("parse", verbose)
        assert len(verdict.detail) <= 300


DEADLINE = GuardLimits(deadline_seconds=5.0)


def _runner_thread():
    return threading.current_thread()


class TestRunner:
    """Deadline-guarded steps run on one reused runner per calling thread."""

    def test_thousand_steps_start_at_most_one_thread(self, monkeypatch):
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for index in range(1000):
            verdict = run_guarded("step", abs, -index, limits=DEADLINE)
            assert verdict.ok and verdict.value == index
        assert len(starts) <= 1

    def test_step_runs_off_the_calling_thread(self):
        verdict = run_guarded("where", _runner_thread, limits=DEADLINE)
        assert verdict.ok
        assert verdict.value is not threading.current_thread()
        assert verdict.value.name.startswith("guard-")

    def test_nested_deadline_step_is_clean(self):
        def outer():
            inner = run_guarded("inner", lambda: "deep", limits=DEADLINE)
            return inner.bucket, inner.value

        verdict = run_guarded("outer", outer, limits=DEADLINE)
        assert verdict.ok
        assert verdict.value == (TriageBucket.CLEAN, "deep")

    def test_concurrent_callers_get_their_own_runner(self):
        # Each step waits for the other inside its runner, which only
        # two distinct runners can satisfy.
        barrier = threading.Barrier(2, timeout=5.0)

        def meet():
            barrier.wait()
            return threading.get_ident()

        verdicts = {}

        def caller(key):
            verdicts[key] = run_guarded("meet", meet, limits=DEADLINE)

        callers = [threading.Thread(target=caller, args=(k,)) for k in "ab"]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert all(verdict.ok for verdict in verdicts.values())
        assert verdicts["a"].value != verdicts["b"].value

    def test_timeout_replaces_the_runner_and_the_old_one_exits(self):
        abandoned = []

        def stuck():
            abandoned.append(threading.current_thread())
            time.sleep(1.0)

        limits = GuardLimits(deadline_seconds=0.05)
        assert run_guarded("stuck", stuck, limits=limits).bucket is (
            TriageBucket.TIMEOUT
        )
        # Queued behind the abandoned step this would time out too.
        follow_up = GuardLimits(deadline_seconds=0.5)
        verdict = run_guarded("next", _runner_thread, limits=follow_up)
        assert verdict.ok
        assert verdict.value is not abandoned[0]
        abandoned[0].join(timeout=5.0)
        assert not abandoned[0].is_alive()

    @pytest.mark.skipif(
        not hasattr(signal, "pthread_kill")
        or threading.current_thread() is not threading.main_thread(),
        reason="needs SIGINT delivered to the main thread",
    )
    def test_interrupted_wait_abandons_the_runner(self):
        interrupted = []
        main = threading.main_thread().ident

        def interrupt_caller():
            interrupted.append(threading.current_thread())
            signal.pthread_kill(main, signal.SIGINT)
            time.sleep(1.0)

        with pytest.raises(KeyboardInterrupt):
            run_guarded("interrupt", interrupt_caller, limits=DEADLINE)
        follow_up = GuardLimits(deadline_seconds=0.5)
        verdict = run_guarded("next", _runner_thread, limits=follow_up)
        assert verdict.ok
        assert verdict.value is not interrupted[0]
        interrupted[0].join(timeout=5.0)
        assert not interrupted[0].is_alive()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_runner(self):
        assert run_guarded("parent", lambda: 1, limits=DEADLINE).ok
        pid = os.fork()
        if pid == 0:
            try:
                verdict = run_guarded(
                    "child", lambda: 2, limits=GuardLimits(deadline_seconds=2.0)
                )
                os._exit(0 if verdict.ok and verdict.value == 2 else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestGuardedLifecycle:
    def test_clean_lifecycle_unchanged(self):
        record = _deploy_plain()
        outcome = run_full_lifecycle(record, MetroClient(), client_id="metro")
        assert outcome.execution == StepStatus.OK
        assert outcome.triage == ""

    def test_corrupt_wsdl_text_is_classified_not_raised(self):
        record = _deploy_plain()
        broken = dataclasses.replace(
            record, wsdl_text=record.wsdl_text[: len(record.wsdl_text) // 3]
        )
        outcome = run_full_lifecycle(broken, SudsClient(), client_id="suds")
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.PARSER_CRASH.value
        assert "[parser-crash]" in outcome.detail

    def test_resource_blowup_wsdl_is_classified(self):
        record = _deploy_plain()
        point = record.wsdl_text.rfind("</")
        bomb = (
            record.wsdl_text[:point]
            + "x" * 2_000_000
            + record.wsdl_text[point:]
        )
        broken = dataclasses.replace(record, wsdl_text=bomb)
        outcome = run_full_lifecycle(broken, SudsClient(), client_id="suds")
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.RESOURCE_BLOWUP.value

    def test_oversized_input_hits_the_budget(self):
        record = _deploy_plain()
        limits = GuardLimits(deadline_seconds=None, max_input_bytes=100)
        outcome = run_full_lifecycle(
            record, SudsClient(), client_id="suds", limits=limits
        )
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.RESOURCE_BLOWUP.value

    def test_internal_generator_bug_is_contained(self):
        record = _deploy_plain()
        client = SudsClient()
        client.generate = lambda document: (_ for _ in ()).throw(
            RuntimeError("simulated harness bug")
        )
        outcome = run_full_lifecycle(record, client, client_id="suds")
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.TOOL_INTERNAL.value
        assert "simulated harness bug" in outcome.detail
