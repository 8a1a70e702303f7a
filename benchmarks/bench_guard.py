"""Guard cost — what wrapping a trivial step costs, inline and with a deadline.

A deadline-guarded step runs on its calling thread's long-lived runner
thread, so a sweep of thousands of guarded steps starts one thread, not
one per step.  This bench reports the per-step cost of the guard around
a step that does no work (``int()``), inline (``INLINE_LIMITS``) and
under a deadline, and counts the threads started while one fresh
calling thread runs 1,000 deadline-guarded steps.  Only that count is
asserted: per-step times move with the machine.
"""

import statistics
import threading
import time

from conftest import print_rows

from repro.runtime.guard import INLINE_LIMITS, GuardedStep, GuardLimits

STEPS = 1000
ROUNDS = 7

DEADLINE_LIMITS = GuardLimits(deadline_seconds=10.0)


def _us_per_step(limits):
    """Median over ``ROUNDS`` of the wall time per guarded ``int()``."""
    step = GuardedStep("trivial", int, limits=limits)
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(STEPS):
            step.run()
        samples.append((time.perf_counter() - started) / STEPS * 1e6)
    return statistics.median(samples)


def _threads_started_per_steps():
    """Threads started while a fresh calling thread runs ``STEPS`` steps."""
    started = []
    clean = []
    original_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        original_start(thread)

    def caller():
        step = GuardedStep("trivial", int, limits=DEADLINE_LIMITS)
        clean.extend(step.run().ok for _ in range(STEPS))

    calling_thread = threading.Thread(target=caller, name="bench-caller")
    threading.Thread.start = counting_start
    try:
        original_start(calling_thread)
        calling_thread.join(timeout=60.0)
    finally:
        threading.Thread.start = original_start
    assert not calling_thread.is_alive()
    assert len(clean) == STEPS and all(clean)
    return len(started)


def test_guard_step_cost(benchmark):
    def measure():
        return (
            _us_per_step(INLINE_LIMITS),
            _us_per_step(DEADLINE_LIMITS),
            _threads_started_per_steps(),
        )

    inline_us, deadline_us, threads = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print_rows(
        "Guard cost per trivial step",
        ("Metric", "Value"),
        [
            ("inline (us/step)", f"{inline_us:.1f}"),
            ("deadline (us/step)", f"{deadline_us:.1f}"),
            (f"threads started per {STEPS} deadline steps", threads),
        ],
    )
    benchmark.extra_info["inline_us_per_step"] = round(inline_us, 2)
    benchmark.extra_info["deadline_us_per_step"] = round(deadline_us, 2)
    benchmark.extra_info[f"threads_per_{STEPS}_steps"] = threads

    assert threads <= 1
