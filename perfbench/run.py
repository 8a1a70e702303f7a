"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {paper-sweep,invoke-wire,fuzz-pool}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program is imported from ``src/``;
there is no build step.

A run starts ``SETUP_PROBES`` fresh processes that only set up (imports,
configuration, catalogs) and then one fresh measurement process
(``sweep.py``).  ``setup_s`` is the median set-up time over all of them:
the CPU time a process has used when its sweep call is next.

With ``--trace 0`` the measurement process repeats the workload's sweep
call while another one fits in ``--seconds`` (at least once) and the
end-to-end metrics are medians over its sweeps: ``units_per_s`` (units
over the sweep call's wall time), ``peak_rss_mb`` (largest RSS of the
process or any child) and ``setup_s``.  ``cpu_s`` (user plus system CPU
of the process and its children during one sweep) is printed too; a
traced result carries it as ``sweep.cpu_s``.  With ``--trace 1`` it
runs one untraced and one traced sweep and the result carries the
per-layer metrics instead.

Timings are given at a reference machine speed.  A shared virtual
machine changes speed for minutes at a time: its vCPUs run more than
two times slower, and the host takes them away (steal) for up to two
thirds of the time.  While the measured processes run, ``SpeedProbe``
times a fixed pure-Python loop in the CPU time of a thread of this
process and reads each vCPU's busy and steal ticks.  A sweep's wall
time is scaled by ``PROBE_REF_MS`` over the loop's median time in the
sweep's window and by the share of busy time not stolen; CPU times
(``cpu_s``, ``setup_s``) are scaled by the loop time only, since CPU
time leaves stolen time out.  So the metrics move with the program,
not with the machine.  The unscaled figures are printed as
``raw_units_per_s``, ``raw_cpu_s`` and ``raw_setup_s`` (wall time from
process start) and kept in the run log.

Every sweep is checked against the workload's stored reference.
``mismatch_ratio`` is the share of reference cells whose verdict
differs, plus unclassified verdicts.  It is printed with the other
metrics, and is ``bench.mismatch_ratio`` in a traced result; in the
untraced result it shows as ``correct`` and ``failed`` (the units of
every sweep that mismatched), because a correct run reads exactly 0.

Every run also reports what it ran under: the CPU steal (from
``/proc/stat``), the load average, and ``bench.probe_ms``.  Each run's
result is appended to ``perfbench/work/runs.jsonl``, so noisy runs are
explained, not dropped.

The last stdout line is the result object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when a result was printed, non-zero (with no result) when the program
cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-sweep", "invoke-wire", "fuzz-pool")
DEFAULT_SEED = 20140622
#: Set-up-only processes per run; the measurement process adds one more
#: set-up sample.
SETUP_PROBES = 10
#: A run must end within 180 s; leave room to report.
RUN_BUDGET_S = 170.0
#: The speed probe: a loop of ``PROBE_LOOPS`` iterations, timed every
#: ``PROBE_EVERY_S``.  ``PROBE_REF_MS`` is the reference speed, about
#: the loop's time on a 2.1 GHz Xeon vCPU running at full speed; it
#: sets only the scale of the scaled timings.
PROBE_LOOPS = 50_000
PROBE_EVERY_S = 0.2
PROBE_REF_MS = 1.4
#: A window with fewer probe samples takes this many nearest ones.
PROBE_MIN_SAMPLES = 10


class RunError(Exception):
    """The program could not be run; no result is printed."""


def _steal_seconds():
    """Machine-wide CPU steal so far, from the ``steal`` column."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _spin():
    total = 0
    for i in range(PROBE_LOOPS):
        total += i & 7
    return total


def _cpu_ticks():
    """``(busy, steal)`` ticks so far of each vCPU, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        rows = [line.split() for line in handle
                if line.startswith("cpu") and line[3].isdigit()]
    ticks = []
    for row in rows:
        user, nice, system, _, _, irq, softirq, steal = map(int, row[1:9])
        ticks.append((user + nice + system + irq + softirq, steal))
    return ticks


class SpeedProbe:
    """Samples the machine's speed every ``PROBE_EVERY_S`` in a thread,
    while the measured processes run; use it as a context manager.

    A sample times ``_spin`` in the thread's CPU time, which gives the
    speed of a vCPU while it runs and is not stretched when the probe
    waits for a vCPU the measured processes hold, and it reads each
    vCPU's busy and steal ticks.  The main thread waits on a child
    process meanwhile, so the probe does not compete with this process
    for the interpreter lock.
    """

    def __init__(self):
        #: ``(time.monotonic(), loop CPU ms, _cpu_ticks())``.
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speed-probe", daemon=True
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PROBE_EVERY_S):
            cpu = time.thread_time()
            _spin()
            cpu = (time.thread_time() - cpu) * 1000.0
            self.samples.append((time.monotonic(), cpu, _cpu_ticks()))

    def _window(self, start, end):
        samples = list(self.samples)
        if not samples:
            raise RunError("the speed probe took no sample")
        window = [sample for sample in samples if start <= sample[0] <= end]
        if len(window) < PROBE_MIN_SAMPLES:
            middle = (start + end) / 2
            window = sorted(
                samples, key=lambda sample: abs(sample[0] - middle)
            )[:PROBE_MIN_SAMPLES]
            window.sort(key=lambda sample: sample[0])
        return window

    def ms(self, start=float("-inf"), end=float("inf")):
        """Median CPU time of the loop over ``[start, end]``, in ms.

        The median: a loop the host interrupts comes back with cold
        caches and reads slow, which the program's long sweeps do not
        pay in the same measure.
        """
        return statistics.median(cpu for _, cpu, _ in self._window(start, end))

    def steal_share(self, start, end):
        """The share of busy vCPU time the host took in ``[start, end]``.

        Per vCPU and per interval between samples, weighted by the busy
        time: a vCPU that sat idle but for a few wake-ups has a high
        steal share that a program busy on another vCPU does not pay.
        """
        window = self._window(start, end)
        stolen = busy = 0.0
        for (_, _, before), (_, _, after) in zip(window, window[1:]):
            for (busy0, steal0), (busy1, steal1) in zip(before, after):
                if busy1 - busy0 > 0:
                    busy += busy1 - busy0
                    stolen += ((busy1 - busy0) * (steal1 - steal0)
                               / (busy1 - busy0 + steal1 - steal0))
        return stolen / busy if busy else 0.0

    def cpu_scale(self, start, end=float("inf")):
        """Reference speed over the vCPU speed in ``[start, end]``."""
        return PROBE_REF_MS / self.ms(start, end)

    def wall_scale(self, start, end):
        """``cpu_scale`` with the stolen share taken out as well."""
        return self.cpu_scale(start, end) * (
            1.0 - self.steal_share(start, end)
        )


def _load_average():
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def _child(args, work_dir, deadline):
    """Run ``sweep.py`` in a fresh process; ``(spawned_at, output)``."""
    command = [sys.executable, str(HERE / "sweep.py"), *args]
    # A fixed hash seed keeps set and dict-of-str orders, and so the
    # work done, the same from run to run.
    env = dict(os.environ, TMPDIR=str(work_dir), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunError(f"{' '.join(args)}: no result within the run budget")
    finally:
        # Pool workers live in the child's session; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RunError(f"{' '.join(args)}: exit code {process.returncode}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def _metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _mismatch_ratio(sweeps):
    checked = sum(row["checked"] for row in sweeps)
    differing = sum(row["differing"] for row in sweeps)
    return min(1.0, differing / checked) if checked else 1.0


def run(workload, seed, seconds, traced, work_dir):
    with SpeedProbe() as probe:
        return _run(workload, seed, seconds, traced, work_dir, probe)


def _run(workload, seed, seconds, traced, work_dir, probe):
    end_to_end_units, per_layer_units = _metric_units()
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    steal = _steal_seconds()
    base = ["--workload", workload, "--seed", str(seed)]

    setup, setup_cpu = [], []
    for _ in range(SETUP_PROBES):
        spawned, out = _child([*base, "--setup-only"], work_dir, deadline)
        setup.append(out["ready"] - spawned)
        setup_cpu.append(out["ready_cpu_s"])
    extra = ["--trace"] if traced else ["--seconds", str(seconds)]
    spawned, out = _child([*base, *extra], work_dir, deadline)
    setup.append(out["ready"] - spawned)
    setup_cpu.append(out["ready_cpu_s"])
    sweeps = out["sweeps"]
    # A traced run's second sweep is traced; time only the first.
    timed = sweeps[:1] if traced else sweeps
    windows = [(row["started_at"], row["started_at"] + row["wall_s"])
               for row in timed]

    summary_windows = [{
        "probe_ms": probe.ms(*window),
        "steal_share": probe.steal_share(*window),
    } for window in windows]

    values = {
        # Set-up is CPU work in one process, and its CPU time leaves out
        # the stolen time, which a window this short cannot measure
        # well.  The machine's speed changes over minutes, so the whole
        # run's probe samples scale it more steadily than its own few.
        "setup_s": statistics.median(setup_cpu) * probe.cpu_scale(started),
        "units_per_s": statistics.median(
            row["units"] / (row["wall_s"] * probe.wall_scale(*window))
            for row, window in zip(timed, windows)
        ),
        "cpu_s": statistics.median(
            row["cpu_s"] * probe.cpu_scale(*window)
            for row, window in zip(timed, windows)
        ),
        "raw_setup_s": statistics.median(setup),
        "raw_units_per_s": statistics.median(
            row["units"] / row["wall_s"] for row in timed
        ),
        "raw_cpu_s": statistics.median(row["cpu_s"] for row in timed),
        "mismatch_ratio": _mismatch_ratio(sweeps),
        "bench.steal_s": _steal_seconds() - steal,
        "bench.loadavg_1m": _load_average(),
        "bench.probe_ms": probe.ms(started),
    }
    check_failures = out.get("check_failures", [])
    if traced:
        values.update(out["per_layer"])
        values["bench.mismatch_ratio"] = values["mismatch_ratio"]
        values["sweep.cpu_s"] = values["cpu_s"]
        units = per_layer_units
    else:
        values["peak_rss_mb"] = out["peak_rss_mb"]
        units = end_to_end_units
    missing = set(units) - set(values)
    if missing:
        raise RunError(f"no value for metrics {sorted(missing)}")

    failed = sum(row["units"] for row in sweeps if row["differing"])
    result = {
        "correct": not failed and not check_failures,
        "attempted": sum(row["units"] for row in sweeps),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    summary = {
        "workload": workload, "seed": seed,
        "program_seed": out["program_seed"], "trace": int(traced),
        "sweeps": len(sweeps), "check_failures": check_failures,
        "setup_wall_samples_s": setup, "setup_cpu_samples_s": setup_cpu,
        "sweep_windows": summary_windows,
        **{name: values[name] for name in (
            "setup_s", "units_per_s", "cpu_s", "raw_setup_s",
            "raw_units_per_s", "raw_cpu_s", "mismatch_ratio",
            "bench.steal_s", "bench.loadavg_1m", "bench.probe_ms",
        )},
        **({} if traced else {"peak_rss_mb": values["peak_rss_mb"]}),
    }
    return summary, result


def _print_summary(summary, result):
    shown = {
        "setup_s": "s", "units_per_s": "units/s", "cpu_s": "s",
        "peak_rss_mb": "MB", "mismatch_ratio": "ratio",
        "raw_setup_s": "s", "raw_units_per_s": "units/s", "raw_cpu_s": "s",
        "bench.steal_s": "s", "bench.loadavg_1m": "load",
        "bench.probe_ms": "ms",
    }
    print(f"# {summary['workload']} seed={summary['seed']} "
          f"(program seed {summary['program_seed']}) "
          f"trace={summary['trace']} sweeps={summary['sweeps']}")
    for name, unit in shown.items():
        if name in summary:
            print(f"#   {name:<16} {summary[name]:12.4f} {unit}")
    for failure in summary["check_failures"]:
        print(f"#   self-check failed: {failure}")
    if summary["trace"]:
        for name, metric in result["metrics"].items():
            print(f"#   {name:<36} {metric['value']:14.4f} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the measurement process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    work_root = HERE / "work"
    work_dir = work_root / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary, result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(work_root / "runs.jsonl", "a") as handle:
        handle.write(json.dumps({"at": time.time(), **summary,
                                 "result": result}) + "\n")
    _print_summary(summary, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
