"""One measurement process of the benchmark; ``run.py`` starts it.

    python3 perfbench/sweep.py --workload NAME --seed N [--seconds S]
                               [--trace] [--setup-only]

Prints one JSON object on its last stdout line.  ``ready`` is the
``time.monotonic()`` reading taken when set-up (imports, configuration,
catalogs) is done and the sweep call is next; the parent subtracts the
reading it took before starting this process.

Untraced, the sweep call repeats while another sweep fits in
``--seconds`` (at least once) and every sweep is timed and checked.
Traced, one untraced sweep is followed by one sweep with every layer
boundary wrapped; the two canonical matrices must be byte-identical.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb():
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def timed_sweep(workload, state):
    """One sweep call: ``(row, result, pool_stats)``.

    ``row`` holds the call's start (``time.monotonic()``), its wall and
    CPU seconds and its unit count.
    """
    cpu = _cpu_seconds()
    started_at = time.monotonic()
    started = time.perf_counter()
    result, pool_stats = workload.sweep(state)
    wall = time.perf_counter() - started
    row = {
        "started_at": started_at,
        "wall_s": wall,
        "cpu_s": _cpu_seconds() - cpu,
        "units": workload.units(result),
    }
    return row, result, pool_stats


def _checked(workload, row, result):
    row["checked"], row["differing"] = workload.check(result)
    return row


def measure(workload, state, seconds):
    started = time.perf_counter()
    sweeps = []
    while True:
        row, result, _ = timed_sweep(workload, state)
        sweeps.append(_checked(workload, row, result))
        del result
        # Start no sweep that would end after ``seconds``.
        if time.perf_counter() - started + row["wall_s"] > seconds:
            return sweeps


def trace(workload, state):
    """One untraced then one traced sweep, plus the per-layer metrics."""
    row, result, _ = timed_sweep(workload, state)
    plain = _checked(workload, row, result)
    plain_matrix = workloads.canonical_bytes(workload.kind, result)
    del result, state

    rec = layers.install(workload.unit, tempfile.mkdtemp(prefix="layers-"))
    state = workload.prepare()
    attributed = rec.attributed_s
    row, result, pool_stats = timed_sweep(workload, state)
    rec.absorb()
    metrics = layers.per_layer_metrics(rec, pool_stats)
    # Pooled units run in parallel: the time layers can cover is the
    # workers' time inside units, not the sweep's wall time.
    covered = rec.unit_wall_s if pool_stats else row["wall_s"]
    metrics["bench.attributed_ratio"] = (
        (rec.attributed_s - attributed) / covered
    )
    metrics["bench.trace_overhead_ratio"] = row["wall_s"] / plain["wall_s"]
    traced = _checked(workload, row, result)

    failures = []
    if workloads.canonical_bytes(workload.kind, result) != plain_matrix:
        failures.append("traced matrix differs from the untraced one")
    rationale = json.loads((HERE / "rationale.json").read_text())
    spec = rationale["workloads"][workload.name]
    for layer in spec["exercises"]:
        name = layers.work_metric(layer)
        if not metrics[name] > 0:
            failures.append(f"{name} is 0 on a workload that exercises it")
    for layer in spec["bypasses"]:
        name = layers.work_metric(layer)
        if metrics[name] != 0:
            failures.append(f"{name} is {metrics[name]} on a workload that "
                            "bypasses it")
    return [plain, traced], metrics, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    state = workload.prepare()
    out = {"ready": time.monotonic(), "ready_cpu_s": _cpu_seconds(),
           "program_seed": workload.seed}
    if args.setup_only:
        pass
    elif args.trace:
        out["sweeps"], out["per_layer"], out["check_failures"] = trace(
            workload, state
        )
    else:
        out["sweeps"] = measure(workload, state, args.seconds)
        out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
