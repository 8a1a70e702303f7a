"""Write the reference files the benchmark checks every sweep against.

    python3 perfbench/record_reference.py

* ``reference/paper-sweep.json``: the 33 Table III cells and the
  exact-valued headline counters, copied from the numbers written down
  from the paper (``repro.data.paper_results``).  ``error_situations``
  is left out: the paper's own figures disagree on it (1583 in the text,
  1591 summed from its tables), and ``wsi_predictive_ratio`` is a
  rounded ratio, not an exact value.
* ``reference/invoke-wire-<seed>.json``: the invocation sweep's
  canonical matrix recorded through the in-memory transport.
* ``reference/fuzz-pool-<seed>.json``: the fuzz sweep's canonical
  matrix recorded serially (``workers=1``).

Both recorded kinds are written for every seed in
``workloads.REFERENCE_SEEDS``.  Re-record only when the program's
verdicts are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _write(name, obj):
    path = workloads.REFERENCE_DIR / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}")


def paper_reference():
    from repro.data.paper_results import PAPER_HEADLINES, PAPER_TABLE3

    excluded = {"error_situations", "wsi_predictive_ratio"}
    return {
        "source": "repro.data.paper_results",
        "table3": {
            f"{server}|{client}": [0 if v is None else v for v in cell]
            for server, clients in PAPER_TABLE3.items()
            for client, cell in clients.items()
        },
        "headlines": {
            key: value for key, value in PAPER_HEADLINES.items()
            if key not in excluded
        },
    }


def recorded_reference(workload):
    from repro.core.canon import canonical_matrix, canonical_totals

    result = workload.record()
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "recorded_with": workload.record.__doc__.strip(),
        "totals": canonical_totals(workload.kind, result),
        "cells": canonical_matrix(workload.kind, result),
    }


def main():
    _write("paper-sweep.json", paper_reference())
    for seed in workloads.REFERENCE_SEEDS:
        for cls in (workloads.InvokeWire, workloads.FuzzPool):
            workload = cls(seed)
            _write(f"{workload.name}-{seed}.json",
                   recorded_reference(workload))


if __name__ == "__main__":
    main()
