"""The benchmark's three workloads and the reference checks behind them.

Each workload builds the program's configuration from the benchmark
seed (``prepare``), makes the one sweep call a user would make
(``sweep``), counts the units that call completed and compares its
output with a reference stored under ``perfbench/reference``.  All
three are closed loops: every unit waits for the previous one.

The stored references were not produced by the code path being timed:

* ``paper-sweep`` is checked against the numbers written down from the
  paper (a copy of ``repro.data.paper_results``).
* ``invoke-wire`` is checked against a sweep recorded through the
  in-memory transport: wire must equal memory.
* ``fuzz-pool`` is checked against a serial (``workers=1``) sweep:
  the pool must equal serial.

``record_reference.py`` writes the two recorded kinds.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Program seeds that have stored reference matrices.  The first is the
#: repository's ``BENCH_SEED``; the second is held out for checking a
#: later claim on a seed that was not used while writing it.
REFERENCE_SEEDS = (20140622, 7)


def program_seed(seed):
    """The program seed a benchmark ``--seed`` selects.

    A seed with a stored reference is used as is; any other seed maps
    deterministically onto one of them, so every run stays checkable.
    """
    if seed in REFERENCE_SEEDS:
        return seed
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def canonical_bytes(kind, result):
    """The program's canonical, timing-free matrix of one sweep."""
    from repro.core.canon import canonical_json, canonical_matrix

    return canonical_json(canonical_matrix(kind, result)).encode("utf-8")


def _quick_base(transport="memory"):
    from repro.core.campaign import CampaignConfig
    from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS,
        transport=transport,
    )


def _compare_cells(expected, measured):
    """``(checked, differing)`` over the union of both cell maps."""
    keys = set(expected) | set(measured)
    differing = sum(expected.get(key) != measured.get(key) for key in keys)
    return len(keys), differing


class PaperSweep:
    """Serial, in-memory ``Campaign(CampaignConfig()).run()`` at full quotas.

    The paper's experiment: 22,024 services, 7,239 published WSDLs and
    79,629 client tests; the unit is one client test.  The input is
    fixed by the paper's quotas, so the seed selects nothing.
    """

    name = "paper-sweep"
    kind = "run"
    unit = "repro.core.pipeline.run_client_test"

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        from repro.core.campaign import Campaign, CampaignConfig

        campaign = Campaign(CampaignConfig())
        campaign.catalog("java")
        campaign.catalog("dotnet")
        return campaign

    def sweep(self, campaign):
        return campaign.run(), None

    def units(self, result):
        return len(result.records)

    def check(self, result):
        path = REFERENCE_DIR / "paper-sweep.json"
        reference = json.loads(path.read_text())
        cells = {
            f"{server}|{client}": list(result.cell(server, client).as_row())
            for server, client in result.cells
        }
        checked, differing = _compare_cells(reference["table3"], cells)
        measured = paper_headlines(result)
        for key, value in reference["headlines"].items():
            checked += 1
            differing += measured.get(key) != value
        return checked, differing


def paper_headlines(result):
    """The exact-valued headline counters of one paper sweep."""
    from repro.core.analysis import headline_numbers

    headlines = headline_numbers(result)
    servers = result.servers
    return {
        **{key: headlines[key] for key in (
            "services_created", "services_deployed", "services_refused",
            "tests", "sdg_warnings", "comp_warning_tests", "comp_error_tests",
            "same_framework_error_tests", "wsi_error_free_services",
        )},
        "java_classes": servers["metro"].services_total,
        "dotnet_classes": servers["wcf"].services_total,
        "deployed_metro": servers["metro"].deployed,
        "deployed_jbossws": servers["jbossws"].deployed,
        "deployed_wcf": servers["wcf"].deployed,
        "axis1_throwable_comp_errors": (
            result.cell("metro", "axis1").comp_error_tests
            + result.cell("jbossws", "axis1").comp_error_tests
        ),
    }


class _RecordedWorkload:
    """A workload checked against a stored canonical matrix."""

    def __init__(self, seed):
        self.seed = program_seed(seed)

    def check(self, result):
        from repro.core.canon import canonical_matrix

        path = REFERENCE_DIR / f"{self.name}-{self.seed}.json"
        reference = json.loads(path.read_text())
        checked, differing = _compare_cells(
            reference["cells"], canonical_matrix(self.kind, result)
        )
        return checked, differing + result.unclassified_total


class InvokeWire(_RecordedWorkload):
    """``InvocationCampaign`` at quick quotas over real loopback sockets.

    990 cells and 4,830 payload round trips with ``sample_per_server=30``
    and the default payload classes; the unit is one round trip.  The
    only workload where ``runtime.wire`` does work: a listener and
    accept thread per cell, a new TCP connection per request.
    """

    name = "invoke-wire"
    kind = "invoke"
    unit = "repro.runtime.client.GeneratedClientProxy.invoke"

    def config(self, transport="wire"):
        from repro.invoke import InvocationCampaignConfig

        return InvocationCampaignConfig(
            base=_quick_base(transport), seed=self.seed, sample_per_server=30,
        )

    def prepare(self):
        return self.config()

    def sweep(self, config):
        from repro.invoke import InvocationCampaign

        return InvocationCampaign(config).run(), None

    def units(self, result):
        return result.totals()["payloads"]

    def record(self):
        """The reference sweep: same inputs, in-memory transport."""
        from repro.invoke import InvocationCampaign

        return InvocationCampaign(self.config("memory")).run()


class FuzzPool(_RecordedWorkload):
    """``FuzzCampaign`` at quick quotas through ``execute_sharded``.

    ``sample_per_server=20``, all seven mutation kinds, two workers:
    9,240 mutant drives over three whole-server units, so one worker
    idles at the end.  The unit is one mutant x client drive.
    """

    name = "fuzz-pool"
    kind = "fuzz"
    unit = "repro.faults.campaign.FuzzCampaign._drive"
    workers = 2

    def prepare(self):
        from repro.faults import FuzzCampaignConfig

        return FuzzCampaignConfig(
            base=_quick_base(), seed=self.seed, sample_per_server=20,
        )

    def sweep(self, config):
        from repro.faults import FuzzCampaign
        from repro.runtime.pool import PoolConfig, execute_sharded

        return execute_sharded(
            FuzzCampaign(config).shard_job(), PoolConfig(workers=self.workers)
        )

    def units(self, result):
        return result.totals()["mutants"]

    def record(self):
        """The reference sweep: same inputs, serial."""
        from repro.faults import FuzzCampaign

        return FuzzCampaign(self.prepare()).run()


WORKLOADS = {cls.name: cls for cls in (PaperSweep, InvokeWire, FuzzPool)}
