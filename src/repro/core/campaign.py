"""The two-phase assessment campaign (Fig. 2).

Preparation Phase: select server and client frameworks, build the type
catalogs (optionally by crawling the simulated documentation sites) and
generate the service corpus.

Testing Phase: deploy every service (Service Description Generation),
check each published WSDL against WS-I BP 1.1, then run every client
subsystem over every WSDL (Client Artifact Generation + Compilation),
classifying each step.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from repro.appservers import container_for
from repro.core.pipeline import run_client_test
from repro.core.results import CampaignResult, ServerRunReport
from repro.core.sharding import (
    CAMPAIGN_RUN,
    DEFAULT_CHUNKS_PER_SERVER,
    ShardedCampaign,
    ShardJob,
    chunk_bounds,
)
from repro.core.store import server_slice_from_obj, server_slice_to_obj
from repro.frameworks.registry import CLIENT_IDS, SERVER_IDS, all_client_frameworks
from repro.obs.trace import current_tracer
from repro.services import generate_corpus
from repro.typesystem import (
    DEFAULT_DOTNET_QUOTAS,
    DEFAULT_JAVA_QUOTAS,
    build_dotnet_catalog,
    build_java_catalog,
)
from repro.wsdl import read_wsdl_text
from repro.wsi import check_document

#: Which language catalog each server framework consumes.
_SERVER_CATALOG = {"metro": "java", "jbossws": "java", "wcf": "dotnet"}


@dataclass
class CampaignConfig:
    """Parameters of one campaign run."""

    server_ids: tuple = SERVER_IDS
    client_ids: tuple = CLIENT_IDS
    java_quotas: object = DEFAULT_JAVA_QUOTAS
    dotnet_quotas: object = DEFAULT_DOTNET_QUOTAS
    #: Re-parse the serialized WSDL text for every client test instead of
    #: sharing one parsed document per service.  Slower but closest to
    #: what real tools do; results are identical because parsing is
    #: deterministic.
    parse_per_client: bool = False
    #: What-if overrides: ``{client_id: {flag: value}}`` applied to the
    #: instantiated client frameworks.  Used by the fix-impact ablation
    #: to simulate a tool with one of its documented bugs repaired
    #: (e.g. ``{"axis1": {"throwable_wrapper_bug": False}}``).
    client_flag_overrides: dict = field(default_factory=dict)
    #: Which transport carries step-4/5 exchanges: ``"memory"`` (the
    #: in-memory dict router) or ``"wire"`` (real loopback sockets via
    #: :class:`repro.runtime.wire.WireTransport`).  Deliberately absent
    #: from every fingerprint — the transports are byte-identical by
    #: contract, so a wire sweep gates against a memory-accepted
    #: baseline and any divergence is a reportable drift, not a
    #: fingerprint mismatch.
    transport: str = "memory"

    def fingerprint(self):
        """Stable identity used to guard checkpoints and baselines."""
        return {
            "servers": list(self.server_ids),
            "clients": list(self.client_ids),
            "parse_per_client": self.parse_per_client,
            "overrides": {
                client_id: dict(flags)
                for client_id, flags in sorted(
                    self.client_flag_overrides.items()
                )
            },
        }


def selected_clients(config):
    """``{client_id: framework}`` for the clients ``config`` selects."""
    return {
        client_id: client
        for client_id, client in all_client_frameworks().items()
        if client_id in config.client_ids
    }


class Campaign(ShardedCampaign):
    """Runs the assessment approach end to end.

    One shard unit is a contiguous chunk of one server's deployed
    services; a whole server is ``DEFAULT_CHUNKS_PER_SERVER`` units.
    """

    kind = CAMPAIGN_RUN

    def __init__(self, config=None):
        self.config = config or CampaignConfig()
        self._catalogs = {}
        #: ``(server_id, services_total, container)`` of the server
        #: whose units are executing.  Units of one server share the
        #: deployment; the next server replaces it, so at most one
        #: deployed corpus is alive.
        self._deployment = None

    # -- Preparation Phase ---------------------------------------------------

    def catalog(self, language):
        """Build (and cache) the catalog for ``language``."""
        if language not in self._catalogs:
            if language == "java":
                self._catalogs[language] = build_java_catalog(self.config.java_quotas)
            elif language == "dotnet":
                self._catalogs[language] = build_dotnet_catalog(
                    self.config.dotnet_quotas
                )
            else:
                raise ValueError(f"unknown catalog language {language!r}")
        return self._catalogs[language]

    def corpus_for(self, server_id):
        """The service corpus deployed on ``server_id``."""
        return generate_corpus(self.catalog(_SERVER_CATALOG[server_id]))

    # -- Testing Phase ---------------------------------------------------------

    def shard_job(self, chunks_per_server=None):
        """This campaign as a :class:`~repro.core.sharding.ShardJob`."""
        return ShardJob(
            CAMPAIGN_RUN, self.config,
            chunks_per_server or DEFAULT_CHUNKS_PER_SERVER,
        )

    def fingerprint(self):
        return self.config.fingerprint()

    def new_result(self):
        result = CampaignResult(
            server_ids=tuple(self.config.server_ids),
            client_ids=tuple(self.config.client_ids),
        )
        result.meta["wall_seconds"] = {}
        return result

    @contextlib.contextmanager
    def _prepared_clients(self):
        """The selected client frameworks with what-if overrides applied.

        Overrides are remembered and restored on exit: the instances
        come from a registry and must not leak mutated flags into
        back-to-back ablation runs.
        """
        clients = selected_clients(self.config)
        original_flags = []
        for client_id, overrides in self.config.client_flag_overrides.items():
            client = clients.get(client_id)
            if client is None:
                continue
            for flag, value in overrides.items():
                if not hasattr(client, flag):
                    raise AttributeError(
                        f"client {client_id!r} has no behaviour flag {flag!r}"
                    )
                original_flags.append((client, flag, getattr(client, flag)))
                setattr(client, flag, value)
        try:
            yield clients
        finally:
            for client, flag, value in reversed(original_flags):
                setattr(client, flag, value)

    def run_unit(self, unit):
        """Execute one (server, service-chunk) unit.

        Returns the slice ``(report, records, wall_seconds)``.  The
        chunk bounds come from the deployed-record count via
        :func:`~repro.core.sharding.chunk_bounds`, so concatenating all
        chunks in canonical order reproduces the whole server's record
        stream for any worker count.
        """
        config = self.config
        tracer = current_tracer()
        started = time.perf_counter()
        # The unit executes a *slice* of the server, so its children
        # position under the server rollup span without emitting it —
        # the trace collector owns that event.  The deploy span is
        # emitted by the chunk-0 unit only, so its place in the
        # canonical order never depends on which worker deployed first.
        with tracer.virtual_span("server", server=unit.server_id):
            if unit.chunk_index == 0:
                with tracer.span("deploy") as deploy_span:
                    deploy_span.annotate(cached=self._deploy(unit.server_id))
            else:
                self._deploy(unit.server_id)
            _, services_total, container = self._deployment
            deployed = container.deployed
            start, stop = chunk_bounds(len(deployed), unit.chunk_count)[
                unit.chunk_index
            ]

            # Server-level counters are repeated in every chunk; the WS-I
            # sets carry only this chunk's share and are unioned by fold.
            report = ServerRunReport(
                server_id=unit.server_id,
                server_name=container.framework.name,
                services_total=services_total,
                deployed=len(deployed),
                refused=len(container.refused),
            )
            records = []
            with self._prepared_clients() as clients:
                for record in deployed[start:stop]:
                    with tracer.span("service", service=record.service.name):
                        with tracer.span("wsdl-read"):
                            document = read_wsdl_text(record.wsdl_text)
                        with tracer.span("wsi-check") as wsi_span:
                            wsi = check_document(document)
                            wsi_span.annotate(
                                failures=len(wsi.failures),
                                advisories=len(wsi.advisories),
                            )
                        if wsi.failures:
                            report.wsi_failing.add(document.name)
                        elif wsi.advisories:
                            report.wsi_advisory_only.add(document.name)
                        for client_id, client in clients.items():
                            if config.parse_per_client:
                                document_for_client = read_wsdl_text(
                                    record.wsdl_text
                                )
                            else:
                                document_for_client = document
                            with tracer.span("test", client=client_id):
                                records.append(
                                    run_client_test(
                                        unit.server_id, client_id, client,
                                        document_for_client,
                                    )
                                )
        return report, records, round(time.perf_counter() - started, 3)

    def _deploy(self, server_id):
        """Make ``server_id`` the deployed server; True if it already was."""
        if self._deployment is not None and self._deployment[0] == server_id:
            return True
        # Release the previous server's corpus before deploying.
        self._deployment = None
        corpus = self.corpus_for(server_id)
        container = container_for(server_id)
        container.deploy_corpus(corpus)
        self._deployment = (server_id, len(corpus), container)
        return False

    def fold(self, result, unit, unit_slice):
        report, records, wall = unit_slice
        existing = result.servers.get(unit.server_id)
        if existing is None:
            result.servers[unit.server_id] = report
        else:
            # Chunks repeat the server-level counters and carry only
            # their slice of the WS-I sets; union the sets, keep the
            # counters from the first chunk.
            existing.wsi_failing |= report.wsi_failing
            existing.wsi_advisory_only |= report.wsi_advisory_only
        for record in records:
            result.add_record(record)
        walls = result.meta["wall_seconds"]
        walls[unit.server_id] = round(walls.get(unit.server_id, 0.0) + wall, 3)
        return True

    def slice_to_obj(self, unit_slice):
        report, records, wall = unit_slice
        return server_slice_to_obj(report, records, wall_seconds=wall)

    def slice_from_obj(self, unit, obj):
        return server_slice_from_obj(unit.server_id, obj)


def run_default_campaign(progress=None):
    """Run the full paper-scale campaign (79,629 tests)."""
    return Campaign(CampaignConfig()).run(progress=progress)
