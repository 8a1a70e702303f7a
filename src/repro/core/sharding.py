"""Deterministic sharding of campaign sweeps into isolated work units.

The four sweeps — the plain assessment campaign, the resilience sweep,
the corruption fuzz and the invocation sweep — run through one
execution path (:func:`repro.runtime.pool.execute`): a sweep is an
ordered list of :class:`ShardUnit` work units, and its result is every
unit's slice folded in **canonical shard order**.  Serial execution
runs those units in-process; ``--workers N`` hands the same units to
the supervised pool.  Either way the same fold builds the result, so
serial ≡ parallel holds by construction:

* **Planning.**  One unit is one ``(server, service-chunk)`` pair.  The
  split depends only on the campaign configuration and the chunk count
  — never on how many workers execute it — so the same configuration
  always yields the same units with the same keys, and a checkpoint
  written by a serial run resumes exactly under 8 workers.

* **Folding.**  Each campaign kind is a :class:`ShardedCampaign`: it
  executes a unit into an in-memory *slice*, folds a slice into its
  result, and encodes slices as JSON only where they cross the
  checkpoint store or a process boundary.

The supervised process pool that schedules units is
:mod:`repro.runtime.pool`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

#: Campaign kinds a :class:`ShardJob` can describe.
CAMPAIGN_RUN = "run"
CAMPAIGN_RESILIENCE = "resilience"
CAMPAIGN_FUZZ = "fuzz"
CAMPAIGN_INVOKE = "invoke"

#: The campaign class of each kind, imported on first use.
_CAMPAIGN_CLASSES = {
    CAMPAIGN_RUN: ("repro.core.campaign", "Campaign"),
    CAMPAIGN_RESILIENCE: ("repro.faults.campaign", "ResilienceCampaign"),
    CAMPAIGN_FUZZ: ("repro.faults.campaign", "FuzzCampaign"),
    CAMPAIGN_INVOKE: ("repro.invoke.campaign", "InvocationCampaign"),
}

#: Default service-chunk count per server for the plain campaign.  Part
#: of the checkpoint fingerprint: changing it re-shards the sweep.
DEFAULT_CHUNKS_PER_SERVER = 4

#: Test-only hook: when set to a callable, every worker invokes it with
#: the :class:`ShardUnit` about to execute.  Worker processes inherit
#: the hook through ``fork``, which lets tests simulate hard crashes
#: (``os._exit``), hangs and resource blowups inside an isolated child
#: without patching production code paths.
unit_fault_hook = None


@dataclass(frozen=True)
class ShardUnit:
    """One schedulable work unit: a chunk of one server's sweep."""

    campaign: str
    server_id: str
    chunk_index: int
    chunk_count: int

    @property
    def key(self):
        """Stable checkpoint key; independent of the worker count."""
        return (
            f"{self.campaign}-{self.server_id}-"
            f"{self.chunk_index:03d}of{self.chunk_count:03d}"
        )


def chunk_bounds(total, chunk_count):
    """Split ``range(total)`` into ``chunk_count`` balanced ``[start, stop)``.

    The first ``total % chunk_count`` chunks carry one extra item, so
    the bounds are a pure function of ``(total, chunk_count)`` and the
    concatenation of all chunks is exactly the original range.
    """
    if chunk_count < 1:
        raise ValueError(f"chunk_count must be >= 1, got {chunk_count}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    base, extra = divmod(total, chunk_count)
    bounds = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def build_campaign(kind, config):
    """Instantiate the campaign class of ``kind`` for ``config``."""
    module, name = _CAMPAIGN_CLASSES[kind]
    return getattr(importlib.import_module(module), name)(config)


@dataclass(frozen=True)
class ShardJob:
    """A campaign configuration plus its worker-count-independent split.

    The picklable description a pool worker rebuilds its campaign from
    (``build``), and what :func:`repro.runtime.pool.execute` plans
    (``units``), guards checkpoints with (``fingerprint``) and
    reassembles stored payloads through (``merge``).
    """

    campaign: str
    config: object
    chunks_per_server: int = 1

    def __post_init__(self):
        if self.campaign not in _CAMPAIGN_CLASSES:
            raise ValueError(f"unknown campaign kind {self.campaign!r}")
        if self.chunks_per_server < 1:
            raise ValueError(
                f"chunks_per_server must be >= 1, got {self.chunks_per_server}"
            )

    def units(self):
        """The canonical, worker-count-independent unit list."""
        # The run kind's config *is* the base; the others wrap one.
        base = getattr(self.config, "base", self.config)
        return [
            ShardUnit(self.campaign, server_id, index, self.chunks_per_server)
            for server_id in base.server_ids
            for index in range(self.chunks_per_server)
        ]

    def build(self):
        """Instantiate the executable campaign for this job."""
        return build_campaign(self.campaign, self.config)

    def fingerprint(self):
        """Checkpoint guard value: configuration + shard shape.

        Deliberately excludes the worker count and the watchdog budget:
        a sweep checkpointed under ``--workers 2`` must resume exactly
        under any other worker count.
        """
        return {
            "campaign": self.campaign,
            "shards": {"chunks_per_server": self.chunks_per_server},
            "config": self.build().fingerprint(),
        }

    def merge(self, payloads, poisoned=(), folded=None):
        """Fold stored unit payloads back into a campaign result.

        ``payloads`` maps unit keys to JSON payloads (any mapping; the
        pool passes a lazy view of its shard store).  Units missing from
        it (crashed and poisoned, or never executed) are skipped, and
        ``poisoned`` keys are excluded even when a late payload exists,
        so the result matches the supervision stats.  The walk follows
        the canonical unit order, which is what makes the result
        identical for any completion order.  ``folded``, when given, is
        extended with the units whose payloads entered the result.
        """
        campaign = self.build()
        poisoned = set(poisoned)
        slices = (
            (unit, campaign.slice_from_obj(unit, payloads[unit.key]))
            for unit in self.units()
            if unit.key in payloads and unit.key not in poisoned
        )
        return fold_slices(campaign, slices, folded)


def fold_slices(campaign, slices, folded=None):
    """Fold ``(unit, slice)`` pairs in order into a fresh result.

    Stops at the first slice the campaign refuses to continue past
    (fail-fast), without drawing further pairs — so when ``slices``
    executes units lazily, later units never run.
    """
    result = campaign.new_result()
    for unit, unit_slice in slices:
        if folded is not None:
            folded.append(unit)
        if not campaign.fold(result, unit, unit_slice):
            break
    return result


def run_unit(job, campaign, unit):
    """Execute one unit on a built campaign (the pool worker's inner loop)."""
    if unit_fault_hook is not None:
        unit_fault_hook(unit)
    return campaign.run_unit(unit)


class ShardedCampaign:
    """The per-kind protocol every campaign sweep implements.

    * ``kind`` and ``shard_job()``: the kind and its unit split;
    * ``fingerprint()``: the configuration part of the checkpoint guard;
    * ``new_result()``: an empty result;
    * ``run_unit(unit)``: execute one unit into an in-memory slice;
    * ``fold(result, unit, slice)``: add a slice to the result; returns
      False when the sweep must stop there (fail-fast);
    * ``slice_to_obj(slice)`` / ``slice_from_obj(unit, obj)``: the JSON
      codec, used only where a slice crosses the checkpoint store or a
      process boundary.
    """

    kind = None

    def run(self, progress=None, checkpoint=None):
        """Execute the sweep in-process; returns the campaign result.

        ``progress`` is an optional ``(message: str) -> None``.
        ``checkpoint`` is an optional
        :class:`repro.core.store.CampaignCheckpoint` used as the shard
        store: each finished unit is persisted atomically, and a re-run
        — under any worker count — skips finished units, reproducing
        the exact result an uninterrupted run would have produced.
        """
        from repro.runtime.pool import execute

        result, _ = execute(self, checkpoint=checkpoint, progress=progress)
        return result


def cells_to_obj(cells):
    """A ``{(key, ...): stats}`` cell map as JSON (``"a|b|..."`` keys)."""
    return {"|".join(key): cell.to_obj() for key, cell in cells.items()}


def cells_from_obj(obj, cell_type):
    """Inverse of :func:`cells_to_obj` for cells of ``cell_type``."""
    return {
        tuple(key.split("|")): cell_type.from_obj(cell)
        for key, cell in obj.items()
    }
