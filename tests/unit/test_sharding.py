"""Shard planning and canonical-order merging."""

import json

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.sharding import (
    CAMPAIGN_FUZZ,
    CAMPAIGN_RESILIENCE,
    CAMPAIGN_RUN,
    ShardJob,
    ShardUnit,
    chunk_bounds,
)
from repro.core.store import result_to_obj
from repro.faults import (
    FaultKind,
    FuzzCampaign,
    FuzzCampaignConfig,
    MutationKind,
    ResilienceCampaign,
    ResilienceCampaignConfig,
    fuzz_result_to_obj,
    resilience_result_to_obj,
)
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS


def _base_config(**kwargs):
    return CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS,
        dotnet_quotas=QUICK_DOTNET_QUOTAS,
        **kwargs,
    )


def _tiny_config():
    return _base_config(
        server_ids=("jbossws", "wcf"),
        client_ids=("suds", "metro", "gsoap"),
    )


class TestChunkBounds:
    def test_concatenation_covers_range(self):
        for total in range(0, 25):
            for count in range(1, 8):
                bounds = chunk_bounds(total, count)
                assert len(bounds) == count
                items = [i for start, stop in bounds for i in range(start, stop)]
                assert items == list(range(total))

    def test_balanced_split(self):
        assert chunk_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        sizes = [stop - start for start, stop in chunk_bounds(10, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        bounds = chunk_bounds(2, 5)
        assert [stop - start for start, stop in bounds] == [1, 1, 0, 0, 0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chunk_bounds(3, 0)
        with pytest.raises(ValueError):
            chunk_bounds(-1, 2)


class TestShardPlanning:
    def test_unit_keys_are_worker_count_independent(self):
        unit = ShardUnit(CAMPAIGN_RUN, "metro", 2, 4)
        assert unit.key == "run-metro-002of004"

    def test_units_follow_canonical_server_order(self):
        job = ShardJob(CAMPAIGN_RUN, _tiny_config(), chunks_per_server=3)
        keys = [unit.key for unit in job.units()]
        assert keys == [
            "run-jbossws-000of003",
            "run-jbossws-001of003",
            "run-jbossws-002of003",
            "run-wcf-000of003",
            "run-wcf-001of003",
            "run-wcf-002of003",
        ]

    def test_rejects_unknown_campaign_and_bad_chunks(self):
        with pytest.raises(ValueError):
            ShardJob("nonsense", _tiny_config())
        with pytest.raises(ValueError):
            ShardJob(CAMPAIGN_RUN, _tiny_config(), chunks_per_server=0)

    def test_fingerprint_includes_shard_shape_not_workers(self):
        config = _tiny_config()
        two = ShardJob(CAMPAIGN_RUN, config, chunks_per_server=2)
        four = ShardJob(CAMPAIGN_RUN, config, chunks_per_server=4)
        assert two.fingerprint() != four.fingerprint()
        assert two.fingerprint() == ShardJob(
            CAMPAIGN_RUN, config, chunks_per_server=2
        ).fingerprint()
        assert two.fingerprint()["campaign"] == "run"
        # The fingerprint is checkpoint-manifest material.
        json.dumps(two.fingerprint(), sort_keys=True)


class TestRunMerge:
    def test_merge_is_byte_identical_to_serial_any_order(self):
        config = _tiny_config()
        serial = json.dumps(
            result_to_obj(Campaign(config).run()), sort_keys=True
        )
        job = Campaign(config).shard_job(chunks_per_server=3)
        campaign = job.build()
        payloads = {
            unit.key: campaign.slice_to_obj(campaign.run_unit(unit))
            for unit in job.units()
        }
        # Completion order must not matter: merge from a reversed dict.
        shuffled = dict(reversed(list(payloads.items())))
        merged = json.dumps(result_to_obj(job.merge(shuffled)), sort_keys=True)
        assert merged == serial

    def test_merge_excludes_poisoned_units_even_with_payload(self):
        config = _tiny_config()
        job = Campaign(config).shard_job(chunks_per_server=2)
        campaign = job.build()
        payloads = {
            unit.key: campaign.slice_to_obj(campaign.run_unit(unit))
            for unit in job.units()
        }
        poisoned = "run-jbossws-001of002"
        expected = job.merge(
            {key: value for key, value in payloads.items() if key != poisoned}
        )
        actual = job.merge(payloads, poisoned={poisoned})
        assert json.dumps(result_to_obj(actual), sort_keys=True) == json.dumps(
            result_to_obj(expected), sort_keys=True
        )
        assert actual.totals()["tests"] < job.merge(payloads).totals()["tests"]


class TestResilienceAndFuzzMerge:
    def test_resilience_shard_merge_matches_serial(self):
        rconfig = ResilienceCampaignConfig(
            base=_tiny_config(),
            seed=99,
            fault_kinds=(FaultKind.HTTP_503,),
            rates=(0.4,),
            sample_per_server=2,
        )
        serial = resilience_result_to_obj(ResilienceCampaign(rconfig).run())
        job = ResilienceCampaign(rconfig).shard_job()
        campaign = job.build()
        payloads = {
            unit.key: campaign.slice_to_obj(campaign.run_unit(unit))
            for unit in job.units()
        }
        merged = resilience_result_to_obj(job.merge(payloads))
        assert merged == serial

    def test_fuzz_shard_merge_matches_serial(self):
        fconfig = FuzzCampaignConfig(
            base=_tiny_config(),
            seed=7,
            mutation_kinds=(MutationKind.TRUNCATION,),
            intensities=(0.8,),
            sample_per_server=2,
        )
        serial = fuzz_result_to_obj(FuzzCampaign(fconfig).run())
        job = FuzzCampaign(fconfig).shard_job()
        campaign = job.build()
        payloads = {
            unit.key: campaign.slice_to_obj(campaign.run_unit(unit))
            for unit in job.units()
        }
        merged = fuzz_result_to_obj(job.merge(payloads))
        assert merged == serial

    def test_job_kinds_build_matching_campaigns(self):
        rconfig = ResilienceCampaignConfig(base=_tiny_config())
        fconfig = FuzzCampaignConfig(base=_tiny_config())
        assert isinstance(
            ShardJob(CAMPAIGN_RESILIENCE, rconfig).build(), ResilienceCampaign
        )
        assert isinstance(ShardJob(CAMPAIGN_FUZZ, fconfig).build(), FuzzCampaign)
