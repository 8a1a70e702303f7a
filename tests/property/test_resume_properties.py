"""A checkpoint resumes to the same bytes under any worker count.

Serial and pooled sweeps share one shard store layout — one file per
unit, keyed independently of the worker count — so any subset of a
store written at one worker count must resume at another to exactly
the uninterrupted result.  A store in the retired per-server layout
must be refused with the remediation hint, never silently resumed.
"""

import json
import multiprocessing
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import Campaign, CampaignConfig
from repro.core.store import CampaignCheckpoint, CheckpointMismatch, result_to_obj
from repro.faults import (
    FuzzCampaign,
    FuzzCampaignConfig,
    MutationKind,
    fuzz_result_to_obj,
)
from repro.runtime.pool import PoolConfig, execute
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pooled resumes rely on the fork start method",
)


def _base():
    return CampaignConfig(
        server_ids=("jbossws", "wcf"),
        client_ids=("suds", "metro", "gsoap"),
        java_quotas=QUICK_JAVA_QUOTAS,
        dotnet_quotas=QUICK_DOTNET_QUOTAS,
    )


def _fuzz_config():
    return FuzzCampaignConfig(
        base=_base(), seed=7, mutation_kinds=(MutationKind.TRUNCATION,),
        intensities=(0.8,), sample_per_server=2,
    )


#: kind -> (campaign factory, result encoder)
_KINDS = {
    "run": (lambda: Campaign(_base()), result_to_obj),
    "fuzz": (lambda: FuzzCampaign(_fuzz_config()), fuzz_result_to_obj),
}


def _bytes(kind, result):
    return json.dumps(_KINDS[kind][1](result), sort_keys=True).encode()


class _Stores:
    """Complete checkpoints per (kind, workers), and serial references."""

    def __init__(self, root):
        self.root = root
        self._full = {}
        self._reference = {}

    def full(self, kind, workers):
        key = (kind, workers)
        if key not in self._full:
            directory = self.root / f"{kind}-{workers}"
            execute(
                _KINDS[kind][0](), PoolConfig(workers=workers),
                checkpoint=CampaignCheckpoint(directory),
            )
            self._full[key] = directory
        return self._full[key]

    def reference(self, kind):
        if kind not in self._reference:
            self._reference[kind] = _bytes(kind, _KINDS[kind][0]().run())
        return self._reference[kind]


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    return _Stores(tmp_path_factory.mktemp("stores"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("resumes")


@given(
    kind=st.sampled_from(sorted(_KINDS)),
    writer=st.sampled_from((1, 2)),
    data=st.data(),
)
@settings(max_examples=8, deadline=None)
def test_half_deleted_store_resumes_under_the_other_worker_count(
    stores, scratch, kind, writer, data
):
    keys = [unit.key for unit in _KINDS[kind][0]().shard_job().units()]
    half = len(keys) // 2
    deleted = data.draw(
        st.sets(st.sampled_from(keys), min_size=half, max_size=half)
    )
    directory = scratch / "store"
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(stores.full(kind, writer), directory)
    for key in deleted:
        os.unlink(directory / f"{key}.json")

    result, stats = execute(
        _KINDS[kind][0](), PoolConfig(workers=3 - writer),
        checkpoint=CampaignCheckpoint(directory),
    )
    assert stats.units_restored == len(keys) - half
    assert stats.units_completed == len(keys)
    assert _bytes(kind, result) == stores.reference(kind)


class TestOldSerialLayout:
    """The retired serial layout: a manifest holding the bare config
    fingerprint plus one ``<slice>-<server>`` file per finished server."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_store_is_refused_with_the_hint(self, tmp_path, workers):
        config = _base()
        checkpoint = CampaignCheckpoint(tmp_path)
        checkpoint.save("manifest", config.fingerprint())
        checkpoint.save("server-jbossws", {"format": 1})
        with pytest.raises(CheckpointMismatch) as excinfo:
            execute(
                Campaign(config), PoolConfig(workers=workers),
                checkpoint=checkpoint,
            )
        assert "--checkpoint-dir" in excinfo.value.hint
        assert checkpoint.keys() == ["manifest", "server-jbossws"]

    def test_fuzz_store_is_refused_with_the_hint(self, tmp_path):
        config = _fuzz_config()
        checkpoint = CampaignCheckpoint(tmp_path)
        checkpoint.save("manifest", config.fingerprint())
        checkpoint.save("fuzz-jbossws", {"services": 0, "cells": {}})
        checkpoint.save("quarantine", {"format": 1, "entries": []})
        with pytest.raises(CheckpointMismatch) as excinfo:
            FuzzCampaign(config).run(checkpoint=checkpoint)
        assert "--checkpoint-dir" in excinfo.value.hint
        assert checkpoint.keys() == ["fuzz-jbossws", "manifest", "quarantine"]

    def test_cli_prints_the_hint_and_exits_two(self, tmp_path, capsys):
        checkpoint = CampaignCheckpoint(tmp_path)
        quick = CampaignConfig(
            java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
        )
        checkpoint.save("manifest", quick.fingerprint())
        checkpoint.save("server-metro", {"format": 1})
        assert main(
            ["run", "--quick", "--checkpoint-dir", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert "different campaign" in err
        assert "hint: point --checkpoint-dir at an empty directory" in err
        assert checkpoint.keys() == ["manifest", "server-metro"]
