"""Lake fsck: a healthy table is clean; each planted corruption is found
with the right check + severity; repair removes exactly the removable."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray.pipelines.apply import (
    ApplyConfig,
    apply_once,
    compact_table,
    create_table,
)
from clickhouse_data_pipeline_ray.sources.gen import GenParams, generate_wal
from clickhouse_data_pipeline_ray.state.fsck import fsck_table

from .helpers import head_manifest_path


@pytest.fixture()
def table(ray_session, tmp_path):
    wal = str(tmp_path / "wal")
    generate_wal(
        wal,
        GenParams(
            total_events=1_500, base_events=800, events_per_segment=750,
            seed=83, mix=(0.3, 0.55, 0.15),
        ),
    )
    t = str(tmp_path / "t")
    create_table(t, num_partitions=4)
    assert apply_once(t, wal, ApplyConfig(salt_factor=1)) is not None
    compact_table(t)  # clean single-snapshot chains → footer checks apply
    return t


def _checks(report):
    return {(f["check"], f["severity"]) for f in report["findings"]}


def test_healthy_table_is_clean(ray_session, table):
    report = fsck_table(table)
    assert report["ok"] and not report["findings"]
    assert report["checked_files"] > 0


def test_orphan_and_tmp_found_and_repaired(ray_session, table):
    orphan = os.path.join(table, "parts", "pid=00000", "snapshot-dead.parquet")
    pq.write_table(pa.table({"x": [1]}), orphan)
    tmp = os.path.join(table, "parts", "pid=00001", "delta-x.parquet.tmp123")
    with open(tmp, "w") as f:
        f.write("junk")
    report = fsck_table(table)
    assert ("orphan_file", "warn") in _checks(report)
    assert ("tmp_leftover", "warn") in _checks(report)
    assert report["ok"]  # warnings don't fail the check
    fixed = fsck_table(table, repair=True)
    assert fixed["repaired"] == 2
    assert not os.path.exists(orphan) and not os.path.exists(tmp)
    assert not fsck_table(table)["findings"]


def test_missing_file_is_error(ray_session, table):
    man = json.load(open(head_manifest_path(table)))
    victim = None
    for p in man["partitions"].values():
        if p["files"]:
            victim = p["files"][0]
            break
    os.remove(os.path.join(table, victim))
    report = fsck_table(table)
    assert not report["ok"]
    assert ("missing_file", "error") in _checks(report)


def test_row_mismatch_is_error(ray_session, table):
    path = head_manifest_path(table)
    man = json.load(open(path))
    for p in man["partitions"].values():
        if p.get("exact_rows") and p["files"]:
            p["rows"] = int(p["rows"]) + 7
            break
    json.dump(man, open(path, "w"))
    report = fsck_table(table)
    assert not report["ok"]
    assert ("row_mismatch", "error") in _checks(report)


def test_bad_history_is_error(ray_session, table):
    path = head_manifest_path(table)
    man = json.load(open(path))
    man["history"].append({"epoch": man["epoch"] + 5})
    json.dump(man, open(path, "w"))
    report = fsck_table(table)
    assert not report["ok"]
    assert ("bad_history", "error") in _checks(report)
