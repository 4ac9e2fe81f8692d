"""Tests for the durable batch checkpoint ledger.

The crash-consistency contract: fsync'd appends survive a supervisor
``kill -9``, a torn final line is tolerated (and reported), corruption
anywhere earlier is a refusal (:class:`LedgerError`), and compaction is
atomic.  Task fingerprints are deterministic and blind to non-semantic
keys.
"""

import errno
import json
import os

import pytest

from repro.runtime.checkpoint import (
    LEDGER_VERSION,
    STATUS_FAILED,
    STATUS_OK,
    BatchLedger,
    task_fingerprint,
)
from repro.runtime.errors import LedgerError
from repro.runtime.faults import inject


def task(**overrides):
    spec = {"kind": "solve", "query": "q_hto", "scale": 0.5, "seed": None}
    spec.update(overrides)
    return spec


def task_record(fingerprint, status=STATUS_OK, **extra):
    record = {
        "type": "task",
        "fingerprint": fingerprint,
        "task": task(),
        "status": status,
        "level": "full",
        "attempts": 1,
        "failures": [],
        "result": {"ok": True},
    }
    record.update(extra)
    return record


class TestFingerprint:
    def test_deterministic_and_key_order_independent(self):
        a = {"query": "q_hto", "scale": 0.5, "width": 2}
        b = {"width": 2, "scale": 0.5, "query": "q_hto"}
        assert task_fingerprint(a) == task_fingerprint(b)
        assert len(task_fingerprint(a)) == 16

    def test_semantic_fields_change_the_fingerprint(self):
        assert task_fingerprint(task(scale=0.5)) != task_fingerprint(task(scale=1.0))
        assert task_fingerprint(task(query="q_hto")) != task_fingerprint(
            task(query="q_lb")
        )

    def test_faults_and_label_are_non_semantic(self):
        plain = task_fingerprint(task())
        assert task_fingerprint(task(faults={"1": {"kind": "sigkill"}})) == plain
        assert task_fingerprint(task(label="anything")) == plain

    def test_batch_spec_fingerprint_is_pinned(self):
        """Ledgers written by earlier releases still resume.

        The literal is the fingerprint an older task-spec layout (which
        carried an extra non-semantic field) produced for this spec; a
        change here strands every existing ledger's completed results.
        """
        from repro.experiments.harness import batch_task_specs

        spec = batch_task_specs(queries=["q_ds"], scale=0.25)[0]
        assert task_fingerprint(spec) == "9923f61457423ff9"


class TestAppendAndRead:
    def test_append_writes_header_then_records(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with BatchLedger(path) as ledger:
            ledger.append(task_record("f1"))
            ledger.append(task_record("f2"))
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0] == {"type": "header", "version": LEDGER_VERSION}
        assert [line["fingerprint"] for line in lines[1:]] == ["f1", "f2"]

    def test_records_round_trip(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(task_record("f1"))
        ledger.append({"type": "quarantine", "fingerprint": "f1", "reason": "bad"})
        ledger.close()
        records, torn = ledger.records()
        assert not torn
        assert [r["type"] for r in records] == ["task", "quarantine"]

    def test_missing_ledger_reads_empty(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "none.jsonl"))
        assert not ledger.exists()
        assert ledger.records() == ([], False)
        assert ledger.completed() == {}

    def test_torn_final_line_is_tolerated_and_reported(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with BatchLedger(path) as ledger:
            ledger.append(task_record("f1"))
            ledger.append(task_record("f2"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "task", "fingerpr')  # torn mid-append
        ledger = BatchLedger(path)
        records, torn = ledger.records()
        assert torn
        assert [r["fingerprint"] for r in records] == ["f1", "f2"]
        assert set(ledger.completed()) == {"f1", "f2"}

    def test_corruption_before_the_tail_is_refused(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with BatchLedger(path) as ledger:
            ledger.append(task_record("f1"))
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(1, "GARBAGE\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(LedgerError):
            BatchLedger(path).records()

    def test_non_dict_line_in_the_middle_is_refused(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with BatchLedger(path) as ledger:
            ledger.append(task_record("f1"))
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(1, "[1, 2, 3]\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(LedgerError):
            BatchLedger(path).records()

    def test_version_mismatch_is_refused(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", "version": 999}) + "\n")
            handle.write(json.dumps(task_record("f1")) + "\n")
        with pytest.raises(LedgerError):
            BatchLedger(path).records()

    def test_foreign_file_without_header_is_refused(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"hello": "world"}) + "\n")
        with pytest.raises(LedgerError):
            BatchLedger(path).records()

    def test_append_fault_site_fires(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        with inject() as plan:
            plan.fail("ledger.append", exc=OSError(errno.ENOSPC, "full"))
            with pytest.raises(OSError):
                ledger.append(task_record("f1"))
            assert plan.remaining() == {}
        ledger.close()


class TestResumeState:
    def test_latest_task_record_wins(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(task_record("f1", status=STATUS_FAILED))
        ledger.append(task_record("f1", status=STATUS_OK, attempts=3))
        ledger.close()
        latest = ledger.task_records()
        assert latest["f1"]["status"] == STATUS_OK
        assert latest["f1"]["attempts"] == 3

    def test_completed_excludes_failed_and_interrupted(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(task_record("ok"))
        ledger.append(task_record("bad", status=STATUS_FAILED))
        ledger.append(task_record("cut", status="interrupted"))
        ledger.close()
        assert set(ledger.completed()) == {"ok"}

    def test_quarantined_records_are_listed(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append({"type": "quarantine", "fingerprint": "f1", "reason": "x"})
        ledger.append(task_record("f1"))
        ledger.close()
        assert len(ledger.quarantined()) == 1


class TestCompaction:
    def test_compact_keeps_latest_per_task_and_quarantines(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = BatchLedger(path)
        ledger.append(task_record("f1", status=STATUS_FAILED))
        ledger.append({"type": "quarantine", "fingerprint": "f1", "reason": "x"})
        ledger.append(task_record("f2"))
        ledger.append(task_record("f1", status=STATUS_OK))
        ledger.append({"type": "batch", "event": "interrupted"})
        kept = ledger.compact()
        assert kept == 3  # f1 (latest), quarantine, f2; the batch event dropped
        records, torn = ledger.records()
        assert not torn
        by_type = [r["type"] for r in records]
        assert by_type.count("task") == 2 and by_type.count("quarantine") == 1
        assert BatchLedger(path).task_records()["f1"]["status"] == STATUS_OK

    def test_compact_preserves_first_seen_task_order(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(task_record("b", status=STATUS_FAILED))
        ledger.append(task_record("a"))
        ledger.append(task_record("b", status=STATUS_OK))
        ledger.compact()
        records, _ = ledger.records()
        assert [r["fingerprint"] for r in records if r["type"] == "task"] == ["b", "a"]

    def test_compact_is_idempotent(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(task_record("f1"))
        first = ledger.compact()
        assert ledger.compact() == first

    def test_append_after_compact_does_not_duplicate_header(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = BatchLedger(path)
        ledger.append(task_record("f1"))
        ledger.compact()
        ledger.append(task_record("f2"))
        ledger.close()
        with open(path, "r", encoding="utf-8") as handle:
            headers = [
                line for line in handle if json.loads(line)["type"] == "header"
            ]
        assert len(headers) == 1

    def test_compact_leaves_no_temp_files(self, tmp_path):
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(task_record("f1"))
        ledger.compact()
        assert [f for f in os.listdir(tmp_path) if ".tmp" in f] == []
