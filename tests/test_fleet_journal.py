"""Tests for the write-ahead intake journal (repro.serve.fleet).

The journal is the fleet's durability story: an accepted 202 must
survive shard crashes, router crashes and torn writes.  These tests
drive :class:`WriteAheadJournal` directly: round trips, recovery,
truncation and torn-line tolerance.  Every journal file the router
writes must validate against the registered schema
(``repro.serve/intake_journal/1``) through the stock validator CLI.
The router's use of the journal — replay on cold start, a SIGKILLed
shard losing nothing — is tested in ``tests/test_fleet.py``.
"""

import errno
import json
import os
import subprocess
import sys

import pytest

from repro.obs.schema import INTAKE_JOURNAL_SCHEMA, validate_document
from repro.serve.fleet import WriteAheadJournal

TINY = dict(benchmark="fft", thetas=[60, 20, 20, 20], scale=0.05, seed=0)


def job_doc(job_id, spec=None):
    return {
        "id": job_id,
        "spec": dict(spec or TINY),
        "trace_id": f"trace-{job_id}",
        "submitted_at": 1000.0,
    }


class TestJournalRoundTrip:
    def test_admit_then_retire_leaves_nothing_live(self, tmp_path):
        journal = WriteAheadJournal(str(tmp_path / "shard.jsonl"))
        journal.admit([job_doc("a")])
        journal.admit([job_doc("b")])
        assert journal.live_count == 2
        assert journal.retire("a")
        assert journal.retire("b")
        assert journal.live_count == 0
        journal.close()

    def test_one_admit_fsyncs_a_whole_submission_once(
        self, tmp_path, monkeypatch
    ):
        journal = WriteAheadJournal(str(tmp_path / "intake.jsonl"))
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
        )
        journal.admit([job_doc("a"), job_doc("b"), job_doc("c")])
        assert len(fsyncs) == 1
        assert [doc["id"] for doc in journal.live_jobs()] == ["a", "b", "c"]
        assert journal.admits == 3
        journal.close()

    def test_failed_admit_leaves_no_job_of_it_live(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "intake.jsonl"
        journal = WriteAheadJournal(str(path))
        journal.admit([job_doc("a")])
        size = path.stat().st_size

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError):
            journal.admit([job_doc("b"), job_doc("c")])
        assert [doc["id"] for doc in journal.live_jobs()] == ["a"]
        assert journal.admits == 1
        # The refused lines are cut off; the accepted one stays.
        assert path.stat().st_size == size
        monkeypatch.undo()
        journal.admit([job_doc("d")])
        journal.close()
        recovered = WriteAheadJournal(str(path))
        assert [doc["id"] for doc in recovered.live_jobs()] == ["a", "d"]

    def test_truncates_file_when_drained(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        journal = WriteAheadJournal(str(path))
        journal.admit([job_doc("a")])
        assert path.stat().st_size > 0
        journal.retire("a")
        assert path.stat().st_size == 0
        assert journal.truncations == 1
        journal.close()

    def test_retire_of_unknown_id_is_a_noop(self, tmp_path):
        journal = WriteAheadJournal(str(tmp_path / "shard.jsonl"))
        assert not journal.retire("ghost")
        assert journal.retires == 0
        journal.close()

    def test_recovery_round_trips_the_live_set(self, tmp_path):
        """A fresh instance over the same file sees identical state."""
        path = str(tmp_path / "shard.jsonl")
        first = WriteAheadJournal(path)
        first.admit([job_doc("a")])
        first.admit([job_doc("b", dict(TINY, seed=7))])
        first.retire("a")
        first.close()

        second = WriteAheadJournal(path)
        assert second.live_count == 1
        (live,) = second.live_jobs()
        assert live["id"] == "b"
        assert live["spec"]["seed"] == 7
        assert live["trace_id"] == "trace-b"
        second.close()

    def test_recovered_journal_continues_the_sequence(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        first = WriteAheadJournal(path)
        first.admit([job_doc("a")])
        first.close()
        second = WriteAheadJournal(path)
        second.admit([job_doc("b")])
        second.close()
        with open(path) as fh:
            seqs = [json.loads(line)["seq"] for line in fh]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestJournalTornLines:
    def test_torn_trailing_line_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        journal = WriteAheadJournal(path)
        journal.admit([job_doc("a")])
        journal.admit([job_doc("b")])
        journal.close()
        # Simulate a crash mid-append: the final line is cut short.
        with open(path) as fh:
            content = fh.read()
        with open(path, "w") as fh:
            fh.write(content[: len(content) - 25])

        recovered = WriteAheadJournal(path)
        assert recovered.torn_lines == 1
        assert [doc["id"] for doc in recovered.live_jobs()] == ["a"]
        recovered.close()

    def test_garbage_lines_are_counted_and_skipped(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        with open(path, "w") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"op": "admit", "seq": 0,
                                 "schema": INTAKE_JOURNAL_SCHEMA,
                                 "ts": 1.0, "shard": 0,
                                 "job": job_doc("ok")}) + "\n")
            fh.write("[1, 2, 3]\n")
        journal = WriteAheadJournal(path)
        assert journal.torn_lines == 2
        assert journal.live_count == 1
        journal.close()


class TestJournalSchema:
    def test_every_record_validates_against_the_registry(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        journal = WriteAheadJournal(path)
        journal.admit([job_doc("a")])
        journal.admit([job_doc("b")])
        journal.retire("a")
        journal.close()
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                assert record["schema"] == INTAKE_JOURNAL_SCHEMA
                assert "shard" not in record
                assert validate_document(record) == []

    def test_validator_cli_accepts_a_real_journal(self, tmp_path):
        """``python -m repro.obs.validate`` passes a journal file."""
        path = str(tmp_path / "shard.jsonl")
        journal = WriteAheadJournal(path)
        journal.admit([job_doc("a")])
        journal.close()
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", path],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (os.environ.get("PYTHONPATH"),
                            os.path.join(os.path.dirname(__file__),
                                         "..", "src")) if p
            )),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_validator_rejects_a_malformed_record(self):
        bad = {
            "schema": INTAKE_JOURNAL_SCHEMA,
            "op": "promote",  # not in the enum
            "seq": 0,
            "ts": 1.0,
        }
        assert validate_document(bad)

