"""Tests for the write-ahead intake journal (repro.serve.fleet).

The journal is the fleet's durability story: an accepted 202 must
survive shard crashes, supervisor crashes and torn writes.  Unit tests
drive :class:`WriteAheadJournal` directly; the integration test
SIGKILLs a real shard with journaled work outstanding and requires the
replacement fleet state to replay it.  Every journal file the fleet
writes must validate against the registered schema
(``repro.serve/intake_journal/1``) through the stock validator CLI.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.obs.schema import INTAKE_JOURNAL_SCHEMA, validate_document
from repro.serve import FleetThread, ServeClient
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
        journal.admit(job_doc("a"), shard=0)
        journal.admit(job_doc("b"), shard=0)
        assert journal.live_count == 2
        assert journal.retire("a")
        assert journal.retire("b")
        assert journal.live_count == 0
        journal.close()

    def test_truncates_file_when_drained(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        journal = WriteAheadJournal(str(path))
        journal.admit(job_doc("a"), shard=0)
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
        first.admit(job_doc("a"), shard=1)
        first.admit(job_doc("b", dict(TINY, seed=7)), shard=1)
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
        first.admit(job_doc("a"), shard=0)
        first.close()
        second = WriteAheadJournal(path)
        second.admit(job_doc("b"), shard=0)
        second.close()
        seqs = [
            json.loads(line)["seq"]
            for line in open(path)
        ]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestJournalTornLines:
    def test_torn_trailing_line_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        journal = WriteAheadJournal(path)
        journal.admit(job_doc("a"), shard=0)
        journal.admit(job_doc("b"), shard=0)
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
        journal.admit(job_doc("a"), shard=2)
        journal.admit(job_doc("b"), shard=2)
        journal.retire("a")
        journal.close()
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                assert record["schema"] == INTAKE_JOURNAL_SCHEMA
                assert validate_document(record) == []

    def test_validator_cli_accepts_a_real_journal(self, tmp_path):
        """``python -m repro.obs.validate`` passes a journal file."""
        path = str(tmp_path / "shard.jsonl")
        journal = WriteAheadJournal(path)
        journal.admit(job_doc("a"), shard=0)
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


class TestJournalReplayIntegration:
    def test_sigkill_with_live_journal_replays_every_job(self, tmp_path):
        """Kill a shard holding journaled work; nothing may be lost."""
        fleet = FleetThread(
            shards=2,
            fleet_dir=str(tmp_path / "state"),
            cache_dir=str(tmp_path / "cache"),
            heartbeat_deadline=1.5,
        )
        fleet.start()
        try:
            client = ServeClient(fleet.base_url, connect_retries=5)
            specs = [
                dict(TINY, thetas=[60 + 10 * i, 20, 20, 20])
                for i in range(6)
            ]
            accepted = client.submit(specs)
            ids = [doc["id"] for doc in accepted]
            # The journals hold every accepted job until it retires.
            supervisor = fleet.supervisor
            journal_live = sum(
                shard.journal.live_count for shard in supervisor.shards
            )
            assert journal_live == len(specs)
            victim = supervisor.shards[0]
            victim_live = [
                doc["id"] for doc in victim.journal.live_jobs()
            ]
            os.kill(victim.pid, signal.SIGKILL)
            records = client.wait(ids, timeout=300)
            assert all(
                records[job_id]["status"] == "done" for job_id in ids
            )
            # The killed shard's journaled jobs were replayed, and every
            # journal drained once the work retired.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if all(
                    shard.journal.live_count == 0
                    for shard in supervisor.shards
                ):
                    break
                time.sleep(0.2)
            assert all(
                shard.journal.live_count == 0
                for shard in supervisor.shards
            )
            if victim_live:
                assert supervisor.replayed_jobs >= len(victim_live)
        finally:
            fleet.stop()
