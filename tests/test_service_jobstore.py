"""Durable service queue state (PR 10): journal replay idempotence,
torn-tail tolerance, the atomic result-file protocol, and
content-addressed job fingerprints."""

import pytest

from repro.perf import PERF
from repro.service import Job, JobStore, job_fingerprint
from repro.service.jobstore import canonical_json


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "state")


def submit(store, job_id, spec=None, budget=3):
    spec = spec or {"name": job_id, "seeds": [1]}
    fingerprint = job_fingerprint(spec)
    store.append({"kind": "submit", "job_id": job_id,
                  "fingerprint": fingerprint, "spec": spec,
                  "budget": budget})
    return fingerprint


class TestFingerprint:
    def test_name_is_presentation_not_work(self):
        spec = {"name": "a", "seeds": [1, 2], "until": 10.0}
        assert job_fingerprint(spec) \
            == job_fingerprint(dict(spec, name="b"))

    def test_work_fields_matter(self):
        spec = {"name": "a", "seeds": [1, 2], "until": 10.0}
        assert job_fingerprint(spec) \
            != job_fingerprint(dict(spec, seeds=[1, 3]))
        assert job_fingerprint(spec) \
            != job_fingerprint(dict(spec, until=20.0))

    def test_model_path_hashed_by_content(self, tmp_path):
        first = tmp_path / "a.xmi"
        second = tmp_path / "renamed.xmi"
        first.write_text("<model A/>")
        second.write_text("<model A/>")
        spec = {"seeds": [1], "model": str(first), "top": "T"}
        renamed = dict(spec, model=str(second))
        # same bytes under a different path: same work
        assert job_fingerprint(spec) == job_fingerprint(renamed)
        second.write_text("<model B/>")
        assert job_fingerprint(spec) != job_fingerprint(renamed)

    def test_missing_file_falls_back_to_the_path(self, tmp_path):
        spec = {"seeds": [1], "model": str(tmp_path / "gone.xmi"),
                "top": "T"}
        assert job_fingerprint(spec) == job_fingerprint(dict(spec))


class TestJournalReplay:
    def test_empty_state_dir(self, store):
        assert store.replay() == {}

    def test_submit_then_events(self, store):
        fingerprint = submit(store, "job-1")
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "lease"})
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "start"})
        jobs = JobStore(store.root).replay()
        job = jobs["job-1"]
        assert job.state == "running"
        assert job.attempts == 1
        assert job.fingerprint == fingerprint

    def test_replay_is_idempotent(self, store):
        submit(store, "job-1")
        for event in ("lease", "start", "complete", "publish"):
            store.append({"kind": "event", "job_id": "job-1",
                          "event": event})
        once = JobStore(store.root).replay()
        twice = JobStore(store.root).replay()
        assert once["job-1"].status() == twice["job-1"].status()

    def test_duplicate_submit_is_a_noop(self, store):
        submit(store, "job-1")
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "lease"})
        submit(store, "job-1")  # replayed later, must not reset state
        jobs = JobStore(store.root).replay()
        assert jobs["job-1"].state == "leased"

    def test_orphan_events_are_counted_not_fatal(self, store):
        orphans = PERF.counter("service.replay_orphans")
        store.append({"kind": "event", "job_id": "ghost",
                      "event": "lease"})
        jobs = JobStore(store.root).replay()
        assert jobs == {}
        assert PERF.counter("service.replay_orphans") == orphans + 1

    def test_stale_events_are_skipped(self, store):
        skipped = PERF.counter("service.replay_skipped")
        submit(store, "job-1")
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "publish"})  # illegal from queued
        jobs = JobStore(store.root).replay()
        assert jobs["job-1"].state == "queued"
        assert PERF.counter("service.replay_skipped") == skipped + 1

    def test_failed_job_keeps_its_error(self, store):
        submit(store, "job-1")
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "lease"})
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "fail", "error": "bad model"})
        jobs = JobStore(store.root).replay()
        assert jobs["job-1"].state == "failed"
        assert jobs["job-1"].error == "bad model"

    def test_cancel_and_quarantine_keep_their_reasons(self, store):
        submit(store, "job-1")
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "cancel", "error": "client cancel"})
        submit(store, "job-2", budget=0)
        for event in ("lease", "start"):
            store.append({"kind": "event", "job_id": "job-2",
                          "event": event})
        store.append({"kind": "event", "job_id": "job-2",
                      "event": "expire", "reason": "wall-clock watchdog"})
        jobs = JobStore(store.root).replay()
        assert jobs["job-1"].state == "cancelled"
        assert jobs["job-1"].error == "client cancel"
        assert jobs["job-2"].state == "quarantined"
        assert jobs["job-2"].error == ("quarantined after 1 failed "
                                       "lease(s); last: wall-clock "
                                       "watchdog")

    def test_hit_sets_cached_and_result_records_are_ignored(self, store):
        # journals written before the `result` record was retired
        # carry one per delivered job; `cached` follows the `hit` event
        submit(store, "job-1")
        store.append({"kind": "result", "job_id": "job-1",
                      "fingerprint": "fp", "cached": True})
        store.append({"kind": "event", "job_id": "job-1", "event": "hit"})
        submit(store, "job-2", spec={"name": "job-2", "seeds": [2]})
        for event in ("lease", "start", "complete"):
            store.append({"kind": "event", "job_id": "job-2",
                          "event": event})
        store.append({"kind": "result", "job_id": "job-2",
                      "fingerprint": "fp", "cached": True})
        store.append({"kind": "event", "job_id": "job-2",
                      "event": "publish"})
        jobs = JobStore(store.root).replay()
        assert (jobs["job-1"].state, jobs["job-1"].cached) == ("done", True)
        assert (jobs["job-2"].state, jobs["job-2"].cached) \
            == ("done", False)

    def test_seq_resumes_past_everything_seen(self, store):
        submit(store, "job-1")
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "lease"})
        reopened = JobStore(store.root)
        reopened.replay()
        assert reopened.append({"kind": "event", "job_id": "job-1",
                                "event": "start"}) == 3


class TestTornTail:
    def test_half_written_last_line_is_dropped(self, store):
        torn = PERF.counter("journal.torn_records")
        submit(store, "job-1")
        store.append({"kind": "event", "job_id": "job-1",
                      "event": "lease"})
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "event", "job_')
        jobs = JobStore(store.root).replay()
        assert jobs["job-1"].state == "leased"
        assert PERF.counter("journal.torn_records") == torn + 1

    def test_records_after_a_torn_tail_survive_the_next_replay(self,
                                                               store):
        """A crash tears the journal; the next boot accepts a job; a
        second crash must not lose it."""
        submit(store, "job-1")
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "kind": "sub')
        second_boot = JobStore(store.root)
        assert list(second_boot.replay()) == ["job-1"]
        submit(second_boot, "job-2")
        second_boot.close()
        torn = PERF.counter("journal.torn_records")
        jobs = JobStore(store.root).replay()
        assert sorted(jobs) == ["job-1", "job-2"]
        assert jobs["job-2"].seq == 2
        assert PERF.counter("journal.torn_records") == torn

    def test_blank_lines_are_not_torn(self, store):
        torn = PERF.counter("journal.torn_records")
        submit(store, "job-1")
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        jobs = JobStore(store.root).replay()
        assert jobs["job-1"].state == "queued"
        assert PERF.counter("journal.torn_records") == torn


class TestResultFiles:
    def test_write_is_canonical_and_atomic(self, store):
        payload = {"b": 2, "a": [1, {"z": True}]}
        path = store.write_result("job-1", payload)
        text = path.read_text()
        assert text == canonical_json(payload) + "\n"
        assert store.read_result("job-1") == payload

    def test_rewrite_same_payload_is_byte_identical(self, store):
        payload = {"ok": True, "result": {"seeds": [3, 1, 2]}}
        first = store.write_result("job-1", payload).read_bytes()
        second = store.write_result("job-1", payload).read_bytes()
        assert first == second

    def test_missing_or_torn_result_reads_none(self, store):
        assert store.read_result("nope") is None
        store.result_path("torn").write_text('{"ok": tru')
        assert store.read_result("torn") is None

    def test_scratch_paths_are_per_attempt(self, store):
        first = store.result_scratch("job-1", 1)
        second = store.result_scratch("job-1", 2)
        assert first != second
        assert first.parent == second.parent
        assert first.parent.name == "tmp"


class TestJobRow:
    def test_status_row_shape(self):
        job = Job("job-1", "fp", {"name": "sweep", "seeds": [1, 2]}, 1)
        row = job.status()
        assert row == {"job_id": "job-1", "fingerprint": "fp",
                       "state": "queued", "attempts": 0, "budget": 3,
                       "cached": False, "error": "", "name": "sweep",
                       "seeds": 2}
