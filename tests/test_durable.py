"""The shared durable-file primitives: the atomic writer, the journal's
torn-tail rule, and typed errors for well-formed lines of the wrong
shape in both journals that use it."""

import re

import pytest

from repro.durable import Journal, atomic_write
from repro.errors import FaultError, ServiceError
from repro.faults import read_journal
from repro.perf import PERF
from repro.service import JobStore


class TestAtomicWrite:
    @pytest.mark.parametrize("failure", ("write", "rename"))
    def test_failed_write_leaves_no_temp_file(self, tmp_path, failure):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        target = tmp_path / "out.json"
        if failure == "write":
            target.write_text("old")
            with pytest.raises(TypeError):
                atomic_write(target, None, tmp_dir=scratch)
            assert target.read_text() == "old"
        else:
            target.mkdir()  # os.replace cannot land a file on a directory
            with pytest.raises(OSError):
                atomic_write(target, "new", tmp_dir=scratch)
        assert not list(scratch.iterdir())


class TestJournal:
    @pytest.mark.parametrize("existing, kept", (
        ('{"n":1}\n{"n":', '{"n":1}\n'),
        ('{"n":', ''),
        ('{"n":1}\n{"s":"' + "x" * 10000, '{"n":1}\n'),
        ('{"n":1}\n{"n":3}', '{"n":1}\n{"n":3}\n'),
    ), ids=("torn-last-line", "torn-only-line", "torn-line-over-4k",
            "unterminated-record"))
    def test_first_append_cuts_a_torn_tail(self, tmp_path, existing,
                                           kept):
        path = tmp_path / "j.jsonl"
        path.write_text(existing)
        journal = Journal(path)
        journal.append({"n": 2})
        journal.close()
        assert path.read_text() == kept + '{"n":2}\n'
        torn = PERF.counter("journal.torn_records")
        assert [record for _, record in journal.records()][-1] == {"n": 2}
        assert PERF.counter("journal.torn_records") == torn


HEADER = '{"spec":{},"status":"header"}'

MALFORMED = {
    "ok-without-seed": ("campaign", [HEADER, '{"row":{},"status":"ok"}']),
    "list-line": ("campaign", [HEADER, "[1, 2]"]),
    "string-seed": ("campaign",
                    [HEADER, '{"row":{},"seed":"x","status":"ok"}']),
    "no-header": ("campaign",
                  ['{"job_id":"job-000001","kind":"submit","seq":1}']),
    "service-list-line": ("service", ["[1, 2]"]),
    "service-string-seq": ("service",
                           ['{"kind":"event","seq":"x"}']),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_journal_is_a_typed_error(tmp_path, case):
    reader, lines = MALFORMED[case]
    path = tmp_path / "journal.jsonl"
    path.write_text("\n".join(lines) + "\n")
    where = rf"{re.escape(str(path))}\W* line {len(lines)}"
    if reader == "campaign":
        with pytest.raises(FaultError, match=where):
            read_journal(str(path))
    else:
        with pytest.raises(ServiceError, match=where):
            JobStore(tmp_path).replay()
