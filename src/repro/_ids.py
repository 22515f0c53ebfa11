"""Deterministic element identifier generation.

UML tools assign every model element an ``xmi:id``.  For reproducible
tests, benchmarks and diffs we generate *deterministic* ids: a process-
wide counter combined with a short type tag, e.g. ``Class_17``.  XMI
import preserves the original ids from the file instead, and moves the
counter past them (:func:`reserve_ids`).

The counter can be reset (:func:`reset_ids`) so that test cases and
benchmarks produce identical ids on every run.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable

_lock = threading.Lock()
_counter = itertools.count(1)


def next_id(type_tag: str) -> str:
    """Return a fresh deterministic id such as ``"Class_42"``.

    ``type_tag`` is conventionally the element's class name; it keeps
    serialized models human-readable.
    """
    with _lock:
        return f"{type_tag}_{next(_counter)}"


def reset_ids(start: int = 1) -> None:
    """Restart the id counter (tests/benchmarks call this for determinism)."""
    global _counter
    with _lock:
        _counter = itertools.count(start)


def reserve_ids(ids: Iterable[str]) -> None:
    """Move the counter past every ``<Tag>_<n>`` id in ``ids``.

    XMI import keeps a file's ids, so an element created after a load
    must not draw one of them.  Suffixes of 19 digits or more are
    skipped: the counter cannot reach them.
    """
    largest = 0
    for xmi_id in ids:
        suffix = xmi_id.rpartition("_")[2]
        if suffix.isdecimal() and len(suffix) < 19:
            number = int(suffix)
            if number > largest:
                largest = number
    global _counter
    with _lock:
        # restarting at the drawn value keeps it: nothing is skipped
        _counter = itertools.count(max(next(_counter), largest + 1))
