"""Instrumented access to student data, used to audit train/test isolation."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from .activity import StudentRecord


class AccessMonitor:
    """Counts (phase, student_id, field) reads of sequences and labels."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._phases: list[str] = []

    @property
    def current_phase(self) -> str:
        return self._phases[-1] if self._phases else "idle"

    @contextmanager
    def phase(self, tag: str):
        self._phases.append(tag)
        try:
            yield self
        finally:
            self._phases.pop()

    def record(self, student_id: str, field: str) -> None:
        self.counts[(self.current_phase, student_id, field)] += 1


class NullMonitor(AccessMonitor):
    """Monitor that ignores everything; keeps call sites unconditional."""

    def record(self, student_id: str, field: str) -> None:
        pass


class TrackedRecord:
    """Proxy over a StudentRecord that reports sequence and label reads."""

    __slots__ = ("_record", "_monitor")

    def __init__(self, record: StudentRecord, monitor: AccessMonitor):
        self._record = record
        self._monitor = monitor

    @property
    def student_id(self) -> str:
        return self._record.student_id

    @property
    def sequence(self):
        self._monitor.record(self._record.student_id, "sequence")
        return self._record.sequence

    @property
    def label(self) -> int:
        self._monitor.record(self._record.student_id, "label")
        return self._record.label


def track_records(records, monitor: AccessMonitor) -> dict[str, TrackedRecord]:
    return {r.student_id: TrackedRecord(r, monitor) for r in records}
