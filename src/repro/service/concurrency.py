"""Concurrency primitives of the serving layer.

The serving layer promises that concurrent ``recommend``/``serve_batch``
calls interleave safely with ``add_workbooks``/``remove_workbook``
mutations.  The promise is implemented with one reader-writer lock per
workspace (many concurrent serves *or* one exclusive mutation) plus the
mutex inside every shared cache (each is a `repro.cache.LRU`) so that
several workspaces can drive one trained encoder from different threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class ReadWriteLock:
    """A writer-preferring reader-writer lock.

    Any number of readers may hold the lock simultaneously; a writer holds
    it exclusively.  Arriving writers block *new* readers (writer
    preference), so a steady stream of recommends cannot starve a corpus
    mutation indefinitely.  The lock is not reentrant: a thread must not
    re-acquire either side while already holding one, and lock holders must
    not call back into workspace methods that take the lock.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ----------------------------------------------------------------- readers

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._active_readers -= 1
            if self._active_readers < 0:
                self._active_readers = 0
                raise RuntimeError("release_read without a matching acquire_read")
            if self._active_readers == 0:
                self._condition.notify_all()

    # ----------------------------------------------------------------- writers

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire_write")
            self._writer_active = False
            self._condition.notify_all()

    # ------------------------------------------------------- context managers

    @contextmanager
    def read_lock(self):
        """``with lock.read_lock():`` — shared (serving) access."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_lock(self):
        """``with lock.write_lock():`` — exclusive (mutating) access."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()
