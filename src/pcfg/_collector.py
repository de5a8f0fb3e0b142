"""A pause of the cyclic garbage collector shared by both constructors.

Every object a construction allocates stays live until it returns, so a
collection during construction would walk a growing heap and free
nothing. Reference counting still frees the construction's state once
it is dropped.
"""

from __future__ import annotations

import gc
import threading


class CollectorPause:
    """Keeps the cyclic garbage collector off while any construction runs
    in any thread, and turns it back on only if it was on when the first
    of them began."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore:
                gc.enable()


COLLECTOR_PAUSE = CollectorPause()
