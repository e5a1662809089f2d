"""Request generators: a saturating burst and a seeded open-loop schedule.

Both call ``submit(request_id, clip_index)``, which returns a future or
raises ``RequestRejected``.  Every future gets a done callback that
stamps its completion time on the thread that resolved it, so a
request's latency ends when its result exists, not when the generator
next looks.

The open loop sends on a fixed schedule whatever the server does:
Poisson due times drawn from the seed, and after any stall (the batch
worker holding the interpreter lock, a slow ``submit``) every overdue
request goes out before the generator sleeps again.  Latency is taken
from each request's due time, so a stall counts against every request
it delayed, and ``lag`` records how late each one was actually sent.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Optional

import numpy as np

SUCCEEDED, FAILED, REJECTED = 1, 2, 3


def poisson_schedule(rate: float, seconds: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Due offsets (s from phase start) of a Poisson process at ``rate``/s."""
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected ** 0.5) + 16)
    due = np.cumsum(gaps)
    while due[-1] < seconds:
        due = np.concatenate([due, due[-1] + np.cumsum(
            rng.exponential(1.0 / rate, size=expected + 16))])
    return due[due < seconds]


class Phase:
    """Per-request record of one phase: when due, sent and done; outcome."""

    def __init__(self, name: str, count: int, pool_size: int,
                 rejected_error: type):
        self.name = name
        self.due = np.full(count, np.nan)
        self.sent = np.full(count, np.nan)
        self.done = np.full(count, np.nan)
        self.status = np.zeros(count, dtype=np.int8)
        self.labels = np.full(count, -1, dtype=np.int64)
        self.pool_size = pool_size
        self.count = 0
        self.start = 0.0
        self._rejected_error = rejected_error
        self._accepted = 0
        # Done callbacks run on the batch worker; they only append here
        # (atomic under the interpreter lock) and drain() files the rows.
        # Keeping no future alive keeps the collector's work, and so its
        # pauses, independent of how many requests a phase sends.
        self._resolved = []

    def grow(self) -> None:
        """Double the per-request arrays (a burst does not know its count)."""
        size = len(self.due)
        for attribute, fill in (("due", np.nan), ("sent", np.nan),
                                ("done", np.nan), ("status", 0),
                                ("labels", -1)):
            old = getattr(self, attribute)
            new = np.full(2 * size, fill, dtype=old.dtype)
            new[:size] = old
            setattr(self, attribute, new)

    def send(self, submit: Callable, request: int):
        """Submit one request; returns its future, or None when refused."""
        self.sent[request] = time.perf_counter()
        self.count = request + 1
        try:
            future = submit(request, request % self.pool_size)
        except self._rejected_error:
            self.status[request] = REJECTED
            return None
        self._accepted += 1
        future.add_done_callback(self._resolver(request))
        return future

    def _resolver(self, request: int):
        def resolved(future) -> None:
            label = -1 if future.exception() is not None \
                else future.result().label
            self._resolved.append((request, time.perf_counter(), label))
        return resolved

    def drain(self) -> None:
        """Wait for every sent request and record how each one ended."""
        while len(self._resolved) < self._accepted:
            time.sleep(0.001)
        for request, done, label in self._resolved:
            self.done[request] = done
            self.status[request] = FAILED if label < 0 else SUCCEEDED
            self.labels[request] = label
        self._resolved = []
        self._accepted = 0

    # ------------------------------------------------------------------
    def sent_ids(self) -> np.ndarray:
        return np.arange(self.count)

    def latencies_ms(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Due-to-done latency; a failed or refused request never meets a
        limit, so it counts as the phase's whole length."""
        ids = self.sent_ids() if ids is None else ids
        latency = (self.done[ids] - self.due[ids]) * 1e3
        missed = self.status[ids] != SUCCEEDED
        if missed.any():
            latency[missed] = (np.nanmax(self.done[:self.count])
                               - self.start) * 1e3
        return latency

    def lag_ms(self) -> np.ndarray:
        ids = self.sent_ids()
        return (self.sent[ids] - self.due[ids]) * 1e3

    def counts(self) -> dict:
        status = self.status[:self.count]
        return {"sent": int(self.count),
                "succeeded": int((status == SUCCEEDED).sum()),
                "failed": int((status == FAILED).sum()),
                "rejected": int((status == REJECTED).sum())}

    def mismatches(self, reference_labels: np.ndarray) -> int:
        """Completed requests whose label differs from the reference."""
        ids = self.sent_ids()
        ok = self.status[ids] == SUCCEEDED
        expected = reference_labels[ids % self.pool_size]
        return int((self.labels[ids][ok] != expected[ok]).sum())


def run_open_loop(name: str, submit: Callable, rate: float, seconds: float,
                  rng: np.random.Generator, pool_size: int,
                  rejected_error: type) -> Phase:
    """Send a Poisson schedule at ``rate``/s for ``seconds``; wait for all."""
    offsets = poisson_schedule(rate, seconds, rng)
    phase = Phase(name, len(offsets), pool_size, rejected_error)
    phase.start = time.perf_counter()
    due = phase.due
    due[:] = phase.start + offsets
    request, total = 0, len(offsets)
    while request < total:
        now = time.perf_counter()
        if due[request] > now:
            time.sleep(due[request] - now)
            continue
        while request < total and due[request] <= now:
            phase.send(submit, request)
            request += 1
    phase.drain()
    return phase


def run_burst(name: str, submit: Callable, seconds: float, window: int,
              pool_size: int, rejected_error: type) -> Phase:
    """Keep ``window`` requests outstanding for ``seconds``; wait for all.

    Every request is due when the phase starts, so its latency is not
    meaningful; the phase measures completions per second.
    """
    phase = Phase(name, 4096, pool_size, rejected_error)
    phase.start = time.perf_counter()
    outstanding = deque()
    request = 0
    while time.perf_counter() - phase.start < seconds:
        while len(outstanding) >= window:
            outstanding.popleft().exception()
        if request == len(phase.due):
            phase.grow()
        phase.due[request] = phase.start
        future = phase.send(submit, request)
        if future is not None:
            outstanding.append(future)
        request += 1
    phase.drain()
    return phase
