"""The simulator: a clock plus an event queue.

Components interact with the simulator exclusively through
:meth:`Simulator.schedule` (relative delay) and :meth:`Simulator.at`
(absolute time).  The simulator itself knows nothing about caches or
networks; it only fires callbacks in timestamp order.
"""

from heapq import heappop, heappush

from repro.engine.event_queue import EventQueue
from repro.errors import DeadlockError, SimulationError


class Simulator:
    """Owns the simulated clock and drives the event loop.

    Parameters
    ----------
    max_events:
        Safety valve: abort if more than this many events fire in one call
        to :meth:`run` (guards against protocol livelock in tests).
    """

    __slots__ = ("now", "queue", "max_events", "events_fired", "_running", "_deadlock_hooks")

    def __init__(self, max_events=None):
        self.now = 0
        self.queue = EventQueue()
        self.max_events = max_events
        self.events_fired = 0
        self._running = False
        self._deadlock_hooks = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, callback, *args):
        """Fire ``callback(*args)`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined EventQueue.push — this is the hottest call in the
        # simulator; ``now + delay`` is non-negative by construction.
        queue = self.queue
        queue._seq += 1
        heappush(queue._heap, (self.now + delay, queue._seq, callback, args))

    def at(self, time, callback, *args):
        """Fire ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        queue = self.queue
        queue._seq += 1
        heappush(queue._heap, (time, queue._seq, callback, args))

    def add_deadlock_hook(self, hook):
        """Register ``hook() -> str | None`` consulted when the queue drains.

        If any hook returns a non-empty string, the simulation is considered
        deadlocked and :class:`~repro.errors.DeadlockError` is raised with
        the concatenated diagnostics.
        """
        self._deadlock_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self):
        """Fire the single earliest event.  Returns False if none remain."""
        if not self.queue:
            return False
        time, callback, args = self.queue.pop()
        self.now = time
        self.events_fired += 1
        callback(*args)
        return True

    def run(self, until=None):
        """Run until the queue drains (or past ``until`` cycles).

        Returns the final simulated time.  Raises
        :class:`~repro.errors.DeadlockError` if the queue drains while a
        registered deadlock hook reports outstanding work.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired_at_entry = self.events_fired
        heap = self.queue._heap  # inlined EventQueue.pop: the hot loop
        max_events = self.max_events
        try:
            if until is None and max_events is None:
                # The common (benchmark) shape: no bound checks per event.
                while heap:
                    time, _seq, callback, args = heappop(heap)
                    self.now = time
                    self.events_fired += 1
                    callback(*args)
                self._check_deadlock()
            else:
                while heap:
                    if until is not None and heap[0][0] > until:
                        self.now = until
                        break
                    time, _seq, callback, args = heappop(heap)
                    self.now = time
                    self.events_fired += 1
                    callback(*args)
                    if (
                        max_events is not None
                        and self.events_fired - fired_at_entry > max_events
                    ):
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely livelock"
                        )
                else:
                    self._check_deadlock()
        finally:
            self._running = False
        return self.now

    def _check_deadlock(self):
        diagnostics = [msg for hook in self._deadlock_hooks for msg in [hook()] if msg]
        if diagnostics:
            raise DeadlockError(
                "event queue drained with outstanding work:\n  " + "\n  ".join(diagnostics)
            )


class BucketSimulator(Simulator):
    """A simulator over per-cycle event buckets instead of one flat heap.

    Most simulated cycles hold several events (every message hop lands
    with its completion, drain and delivery neighbours), so keying the
    heap by *cycle* and appending same-cycle events to a plain list cuts
    the heap traffic by the mean bucket occupancy.  Append order is
    schedule order, which is exactly the sequence-number tie-break of the
    flat heap — firing order is identical, event for event.  The default
    engine runs on it; the interpreted oracle (``compiled_dispatch`` off)
    and watched runs keep the flat heap.
    """

    __slots__ = ("_buckets", "_times")

    def __init__(self, max_events=None):
        super().__init__(max_events=max_events)
        self._buckets = {}
        self._times = []  # heap of cycles that currently hold a bucket

    def schedule(self, delay, callback, *args):
        """Fire ``callback(*args)`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(callback, args)]
            heappush(self._times, time)
        else:
            bucket.append((callback, args))

    def at(self, time, callback, *args):
        """Fire ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(callback, args)]
            heappush(self._times, time)
        else:
            bucket.append((callback, args))

    def step(self):
        """Fire the single earliest event.  Returns False if none remain."""
        if not self._times:
            return False
        time = self._times[0]
        bucket = self._buckets[time]
        callback, args = bucket.pop(0)
        if not bucket:
            del self._buckets[time]
            heappop(self._times)
        self.now = time
        self.events_fired += 1
        callback(*args)
        return True

    def run(self, until=None):
        """Run until the queue drains (or past ``until`` cycles).

        The bucket stays registered during its sweep, so a same-cycle
        event scheduled mid-sweep appends to it — and the plain ``for``
        fires it in this very sweep: a list iterator is index-based and
        visits elements appended during iteration.  That is exactly the
        flat heap's order (same time, later seq fires last), and
        ``len(bucket)`` after the sweep counts the appends too.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired_at_entry = self.events_fired
        times = self._times
        buckets = self._buckets
        max_events = self.max_events
        try:
            if until is None and max_events is None:
                # The common (benchmark) shape: no bound checks per bucket.
                while times:
                    time = heappop(times)
                    self.now = time
                    bucket = buckets[time]
                    for callback, args in bucket:
                        callback(*args)
                    self.events_fired += len(bucket)
                    del buckets[time]
                self._check_deadlock()
            else:
                while times:
                    if until is not None and times[0] > until:
                        self.now = until
                        break
                    time = heappop(times)
                    self.now = time
                    bucket = buckets[time]
                    # Counted and bounded per event, as the flat heap is:
                    # both queues must stop at the same event.
                    for callback, args in bucket:
                        callback(*args)
                        self.events_fired += 1
                        if (
                            max_events is not None
                            and self.events_fired - fired_at_entry > max_events
                        ):
                            raise SimulationError(
                                f"exceeded max_events={max_events}; likely livelock"
                            )
                    del buckets[time]
                else:
                    self._check_deadlock()
        finally:
            self._running = False
        return self.now
